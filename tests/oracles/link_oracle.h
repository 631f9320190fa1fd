// Test-only oracle for phy::Medium's link rows. A row is an index over the
// pair state, not an approximation of it, so it must hold exactly what a
// brute-force scan finds: every other attached radio whose mean gain,
// asked of the propagation model directly, clears the cull floor
// (delivery floor minus the fading guard band), with that gain and the
// propagation delay bit for bit, sorted by attach index. The scan reads
// only the medium's public propagation(), radios() and config(), never
// its rows, spatial grid or watch lists.
#pragma once

#include <string>
#include <vector>

#include "phy/medium.h"
#include "phy/types.h"

namespace cmap::oracles {

/// Brute-force row of `source`: one entry per other attached radio whose
/// mean gain clears the cull floor, in attach order.
std::vector<phy::Medium::RowLink> brute_row(const phy::Medium& medium,
                                            phy::NodeId source);

/// Empty when medium.row(source) equals brute_row(medium, source) entry
/// for entry (same receivers in the same order, gains and delays
/// bit-equal); otherwise a description of the first difference.
std::string audit_row(const phy::Medium& medium, phy::NodeId source);

/// audit_row over every attached radio; the first difference found.
std::string audit_all_rows(const phy::Medium& medium);

}  // namespace cmap::oracles
