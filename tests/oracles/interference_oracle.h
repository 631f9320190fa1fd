// Test-only oracle for InterferenceTracker::evaluate: the original
// O(sub-intervals x S) rescan, which partitions the window at every
// interferer edge and re-sums the interference of each sub-interval from
// scratch. The swept evaluator must agree with it to rounding.
#pragma once

#include <cstdint>

#include "phy/error_model.h"
#include "phy/interference.h"
#include "sim/time.h"

namespace cmap::oracles {

/// Success probability and worst SINR for decoding `bits` of frame
/// `target_frame_id` over [begin, end), over the tracker's signals() —
/// the same contract as InterferenceTracker::evaluate.
phy::ChunkOutcome evaluate(const phy::InterferenceTracker& tracker,
                           std::uint64_t target_frame_id, sim::Time begin,
                           sim::Time end, double bits, phy::WifiRate rate,
                           const phy::ErrorModel& model, double sinr_scale);

}  // namespace cmap::oracles
