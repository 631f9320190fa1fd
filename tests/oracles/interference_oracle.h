// Test-only oracles for InterferenceTracker's queries, each a scan of every
// tracked signal with no windowing:
//  - evaluate: the original O(sub-intervals x S) rescan, which partitions
//    the window at every interferer edge and re-sums the interference of
//    each sub-interval from scratch. The swept evaluator must agree with it
//    to rounding, and bit for bit when every partial power sum is exact.
//  - active_power: the whole-vector scan, summing in vector order. The
//    windowed query sums the same signals in the same order: bit for bit.
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

/// Total and strongest power of the tracker's signals active at `t` — the
/// same contract as InterferenceTracker::active_power.
phy::ActivePower active_power(const phy::InterferenceTracker& tracker,
                              sim::Time t);

}  // namespace cmap::oracles
