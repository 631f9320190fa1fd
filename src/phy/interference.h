// Tracks the signals impinging on one radio and evaluates chunked SINR:
// a reception window is partitioned at interference change-points, each
// sub-interval contributes (1 - BER)^bits, and the product is the success
// probability of that window (the ns-3 InterferenceHelper approach).
//
// evaluate() runs as a single event-sweep over the sorted start/end edges
// of overlapping signals, maintaining a running interference sum — O(S log
// S) in the number of tracked signals instead of the O(sub-intervals x S)
// rescan of the original implementation, which lives on as the test-only
// oracle in tests/oracles/interference_oracle.h.
//
// Signals are kept in (start, frame id) order: the order in which delivery
// events run at one receiver (sim::delivery_rank). A signal the medium adds
// at transmit time, ahead of its arrival (an inert arrival, phy/radio.h),
// lands exactly where its arrival event would have put it, so every power
// sum runs over the same signals in the same order either way. Queries
// already ignore signals that have not started yet: active_power(t) counts
// only start <= t, and evaluate() skips a signal with start >= end.
//
// The order also bounds every query to a slice of the vector. A signal
// that overlaps the window [t, end), or is active at the instant t, starts
// after t - longest, where longest is the longest duration add() has seen,
// and before end (at or before t). So sweep() and active_power() binary-
// search the first start past t - longest and stop at the first start
// beyond the query: the signals they skip could not have counted, and the
// ones they keep are summed in the same order as a scan of the whole
// vector.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "phy/error_model.h"
#include "sim/time.h"

namespace cmap::phy {

/// One signal as seen at one receiver: plain data, so the tracker copies
/// and compacts it without touching a reference count. Frame id 0 marks
/// raw energy (e.g. injected noise), which interferes but can never be a
/// decoding target. The frame itself stays with whoever needs its contents
/// (the radio keeps the frames it can still lock to or salvage).
struct Signal {
  std::uint64_t frame_id = 0;
  double power_mw = 0.0;  // received power (after fading) at this radio
  sim::Time start = 0;
  sim::Time end = 0;
};
static_assert(std::is_trivially_copyable_v<Signal>);

struct ChunkOutcome {
  double success_prob = 1.0;
  double min_sinr = 1e30;  // linear; worst sub-interval SINR
};

/// Power on the air at one instant (mW): the sum over active signals and
/// the strongest single one — the two carrier-sense inputs.
struct ActivePower {
  double total_mw = 0.0;
  double max_mw = 0.0;
};

class InterferenceTracker {
 public:
  explicit InterferenceTracker(double noise_floor_mw)
      : noise_mw_(noise_floor_mw) {}

  /// Track `signal`, and record its duration if it is the longest seen.
  /// Inserts in (start, frame id) order, equal keys keeping add order.
  /// Adds that arrive in that order, as delivery events do, are appends.
  void add(const Signal& signal);

  /// Drop the signals that no query from `now` on can see: those with
  /// end < now - longest, where longest is the longest duration add() has
  /// seen. A query from `now` on is a window inside some signal X that is
  /// on the air at `now` or arrives later, or an instant >= `now`. Such an
  /// X starts at or after now - longest, and a dropped signal ended before
  /// that, so it overlaps none of these queries. Callers must pass a
  /// non-decreasing `now` and make no query before it.
  ///
  /// Amortized: the O(S) compaction only runs once the vector has grown
  /// past a threshold that doubles with the surviving size, so a caller
  /// pruning on every delivery pays O(1) amortized and expired signals may
  /// linger in signals(). Compaction keeps the signals' order, so every
  /// power sum runs over the same signals in the same order as without
  /// pruning: results are bit-identical.
  void prune(sim::Time now);

  /// The tracked signal carrying frame `frame_id`, or null (always for
  /// id 0, raw energy). Scans from the newest signal: the frames a radio
  /// asks about are on the air, near the back.
  const Signal* find(std::uint64_t frame_id) const;

  /// Success probability and worst SINR for decoding `bits` of frame
  /// `target_frame_id` over the window [begin, end) at `rate`, given all
  /// other tracked signals and the noise floor. `sinr_scale` divides the
  /// SINR before the error model (implementation loss).
  ChunkOutcome evaluate(std::uint64_t target_frame_id, sim::Time begin,
                        sim::Time end, double bits, WifiRate rate,
                        const ErrorModel& model, double sinr_scale) const;

  /// Linear SINR of the target over [begin, end) — worst sub-interval.
  double min_sinr(std::uint64_t target_frame_id, sim::Time begin,
                  sim::Time end) const;

  /// Total and strongest power of the signals active at time `t`, in one
  /// pass (a signal is active on [start, end)).
  ActivePower active_power(sim::Time t) const;

  const std::vector<Signal>& signals() const { return signals_; }
  double noise_mw() const { return noise_mw_; }

 private:
  // The first signal that can overlap an instant or window beginning at
  // `t`: the first with start > t - longest_.
  std::vector<Signal>::const_iterator first_overlap(sim::Time t) const;

  std::vector<Signal> signals_;
  // The chunking sweep behind evaluate() and min_sinr(): calls
  // on_chunk(sinr, length) for each sub-interval of [begin, end) over
  // which the interference is constant, in time order.
  template <class OnChunk>
  void sweep(std::uint64_t target_frame_id, sim::Time begin, sim::Time end,
             OnChunk&& on_chunk) const;

  double noise_mw_;
  sim::Time longest_ = 0;  // longest end - start add() has seen
  std::size_t compact_at_ = 0;
  // Sweep-edge scratch, reused across sweep() calls to avoid a per-call
  // allocation. A tracker belongs to one radio in one (single-threaded)
  // simulation, so the mutable buffer is never contended.
  struct Edge {
    sim::Time t;
    double delta;
  };
  mutable std::vector<Edge> edges_;
};

}  // namespace cmap::phy
