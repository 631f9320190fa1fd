#include "phy/interference.h"

#include <algorithm>

#include "sim/assert.h"

namespace cmap::phy {
namespace {
// Below this size the compaction scan is cheaper than the bookkeeping to
// avoid it; prune() never compacts a smaller vector.
constexpr std::size_t kMinCompactSize = 16;

// True when `a` sorts before `b` in the tracker's (start, frame id) order.
bool arrives_before(const Signal& a, const Signal& b) {
  if (a.start != b.start) return a.start < b.start;
  return a.frame_id < b.frame_id;
}
}  // namespace

void InterferenceTracker::add(const Signal& signal) {
  longest_ = std::max(longest_, signal.end - signal.start);
  if (signals_.empty() || !arrives_before(signal, signals_.back())) {
    signals_.push_back(signal);
    return;
  }
  const auto at = std::upper_bound(signals_.begin(), signals_.end(), signal,
                                   arrives_before);
  signals_.insert(at, signal);
}

void InterferenceTracker::prune(sim::Time now) {
  if (signals_.size() < std::max(compact_at_, kMinCompactSize)) return;
  const sim::Time horizon = now - longest_;
  std::erase_if(signals_,
                [horizon](const Signal& s) { return s.end < horizon; });
  // Require at least one live signal's worth of growth (and at least the
  // minimum) before scanning again: amortized O(1) per add().
  compact_at_ = 2 * signals_.size();
}

const Signal* InterferenceTracker::find(std::uint64_t frame_id) const {
  if (frame_id == 0) return nullptr;
  for (auto it = signals_.rbegin(); it != signals_.rend(); ++it) {
    if (it->frame_id == frame_id) return &*it;
  }
  return nullptr;
}

std::vector<Signal>::const_iterator InterferenceTracker::first_overlap(
    sim::Time t) const {
  const sim::Time horizon = t - longest_;
  return std::partition_point(
      signals_.begin(), signals_.end(),
      [horizon](const Signal& s) { return s.start <= horizon; });
}

template <class OnChunk>
void InterferenceTracker::sweep(std::uint64_t target_frame_id, sim::Time begin,
                                sim::Time end, OnChunk&& on_chunk) const {
  const Signal* target = find(target_frame_id);
  CMAP_ASSERT(target != nullptr, "evaluating unknown frame");
  if (end <= begin) return;

  // One +power/-power edge per overlapping foreign signal boundary, clipped
  // to the window; signals already active at `begin` fold into the base
  // sum. Raw energy (frame id 0) counts as interference.
  edges_.clear();
  double interference = 0.0;
  for (auto it = first_overlap(begin);
       it != signals_.end() && it->start < end; ++it) {
    const Signal& s = *it;
    if (s.frame_id == target_frame_id || s.end <= begin) continue;
    if (s.start <= begin) {
      interference += s.power_mw;
    } else {
      edges_.push_back({s.start, s.power_mw});
    }
    if (s.end < end) edges_.push_back({s.end, -s.power_mw});
  }
  // The delta tie-break pins the accumulation order at shared change
  // points, keeping results independent of the sort implementation.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.t != b.t ? a.t < b.t : a.delta < b.delta;
  });

  sim::Time t0 = begin;
  std::size_t i = 0;
  for (;;) {
    const sim::Time t1 = i < edges_.size() ? edges_[i].t : end;
    if (t1 > t0) {
      // The +p/-p accumulation can leave a negative rounding residual the
      // per-interval rescan never produces; clamp before the division.
      on_chunk(target->power_mw / (noise_mw_ + std::max(interference, 0.0)),
               t1 - t0);
      t0 = t1;
    }
    if (i >= edges_.size()) break;
    interference += edges_[i].delta;
    ++i;
  }
}

ChunkOutcome InterferenceTracker::evaluate(std::uint64_t target_frame_id,
                                           sim::Time begin, sim::Time end,
                                           double bits, WifiRate rate,
                                           const ErrorModel& model,
                                           double sinr_scale) const {
  ChunkOutcome out;
  const double window = static_cast<double>(end - begin);
  sweep(target_frame_id, begin, end, [&](double sinr, sim::Time length) {
    out.min_sinr = std::min(out.min_sinr, sinr);
    const double chunk_bits = bits * static_cast<double>(length) / window;
    out.success_prob *=
        model.chunk_success(sinr / sinr_scale, chunk_bits, rate);
  });
  return out;
}

double InterferenceTracker::min_sinr(std::uint64_t target_frame_id,
                                     sim::Time begin, sim::Time end) const {
  double worst = ChunkOutcome{}.min_sinr;
  sweep(target_frame_id, begin, end, [&worst](double sinr, sim::Time) {
    worst = std::min(worst, sinr);
  });
  return worst;
}

ActivePower InterferenceTracker::active_power(sim::Time t) const {
  ActivePower p;
  for (auto it = first_overlap(t); it != signals_.end() && it->start <= t;
       ++it) {
    if (it->end > t) {
      p.total_mw += it->power_mw;
      p.max_mw = std::max(p.max_mw, it->power_mw);
    }
  }
  return p;
}

}  // namespace cmap::phy
