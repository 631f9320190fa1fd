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
  const std::uint64_t fa = a.frame ? a.frame->id : 0;
  const std::uint64_t fb = b.frame ? b.frame->id : 0;
  return fa < fb;
}
}  // namespace

void InterferenceTracker::add(Signal signal) {
  longest_ = std::max(longest_, signal.end - signal.start);
  if (signals_.empty() || !arrives_before(signal, signals_.back())) {
    signals_.push_back(std::move(signal));
    return;
  }
  const auto at = std::upper_bound(signals_.begin(), signals_.end(), signal,
                                   arrives_before);
  signals_.insert(at, std::move(signal));
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
  for (const auto& s : signals_) {
    if (s.frame && s.frame->id == frame_id) return &s;
  }
  return nullptr;
}

template <class OnChunk>
void InterferenceTracker::sweep(std::uint64_t target_frame_id, sim::Time begin,
                                sim::Time end, OnChunk&& on_chunk) const {
  const Signal* target = find(target_frame_id);
  CMAP_ASSERT(target != nullptr, "evaluating unknown frame");
  if (end <= begin) return;

  // One +power/-power edge per overlapping foreign signal boundary, clipped
  // to the window; signals already active at `begin` fold into the base
  // sum. Frameless signals (raw energy) count as interference.
  edges_.clear();
  double interference = 0.0;
  for (const auto& s : signals_) {
    if (s.frame && s.frame->id == target_frame_id) continue;
    if (s.end <= begin || s.start >= end) continue;
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
  for (const auto& s : signals_) {
    if (s.start <= t && s.end > t) {
      p.total_mw += s.power_mw;
      p.max_mw = std::max(p.max_mw, s.power_mw);
    }
  }
  return p;
}

}  // namespace cmap::phy
