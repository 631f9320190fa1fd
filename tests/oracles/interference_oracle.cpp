#include "oracles/interference_oracle.h"

#include <algorithm>
#include <vector>

#include "sim/assert.h"

namespace cmap::oracles {

phy::ChunkOutcome evaluate(const phy::InterferenceTracker& tracker,
                           std::uint64_t target_frame_id, sim::Time begin,
                           sim::Time end, double bits, phy::WifiRate rate,
                           const phy::ErrorModel& model, double sinr_scale) {
  phy::ChunkOutcome out;
  const std::vector<phy::Signal>& signals = tracker.signals();
  const auto target = std::find_if(
      signals.begin(), signals.end(),
      [&](const phy::Signal& s) { return s.frame_id == target_frame_id; });
  CMAP_ASSERT(target_frame_id != 0 && target != signals.end(),
              "evaluating unknown frame");
  if (end <= begin) return out;

  std::vector<sim::Time> points;
  points.push_back(begin);
  points.push_back(end);
  for (const auto& s : signals) {
    if (s.frame_id == target_frame_id) continue;
    if (s.start > begin && s.start < end) points.push_back(s.start);
    if (s.end > begin && s.end < end) points.push_back(s.end);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  const double window = static_cast<double>(end - begin);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const sim::Time t0 = points[i];
    const sim::Time t1 = points[i + 1];
    double interference = 0.0;
    for (const auto& s : signals) {
      if (s.frame_id == target_frame_id) continue;
      if (s.start < t1 && s.end > t0) interference += s.power_mw;
    }
    const double sinr = target->power_mw / (tracker.noise_mw() + interference);
    out.min_sinr = std::min(out.min_sinr, sinr);
    const double chunk_bits = bits * static_cast<double>(t1 - t0) / window;
    out.success_prob *=
        model.chunk_success(sinr / sinr_scale, chunk_bits, rate);
  }
  return out;
}

phy::ActivePower active_power(const phy::InterferenceTracker& tracker,
                              sim::Time t) {
  phy::ActivePower p;
  for (const auto& s : tracker.signals()) {
    if (s.start <= t && s.end > t) {
      p.total_mw += s.power_mw;
      p.max_mw = std::max(p.max_mw, s.power_mw);
    }
  }
  return p;
}

}  // namespace cmap::oracles
