#include "oracles/measurement_oracle.h"

#include <algorithm>

namespace cmap::oracles {

double monte_carlo_prr(const testbed::LinkMeasurement& m, double mean_dbm,
                       sim::Rng stream, int samples) {
  samples = std::max(1, samples);
  const double sigma = m.spec().fading_sigma_db;
  if (sigma <= 0.0) return m.probe_success(mean_dbm);
  double sum = 0.0;
  for (int k = 0; k < samples; ++k) {
    // One uniform draw per stratum: u_k in [k/N, (k+1)/N).
    const double u = (static_cast<double>(k) + stream.uniform()) /
                     static_cast<double>(samples);
    sum += m.probe_success(mean_dbm + sigma * testbed::inverse_normal_cdf(u));
  }
  return sum / static_cast<double>(samples);
}

std::vector<double> monte_carlo_prr_matrix(const testbed::Testbed& tb,
                                           int samples) {
  const testbed::LinkMeasurement m(tb.config().measurement_spec(),
                                   tb.propagation(), tb.error_model());
  const sim::Rng root(tb.config().seed);
  const auto n = static_cast<phy::NodeId>(tb.size());
  std::vector<double> prr(static_cast<std::size_t>(n) * n, 0.0);
  for (phy::NodeId i = 0; i < n; ++i) {
    for (phy::NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      prr[static_cast<std::size_t>(i) * n + j] = monte_carlo_prr(
          m, tb.signal_dbm(i, j),
          root.substream(0xfade, testbed::pair_stream_id(i, j)), samples);
    }
  }
  return prr;
}

}  // namespace cmap::oracles
