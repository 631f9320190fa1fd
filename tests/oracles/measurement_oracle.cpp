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
      const double mean_dbm =
          m.measure_one(i, j, tb.position(i), tb.position(j)).second;
      prr[static_cast<std::size_t>(i) * n + j] = monte_carlo_prr(
          m, mean_dbm, root.substream(0xfade, testbed::pair_stream_id(i, j)),
          samples);
    }
  }
  return prr;
}

MeasurementMatrix::MeasurementMatrix(const testbed::Testbed& tb)
    : n_(tb.size()), floor_dbm_(tb.config().medium.delivery_floor_dbm) {
  const testbed::LinkMeasurement m(tb.config().measurement_spec(),
                                   tb.propagation(), tb.error_model());
  const auto n = static_cast<phy::NodeId>(n_);
  prr_.assign(static_cast<std::size_t>(n) * n, 0.0);
  signal_.assign(static_cast<std::size_t>(n) * n, -300.0);
  for (phy::NodeId i = 0; i < n; ++i) {
    for (phy::NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto [p, s] = m.measure_one(i, j, tb.position(i), tb.position(j));
      prr_[at(i, j)] = p;
      signal_[at(i, j)] = s;
      if (s >= floor_dbm_) connected_signals_.push_back(s);
    }
  }
  std::sort(connected_signals_.begin(), connected_signals_.end());
  p10_ = testbed::percentile_of(connected_signals_, 10.0);
  p90_ = testbed::percentile_of(connected_signals_, 90.0);
}

double MeasurementMatrix::signal_percentile(double p) const {
  return testbed::percentile_of(connected_signals_, p);
}

bool MeasurementMatrix::in_range(phy::NodeId a, phy::NodeId b) const {
  return prr(a, b) > 0.2 && prr(b, a) > 0.2 && signal_dbm(a, b) >= p10_ &&
         signal_dbm(b, a) >= p10_;
}

bool MeasurementMatrix::potential_link(phy::NodeId a, phy::NodeId b) const {
  return prr(a, b) > 0.9 && prr(b, a) > 0.9 && signal_dbm(a, b) >= p10_ &&
         signal_dbm(b, a) >= p10_;
}

bool MeasurementMatrix::strong_signal(phy::NodeId from, phy::NodeId to) const {
  return signal_dbm(from, to) >= p90_;
}

std::vector<phy::NodeId> MeasurementMatrix::connected_neighbors(
    phy::NodeId a) const {
  std::vector<phy::NodeId> out;
  for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n_); ++b) {
    if (b != a && signal_dbm(a, b) >= floor_dbm_) out.push_back(b);
  }
  return out;
}

std::vector<phy::NodeId> MeasurementMatrix::potential_neighbors(
    phy::NodeId a) const {
  std::vector<phy::NodeId> out;
  for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n_); ++b) {
    if (b != a && potential_link(a, b)) out.push_back(b);
  }
  return out;
}

std::vector<std::pair<phy::NodeId, phy::NodeId>>
MeasurementMatrix::potential_links() const {
  std::vector<std::pair<phy::NodeId, phy::NodeId>> out;
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n_); ++a) {
    for (const phy::NodeId b : potential_neighbors(a)) out.emplace_back(a, b);
  }
  return out;
}

testbed::Testbed::LinkClasses MeasurementMatrix::link_classes() const {
  testbed::Testbed::LinkClasses out;
  int dead = 0, mid = 0, perfect = 0;
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(n_); ++i) {
    for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(n_); ++j) {
      if (i == j || signal_dbm(i, j) < floor_dbm_) continue;
      ++out.connected_pairs;
      const double p = prr(i, j);
      if (p < 0.1) {
        ++dead;
      } else if (p < 0.95) {
        ++mid;
      } else {
        ++perfect;
      }
    }
  }
  if (out.connected_pairs > 0) {
    const double total = out.connected_pairs;
    out.frac_dead = dead / total;
    out.frac_mid = mid / total;
    out.frac_perfect = perfect / total;
  }
  return out;
}

double MeasurementMatrix::mean_degree() const {
  double total = 0;
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(n_); ++i) {
    for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(n_); ++j) {
      if (i != j && (prr(i, j) > 0.1 || prr(j, i) > 0.1)) ++total;
    }
  }
  return total / n_;
}

}  // namespace cmap::oracles
