// Test-only oracles for the testbed measurement pass (§5.1):
//  - the per-pair stratified Monte-Carlo PRR estimator that
//    LinkMeasurement's tabulated fading average replaced. Each directed
//    pair draws its fading offsets from its own substream, so the estimate
//    is a genuine sampling path independent of the table's quadrature grid;
//  - MeasurementMatrix, the n^2 reference for Testbed's CSR pair store:
//    every directed pair measured, and every statistic Testbed derives
//    from its pair state recomputed by brute force over the full matrices.
#pragma once

#include <utility>
#include <vector>

#include "phy/types.h"
#include "sim/random.h"
#include "testbed/measurement.h"
#include "testbed/testbed.h"

namespace cmap::oracles {

/// `samples` stratified fading draws from `stream`, one uniform per
/// stratum, each through m.probe_success(). Stratification keeps the
/// estimate within 1/samples of the exact fading average, because the
/// integrand is monotone. Without fading it is probe_success(mean_dbm).
double monte_carlo_prr(const testbed::LinkMeasurement& m, double mean_dbm,
                       sim::Rng stream, int samples);

/// Every directed pair of `tb`, each estimated at its mean signal from the
/// pair's fading substream (root tb.config().seed, pair_stream_id): the
/// matrix [from * n + to], 0 on the diagonal.
std::vector<double> monte_carlo_prr_matrix(const testbed::Testbed& tb,
                                           int samples);

/// Full n^2 PRR and signal matrices of `tb`'s building, each pair taken
/// from LinkMeasurement::measure_one (the per-pair primitive the CSR is
/// built from, so a correct store agrees exactly), with the percentiles,
/// the three §5.1 predicates, the calibration statistics and the neighbor
/// views recomputed by plain scans over every pair.
class MeasurementMatrix {
 public:
  explicit MeasurementMatrix(const testbed::Testbed& tb);

  int size() const { return n_; }
  double prr(phy::NodeId from, phy::NodeId to) const {
    return prr_[at(from, to)];
  }
  double signal_dbm(phy::NodeId from, phy::NodeId to) const {
    return signal_[at(from, to)];
  }
  /// Percentile (testbed::percentile_of) of the signals of every directed
  /// pair at or above the delivery floor.
  double signal_percentile(double p) const;

  bool in_range(phy::NodeId a, phy::NodeId b) const;
  bool potential_link(phy::NodeId a, phy::NodeId b) const;
  bool strong_signal(phy::NodeId from, phy::NodeId to) const;

  /// Ascending b with signal_dbm(a, b) at or above the delivery floor.
  std::vector<phy::NodeId> connected_neighbors(phy::NodeId a) const;
  /// Ascending b with potential_link(a, b).
  std::vector<phy::NodeId> potential_neighbors(phy::NodeId a) const;
  /// Every potential link, (from, to)-lexicographic.
  std::vector<std::pair<phy::NodeId, phy::NodeId>> potential_links() const;
  testbed::Testbed::LinkClasses link_classes() const;
  double mean_degree() const;

 private:
  std::size_t at(phy::NodeId from, phy::NodeId to) const {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) + to;
  }

  int n_ = 0;
  double floor_dbm_ = 0.0;
  std::vector<double> prr_;     // [from * n + to]; 0 on the diagonal
  std::vector<double> signal_;  // [from * n + to]; -300 on the diagonal
  std::vector<double> connected_signals_;  // ascending
  double p10_ = 0.0;
  double p90_ = 0.0;
};

}  // namespace cmap::oracles
