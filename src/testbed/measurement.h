// The testbed "measurement pass": PRR and mean signal strength for every
// connected directed pair (mean signal at or above the delivery floor),
// stored as a CSR. Candidates come from a spatial grid, so the pass never
// walks the n^2 pair space; any other pair is answered on demand by
// measure_one().
//
// Key insight behind the fast path: with one shared RadioConfig, probe
// rate and probe size, the fading-averaged packet reception rate is a pure
// 1-D function of the pair's mean received power. So PRR is tabulated ONCE
// over a fine dBm grid (stratified Gaussian quadrature over the fading
// distribution, near-exact) and each pair costs a single table
// interpolation instead of `samples` error-model evaluations. Both
// references live in tests/oracles/measurement_oracle.h: the per-pair
// Monte-Carlo estimator the table replaced (built on probe_success(),
// pair_stream_id() and inverse_normal_cdf()), and the full n^2 matrices
// built from measure_one() over every pair.
//
// The per-pair loop (propagation + lookup) shards across
// sim::parallel_for; results are identical for any thread count because
// every pair's output depends only on (seed, pair).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "phy/error_model.h"
#include "phy/propagation.h"
#include "phy/radio.h"
#include "phy/types.h"
#include "phy/wifi_rate.h"

namespace cmap::testbed {

struct MeasurementConfig {
  /// Threads sharding the per-pair loop; 0 = sim::default_thread_count().
  /// Results are identical for any value.
  int threads = 1;
  /// Confidence (in model sigmas) of measure()'s candidate radius: a pair
  /// outside it would need a shadowing realization beyond this many sigmas
  /// to clear the delivery floor. At the default 6 the per-pair miss
  /// probability is ~1e-9. Must be finite and >= 0, else LinkMeasurement
  /// aborts: a negative or NaN guard would shrink the radius and silently
  /// drop connected pairs from the CSR.
  double sparse_guard_sigmas = 6.0;
  bool operator==(const MeasurementConfig&) const = default;
};

/// Substream id for the directed pair's fading draws. SplitMix64-mixes the
/// packed pair so distinct pairs always get distinct streams — the old
/// `from * 1000 + to` packing collided once testbeds passed 1000 nodes
/// (e.g. (0,1005) and (1,5)).
std::uint64_t pair_stream_id(phy::NodeId from, phy::NodeId to);

/// Inverse standard normal CDF, Acklam's rational approximation
/// (|relative error| < 1.2e-9). `p` is clamped into (0, 1).
double inverse_normal_cdf(double p);

/// Linear-interpolated percentile (0-100) over an ascending-sorted sample.
/// THE percentile definition for signal strengths: Testbed's predicates
/// compare against values cached at measurement time, so every computation
/// must share this one implementation. NaN when `sorted` is empty.
double percentile_of(const std::vector<double>& sorted, double p);

/// Everything the measurement pass needs, decoupled from TestbedConfig
/// (testbed.h composes one of these from its own fields).
struct LinkMeasurementSpec {
  phy::RadioConfig radio;  // shared by all nodes
  // Defaults mirror phy::MediumConfig's; note Testbed overrides the floor
  // to -110 via TestbedConfig::default_medium(), so standalone users who
  // want Testbed-identical connected_signals/p10/p90 must copy the floor
  // from the same MediumConfig.
  double fading_sigma_db = 2.0;        // per-probe lognormal fading
  double delivery_floor_dbm = -104.0;  // "any connectivity" threshold
  phy::WifiRate probe_rate = phy::WifiRate::k6Mbps;
  std::size_t probe_bytes = 1400;
  std::uint64_t seed = 1;    // root of the per-pair fading substreams
  MeasurementConfig config;
};

struct LinkMeasurementResult {
  std::vector<double> connected_signals;  // sorted ascending
  double p10 = 0.0;  // 10th / 90th percentile of connected_signals,
  double p90 = 0.0;  // NaN when no pair clears the delivery floor
  // CSR over directed pairs whose mean signal clears the delivery floor;
  // row r covers dst/prr/signal indices [row_begin[r], row_begin[r + 1]),
  // dst ascending within a row.
  std::vector<std::uint32_t> row_begin;  // size n + 1
  std::vector<phy::NodeId> dst;
  std::vector<double> prr;
  std::vector<double> signal;  // dBm
};

class LinkMeasurement {
 public:
  LinkMeasurement(const LinkMeasurementSpec& spec,
                  std::shared_ptr<const phy::PropagationModel> propagation,
                  std::shared_ptr<const phy::ErrorModel> error_model);

  /// Measure the connected pairs of `positions` without touching the n^2
  /// pair space: a spatial grid limits evaluation to pairs within the
  /// propagation model's guard-banded candidate radius
  /// (phy::max_candidate_range_m over the delivery floor), and only pairs
  /// whose mean signal actually clears the floor are stored.
  LinkMeasurementResult measure(
      const std::vector<phy::Position>& positions) const;

  /// One directed pair, computed exactly as measure() would — the lazy
  /// path for pairs outside the CSR. Returns {prr, signal_dbm}.
  std::pair<double, double> measure_one(phy::NodeId from, phy::NodeId to,
                                        const phy::Position& from_pos,
                                        const phy::Position& to_pos) const;

  const LinkMeasurementSpec& spec() const { return spec_; }

  /// Interpolate the tabulated fading-averaged PRR at the pair's mean
  /// received power.
  double fast_prr(double mean_dbm) const;

  /// Probability a probe decodes at received power `rx_dbm` with no
  /// fading: the preamble-lock gates, then the error model over the probe
  /// bits. fast_prr() averages this function over the fading Gaussian.
  double probe_success(double rx_dbm) const;

 private:
  void build_tables();
  double success_from_table(double rx_dbm) const;

  LinkMeasurementSpec spec_;
  std::shared_ptr<const phy::PropagationModel> propagation_;
  std::shared_ptr<const phy::ErrorModel> error_model_;

  // Derived constants.
  double noise_mw_ = 0.0;
  double impl_loss_linear_ = 1.0;
  double probe_bits_ = 0.0;
  double gate_dbm_ = 0.0;  // below this received power, decode prob is 0

  // PRR tables (built only with fading; ~ms to build).
  double success_lo_dbm_ = 0.0;
  std::vector<double> success_table_;  // probe_success on a fine grid
  double prr_lo_dbm_ = 0.0;
  std::vector<double> prr_table_;  // fading-averaged PRR, kPrrStepDb apart
};

}  // namespace cmap::testbed
