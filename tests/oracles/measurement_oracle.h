// Test-only oracle for the testbed measurement pass (§5.1): the per-pair
// stratified Monte-Carlo PRR estimator that LinkMeasurement's tabulated
// fading average replaced. Each directed pair draws its fading offsets
// from its own substream, so the estimate is a genuine sampling path
// independent of the table's quadrature grid.
#pragma once

#include <vector>

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

/// Every directed pair of `tb`, each estimated at tb.signal_dbm() from the
/// pair's fading substream (root tb.config().seed, pair_stream_id): the
/// matrix [from * n + to], 0 on the diagonal.
std::vector<double> monte_carlo_prr_matrix(const testbed::Testbed& tb,
                                           int samples);

}  // namespace cmap::oracles
