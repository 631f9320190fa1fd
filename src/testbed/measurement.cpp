#include "testbed/measurement.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "phy/spatial_index.h"
#include "phy/units.h"
#include "sim/assert.h"
#include "sim/parallel.h"
#include "sim/random.h"

namespace cmap::testbed {
namespace {

// Resolution of the no-fading success table. Decode probability transitions
// over a few dB (coded OFDM is sharp, but not 0.02-dB sharp), so linear
// interpolation at this step is far below the fast-path tolerance.
constexpr double kSuccessStepDb = 0.02;

// Fading-averaged PRR table resolution, in dB of mean received power.
constexpr double kPrrStepDb = 0.05;

// Fading strata per PRR table entry (quadrature accuracy ~1/strata
// worst-case, far better in practice).
constexpr int kPrrStrata = 512;

// Fading tail coverage: quadrature strata reach |z| <= ~3.3 sigma at
// kPrrStrata; 8 sigma bounds the mass any grid can ignore (~6e-16).
constexpr double kTailSigmas = 8.0;

double lerp_table(const std::vector<double>& table, double lo, double step,
                  double x) {
  if (x <= lo) return table.front();
  const double rank = (x - lo) / step;
  const auto idx = static_cast<std::size_t>(rank);
  if (idx + 1 >= table.size()) return table.back();
  const double frac = rank - static_cast<double>(idx);
  return table[idx] * (1.0 - frac) + table[idx + 1] * frac;
}

}  // namespace

double inverse_normal_cdf(double p) {
  p = std::clamp(p, 1e-300, 1.0 - 1e-16);
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

std::uint64_t pair_stream_id(phy::NodeId from, phy::NodeId to) {
  return sim::mix64((static_cast<std::uint64_t>(from) << 32) |
                    static_cast<std::uint64_t>(to));
}

double percentile_of(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

LinkMeasurement::LinkMeasurement(
    const LinkMeasurementSpec& spec,
    std::shared_ptr<const phy::PropagationModel> propagation,
    std::shared_ptr<const phy::ErrorModel> error_model)
    : spec_(spec),
      propagation_(std::move(propagation)),
      error_model_(std::move(error_model)) {
  CMAP_ASSERT(propagation_ != nullptr, "measurement needs a propagation model");
  CMAP_ASSERT(error_model_ != nullptr, "measurement needs an error model");
  // A negative or NaN guard shrinks the candidate radius and silently
  // drops connected pairs from the CSR.
  sim::require_valid(std::isfinite(spec_.config.sparse_guard_sigmas) &&
                         spec_.config.sparse_guard_sigmas >= 0.0,
                     "MeasurementConfig", "sparse_guard_sigmas",
                     spec_.config.sparse_guard_sigmas);
  noise_mw_ = phy::dbm_to_mw(spec_.radio.noise_floor_dbm);
  impl_loss_linear_ = phy::db_to_linear(spec_.radio.implementation_loss_db);
  // + MAC overhead, matching the live probe framing.
  probe_bits_ = 8.0 * static_cast<double>(spec_.probe_bytes + 28);
  gate_dbm_ = std::max(spec_.radio.sensitivity_dbm,
                       spec_.radio.noise_floor_dbm +
                           spec_.radio.preamble_min_sinr_db);
  // Without fading fast_prr() short-circuits to probe_success().
  if (spec_.fading_sigma_db > 0.0) build_tables();
}

double LinkMeasurement::probe_success(double rx_dbm) const {
  if (rx_dbm < spec_.radio.sensitivity_dbm) return 0.0;  // no lock
  const double sinr = phy::dbm_to_mw(rx_dbm) / noise_mw_;
  if (phy::linear_to_db(sinr) < spec_.radio.preamble_min_sinr_db) return 0.0;
  return error_model_->chunk_success(sinr / impl_loss_linear_, probe_bits_,
                                     spec_.probe_rate);
}

void LinkMeasurement::build_tables() {
  const double sigma = std::max(0.0, spec_.fading_sigma_db);
  // PRR grid: from "a +8-sigma fade still misses the lock gate" up to
  // "a -8-sigma fade still saturates the error model" (coded success hits
  // exactly 1 well before gate + 85 dB for every supported rate).
  prr_lo_dbm_ = gate_dbm_ - kTailSigmas * sigma;
  const double prr_hi_dbm = gate_dbm_ + 85.0;
  // Success grid: wide enough for every faded lookup the PRR grid makes.
  success_lo_dbm_ = prr_lo_dbm_ - kTailSigmas * sigma;
  const double success_hi_dbm = prr_hi_dbm + kTailSigmas * sigma;

  const auto success_entries = static_cast<std::size_t>(
      (success_hi_dbm - success_lo_dbm_) / kSuccessStepDb) + 2;
  success_table_.resize(success_entries);
  for (std::size_t i = 0; i < success_entries; ++i) {
    success_table_[i] =
        probe_success(success_lo_dbm_ + static_cast<double>(i) * kSuccessStepDb);
  }

  const auto prr_entries =
      static_cast<std::size_t>((prr_hi_dbm - prr_lo_dbm_) / kPrrStepDb) + 2;
  prr_table_.resize(prr_entries);
  // Midpoint-stratified quadrature over the fading Gaussian: fade offsets
  // at the quantile midpoints, equal weights.
  std::vector<double> offsets(static_cast<std::size_t>(kPrrStrata));
  for (int k = 0; k < kPrrStrata; ++k) {
    offsets[static_cast<std::size_t>(k)] =
        sigma * inverse_normal_cdf((static_cast<double>(k) + 0.5) /
                                   static_cast<double>(kPrrStrata));
  }
  for (std::size_t i = 0; i < prr_entries; ++i) {
    const double mean = prr_lo_dbm_ + static_cast<double>(i) * kPrrStepDb;
    double sum = 0.0;
    for (const double off : offsets) sum += success_from_table(mean + off);
    prr_table_[i] = sum / static_cast<double>(kPrrStrata);
  }
}

double LinkMeasurement::success_from_table(double rx_dbm) const {
  return lerp_table(success_table_, success_lo_dbm_, kSuccessStepDb, rx_dbm);
}

double LinkMeasurement::fast_prr(double mean_dbm) const {
  if (spec_.fading_sigma_db <= 0.0) return probe_success(mean_dbm);
  if (mean_dbm < prr_lo_dbm_) return 0.0;  // beyond any +8-sigma fade
  return lerp_table(prr_table_, prr_lo_dbm_, kPrrStepDb, mean_dbm);
}

std::pair<double, double> LinkMeasurement::measure_one(
    phy::NodeId from, phy::NodeId to, const phy::Position& from_pos,
    const phy::Position& to_pos) const {
  const double s = propagation_->rx_power_dbm(spec_.radio.tx_power_dbm, from,
                                              to, from_pos, to_pos);
  return {fast_prr(s), s};
}

LinkMeasurementResult LinkMeasurement::measure(
    const std::vector<phy::Position>& positions) const {
  const auto n = positions.size();
  // Candidate radius: beyond it no pair can clear the delivery floor
  // within the guard band (infinite when the model cannot bound itself —
  // the grid then degenerates to all pairs, sparse only in storage).
  const double radius = phy::max_candidate_range_m(
      *propagation_, spec_.radio.tx_power_dbm, spec_.delivery_floor_dbm,
      spec_.config.sparse_guard_sigmas);
  const double pitch =
      std::isfinite(radius) ? std::clamp(radius, 1.0, 1.0e5) : 64.0;
  phy::SpatialGrid grid(pitch);
  for (std::size_t i = 0; i < n; ++i) {
    grid.insert(static_cast<std::uint32_t>(i), positions[i]);
  }

  // Per-row buffers keep the pass shard-parallel and deterministic: each
  // row's output depends only on (seed, pair), and CSR assembly below is
  // a fixed-order concatenation.
  struct Row {
    std::vector<phy::NodeId> dst;
    std::vector<double> prr, signal;
  };
  std::vector<Row> rows(n);
  sim::parallel_for(spec_.config.threads, n, [&](std::size_t row) {
    const auto i = static_cast<phy::NodeId>(row);
    std::vector<std::uint32_t> cand;
    grid.query(positions[row], radius, &cand);
    Row& out = rows[row];
    for (const std::uint32_t c : cand) {  // ascending — rows come out sorted
      if (c == row) continue;
      const auto j = static_cast<phy::NodeId>(c);
      const auto [p, s] = measure_one(i, j, positions[row], positions[c]);
      if (s < spec_.delivery_floor_dbm) continue;  // candidate, not connected
      out.dst.push_back(j);
      out.prr.push_back(p);
      out.signal.push_back(s);
    }
  });

  LinkMeasurementResult result;
  result.row_begin.reserve(n + 1);
  result.row_begin.push_back(0);
  std::size_t total = 0;
  for (const Row& r : rows) {
    total += r.dst.size();
    CMAP_ASSERT(total <= 0xffffffffu, "sparse link count overflows CSR index");
    result.row_begin.push_back(static_cast<std::uint32_t>(total));
  }
  result.dst.reserve(total);
  result.prr.reserve(total);
  result.signal.reserve(total);
  for (Row& r : rows) {
    result.dst.insert(result.dst.end(), r.dst.begin(), r.dst.end());
    result.prr.insert(result.prr.end(), r.prr.begin(), r.prr.end());
    result.signal.insert(result.signal.end(), r.signal.begin(),
                         r.signal.end());
  }
  // Every stored signal cleared the floor, so the connected population is
  // exactly the stored one.
  result.connected_signals = result.signal;
  std::sort(result.connected_signals.begin(), result.connected_signals.end());
  result.p10 = percentile_of(result.connected_signals, 10.0);
  result.p90 = percentile_of(result.connected_signals, 90.0);
  return result;
}

}  // namespace cmap::testbed
