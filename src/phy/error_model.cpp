#include "phy/error_model.h"

#include <algorithm>
#include <cmath>

#include "phy/units.h"
#include "sim/assert.h"

namespace cmap::phy {
namespace {

// The certain-SINR cutoff's bound on the computed coded BER (see
// error_model.h).
constexpr double kCertainBer = 0x1p-80;

// Uncoded bit error rates for Gray-coded constellations on AWGN, as a
// function of Eb/N0 (linear).
double bpsk_ber(double ebn0) { return 0.5 * std::erfc(std::sqrt(ebn0)); }

double qam16_ber(double ebn0) {
  return (3.0 / 8.0) * std::erfc(std::sqrt(0.4 * ebn0));
}

double qam64_ber(double ebn0) {
  return (7.0 / 24.0) * std::erfc(std::sqrt(ebn0 / 7.0));
}

double uncoded_ber(Modulation mod, double ebn0) {
  switch (mod) {
    case Modulation::kBpsk:
    case Modulation::kQpsk:  // Gray-coded QPSK matches BPSK per-bit
      return bpsk_ber(ebn0);
    case Modulation::kQam16:
      return qam16_ber(ebn0);
    case Modulation::kQam64:
      return qam64_ber(ebn0);
  }
  return 1.0;
}

// Hard-decision union bound over the K=7 convolutional code's distance
// spectrum; coefficients are the standard information-weight spectra (as
// used by ns-3's NistErrorRateModel). D = sqrt(4 p (1 - p)).
double union_bound_rate12(double D) {
  static constexpr double c[] = {36.0,       0.0, 211.0,      0.0,
                                 1404.0,     0.0, 11633.0,    0.0,
                                 77433.0,    0.0, 502690.0,   0.0,
                                 3322763.0,  0.0, 21292910.0, 0.0,
                                 136764584.0};
  double pe = 0.0;
  double Dd = std::pow(D, 10);  // dfree = 10
  for (double coeff : c) {
    pe += coeff * Dd;
    Dd *= D;
  }
  return 0.5 * pe;
}

double union_bound_rate23(double D) {
  static constexpr double c[] = {3.0,       70.0,      285.0,    1276.0,
                                 6160.0,    27128.0,   117019.0, 498860.0,
                                 2103891.0, 8784123.0};
  double pe = 0.0;
  double Dd = std::pow(D, 6);  // dfree = 6
  for (double coeff : c) {
    pe += coeff * Dd;
    Dd *= D;
  }
  return 0.5 * pe;
}

double union_bound_rate34(double D) {
  static constexpr double c[] = {42.0,      201.0,      1492.0,
                                 10469.0,   62935.0,    379644.0,
                                 2253373.0, 13073811.0, 75152755.0,
                                 428005675.0};
  double pe = 0.0;
  double Dd = std::pow(D, 5);  // dfree = 5
  for (double coeff : c) {
    pe += coeff * Dd;
    Dd *= D;
  }
  return 0.5 * pe;
}

}  // namespace

double NistErrorModel::coded_ber(double sinr, WifiRate rate) const {
  if (sinr <= 0.0) return 0.5;
  const auto& info = rate_info(rate);
  const double ebn0 = sinr * bandwidth_hz_ / info.bits_per_second;
  const double p = std::min(0.5, uncoded_ber(info.modulation, ebn0));
  if (p <= 0.0) return 0.0;
  const double D = std::sqrt(4.0 * p * (1.0 - p));
  double pe;
  if (info.code_rate < 0.6) {
    pe = union_bound_rate12(D);
  } else if (info.code_rate < 0.7) {
    pe = union_bound_rate23(D);
  } else {
    pe = union_bound_rate34(D);
  }
  return std::clamp(pe, 0.0, 0.5);
}

NistErrorModel::NistErrorModel(double bandwidth_hz)
    : bandwidth_hz_(bandwidth_hz) {
  // Bisect in dB between a bracket where every rate still errs (0 dB) and
  // one where every rate's uncoded BER underflows to 0 (60 dB); 32 steps
  // pin the cutoff to ~1e-8 dB. The cutoff only has to be safe, not
  // tight: chunks just below it take the full formula and get 1.0 too.
  for (int i = 0; i < kNumWifiRates; ++i) {
    const auto rate = static_cast<WifiRate>(i);
    double lo_db = 0.0;
    double hi_db = 60.0;
    double hi = db_to_linear(hi_db);
    CMAP_ASSERT(coded_ber(db_to_linear(lo_db), rate) > kCertainBer &&
                    coded_ber(hi, rate) <= kCertainBer,
                "certain-SINR bracket");
    for (int step = 0; step < 32; ++step) {
      const double mid_db = 0.5 * (lo_db + hi_db);
      const double mid = db_to_linear(mid_db);
      if (coded_ber(mid, rate) <= kCertainBer) {
        hi_db = mid_db;
        hi = mid;
      } else {
        lo_db = mid_db;
      }
    }
    certain_sinr_[i] = hi;
  }
}

double NistErrorModel::chunk_success(double sinr, double bits,
                                     WifiRate rate) const {
  CMAP_ASSERT(bits >= 0.0, "negative bit count");
  if (sinr >= certain_sinr_[static_cast<int>(rate)]) return 1.0;
  const double ber = coded_ber(sinr, rate);
  if (ber <= 0.0) return 1.0;
  if (ber >= 0.5) return std::pow(0.5, bits);
  return std::pow(1.0 - ber, bits);
}

ThresholdErrorModel::ThresholdErrorModel(double threshold_db)
    : threshold_linear_(db_to_linear(threshold_db)) {}

double ThresholdErrorModel::chunk_success(double sinr, double bits,
                                          WifiRate /*rate*/) const {
  if (bits <= 0.0) return 1.0;
  return sinr >= threshold_linear_ ? 1.0 : 0.0;
}

}  // namespace cmap::phy
