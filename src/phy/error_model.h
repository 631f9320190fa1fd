// Packet error models: map SINR to the probability that a run of bits
// decodes correctly. The default model follows the structure of the NIST
// error-rate model used by ns-3: modulation-specific uncoded BER, then a
// hard-decision union bound over the convolutional code's distance
// spectrum. An implementation-loss factor (applied by the radio) shifts
// the idealized curves toward what commodity hardware achieves.
//
// Most chunks a busy network evaluates sit at SINRs where the coded BER is
// so small that the result is exactly 1.0, so NistErrorModel skips the math
// there. Per rate it bisects (once, at construction) for an SINR at which
// the computed coded_ber is <= 2^-80, and chunk_success returns 1.0 at or
// above it. That is the value the formula gives: it returns
// pow(1 - ber, bits), and 1 - ber rounds to exactly 1.0 in double once
// ber <= 2^-54. The coded BER falls monotonically with SINR in exact
// arithmetic (uncoded BER falls, the union bound rises with it), so above
// the cutoff the exact BER is at most the cutoff's; erfc, sqrt and pow err
// by a few ulps, and the 2^26 factor between 2^-80 and 2^-54 dwarfs that.
#pragma once

#include <array>

#include "phy/wifi_rate.h"

namespace cmap::phy {

class ErrorModel {
 public:
  virtual ~ErrorModel() = default;

  /// Probability that `bits` consecutive coded-data bits at `rate` all
  /// decode correctly at linear SINR `sinr`. `bits` is fractional because
  /// interference chunking slices packets at arbitrary boundaries.
  virtual double chunk_success(double sinr, double bits,
                               WifiRate rate) const = 0;
};

/// NIST-style analytic model (see file comment). Produces the sharp
/// PRR-vs-SNR transitions characteristic of coded OFDM, which is what makes
/// testbed links look bimodal (mostly dead or perfect, few in between).
class NistErrorModel final : public ErrorModel {
 public:
  /// `bandwidth_hz` converts channel SINR to per-bit Eb/N0
  /// (Eb/N0 = SINR * bandwidth / bitrate).
  explicit NistErrorModel(double bandwidth_hz = 20e6);

  double chunk_success(double sinr, double bits, WifiRate rate) const override;

  /// Coded bit error rate at the given linear SINR (exposed for tests and
  /// for closed-form PRR computations in topology calibration).
  double coded_ber(double sinr, WifiRate rate) const;

  /// Linear SINR at and above which chunk_success returns 1.0 without
  /// evaluating the model (see the file comment).
  double certain_sinr(WifiRate rate) const {
    return certain_sinr_[static_cast<int>(rate)];
  }

 private:
  double bandwidth_hz_;
  std::array<double, kNumWifiRates> certain_sinr_{};
};

/// Step-function model: perfect above the per-rate SINR threshold, dead
/// below. Useful for deterministic protocol unit tests.
class ThresholdErrorModel final : public ErrorModel {
 public:
  explicit ThresholdErrorModel(double threshold_db = 3.0);
  double chunk_success(double sinr, double bits, WifiRate rate) const override;

 private:
  double threshold_linear_;
};

}  // namespace cmap::phy
