#include "phy/error_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "phy/units.h"

namespace cmap::phy {
namespace {

TEST(NistErrorModel, SuccessMonotonicInSinr) {
  NistErrorModel m;
  double prev = 0.0;
  for (double db = -10.0; db <= 20.0; db += 0.5) {
    const double s = m.chunk_success(db_to_linear(db), 11200, WifiRate::k6Mbps);
    EXPECT_GE(s, prev - 1e-12) << "at " << db << " dB";
    prev = s;
  }
}

TEST(NistErrorModel, HighSinrDecodesLowSinrFails) {
  NistErrorModel m;
  EXPECT_GT(m.chunk_success(db_to_linear(15.0), 11200, WifiRate::k6Mbps),
            0.999);
  EXPECT_LT(m.chunk_success(db_to_linear(-10.0), 11200, WifiRate::k6Mbps),
            1e-6);
}

TEST(NistErrorModel, TransitionLiesInPlausibleBand) {
  // The idealized (pre implementation-loss) PRR=0.5 crossing for a 1400 B
  // frame at 6 Mbit/s should be in the low single-digit dB range.
  NistErrorModel m;
  double crossing = -100;
  for (double db = -10.0; db <= 15.0; db += 0.01) {
    if (m.chunk_success(db_to_linear(db), 11200, WifiRate::k6Mbps) >= 0.5) {
      crossing = db;
      break;
    }
  }
  EXPECT_GT(crossing, -6.0);
  EXPECT_LT(crossing, 6.0);
}

TEST(NistErrorModel, HigherRatesNeedMoreSinr) {
  NistErrorModel m;
  auto crossing = [&](WifiRate rate) {
    for (double db = -10.0; db <= 30.0; db += 0.01) {
      if (m.chunk_success(db_to_linear(db), 11200, rate) >= 0.5) return db;
    }
    return 99.0;
  };
  const double c6 = crossing(WifiRate::k6Mbps);
  const double c12 = crossing(WifiRate::k12Mbps);
  const double c18 = crossing(WifiRate::k18Mbps);
  const double c54 = crossing(WifiRate::k54Mbps);
  EXPECT_LT(c6, c12);
  EXPECT_LT(c12, c18);
  EXPECT_LT(c18, c54);
}

TEST(NistErrorModel, ChunkingIsMultiplicative) {
  // success(a + b bits) == success(a) * success(b) at fixed SINR: the
  // interference chunking relies on this.
  NistErrorModel m;
  const double sinr = db_to_linear(1.5);
  for (auto rate : {WifiRate::k6Mbps, WifiRate::k18Mbps}) {
    const double whole = m.chunk_success(sinr, 10000, rate);
    const double split = m.chunk_success(sinr, 6000, rate) *
                         m.chunk_success(sinr, 4000, rate);
    EXPECT_NEAR(whole, split, 1e-12);
  }
}

TEST(NistErrorModel, ZeroBitsAlwaysSucceed) {
  NistErrorModel m;
  EXPECT_DOUBLE_EQ(m.chunk_success(db_to_linear(-30.0), 0, WifiRate::k6Mbps),
                   1.0);
}

TEST(NistErrorModel, LongerFramesFailMoreOften) {
  NistErrorModel m;
  const double sinr = db_to_linear(1.0);
  EXPECT_LE(m.chunk_success(sinr, 11200, WifiRate::k6Mbps),
            m.chunk_success(sinr, 192, WifiRate::k6Mbps));
}

TEST(NistErrorModel, CodedBerDecreasesWithSinr) {
  NistErrorModel m;
  EXPECT_GT(m.coded_ber(db_to_linear(-5.0), WifiRate::k6Mbps),
            m.coded_ber(db_to_linear(5.0), WifiRate::k6Mbps));
  EXPECT_EQ(m.coded_ber(0.0, WifiRate::k6Mbps), 0.5);
}

TEST(NistErrorModel, AllRatesCoveredByCodeSpectra) {
  // Every table rate must produce a sane BER (exercises 1/2, 2/3, 3/4).
  NistErrorModel m;
  for (int i = 0; i < kNumWifiRates; ++i) {
    const auto rate = static_cast<WifiRate>(i);
    const double ber = m.coded_ber(db_to_linear(25.0), rate);
    EXPECT_GE(ber, 0.0);
    EXPECT_LT(ber, 1e-3) << rate_name(rate);
  }
}

// chunk_success as written before the certain-SINR cutoff.
double uncut_chunk_success(const NistErrorModel& m, double sinr, double bits,
                           WifiRate rate) {
  const double ber = m.coded_ber(sinr, rate);
  if (ber <= 0.0) return 1.0;
  if (ber >= 0.5) return std::pow(0.5, bits);
  return std::pow(1.0 - ber, bits);
}

TEST(NistErrorModel, CertainSinrCutoffIsExact) {
  NistErrorModel m;
  const double kInf = std::numeric_limits<double>::infinity();
  const double bit_counts[] = {0.5, 1.0, 8.0, 1e3, 11200.0, 123456.75, 1e6,
                               1e7};
  for (int i = 0; i < kNumWifiRates; ++i) {
    const auto rate = static_cast<WifiRate>(i);
    const double cutoff = m.certain_sinr(rate);
    SCOPED_TRACE(rate_name(rate));
    ASSERT_GT(cutoff, 1.0);
    // At and above the cutoff the uncut formula already gives exactly 1.0.
    std::vector<double> above = {cutoff, std::nextafter(cutoff, kInf)};
    for (double db = 0.01; db <= 40.0; db *= 1.25) {
      const double sinr = cutoff * db_to_linear(db);
      above.push_back(sinr);
      above.push_back(std::nextafter(sinr, kInf));
    }
    for (double sinr : above) {
      for (double bits : bit_counts) {
        EXPECT_EQ(uncut_chunk_success(m, sinr, bits, rate), 1.0)
            << "sinr " << sinr << " bits " << bits;
      }
    }
    // Across the cutoff chunk_success is the uncut formula, bit for bit.
    std::vector<double> across = {std::nextafter(cutoff, 0.0), cutoff,
                                  std::nextafter(cutoff, kInf)};
    for (double db = -6.0; db <= 6.0; db += 0.125) {
      across.push_back(cutoff * db_to_linear(db));
    }
    for (double sinr : across) {
      for (double bits : bit_counts) {
        EXPECT_EQ(m.chunk_success(sinr, bits, rate),
                  uncut_chunk_success(m, sinr, bits, rate))
            << "sinr " << sinr << " bits " << bits;
      }
    }
  }
}

TEST(ThresholdErrorModel, StepBehaviour) {
  ThresholdErrorModel m(3.0);
  EXPECT_DOUBLE_EQ(m.chunk_success(db_to_linear(3.01), 1e6, WifiRate::k6Mbps),
                   1.0);
  EXPECT_DOUBLE_EQ(m.chunk_success(db_to_linear(2.99), 1, WifiRate::k6Mbps),
                   0.0);
}

TEST(ThresholdErrorModel, ZeroBitsSucceedEvenBelowThreshold) {
  ThresholdErrorModel m(3.0);
  EXPECT_DOUBLE_EQ(m.chunk_success(db_to_linear(-20.0), 0, WifiRate::k6Mbps),
                   1.0);
}

class ErrorModelRateSweep : public ::testing::TestWithParam<int> {};

TEST_P(ErrorModelRateSweep, SuccessMonotonicForEveryRate) {
  NistErrorModel m;
  const auto rate = static_cast<WifiRate>(GetParam());
  double prev = 0.0;
  for (double db = -10.0; db <= 35.0; db += 0.25) {
    const double s = m.chunk_success(db_to_linear(db), 8000, rate);
    EXPECT_GE(s, prev - 1e-12) << rate_name(rate) << " at " << db;
    prev = s;
  }
  EXPECT_GT(prev, 0.999) << rate_name(rate);
}

INSTANTIATE_TEST_SUITE_P(AllRates, ErrorModelRateSweep,
                         ::testing::Range(0, kNumWifiRates));

}  // namespace
}  // namespace cmap::phy
