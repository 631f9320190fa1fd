#include "sim/random.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

namespace cmap::sim {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentSequences) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, SubstreamsAreIndependentOfParentDraws) {
  Rng a(7);
  Rng sub_before = a.substream(1, 2);
  for (int i = 0; i < 50; ++i) a.next_u64();
  Rng sub_after = a.substream(1, 2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sub_before.next_u64(), sub_after.next_u64());
  }
}

TEST(Rng, SubstreamsWithDifferentTagsDiffer) {
  Rng a(7);
  Rng s1 = a.substream(1, 0);
  Rng s2 = a.substream(2, 0);
  Rng s3 = a.substream(1, 1);
  EXPECT_NE(s1.next_u64(), s2.next_u64());
  Rng s1b = a.substream(1, 0);
  s1b.next_u64();
  EXPECT_NE(s1b.next_u64(), s3.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng r(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng r(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(29);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

// The split draw behind the medium's fading: a substream's normal_draw()
// holds the uniforms its first normal() turns into a variate, and value()
// is that variate bit for bit, also once scaled and added to a mean the
// way the medium adds a fade to a mean gain.
TEST(NormalDraw, SplitDrawMatchesSubstreamNormalBitForBit) {
  const Rng root(2024);
  const double sigma = 2.0;
  std::uint64_t value_mismatches = 0, faded_mismatches = 0;
  for (std::uint64_t key = 0; key < 1'000'000; ++key) {
    const std::uint64_t tag = mix64(key);
    const std::uint64_t id = key % 977;
    const NormalDraw d = root.substream(tag, id).normal_draw();
    const double gain = -104.0 + 1e-3 * static_cast<double>(key % 20'000);
    Rng s = root.substream(tag, id);
    value_mismatches += std::bit_cast<std::uint64_t>(d.value()) !=
                        std::bit_cast<std::uint64_t>(s.normal());
    Rng t = root.substream(tag, id);
    faded_mismatches +=
        std::bit_cast<std::uint64_t>(gain + sigma * d.value()) !=
        std::bit_cast<std::uint64_t>(gain + t.normal(0.0, sigma));
  }
  EXPECT_EQ(value_mismatches, 0u);
  EXPECT_EQ(faded_mismatches, 0u);
}

TEST(NormalDraw, DrawAdvancesTheGeneratorLikeNormal) {
  Rng a(5), b(5);
  for (int i = 0; i < 1000; ++i) {
    const NormalDraw d = a.normal_draw();
    EXPECT_GT(d.u1, 0.0);
    EXPECT_LT(d.u1, 1.0);
    EXPECT_EQ(d.value(), b.normal());
    b.normal();  // the cached sine variate: no draw of its own
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(31);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, UniformIntIsUnbiasedAcrossBuckets) {
  Rng r(37);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_int(0, 9)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

}  // namespace
}  // namespace cmap::sim
