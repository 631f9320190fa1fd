// The LinkMeasurement subsystem: the tabulated PRR must agree with the
// per-pair Monte-Carlo oracle (tests/oracles/measurement_oracle.h) within
// tight tolerances, the pair substream derivation must be collision-free,
// results must not depend on the measurement thread count, and the
// TestbedCache must hand back the identical instance on a hit.
#include "testbed/measurement.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "oracles/measurement_oracle.h"
#include "testbed/testbed.h"

namespace cmap::testbed {
namespace {

// ---- Fading substream derivation (regression: key collisions) ----

TEST(PairStreamId, PreviouslyCollidingPairsGetDistinctStreams) {
  // The old `from * 1000 + to` packing mapped these pairs to one key as
  // soon as a testbed passed 1000 nodes.
  EXPECT_EQ(0u * 1000 + 1005, 1u * 1000 + 5);  // the documented collision
  EXPECT_NE(pair_stream_id(0, 1005), pair_stream_id(1, 5));
  EXPECT_NE(pair_stream_id(2, 2030), pair_stream_id(0, 4030));
  // The streams themselves must differ, not just the ids.
  sim::Rng root(1);
  sim::Rng a = root.substream(0xfade, pair_stream_id(0, 1005));
  sim::Rng b = root.substream(0xfade, pair_stream_id(1, 5));
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(PairStreamId, NoCollisionsAcrossLargePairSpace) {
  // Every directed pair over 1400 node ids (spanning the old 1000-node
  // wrap-around) must map to a unique key.
  std::unordered_set<std::uint64_t> seen;
  const phy::NodeId n = 1400;
  seen.reserve(static_cast<std::size_t>(n) * 4);
  for (phy::NodeId i = 0; i < n; ++i) {
    // Dense near the wrap plus a strided sweep keeps this O(n) per node.
    for (phy::NodeId j : {i + 1, i + 999, i + 1000, i + 1001, i + 1005}) {
      EXPECT_TRUE(seen.insert(pair_stream_id(i, j)).second)
          << "collision at (" << i << ", " << j << ")";
    }
  }
  // Direction matters.
  EXPECT_NE(pair_stream_id(3, 7), pair_stream_id(7, 3));
}

// ---- Tabulated PRR vs the Monte-Carlo oracle ----

TEST(Measurement, FastMatchesReferenceWithinTolerance) {
  const Testbed fast{TestbedConfig{}};
  // The oracle's worst-case stratification error is 1/samples; at the
  // old default of 100 draws that is exactly the 0.01 pin, so a
  // mid-transition link can sit at 0.00999 with zero headroom. 400 draws
  // bound the oracle error at 0.0025, leaving the pin real margin.
  const std::vector<double> ref = oracles::monte_carlo_prr_matrix(fast, 400);
  const int n = fast.size();
  const double floor_dbm = fast.config().medium.delivery_floor_dbm;

  // The oracle matrix's calibration statistics, with Testbed's definitions
  // restated: classes over directed pairs whose signal clears the delivery
  // floor (dead < 0.1 <= mid < 0.95 <= perfect), and degree counting a
  // neighbour when either direction has PRR > 0.1.
  double max_delta = 0.0;
  int connected = 0, dead = 0, mid = 0, perfect = 0, degree_sum = 0;
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(n); ++i) {
    for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(n); ++j) {
      if (i == j) continue;
      const double p = ref[i * n + j];
      max_delta = std::max(max_delta, std::abs(fast.prr(i, j) - p));
      if (p > 0.1 || ref[j * n + i] > 0.1) ++degree_sum;
      if (fast.signal_dbm(i, j) < floor_dbm) continue;
      ++connected;
      if (p < 0.1) {
        ++dead;
      } else if (p < 0.95) {
        ++mid;
      } else {
        ++perfect;
      }
    }
  }
  EXPECT_LE(max_delta, 0.01) << "tabulated PRR drifted from the oracle";

  // Calibration statistics within 1%.
  ASSERT_GT(connected, 0);
  const auto lc_fast = fast.link_classes();
  EXPECT_EQ(lc_fast.connected_pairs, connected);
  EXPECT_NEAR(lc_fast.frac_dead, static_cast<double>(dead) / connected, 0.01);
  EXPECT_NEAR(lc_fast.frac_mid, static_cast<double>(mid) / connected, 0.01);
  EXPECT_NEAR(lc_fast.frac_perfect, static_cast<double>(perfect) / connected,
              0.01);
  const double ref_degree = static_cast<double>(degree_sum) / n;
  EXPECT_NEAR(fast.mean_degree(), ref_degree, 0.01 * ref_degree);
}

TEST(Measurement, EstimatorsAgreeAcrossTheWholeTransitionBand) {
  // Sweep mean power through the PRR transition: the two pure 1-D
  // estimators must track each other everywhere, not just at testbed
  // links.
  LinkMeasurementSpec spec;
  spec.radio = TestbedConfig::default_radio();
  LinkMeasurement m(spec, std::make_shared<phy::LogDistanceShadowing>(),
                    std::make_shared<phy::NistErrorModel>());
  sim::Rng root(7);
  for (double dbm = -110.0; dbm <= -60.0; dbm += 0.25) {
    const double fast = m.fast_prr(dbm);
    // 400 draws bound the oracle error at 1/400.
    const double ref = oracles::monte_carlo_prr(
        m, dbm, root.substream(0xfade, pair_stream_id(1, 2)), 400);
    EXPECT_NEAR(fast, ref, 0.01) << "at " << dbm << " dBm";
    EXPECT_GE(fast, 0.0);
    EXPECT_LE(fast, 1.0);
  }
  // Extremes saturate exactly.
  EXPECT_DOUBLE_EQ(m.fast_prr(-300.0), 0.0);
  EXPECT_NEAR(m.fast_prr(-40.0), 1.0, 1e-9);
}

TEST(Measurement, FastPrrIsMonotoneInMeanPower) {
  LinkMeasurementSpec spec;
  spec.radio = TestbedConfig::default_radio();
  LinkMeasurement m(spec, std::make_shared<phy::LogDistanceShadowing>(),
                    std::make_shared<phy::NistErrorModel>());
  double prev = -1.0;
  for (double dbm = -120.0; dbm <= -50.0; dbm += 0.1) {
    const double p = m.fast_prr(dbm);
    EXPECT_GE(p, prev - 1e-12) << "at " << dbm << " dBm";
    prev = p;
  }
}

// ---- Thread-count invariance ----

TEST(Measurement, ResultsIdenticalForAnyThreadCount) {
  TestbedConfig serial;
  serial.num_nodes = 24;
  TestbedConfig sharded = serial;
  sharded.measurement.threads = 4;
  const Testbed a(serial), b(sharded);
  for (phy::NodeId i = 0; i < 24; ++i) {
    for (phy::NodeId j = 0; j < 24; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(a.prr(i, j), b.prr(i, j));
      EXPECT_DOUBLE_EQ(a.signal_dbm(i, j), b.signal_dbm(i, j));
    }
  }
  EXPECT_DOUBLE_EQ(a.signal_percentile(10), b.signal_percentile(10));
  EXPECT_DOUBLE_EQ(a.signal_percentile(90), b.signal_percentile(90));
}

// ---- TestbedCache ----

TEST(TestbedCache, HitsReturnTheIdenticalInstance) {
  TestbedCache cache;
  TestbedConfig cfg;
  cfg.num_nodes = 12;
  const auto a = cache.get(cfg);
  const auto b = cache.get(cfg);
  EXPECT_EQ(a.get(), b.get());  // same object, not a rebuild
  EXPECT_EQ(cache.size(), 1u);

  // Any config difference is a distinct entry...
  TestbedConfig other = cfg;
  other.seed = 99;
  const auto c = cache.get(other);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  TestbedConfig narrow_guard = cfg;
  narrow_guard.measurement.sparse_guard_sigmas = 3.0;
  EXPECT_NE(cache.get(narrow_guard).get(), a.get());
  EXPECT_EQ(cache.size(), 3u);

  // ...and a re-request of the first config still hits.
  EXPECT_EQ(cache.get(cfg).get(), a.get());
  EXPECT_EQ(cache.size(), 3u);

  // The measurement thread knob is result-invariant, so it must hit the
  // same entry rather than rebuild the building.
  TestbedConfig threaded = cfg;
  threaded.measurement.threads = 4;
  EXPECT_EQ(cache.get(threaded).get(), a.get());
  EXPECT_EQ(cache.size(), 3u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(cache.get(cfg).get(), a.get());  // fresh build after clear
}

TEST(TestbedCache, GlobalCacheIsSharedAndDeterministic) {
  TestbedConfig cfg;
  cfg.num_nodes = 10;
  cfg.seed = 424242;  // private seed to avoid clashing with other tests
  const auto a = TestbedCache::global().get(cfg);
  const auto b = TestbedCache::global().get(cfg);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 10);
}

}  // namespace
}  // namespace cmap::testbed
