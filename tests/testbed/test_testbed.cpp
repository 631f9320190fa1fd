// Validates the testbed substitute against the paper's §5.1 measurements:
// link-class fractions, mean degree, and the consistency of the Fig. 11
// predicates.
#include "testbed/testbed.h"

#include <gtest/gtest.h>

#include <limits>

namespace cmap::testbed {
namespace {

const Testbed& shared_testbed() {
  static Testbed tb{TestbedConfig{}};
  return tb;
}

TEST(Testbed, PositionsWithinFloorAndSeparated) {
  const auto& tb = shared_testbed();
  for (int i = 0; i < tb.size(); ++i) {
    const auto& p = tb.position(i);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, tb.config().width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, tb.config().height_m);
    for (int j = i + 1; j < tb.size(); ++j) {
      EXPECT_GT(phy::distance(p, tb.position(j)), 1.99);
    }
  }
}

TEST(Testbed, DeterministicForSameSeed) {
  TestbedConfig cfg;
  cfg.num_nodes = 12;
  Testbed a(cfg), b(cfg);
  for (phy::NodeId i = 0; i < 12; ++i) {
    for (phy::NodeId j = 0; j < 12; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(a.prr(i, j), b.prr(i, j));
      EXPECT_DOUBLE_EQ(a.signal_dbm(i, j), b.signal_dbm(i, j));
    }
  }
}

TEST(Testbed, DifferentSeedsDifferentBuildings) {
  TestbedConfig c1, c2;
  c1.num_nodes = c2.num_nodes = 12;
  c2.seed = 99;
  Testbed a(c1), b(c2);
  int identical = 0;
  for (phy::NodeId i = 0; i < 12; ++i) {
    for (phy::NodeId j = 0; j < 12; ++j) {
      if (i != j && a.signal_dbm(i, j) == b.signal_dbm(i, j)) ++identical;
    }
  }
  EXPECT_LT(identical, 5);
}

TEST(Testbed, CachedPotentialLinksMatchThePredicate) {
  // The precomputed list is exactly the predicate's truth set, in (from,
  // to) lexicographic order.
  const auto& tb = shared_testbed();
  const auto& links = tb.potential_links();
  std::size_t expected = 0;
  auto it = links.begin();
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(tb.size()); ++a) {
    for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(tb.size()); ++b) {
      if (a == b) continue;
      if (!tb.potential_link(a, b)) continue;
      ++expected;
      ASSERT_NE(it, links.end());
      EXPECT_EQ(it->first, a);
      EXPECT_EQ(it->second, b);
      ++it;
    }
  }
  EXPECT_EQ(links.size(), expected);
  EXPECT_EQ(it, links.end());
}

TEST(TestbedDeathTest, OverDenseFloorFailsFastWithAClearError) {
  // 2 m min separation on a 5 x 5 m floor caps feasible placements far
  // below 100 nodes; the bounded rejection loop must abort with a
  // diagnostic instead of spinning forever.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TestbedConfig cfg;
  cfg.num_nodes = 100;
  cfg.width_m = 5.0;
  cfg.height_m = 5.0;
  EXPECT_DEATH(Testbed{cfg}, "too dense");
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(TestbedConfigDeathTest, NonPositiveNodeCountAbortsNamingTheField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const int bad : {0, -3}) {
    TestbedConfig cfg;
    cfg.num_nodes = bad;
    EXPECT_DEATH(Testbed{cfg}, "TestbedConfig::num_nodes") << bad;
  }
}

TEST(TestbedConfigDeathTest, InvalidFloorSizeAbortsNamingTheField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const double bad : {0.0, -10.0, kInf, kNaN}) {
    TestbedConfig wide;
    wide.width_m = bad;
    EXPECT_DEATH(Testbed{wide}, "TestbedConfig::width_m") << bad;
    TestbedConfig tall;
    tall.height_m = bad;
    EXPECT_DEATH(Testbed{tall}, "TestbedConfig::height_m") << bad;
  }
}

TEST(MeasurementConfigDeathTest, InvalidGuardSigmasAbortsNamingTheField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const double bad : {-1.0, kInf, kNaN}) {
    TestbedConfig cfg;
    cfg.num_nodes = 10;
    cfg.measurement.sparse_guard_sigmas = bad;
    EXPECT_DEATH(Testbed{cfg}, "MeasurementConfig::sparse_guard_sigmas")
        << bad;
  }
}

TEST(TestbedConfigValidation, BoundaryValuesAreAccepted) {
  TestbedConfig cfg;
  cfg.num_nodes = 1;
  cfg.width_m = 1.0;
  cfg.height_m = 1.0;
  cfg.measurement.sparse_guard_sigmas = 0.0;
  const Testbed tb(cfg);
  EXPECT_EQ(tb.size(), 1);
  EXPECT_EQ(tb.stored_links(), 0u);
}

TEST(TestbedDeathTest, OutOfRangePairQueryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Testbed& tb = shared_testbed();
  const auto n = static_cast<phy::NodeId>(tb.size());
  EXPECT_DEATH(tb.prr(0, n), "node id out of range");
  EXPECT_DEATH(tb.prr(n, 0), "node id out of range");
  EXPECT_DEATH(tb.signal_dbm(0, n + 7), "node id out of range");
}

TEST(Testbed, LinkClassesMatchPaperStatistics) {
  // §5.1: ~68% PRR<0.1, ~12% in (0.1,1), ~20% PRR=1 of connected pairs.
  // Loose bands — the claim is qualitative shape, not exact fractions.
  const auto lc = shared_testbed().link_classes();
  EXPECT_GT(lc.connected_pairs, 800);
  EXPECT_GT(lc.frac_dead, 0.45);
  EXPECT_LT(lc.frac_dead, 0.85);
  EXPECT_GT(lc.frac_mid, 0.03);
  EXPECT_LT(lc.frac_mid, 0.30);
  EXPECT_GT(lc.frac_perfect, 0.10);
  EXPECT_LT(lc.frac_perfect, 0.40);
}

TEST(Testbed, MeanDegreeNearPaperValue) {
  // Paper: mean degree 15.2 over PRR>0.1 neighbours.
  const double deg = shared_testbed().mean_degree();
  EXPECT_GT(deg, 8.0);
  EXPECT_LT(deg, 25.0);
}

TEST(Testbed, PrrIsWithinUnitInterval) {
  const auto& tb = shared_testbed();
  for (phy::NodeId i = 0; i < 10; ++i) {
    for (phy::NodeId j = 0; j < 10; ++j) {
      if (i == j) continue;
      EXPECT_GE(tb.prr(i, j), 0.0);
      EXPECT_LE(tb.prr(i, j), 1.0);
    }
  }
}

TEST(Testbed, SignalPercentilesAreMonotone) {
  const auto& tb = shared_testbed();
  EXPECT_LE(tb.signal_percentile(10), tb.signal_percentile(50));
  EXPECT_LE(tb.signal_percentile(50), tb.signal_percentile(90));
}

TEST(Testbed, PotentialLinkImpliesInRange) {
  const auto& tb = shared_testbed();
  int potential = 0;
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(tb.size()); ++i) {
    for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(tb.size()); ++j) {
      if (i == j) continue;
      if (tb.potential_link(i, j)) {
        ++potential;
        EXPECT_TRUE(tb.in_range(i, j));
      }
    }
  }
  // The testbed must offer a usable pool of routable links.
  EXPECT_GT(potential, 50);
}

TEST(Testbed, StrongerSignalMeansHigherPrrOnAverage) {
  const auto& tb = shared_testbed();
  double strong_sum = 0, weak_sum = 0;
  int strong_n = 0, weak_n = 0;
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(tb.size()); ++i) {
    for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(tb.size()); ++j) {
      if (i == j) continue;
      const double s = tb.signal_dbm(i, j);
      if (s > -80) {
        strong_sum += tb.prr(i, j);
        ++strong_n;
      } else if (s > -104 && s < -90) {
        weak_sum += tb.prr(i, j);
        ++weak_n;
      }
    }
  }
  ASSERT_GT(strong_n, 10);
  ASSERT_GT(weak_n, 10);
  EXPECT_GT(strong_sum / strong_n, weak_sum / weak_n + 0.3);
}

TEST(Testbed, PredicatesMatchRecomputedPercentiles) {
  // The link predicates now use p10/p90 cached at measurement time; they
  // must be indistinguishable from recomputing signal_percentile(10/90)
  // on every call (the old, per-call behaviour).
  const auto& tb = shared_testbed();
  const double p10 = tb.signal_percentile(10.0);
  const double p90 = tb.signal_percentile(90.0);
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(tb.size()); ++a) {
    for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(tb.size()); ++b) {
      if (a == b) continue;
      const bool in_range = tb.prr(a, b) > 0.2 && tb.prr(b, a) > 0.2 &&
                            tb.signal_dbm(a, b) >= p10 &&
                            tb.signal_dbm(b, a) >= p10;
      const bool potential = tb.prr(a, b) > 0.9 && tb.prr(b, a) > 0.9 &&
                             tb.signal_dbm(a, b) >= p10 &&
                             tb.signal_dbm(b, a) >= p10;
      ASSERT_EQ(tb.in_range(a, b), in_range) << a << "," << b;
      ASSERT_EQ(tb.potential_link(a, b), potential) << a << "," << b;
      ASSERT_EQ(tb.strong_signal(a, b), tb.signal_dbm(a, b) >= p90)
          << a << "," << b;
    }
  }
}

class TestbedSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(TestbedSeedSweep, EveryBuildingOffersExperimentMaterial) {
  TestbedConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  Testbed tb(cfg);
  const auto lc = tb.link_classes();
  EXPECT_GT(lc.connected_pairs, 500) << "seed " << GetParam();
  EXPECT_GT(lc.frac_perfect, 0.05) << "seed " << GetParam();
  EXPECT_GT(tb.mean_degree(), 5.0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TestbedSeedSweep, ::testing::Range(1, 6));

}  // namespace
}  // namespace cmap::testbed
