// The CSR pair store must be an invisible representation choice: every
// query the full n^2 matrices can answer — per-pair PRR/signal,
// percentiles, predicates, link statistics, the potential-link list and
// the neighbor views — comes back from Testbed exactly as the test-only
// oracle (tests/oracles/measurement_oracle.h) computes it, including
// lazily answered pairs outside the stored CSR. Checked on every distinct
// building the scenario registry prescribes, except metro_10k, whose 10^8
// pairs are the reason the CSR exists.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/measurement_oracle.h"
#include "scenario/registry.h"
#include "testbed/testbed.h"

namespace cmap::testbed {
namespace {

struct Building {
  std::string label;
  std::unique_ptr<const Testbed> tb;
  std::unique_ptr<const oracles::MeasurementMatrix> oracle;
};

// Every distinct registry building except metro_10k; scenarios without a
// prescribed building run on the default one, as the drivers do.
const std::vector<Building>& buildings() {
  static const std::vector<Building> all = [] {
    std::vector<TestbedConfig> configs;
    std::vector<std::string> labels;
    const auto& registry = scenario::ScenarioRegistry::global();
    for (const std::string& name : registry.names()) {
      if (name == "metro_10k") continue;
      const auto& s = registry.at(name);
      const TestbedConfig cfg = s.testbed ? *s.testbed : TestbedConfig{};
      if (std::find(configs.begin(), configs.end(), cfg) != configs.end()) {
        continue;
      }
      configs.push_back(cfg);
      labels.push_back(name + " (" + std::to_string(cfg.num_nodes) +
                       " nodes)");
    }
    std::vector<Building> out;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      auto tb = std::make_unique<const Testbed>(configs[i]);
      auto oracle = std::make_unique<const oracles::MeasurementMatrix>(*tb);
      out.push_back({labels[i], std::move(tb), std::move(oracle)});
    }
    return out;
  }();
  return all;
}

TEST(SparseStoreEquality, CoversEveryRegistryBuildingButMetro) {
  // The default 50-node floor plus the prescribed 100- and 400-node ones.
  std::vector<int> sizes;
  for (const Building& b : buildings()) sizes.push_back(b.tb->size());
  for (const int n : {50, 100, 400}) {
    EXPECT_NE(std::find(sizes.begin(), sizes.end(), n), sizes.end()) << n;
  }
}

TEST(SparseStoreEquality, EveryDirectedPairAgreesExactly) {
  for (const Building& b : buildings()) {
    SCOPED_TRACE(b.label);
    const Testbed& tb = *b.tb;
    const int n = tb.size();
    ASSERT_EQ(b.oracle->size(), n);
    for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
      for (phy::NodeId c = 0; c < static_cast<phy::NodeId>(n); ++c) {
        if (a == c) continue;
        ASSERT_EQ(tb.prr(a, c), b.oracle->prr(a, c))
            << "prr " << a << "->" << c;
        ASSERT_EQ(tb.signal_dbm(a, c), b.oracle->signal_dbm(a, c))
            << "signal " << a << "->" << c;
      }
    }
  }
}

TEST(SparseStoreEquality, PercentilesAndPredicatesAgree) {
  for (const Building& b : buildings()) {
    SCOPED_TRACE(b.label);
    const Testbed& tb = *b.tb;
    for (const double p : {0.0, 10.0, 37.5, 50.0, 90.0, 100.0}) {
      EXPECT_EQ(tb.signal_percentile(p), b.oracle->signal_percentile(p));
    }
    const int n = tb.size();
    for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
      for (phy::NodeId c = 0; c < static_cast<phy::NodeId>(n); ++c) {
        if (a == c) continue;
        ASSERT_EQ(tb.in_range(a, c), b.oracle->in_range(a, c));
        ASSERT_EQ(tb.potential_link(a, c), b.oracle->potential_link(a, c));
        ASSERT_EQ(tb.strong_signal(a, c), b.oracle->strong_signal(a, c));
      }
    }
  }
}

TEST(SparseStoreEquality, AggregateStatisticsAgree) {
  for (const Building& b : buildings()) {
    SCOPED_TRACE(b.label);
    const auto want = b.oracle->link_classes();
    const auto got = b.tb->link_classes();
    EXPECT_EQ(got.connected_pairs, want.connected_pairs);
    EXPECT_EQ(got.frac_dead, want.frac_dead);
    EXPECT_EQ(got.frac_mid, want.frac_mid);
    EXPECT_EQ(got.frac_perfect, want.frac_perfect);
    EXPECT_EQ(b.tb->mean_degree(), b.oracle->mean_degree());
    EXPECT_EQ(b.tb->potential_links(), b.oracle->potential_links());
  }
}

TEST(SparseStoreEquality, NeighborViewsMatchTheMatrices) {
  for (const Building& b : buildings()) {
    SCOPED_TRACE(b.label);
    const Testbed& tb = *b.tb;
    for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(tb.size()); ++a) {
      const auto conn = b.oracle->connected_neighbors(a);
      const auto pot = b.oracle->potential_neighbors(a);
      const auto conn_view = tb.connected_neighbors(a);
      const auto pot_view = tb.potential_neighbors(a);
      ASSERT_TRUE(std::equal(conn.begin(), conn.end(), conn_view.begin(),
                             conn_view.end()))
          << "connected row " << a;
      ASSERT_TRUE(std::equal(pot.begin(), pot.end(), pot_view.begin(),
                             pot_view.end()))
          << "potential row " << a;
    }
  }
}

TEST(SparseStoreEquality, SparseStoreHoldsOnlyConnectedPairs) {
  for (const Building& b : buildings()) {
    SCOPED_TRACE(b.label);
    const auto n = static_cast<std::size_t>(b.tb->size());
    EXPECT_EQ(static_cast<int>(b.tb->stored_links()),
              b.oracle->link_classes().connected_pairs);
    EXPECT_LT(b.tb->stored_links(), n * (n - 1));
  }
}

TEST(SparseStore, ThreadedMeasurementIsIdentical) {
  TestbedConfig base;
  base.num_nodes = 30;
  base.seed = 3;
  Testbed one(base);
  TestbedConfig threaded = base;
  threaded.measurement.threads = 4;
  Testbed four(threaded);
  EXPECT_EQ(one.stored_links(), four.stored_links());
  for (phy::NodeId a = 0; a < 30; ++a) {
    for (phy::NodeId b = 0; b < 30; ++b) {
      if (a == b) continue;
      ASSERT_EQ(one.prr(a, b), four.prr(a, b));
      ASSERT_EQ(one.signal_dbm(a, b), four.signal_dbm(a, b));
    }
  }
}

}  // namespace
}  // namespace cmap::testbed
