// The sparse pair-state store (MeasurementStore::kSparse) must be an
// invisible representation change: every query a dense-store testbed can
// answer — per-pair PRR/signal, percentiles, predicates, link statistics,
// the potential-link list — comes back identical from the sparse store,
// including lazily-answered pairs outside the stored CSR.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "testbed/testbed.h"

namespace cmap::testbed {
namespace {

TestbedConfig sparse_config(TestbedConfig cfg = {}) {
  cfg.measurement.store = MeasurementStore::kSparse;
  return cfg;
}

class SparseStoreEquality : public ::testing::Test {
 protected:
  // One building, both representations, shared across the suite's tests.
  static const Testbed& dense() {
    static Testbed tb{TestbedConfig{}};
    return tb;
  }
  static const Testbed& sparse_tb() {
    static Testbed tb{sparse_config()};
    return tb;
  }
};

TEST_F(SparseStoreEquality, EveryDirectedPairAgreesExactly) {
  const int n = dense().size();
  ASSERT_EQ(sparse_tb().size(), n);
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
    for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n); ++b) {
      if (a == b) continue;
      ASSERT_EQ(sparse_tb().prr(a, b), dense().prr(a, b))
          << "prr " << a << "->" << b;
      ASSERT_EQ(sparse_tb().signal_dbm(a, b), dense().signal_dbm(a, b))
          << "signal " << a << "->" << b;
    }
  }
}

TEST_F(SparseStoreEquality, PercentilesAndPredicatesAgree) {
  for (const double p : {0.0, 10.0, 37.5, 50.0, 90.0, 100.0}) {
    EXPECT_EQ(sparse_tb().signal_percentile(p), dense().signal_percentile(p));
  }
  const int n = dense().size();
  for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
    for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n); ++b) {
      if (a == b) continue;
      ASSERT_EQ(sparse_tb().in_range(a, b), dense().in_range(a, b));
      ASSERT_EQ(sparse_tb().potential_link(a, b), dense().potential_link(a, b));
      ASSERT_EQ(sparse_tb().strong_signal(a, b), dense().strong_signal(a, b));
    }
  }
}

TEST_F(SparseStoreEquality, AggregateStatisticsAgree) {
  const auto d = dense().link_classes();
  const auto s = sparse_tb().link_classes();
  EXPECT_EQ(s.connected_pairs, d.connected_pairs);
  EXPECT_EQ(s.frac_dead, d.frac_dead);
  EXPECT_EQ(s.frac_mid, d.frac_mid);
  EXPECT_EQ(s.frac_perfect, d.frac_perfect);
  EXPECT_EQ(sparse_tb().mean_degree(), dense().mean_degree());
  EXPECT_EQ(sparse_tb().potential_links(), dense().potential_links());
}

TEST_F(SparseStoreEquality, NeighborViewsMatchTheMatrices) {
  const int n = dense().size();
  const double floor = dense().config().medium.delivery_floor_dbm;
  for (const Testbed* tb : {&dense(), &sparse_tb()}) {
    for (phy::NodeId a = 0; a < static_cast<phy::NodeId>(n); ++a) {
      std::vector<phy::NodeId> conn, pot;
      for (phy::NodeId b = 0; b < static_cast<phy::NodeId>(n); ++b) {
        if (a == b) continue;
        if (tb->signal_dbm(a, b) >= floor) conn.push_back(b);
        if (tb->potential_link(a, b)) pot.push_back(b);
      }
      const auto conn_view = tb->connected_neighbors(a);
      const auto pot_view = tb->potential_neighbors(a);
      ASSERT_TRUE(std::equal(conn.begin(), conn.end(), conn_view.begin(),
                             conn_view.end()));
      ASSERT_TRUE(std::equal(pot.begin(), pot.end(), pot_view.begin(),
                             pot_view.end()));
    }
  }
}

TEST_F(SparseStoreEquality, SparseStoreHoldsOnlyConnectedPairs) {
  EXPECT_TRUE(sparse_tb().sparse());
  EXPECT_FALSE(dense().sparse());
  const int n = dense().size();
  EXPECT_EQ(static_cast<int>(sparse_tb().stored_links()),
            dense().link_classes().connected_pairs);
  EXPECT_LT(sparse_tb().stored_links(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
}

TEST(SparseStore, ThreadedMeasurementIsIdentical) {
  TestbedConfig base = sparse_config();
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
