#include "phy/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "phy/wifi_rate.h"
#include "phy_test_util.h"
#include "sim/random.h"

namespace cmap::phy {
namespace {

using testing::World;

TEST(PropagationDelay, FloorsAtOneNanosecond) {
  EXPECT_EQ(propagation_delay_ns(0.0), 1);
  EXPECT_EQ(propagation_delay_ns(0.1), 1);  // 0.33 ns truncates to 0
  EXPECT_EQ(propagation_delay_ns(0.6), 2);  // 2.0014 ns
  EXPECT_EQ(propagation_delay_ns(300.0), 1000);  // 1000.69 ns truncates
}

TEST(PropagationDelay, TruncationMatchesTheMediumsLinkDelay) {
  // A receiver locks at signal start + PLCP; the signal starts at the
  // transmit instant plus the medium's cached link delay. Distances sit
  // just around whole-nanosecond boundaries so a rounding (not
  // truncating) medium would disagree.
  for (const double meters : {0.05, 0.31, 0.6, 89.9, 300.0, 300.2}) {
    World w(std::make_shared<NistErrorModel>());
    Radio& a = w.add_radio(1, {0, 0});
    w.add_radio(2, {meters, 0});
    sim::Time rx_start = -1;
    class StartListener : public testing::RecordingListener {
     public:
      StartListener(sim::Simulator& s, sim::Time* t) : sim_(s), t_(t) {}
      void on_rx_start(const Frame& f, sim::Time end) override {
        RecordingListener::on_rx_start(f, end);
        *t_ = sim_.now();
      }
      sim::Simulator& sim_;
      sim::Time* t_;
    } listener(w.simulator(), &rx_start);
    w.radio(1).set_listener(&listener);
    w.simulator().at(0, [&] { a.transmit(World::whole_frame(100)); });
    w.simulator().run();
    ASSERT_GE(rx_start, 0) << meters;
    EXPECT_EQ(rx_start - kPlcpDuration, propagation_delay_ns(meters))
        << meters;
  }
}

// Random live-node layout: positions on a 200 m square, partitions drawn
// uniformly, so some partitions may be left empty.
struct Layout {
  std::vector<int> parts;
  std::vector<Position> positions;
};

Layout random_layout(std::uint64_t seed, int nodes, int count) {
  sim::Rng rng(seed);
  Layout l;
  for (int i = 0; i < nodes; ++i) {
    l.parts.push_back(static_cast<int>(rng.uniform_int(0, count - 1)));
    l.positions.push_back({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
  }
  return l;
}

TEST(MinCrossDelays, EqualsABruteForceMinimumOverAllPairs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const int count = 4;
    const Layout l = random_layout(seed, 40, count);
    const auto got = min_cross_delays(l.parts, l.positions, count);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(count * count));
    for (int a = 0; a < count; ++a) {
      for (int b = 0; b < count; ++b) {
        const sim::Time entry =
            got[static_cast<std::size_t>(a) * count + static_cast<std::size_t>(b)];
        if (a == b) {
          EXPECT_EQ(entry, 0);
          continue;
        }
        sim::Time want = sim::kTimeForever;
        for (std::size_t i = 0; i < l.parts.size(); ++i) {
          for (std::size_t j = 0; j < l.parts.size(); ++j) {
            if (l.parts[i] != a || l.parts[j] != b) continue;
            want = std::min(want, propagation_delay_ns(
                                      distance(l.positions[i], l.positions[j])));
          }
        }
        EXPECT_EQ(entry, want) << "seed " << seed << " [" << a << "][" << b
                               << "]";
      }
    }
  }
}

TEST(MinCrossDelays, EmptyPartitionIsUnbounded) {
  // Partition 1 holds no live node: nothing can reach it or leave it.
  const std::vector<int> parts{0, 2, 0};
  const std::vector<Position> positions{{0, 0}, {30, 0}, {5, 5}};
  const auto d = min_cross_delays(parts, positions, 3);
  EXPECT_EQ(d[0 * 3 + 1], sim::kTimeForever);
  EXPECT_EQ(d[1 * 3 + 0], sim::kTimeForever);
  EXPECT_EQ(d[1 * 3 + 2], sim::kTimeForever);
  EXPECT_EQ(d[2 * 3 + 1], sim::kTimeForever);
  EXPECT_EQ(d[0 * 3 + 2], propagation_delay_ns(distance({5, 5}, {30, 0})));
}

TEST(MinCrossDelays, CoLocatedNodesInDifferentPartitionsKeepOneNanosecond) {
  const std::vector<int> parts{0, 1, 1};
  const std::vector<Position> positions{{10, 10}, {10, 10}, {50, 0}};
  const auto d = min_cross_delays(parts, positions, 2);
  EXPECT_EQ(d[0 * 2 + 1], 1);
  EXPECT_EQ(d[1 * 2 + 0], 1);
}

std::vector<Position> grid_positions(int n) {
  std::vector<Position> p;
  for (int i = 0; i < n; ++i) {
    p.push_back({static_cast<double>((i * 37) % 50),
                 static_cast<double>((i * 11) % 23)});
  }
  return p;
}

TEST(PartitionPlan, ClampsTheCountToOneThroughNodeCount) {
  const auto positions = grid_positions(5);
  EXPECT_EQ(make_partition_plan(positions, 0).count, 1);
  EXPECT_EQ(make_partition_plan(positions, -2).count, 1);
  EXPECT_EQ(make_partition_plan(positions, 3).count, 3);
  EXPECT_EQ(make_partition_plan(positions, 9).count, 5);
  const PartitionPlan serial = make_partition_plan(positions, 1);
  EXPECT_EQ(serial.part_of_node, std::vector<int>(5, 0));
}

TEST(PartitionPlan, StripSizesDifferByAtMostOne) {
  for (const int n : {7, 10, 33}) {
    for (const int count : {2, 3, 4, 6}) {
      const PartitionPlan plan = make_partition_plan(grid_positions(n), count);
      ASSERT_EQ(plan.count, count);
      std::vector<int> sizes(static_cast<std::size_t>(count), 0);
      for (int id = 0; id < n; ++id) {
        const int p = plan.partition_of(static_cast<NodeId>(id));
        ASSERT_GE(p, 0);
        ASSERT_LT(p, count);
        ++sizes[static_cast<std::size_t>(p)];
      }
      const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
      EXPECT_LE(*hi - *lo, 1) << n << " nodes, " << count << " strips";
    }
  }
}

TEST(PartitionPlan, StripsFollowTheXOrder) {
  // Strips are contiguous in (x, y, id) order: every node of strip k lies
  // at or left of every node of strip k + 1.
  const auto positions = grid_positions(30);
  const PartitionPlan plan = make_partition_plan(positions, 4);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (plan.part_of_node[i] < plan.part_of_node[j]) {
        EXPECT_LE(positions[i].x, positions[j].x) << i << " " << j;
      }
    }
  }
}

TEST(PartitionPlan, SameInputGivesTheSamePlan) {
  const auto positions = grid_positions(40);
  const PartitionPlan a = make_partition_plan(positions, 4);
  const PartitionPlan b = make_partition_plan(positions, 4);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.part_of_node, b.part_of_node);
}

}  // namespace
}  // namespace cmap::phy
