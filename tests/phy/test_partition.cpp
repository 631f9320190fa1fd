#include "phy/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>
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

// Fading on, so the cull floor sits 12 dB under the delivery floor and
// rows hold links no delivery of mean power would reach.
MediumConfig fading_config() {
  MediumConfig m;
  m.fading_sigma_db = 2.0;
  m.cull_guard_sigmas = 6.0;
  return m;
}

TEST(RowLinksAmong, MatchTheRowsOfTheAttachedRadios) {
  // Shadowed, so a link's presence is not a function of distance alone.
  LogDistanceConfig prop;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    prop.seed = seed;
    World w(std::make_shared<NistErrorModel>(), fading_config(),
            std::make_shared<LogDistanceShadowing>(prop));
    sim::Rng rng(seed);
    std::vector<LiveNode> nodes;
    for (NodeId id = 0; id < 60; ++id) {
      nodes.push_back({id * 3 + 1,
                       {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 300.0)}});
    }
    const RadioConfig cfg;
    const auto links = w.medium().row_links_among(nodes, cfg.tx_power_dbm);
    for (const LiveNode& n : nodes) w.add_radio(n.id, n.position, cfg);

    std::set<std::pair<NodeId, NodeId>> got;
    for (const LiveLink& l : links) {
      got.insert({nodes[l.from].id, nodes[l.to].id});
    }
    std::set<std::pair<NodeId, NodeId>> rows;
    const Medium& m = w.medium();
    for (const LiveNode& n : nodes) {
      for (const Medium::RowLink& link : m.row(n.id)) {
        rows.insert({n.id, m.radios()[link.dst]->id()});
      }
    }
    EXPECT_EQ(got.size(), links.size()) << "duplicate link";
    EXPECT_EQ(got, rows) << "seed " << seed;
    EXPECT_GT(rows.size(), nodes.size());  // non-vacuity
  }
}

// ---- The partition plan ----

std::vector<LiveNode> scattered_nodes(int n) {
  std::vector<LiveNode> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back({static_cast<NodeId>(i * 2 + 5),
                     {static_cast<double>((i * 37) % 50),
                      static_cast<double>((i * 11) % 23)}});
  }
  return nodes;
}

// Chains the nodes [first, last) into one component.
void chain(std::vector<LiveLink>* links, std::uint32_t first,
           std::uint32_t last) {
  for (std::uint32_t i = first; i + 1 < last; ++i) {
    links->push_back({i, i + 1});
  }
}

std::vector<int> loads(const PartitionPlan& plan,
                       const std::vector<LiveNode>& nodes) {
  std::vector<int> load(static_cast<std::size_t>(plan.count), 0);
  for (const LiveNode& n : nodes) {
    const int p = plan.partition_of(n.id);
    EXPECT_GE(p, 0) << "node " << n.id;
    EXPECT_LT(p, plan.count) << "node " << n.id;
    ++load[static_cast<std::size_t>(p)];
  }
  return load;
}

TEST(PartitionPlan, ComponentsNoLargerThanTheFairShareStayWhole) {
  // 40 nodes in components of 1..9 nodes (sizes cycle), fair share 10.
  const auto nodes = scattered_nodes(40);
  std::vector<LiveLink> links;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> components;
  for (std::uint32_t first = 0, size = 1; first < 40; size = size % 9 + 1) {
    const std::uint32_t last = std::min<std::uint32_t>(first + size, 40);
    chain(&links, first, last);
    components.push_back({first, last});
    first = last;
  }
  // The same links with direction and order reversed: neither may
  // matter.
  std::vector<LiveLink> reversed;
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    reversed.push_back({it->to, it->from});
  }
  for (const auto* ls : {&links, &reversed}) {
    const PartitionPlan plan = make_partition_plan(nodes, *ls, 4);
    for (const auto& [first, last] : components) {
      for (std::uint32_t i = first; i < last; ++i) {
        EXPECT_EQ(plan.partition_of(nodes[i].id),
                  plan.partition_of(nodes[first].id))
            << "component [" << first << ", " << last << ")";
      }
    }
  }
}

TEST(PartitionPlan, PackingIsBalanced) {
  // Largest first onto the least-loaded partition: no partition ends more
  // than the largest component above the least-loaded one.
  sim::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto nodes =
        scattered_nodes(static_cast<int>(rng.uniform_int(20, 80)));
    const auto n = static_cast<std::uint32_t>(nodes.size());
    const int count = static_cast<int>(rng.uniform_int(2, 6));
    const std::uint32_t cap = (n + static_cast<std::uint32_t>(count) - 1) /
                              static_cast<std::uint32_t>(count);
    std::vector<LiveLink> links;
    std::uint32_t largest = 0;
    for (std::uint32_t first = 0; first < n;) {
      const auto size = static_cast<std::uint32_t>(rng.uniform_int(1, cap));
      const std::uint32_t last = std::min(first + size, n);
      chain(&links, first, last);
      largest = std::max(largest, last - first);
      first = last;
    }
    const auto load = loads(make_partition_plan(nodes, links, count), nodes);
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    EXPECT_LE(*hi - *lo, static_cast<int>(largest))
        << "trial " << trial << ": " << n << " nodes, " << count
        << " partitions";
  }
}

TEST(PartitionPlan, OversizedComponentStaysWhole) {
  // A 30-node component and five of 4: the big one is larger than the
  // fair share (13 at 4 partitions) and still lands whole on one
  // partition, and the small ones fill the others.
  const auto nodes = scattered_nodes(50);
  std::vector<LiveLink> links;
  chain(&links, 0, 30);
  for (std::uint32_t first = 30; first < 50; first += 4) {
    chain(&links, first, first + 4);
  }
  const PartitionPlan plan = make_partition_plan(nodes, links, 4);
  for (std::uint32_t i = 0; i < 30; ++i) {
    EXPECT_EQ(plan.partition_of(nodes[i].id), plan.partition_of(nodes[0].id))
        << "node " << i;
  }
  for (std::uint32_t first = 30; first < 50; first += 4) {
    for (std::uint32_t i = first; i < first + 4; ++i) {
      EXPECT_EQ(plan.partition_of(nodes[i].id),
                plan.partition_of(nodes[first].id));
    }
  }
  // The big component alone on its partition; the five others spread
  // 2/2/1 over the rest.
  EXPECT_EQ(loads(plan, nodes), (std::vector<int>{30, 8, 8, 4}));
}

TEST(PartitionPlan, SameInputGivesTheSamePlan) {
  // Same node set, links and count give the same plan, in whatever order
  // nodes and links are listed.
  const auto nodes = scattered_nodes(40);
  std::vector<LiveLink> links;
  chain(&links, 0, 25);
  chain(&links, 25, 33);
  chain(&links, 33, 40);
  const PartitionPlan a = make_partition_plan(nodes, links, 4);
  const PartitionPlan b = make_partition_plan(nodes, links, 4);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.part_of_node, b.part_of_node);

  std::vector<LiveNode> reversed(nodes.rbegin(), nodes.rend());
  std::vector<LiveLink> relinked;
  const auto at = [&](std::uint32_t i) {
    return static_cast<std::uint32_t>(nodes.size() - 1 - i);
  };
  for (const LiveLink& l : links) relinked.push_back({at(l.to), at(l.from)});
  const PartitionPlan c = make_partition_plan(reversed, relinked, 4);
  EXPECT_EQ(a.part_of_node, c.part_of_node);
}

TEST(PartitionPlan, KeepsTheCountAndLeavesSurplusPartitionsEmpty) {
  const auto nodes = scattered_nodes(3);
  EXPECT_EQ(make_partition_plan(nodes, {}, 0).count, 1);
  const PartitionPlan plan = make_partition_plan(nodes, {}, 5);
  EXPECT_EQ(plan.count, 5);
  EXPECT_EQ(loads(plan, nodes), (std::vector<int>{1, 1, 1, 0, 0}));
  // Ids outside the live set are unplanned.
  EXPECT_EQ(plan.partition_of(nodes[0].id - 1), -1);
}

// ---- The medium enforces the plan ----

PartitionPlan plan_of(int count, const std::vector<int>& part_by_id) {
  PartitionPlan plan;
  plan.count = count;
  plan.part_of_node = part_by_id;
  return plan;
}

TEST(MediumDeathTest, PlanThatSplitsALinkedPairAborts) {
  // Radios 0 and 1 sit 10 m apart, so each row holds the other. Radio 2,
  // 20 km away, shares no row with either and may sit on any partition.
  const PartitionPlan plan = plan_of(2, {0, 1, 1});
  EXPECT_DEATH(
      {
        World w(std::make_shared<NistErrorModel>());
        w.medium().set_plan(&plan);
        w.add_radio(0, {0, 0});
        w.add_radio(2, {20000, 0});
        w.add_radio(1, {10, 0});
      },
      "row link 1 -> 0 joins partitions 1 and 0");
  // Non-vacuity: the same radios under a plan that keeps the pair
  // together attach.
  const PartitionPlan whole = plan_of(2, {0, 0, 1});
  World w(std::make_shared<NistErrorModel>());
  w.medium().set_plan(&whole);
  w.add_radio(0, {0, 0});
  w.add_radio(2, {20000, 0});
  w.add_radio(1, {10, 0});
  EXPECT_EQ(w.medium().row(1).size(), 1u);
}

}  // namespace
}  // namespace cmap::phy
