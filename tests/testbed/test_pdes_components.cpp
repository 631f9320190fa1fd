// PDES worlds planned by link component (phy/partition.h): flows in
// far-apart clusters share no row link, so each cluster stays whole on one
// partition and the run crosses no partition at all. Every run() is then
// one conservative round with no mailbox message, and the results stay
// byte-identical to the serial oracle. A node added after the plan is
// placed on its own, and a channel epoch can link two partitions; either
// way the lookahead follows the rows.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "testbed/experiment.h"
#include "testbed/testbed.h"

namespace cmap::testbed {
namespace {

constexpr int kPartitions = 4;

// An 800-node building at the paper's floor density (280 x 160 m) with
// metro_10k's medium: a node's rows reach a few dozen metres, so clusters
// a hundred metres apart share no row link.
const Testbed& sparse_building() {
  static const Testbed tb([] {
    TestbedConfig cfg;
    cfg.num_nodes = 800;
    cfg.width_m = 280.0;
    cfg.height_m = 160.0;
    cfg.medium.delivery_floor_dbm = -94.0;
    cfg.medium.cull_guard_sigmas = 3.0;
    cfg.measurement.sparse_guard_sigmas = 3.0;
    return cfg;
  }());
  return tb;
}

phy::NodeId nearest_node(const Testbed& tb, phy::Position at,
                         const std::set<phy::NodeId>& taken) {
  phy::NodeId best = 0;
  double best_d = 1e300;
  for (int i = 0; i < tb.size(); ++i) {
    const auto id = static_cast<phy::NodeId>(i);
    const double d = phy::distance(tb.position(id), at);
    if (!taken.count(id) && d < best_d) {
      best = id;
      best_d = d;
    }
  }
  return best;
}

// Two flows per cluster around five anchors (the corners and the centre),
// each from a node near the anchor to its best-PRR neighbour.
std::vector<Flow> cluster_flows(const Testbed& tb) {
  std::vector<Flow> flows;
  std::set<phy::NodeId> taken;
  for (const phy::Position anchor : {phy::Position{25, 25}, {255, 25},
                                     {25, 135}, {255, 135}, {140, 80}}) {
    for (int k = 0; k < 2; ++k) {
      const phy::NodeId src = nearest_node(tb, anchor, taken);
      phy::NodeId dst = src;
      double best_prr = -1.0;
      for (const phy::NodeId n : tb.connected_neighbors(src)) {
        if (!taken.count(n) && n != src && tb.prr(src, n) > best_prr) {
          best_prr = tb.prr(src, n);
          dst = n;
        }
      }
      taken.insert({src, dst});
      flows.push_back({src, dst});
    }
  }
  return flows;
}

RunConfig base_config() {
  RunConfig config;
  config.scheme = Scheme::kCmap;
  config.duration = sim::milliseconds(300);
  config.warmup = sim::milliseconds(100);
  config.seed = 3;
  config.metrics = metrics::MetricsConfig{};
  return config;
}

std::uint64_t mailbox_msgs(const metrics::MetricsSnapshot& snap) {
  std::uint64_t total = 0;
  for (const auto& p : snap.parts) total += p.mailbox_posted;
  return total;
}

class PdesComponents : public ::testing::TestWithParam<int> {};

TEST_P(PdesComponents, FarApartClustersRunOneRoundPerRunCall) {
  const Testbed& tb = sparse_building();
  const std::vector<Flow> flows = cluster_flows(tb);
  const RunResult serial = run_flows(tb, flows, base_config());

  RunConfig config = base_config();
  config.pdes.partitions = kPartitions;
  config.pdes.threads = GetParam();
  World world(tb, config);
  for (const Flow& f : flows) world.add_saturated_flow(f.src, f.dst);
  constexpr int kRuns = 3;
  for (int i = 1; i <= kRuns; ++i) world.run(config.duration * i / kRuns);
  std::set<int> used;
  for (const Flow& f : flows) {
    used.insert(world.medium().partition_of(f.src));
    used.insert(world.medium().partition_of(f.dst));
  }
  const RunResult got = collect_results(world, flows);

  EXPECT_EQ(got.flows, serial.flows);
  EXPECT_EQ(got.aggregate_mbps, serial.aggregate_mbps);
  EXPECT_EQ(got.profile->counters_json(), serial.profile->counters_json());
  EXPECT_EQ(got.profile->rounds, static_cast<std::uint64_t>(kRuns));
  EXPECT_EQ(mailbox_msgs(*got.profile), 0u);
  // Non-vacuity: every partition holds a cluster, and the flows move data.
  EXPECT_EQ(used.size(), static_cast<std::size_t>(kPartitions));
  EXPECT_EQ(world.medium().partition_of(tb.size() - 1), -1);  // not built
  EXPECT_GT(serial.aggregate_mbps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Threads, PdesComponents, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "4p" + std::to_string(info.param) + "t";
                         });

TEST(PdesLateNode, NodeAddedAfterARunMatchesSerial) {
  // A broadcaster added mid-run next to the fourth cluster is planned
  // late, onto the least-loaded partition, which is not the cluster's
  // (the mailbox check below confirms it), and the lookahead must follow
  // the rows it brings.
  const Testbed& tb = sparse_building();
  const std::vector<Flow> flows = cluster_flows(tb);
  std::set<phy::NodeId> taken;
  for (const Flow& f : flows) taken.insert({f.src, f.dst});
  const phy::NodeId late = nearest_node(tb, {255, 135}, taken);
  const auto run = [&](int partitions) {
    RunConfig config = base_config();
    config.pdes.partitions = partitions;
    config.pdes.threads = partitions;
    World world(tb, config);
    for (const Flow& f : flows) world.add_saturated_flow(f.src, f.dst);
    world.run(config.duration / 2);
    world.add_saturated_flow(late, phy::kBroadcastId);
    world.run(config.duration);
    return collect_results(world, flows);
  };
  const RunResult serial = run(1);
  const RunResult pdes = run(kPartitions);
  EXPECT_EQ(pdes.flows, serial.flows);
  EXPECT_EQ(pdes.profile->counters_json(), serial.profile->counters_json());
  EXPECT_GT(mailbox_msgs(*pdes.profile), 0u);  // the late node crosses
}

// Whether any row of `from` holds one of `to`.
bool linked(const phy::Medium& m, const std::set<phy::NodeId>& from,
            const std::set<phy::NodeId>& to) {
  for (const phy::NodeId a : from) {
    for (const phy::Medium::RowLink& l : m.row(a)) {
      if (to.count(m.radios()[l.dst]->id())) return true;
    }
  }
  return false;
}

TEST(PdesChannelEpoch, LookaheadFollowsTheLinksAnEpochBrings) {
  // Nodes 0 and 3 of the sparse building sit 41 m apart, their mean
  // signal about 3 dB under the cull floor both ways. Under this run's
  // channel no row link joins the flows 0 -> 206 and 3 -> 4 when the plan
  // is made, so at two partitions (fair share two nodes) each flow stays
  // whole on its own partition, with no lookahead between them. The fast,
  // strong channel then lifts links between the flows over the floor at
  // some epochs; the lookahead must follow, or a delivery lands in its
  // receiver's past.
  const Testbed& tb = sparse_building();
  const std::vector<Flow> flows = {{0, 206}, {3, 4}};
  RunConfig config = base_config();
  dynamics::DynamicsConfig dc;
  dynamics::ChannelConfig channel;
  channel.sigma_db = 6.0;
  channel.correlation = 0.5;
  channel.epoch = sim::milliseconds(20);
  dc.channel = channel;
  config.dynamics = dc;
  const RunResult serial = run_flows(tb, flows, config);

  config.pdes.partitions = 2;
  config.pdes.threads = 2;
  World world(tb, config);
  for (const Flow& f : flows) world.add_saturated_flow(f.src, f.dst);
  ASSERT_FALSE(linked(world.medium(), {0, 206}, {3, 4}));
  ASSERT_FALSE(linked(world.medium(), {3, 4}, {0, 206}));
  EXPECT_NE(world.medium().partition_of(0), world.medium().partition_of(3));
  world.run(config.duration);
  const RunResult got = collect_results(world, flows);
  EXPECT_EQ(got.flows, serial.flows);
  EXPECT_EQ(got.profile->counters_json(), serial.profile->counters_json());
  EXPECT_GT(mailbox_msgs(*got.profile), 0u);  // the epochs linked them
}

}  // namespace
}  // namespace cmap::testbed
