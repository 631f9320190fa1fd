// PDES worlds planned by link component (phy/partition.h): flows in
// far-apart clusters share no row link, so each cluster stays whole on one
// partition and the run crosses no partition at all. Every run() call runs
// the partitions side by side once, with no mailbox message, and the
// results stay byte-identical to the serial oracle. A node added after the
// plan aborts, and a world with dynamics, whose channel epochs can join
// components, runs serially.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "pdes_clusters.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"

namespace cmap::testbed {
namespace {

using pdes_test::cluster_flows;
using pdes_test::nearest_node;
using pdes_test::sparse_building;

constexpr int kPartitions = 4;

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

TEST(PdesLateNodeDeathTest, NodeAddedAfterThePlanAbortsNamingIt) {
  // The plan groups the nodes asked for before the first run() by link
  // component; a broadcaster added mid-run next to the fourth cluster
  // would join that cluster's component from outside the plan.
  const Testbed& tb = sparse_building();
  const std::vector<Flow> flows = cluster_flows(tb);
  std::set<phy::NodeId> taken;
  for (const Flow& f : flows) taken.insert({f.src, f.dst});
  const phy::NodeId late = nearest_node(tb, {255, 135}, taken);
  RunConfig config = base_config();
  config.pdes.partitions = kPartitions;
  // One thread: the death test forks, and no partition thread should be
  // alive when it does.
  config.pdes.threads = 1;
  World world(tb, config);
  for (const Flow& f : flows) world.add_saturated_flow(f.src, f.dst);
  world.run(config.duration / 2);
  EXPECT_DEATH(world.add_saturated_flow(late, phy::kBroadcastId),
               "node " + std::to_string(late) + " added after the PDES plan");
  // A serial world takes the same node mid-run.
  config.pdes.partitions = 1;
  World serial(tb, config);
  for (const Flow& f : flows) serial.add_saturated_flow(f.src, f.dst);
  serial.run(config.duration / 2);
  serial.add_saturated_flow(late, phy::kBroadcastId);
  serial.run(config.duration);
  EXPECT_GT(serial.radio(late).counters().frames_sent, 0u);
}

TEST(PdesChannelEpoch, DynamicsWorldRunsSeriallyWithIdenticalResults) {
  // Nodes 0 and 3 of the sparse building sit 41 m apart, their mean
  // signal about 3 dB under the cull floor both ways, so no row link
  // joins the flows 0 -> 206 and 3 -> 4 at the start. The fast, strong
  // channel lifts links between them over the floor at some epochs: a
  // plan made at the start would not hold. So the world ignores the
  // partition count and runs serially.
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
  const RunResult got = run_flows(tb, flows, config);
  EXPECT_EQ(got.flows, serial.flows);
  EXPECT_EQ(got.profile->counters_json(), serial.profile->counters_json());
  EXPECT_EQ(got.profile->partitions, 1);
  EXPECT_EQ(got.profile->rounds, 0u);
  ASSERT_EQ(got.profile->parts.size(), 1u);
  EXPECT_EQ(got.profile->parts[0].executed, serial.profile->parts[0].executed);
  EXPECT_GT(got.profile->counter(metrics::Counter::kDynChannelEpochs), 0u);
  EXPECT_GT(serial.aggregate_mbps, 0.0);
}

}  // namespace
}  // namespace cmap::testbed
