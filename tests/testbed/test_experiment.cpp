#include "testbed/experiment.h"

#include <gtest/gtest.h>

#include "testbed/topology_picker.h"

namespace cmap::testbed {
namespace {

const Testbed& shared_testbed() {
  static Testbed tb{TestbedConfig{}};
  return tb;
}

RunConfig quick(Scheme scheme) {
  RunConfig rc;
  rc.scheme = scheme;
  rc.duration = sim::seconds(3);
  rc.warmup = sim::seconds(1);
  return rc;
}

Flow first_potential_flow() {
  TopologyPicker picker(shared_testbed());
  const auto links = picker.potential_links();
  return Flow{links.front().first, links.front().second};
}

TEST(Experiment, SchemeNamesAreDistinct) {
  EXPECT_STRNE(scheme_name(Scheme::kCsma), scheme_name(Scheme::kCmap));
  EXPECT_STRNE(scheme_name(Scheme::kCsmaOffAcks),
               scheme_name(Scheme::kCsmaOffNoAcks));
  EXPECT_TRUE(scheme_is_cmap(Scheme::kCmapWin1));
  EXPECT_FALSE(scheme_is_cmap(Scheme::kCsma));
}

class SingleFlowAllSchemes : public ::testing::TestWithParam<int> {};

TEST_P(SingleFlowAllSchemes, DeliversOnCleanLink) {
  const auto scheme = static_cast<Scheme>(GetParam());
  const auto result =
      run_flows(shared_testbed(), {first_potential_flow()}, quick(scheme));
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_GT(result.flows[0].mbps, 3.0) << scheme_name(scheme);
  EXPECT_LT(result.flows[0].mbps, 6.5) << scheme_name(scheme);
  EXPECT_GT(result.flows[0].unique_packets, 400u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SingleFlowAllSchemes,
                         ::testing::Range(0, 6));

TEST(Experiment, CmapCountersArePopulated) {
  const auto result = run_flows(shared_testbed(), {first_potential_flow()},
                                quick(Scheme::kCmap));
  EXPECT_GT(result.flows[0].vps_sent, 10u);
  EXPECT_GT(result.flows[0].rx_vps_delim, 10u);
  EXPECT_GE(result.flows[0].rx_vps_delim, result.flows[0].rx_vps_header);
}

TEST(Experiment, DcfCountersStayZeroForCmapFields) {
  const auto result = run_flows(shared_testbed(), {first_potential_flow()},
                                quick(Scheme::kCsma));
  EXPECT_EQ(result.flows[0].vps_sent, 0u);
  EXPECT_EQ(result.flows[0].rx_vps_delim, 0u);
}

TEST(Experiment, AggregateIsSumOfFlows) {
  TopologyPicker picker(shared_testbed());
  sim::Rng rng(9);
  const auto pairs = picker.in_range_pairs(1, rng);
  ASSERT_FALSE(pairs.empty());
  const std::vector<Flow> flows = {{pairs[0].s1, pairs[0].r1},
                                   {pairs[0].s2, pairs[0].r2}};
  const auto result = run_flows(shared_testbed(), flows, quick(Scheme::kCmap));
  EXPECT_NEAR(result.aggregate_mbps,
              result.flows[0].mbps + result.flows[1].mbps, 1e-9);
}

TEST(Experiment, MeasurementWindowExcludesWarmup) {
  // A run measured over its warmup-free window reports steady state; with
  // warmup == duration nothing is counted.
  RunConfig rc = quick(Scheme::kCmap);
  rc.warmup = rc.duration;
  const auto result = run_flows(shared_testbed(), {first_potential_flow()}, rc);
  EXPECT_DOUBLE_EQ(result.flows[0].mbps, 0.0);
}

TEST(Experiment, FluentBuilderConfiguresEveryGroupedKnob) {
  const RunConfig rc = RunConfig{}
                           .with_scheme(Scheme::kCsmaOffAcks)
                           .with_duration(sim::seconds(3))
                           .with_warmup(sim::seconds(1))
                           .with_seed(17)
                           .with_packet_bytes(500)
                           .with_per_dest_queues(true)
                           .with_nvpkt(4)
                           .with_nwindow(2)
                           .with_defer_ttl(sim::seconds(6))
                           .with_ilist_period(sim::milliseconds(250));
  EXPECT_EQ(rc.scheme, Scheme::kCsmaOffAcks);
  EXPECT_EQ(rc.duration, sim::seconds(3));
  EXPECT_EQ(rc.warmup, sim::seconds(1));
  EXPECT_EQ(rc.seed, 17u);
  EXPECT_EQ(rc.packet_bytes, 500u);
  EXPECT_TRUE(rc.per_dest_queues);
  EXPECT_EQ(rc.cmap.nvpkt, 4);
  EXPECT_EQ(rc.cmap.nwindow, 2);
  EXPECT_EQ(rc.cmap.defer_ttl, sim::seconds(6));
  EXPECT_EQ(rc.cmap.ilist_period, sim::milliseconds(250));
  // Overrides reach the MAC through the grouped struct.
  World world(shared_testbed(),
              RunConfig{}.with_nvpkt(3).with_defer_ttl(sim::seconds(9)));
  const Flow f = first_potential_flow();
  world.add_node(f.src);
  ASSERT_NE(world.cmap(f.src), nullptr);
  EXPECT_EQ(world.cmap(f.src)->config().nvpkt, 3);
  EXPECT_EQ(world.cmap(f.src)->config().defer_entry_ttl, sim::seconds(9));
}

TEST(CmapConfigDeathTest, RunConfigNvpktOverrideIsValidated) {
  const Flow f = first_potential_flow();
  for (const int bad : {0, 65}) {
    World world(shared_testbed(), RunConfig{}.with_nvpkt(bad));
    EXPECT_DEATH(world.add_node(f.src), "CmapConfig::nvpkt") << bad;
  }
  World world(shared_testbed(), RunConfig{}.with_nwindow(0));
  EXPECT_DEATH(world.add_node(f.src), "CmapConfig::nwindow_vps");
}

TEST(PdesOptionsDeathTest, NonPositivePartitionsAbortsNamingTheField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const int bad : {0, -2}) {
    EXPECT_DEATH(World(shared_testbed(), RunConfig{}.with_partitions(bad)),
                 "PdesOptions::partitions")
        << bad;
  }
}

TEST(PdesOptionsDeathTest, NonPositiveThreadsAbortsNamingTheField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Serial or partitioned, a thread count below 1 is rejected: it used to
  // mean "inline" here but "all cores" in parallel_for.
  for (const int partitions : {1, 2}) {
    for (const int bad : {0, -1}) {
      EXPECT_DEATH(World(shared_testbed(), RunConfig{}
                                               .with_partitions(partitions)
                                               .with_pdes_threads(bad)),
                   "PdesOptions::threads")
          << partitions << " partitions, threads " << bad;
    }
  }
}

TEST(Experiment, WorldExposesComponentsForBespokeScenarios) {
  World world(shared_testbed(), quick(Scheme::kCmap));
  const Flow f = first_potential_flow();
  world.add_node(f.src);
  world.add_node(f.dst);
  EXPECT_NE(world.cmap(f.src), nullptr);
  EXPECT_EQ(world.dcf(f.src), nullptr);
  world.add_saturated_flow(f.src, f.dst);
  world.run(sim::seconds(1));
  EXPECT_GT(world.sink(f.dst).unique_packets(), 100u);
}

}  // namespace
}  // namespace cmap::testbed
