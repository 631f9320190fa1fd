#include "testbed/experiment.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

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

// What each scheme gives every node: its MAC (one of the two configs is
// set), that MAC's full config and the radio's salvage switch.
struct SchemeRow {
  Scheme scheme;
  std::optional<core::CmapConfig> cmap;
  std::optional<mac80211::DcfConfig> dcf;
  bool salvage = false;
};

std::vector<SchemeRow> scheme_table() {
  core::CmapConfig win1;
  win1.nwindow_vps = 1;
  mac80211::DcfConfig cs_off;
  cs_off.carrier_sense = false;
  mac80211::DcfConfig cs_off_no_acks = cs_off;
  cs_off_no_acks.acks = false;
  return {
      {Scheme::kCsma, std::nullopt, mac80211::DcfConfig{}, false},
      {Scheme::kCsmaOffAcks, std::nullopt, cs_off, false},
      {Scheme::kCsmaOffNoAcks, std::nullopt, cs_off_no_acks, false},
      {Scheme::kCmap, core::CmapConfig{}, std::nullopt, false},
      {Scheme::kCmapWin1, win1, std::nullopt, false},
      {Scheme::kCmapIntegrated, core::CmapConfig::integrated_defaults(),
       std::nullopt, true},
  };
}

TEST(SchemeResolution, EverySchemeGivesEachNodeItsMacConfigAndSalvage) {
  const auto table = scheme_table();
  ASSERT_EQ(table.size(), 6u);
  const Flow f = first_potential_flow();
  for (const SchemeRow& row : table) {
    SCOPED_TRACE(scheme_name(row.scheme));
    World world(shared_testbed(), quick(row.scheme));
    if (row.cmap) {
      EXPECT_TRUE(world.config().cmap == *row.cmap);
    } else {
      EXPECT_TRUE(world.config().dcf == *row.dcf);
    }
    for (const phy::NodeId id : {f.src, f.dst}) {
      world.add_node(id);
      if (row.cmap) {
        ASSERT_NE(world.cmap(id), nullptr);
        EXPECT_EQ(world.dcf(id), nullptr);
        EXPECT_TRUE(world.cmap(id)->config() == *row.cmap);
      } else {
        ASSERT_NE(world.dcf(id), nullptr);
        EXPECT_EQ(world.cmap(id), nullptr);
        EXPECT_TRUE(world.dcf(id)->config() == *row.dcf);
      }
      EXPECT_EQ(world.radio(id).config().salvage_enabled, row.salvage);
    }
  }
}

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

TEST(Experiment, ResolvedConfigReachesTheMac) {
  // Knobs the scheme leaves free reach every node's MAC as set, next to
  // the fields the scheme fixes, and config() reports the same config.
  const Flow f = first_potential_flow();
  RunConfig rc = quick(Scheme::kCmapWin1);
  rc.cmap.nvpkt = 4;
  rc.cmap.per_dest_queues = true;
  rc.cmap.defer_entry_ttl = sim::seconds(6);
  rc.cmap.ilist_period = sim::milliseconds(250);
  World world(shared_testbed(), rc);
  world.add_node(f.src);
  core::CmapConfig expected = rc.cmap;
  expected.nwindow_vps = 1;
  ASSERT_NE(world.cmap(f.src), nullptr);
  EXPECT_TRUE(world.cmap(f.src)->config() == expected);
  EXPECT_TRUE(world.config().cmap == expected);

  // A DCF scheme reads `dcf` instead, and ignores `cmap`.
  RunConfig dcf_rc = quick(Scheme::kCsmaOffAcks);
  dcf_rc.cmap.nvpkt = 0;
  dcf_rc.dcf.cw_min = 31;
  dcf_rc.dcf.data_rate = phy::WifiRate::k12Mbps;
  World dcf_world(shared_testbed(), dcf_rc);
  dcf_world.add_node(f.src);
  mac80211::DcfConfig expected_dcf = dcf_rc.dcf;
  expected_dcf.carrier_sense = false;
  ASSERT_NE(dcf_world.dcf(f.src), nullptr);
  EXPECT_TRUE(dcf_world.dcf(f.src)->config() == expected_dcf);
  EXPECT_TRUE(dcf_world.config().dcf == expected_dcf);
}

TEST(CmapConfigDeathTest, RunConfigNvpktOverrideIsValidated) {
  for (const int bad : {0, 65}) {
    RunConfig rc;
    rc.cmap.nvpkt = bad;
    EXPECT_DEATH(World(shared_testbed(), rc), "CmapConfig::nvpkt") << bad;
  }
  RunConfig rc;
  rc.cmap.nwindow_vps = 0;
  EXPECT_DEATH(World(shared_testbed(), rc), "CmapConfig::nwindow_vps");
}

TEST(RunConfigDeathTest, NonPositiveDurationAbortsNamingTheField) {
  for (const sim::Time bad : {sim::Time{0}, -sim::seconds(1)}) {
    RunConfig rc;
    rc.duration = bad;
    rc.warmup = 0;
    EXPECT_DEATH(World(shared_testbed(), rc), "RunConfig::duration") << bad;
  }
}

TEST(RunConfigDeathTest, WarmupOutsideTheRunAbortsNamingTheField) {
  // warmup == duration stays legal (MeasurementWindowExcludesWarmup).
  for (const sim::Time bad : {-sim::milliseconds(1), sim::seconds(4)}) {
    RunConfig rc = quick(Scheme::kCmap);
    rc.warmup = bad;
    EXPECT_DEATH(World(shared_testbed(), rc), "RunConfig::warmup") << bad;
  }
}

TEST(RunConfigDeathTest, EmptyPacketsAbortNamingTheField) {
  RunConfig rc = quick(Scheme::kCmap);
  rc.packet_bytes = 0;
  EXPECT_DEATH(World(shared_testbed(), rc), "RunConfig::packet_bytes");
}

TEST(RunConfigDeathTest, SchemeFixedFieldsAbortNamingTheField) {
  // A field the scheme fixes may not be set, even to the value the scheme
  // would pick: a "CMAP,win=1" row must run a window of one.
  struct Conflict {
    Scheme scheme;
    void (*set)(RunConfig&);
    const char* message;
  };
  const Conflict conflicts[] = {
      {Scheme::kCmap,
       [](RunConfig& rc) { rc.cmap.mode = core::PhyMode::kIntegrated; },
       "RunConfig::cmap.mode = 1: fixed by scheme CMAP"},
      {Scheme::kCmapIntegrated,
       [](RunConfig& rc) { rc.cmap.mode = core::PhyMode::kIntegrated; },
       "RunConfig::cmap.mode = 1: fixed by scheme CMAP,integrated"},
      {Scheme::kCmapWin1, [](RunConfig& rc) { rc.cmap.nwindow_vps = 4; },
       "RunConfig::cmap.nwindow_vps = 4: fixed by scheme CMAP,win=1"},
      {Scheme::kCmapIntegrated, [](RunConfig& rc) { rc.cmap.nvpkt = 2; },
       "RunConfig::cmap.nvpkt = 2: fixed by scheme CMAP,integrated"},
      {Scheme::kCmapIntegrated,
       [](RunConfig& rc) { rc.cmap.cw_max = sim::milliseconds(20); },
       "RunConfig::cmap.cw_max"},
      {Scheme::kCsma, [](RunConfig& rc) { rc.dcf.carrier_sense = false; },
       "RunConfig::dcf.carrier_sense = 0: fixed by scheme CS,acks"},
      {Scheme::kCsmaOffAcks, [](RunConfig& rc) { rc.dcf.acks = false; },
       "RunConfig::dcf.acks = 0: fixed by scheme CSoff,acks"},
  };
  for (const Conflict& c : conflicts) {
    RunConfig rc = quick(c.scheme);
    c.set(rc);
    EXPECT_DEATH(World(shared_testbed(), rc), c.message) << c.message;
  }
}

TEST(RunConfigDeathTest, TestbedSetSalvageAbortsNamingTheField) {
  // Salvage is the scheme's decision, so a testbed may not set it.
  TestbedConfig cfg;
  cfg.radio.salvage_enabled = true;
  const Testbed tb(cfg);
  for (const Scheme scheme : {Scheme::kCsma, Scheme::kCmapIntegrated}) {
    EXPECT_DEATH(World(tb, quick(scheme)), "RadioConfig::salvage_enabled")
        << scheme_name(scheme);
  }
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
