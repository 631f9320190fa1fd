#include "scenario/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "testbed/experiment.h"

namespace cmap::scenario {
namespace {

const testbed::Testbed& shared_testbed() {
  static testbed::Testbed tb{testbed::TestbedConfig{}};
  return tb;
}

TEST(Registry, GlobalHasEveryBuiltin) {
  // The exact catalog: adding or dropping a builtin must name itself here.
  const std::vector<std::string> expected = {
      "ap_wlan_3",          "ap_wlan_4",        "ap_wlan_5",
      "ap_wlan_6",          "chain",            "churn_25",
      "dense_grid_25",      "dest_queue_ablation",
      "disjoint_flows_2",   "disjoint_flows_3", "disjoint_flows_4",
      "disjoint_flows_5",   "disjoint_flows_6", "disjoint_flows_7",
      "fig12_exposed",      "fig13_inrange",    "fig15_hidden",
      "flows_50",           "interferer_triple",
      "mesh_dissemination", "metro_10k",        "mixed_floor",
      "mobile_chain",       "mobile_floor_25",  "mobile_floor_50",
      "single_link",        "testbed_100",      "testbed_400"};
  EXPECT_EQ(ScenarioRegistry::global().names(), expected);
}

TEST(Registry, NamesAreSortedAndMatchSize) {
  const auto& reg = ScenarioRegistry::global();
  const auto names = reg.names();
  EXPECT_EQ(names.size(), reg.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, FindReturnsNullForUnknown) {
  EXPECT_EQ(ScenarioRegistry::global().find("no_such_scenario"), nullptr);
}

TEST(Registry, AddRegistersAndReplacesByName) {
  ScenarioRegistry reg;
  Scenario s;
  s.name = "custom";
  s.description = "first";
  s.topology = [](const testbed::Testbed&, int, sim::Rng&) {
    return std::vector<TopologyInstance>{};
  };
  reg.add(s);
  ASSERT_NE(reg.find("custom"), nullptr);
  EXPECT_EQ(reg.at("custom").description, "first");

  s.description = "second";
  reg.add(s);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.at("custom").description, "second");
}

TEST(Registry, TopologyDrawsAreDeterministic) {
  const auto& scenario = ScenarioRegistry::global().at("fig12_exposed");
  sim::Rng rng_a(42), rng_b(42);
  const auto a = scenario.topology(shared_testbed(), 4, rng_a);
  const auto b = scenario.topology(shared_testbed(), 4, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
  }
}

TEST(Registry, PairScenariosDrawTwoFlowInstances) {
  for (const char* name : {"fig12_exposed", "fig13_inrange", "fig15_hidden"}) {
    const auto& scenario = ScenarioRegistry::global().at(name);
    sim::Rng rng(7);
    const auto draws = scenario.topology(shared_testbed(), 3, rng);
    ASSERT_FALSE(draws.empty()) << name;
    for (const auto& inst : draws) {
      EXPECT_EQ(inst.flows.size(), 2u) << name;
      EXPECT_FALSE(inst.label.empty()) << name;
    }
  }
}

TEST(Registry, NewScenariosDrawWellFormedInstances) {
  sim::Rng rng(11);
  const auto chains = ScenarioRegistry::global().at("chain").topology(
      shared_testbed(), 2, rng);
  for (const auto& inst : chains) {
    ASSERT_EQ(inst.flows.size(), 3u);
    // All six chain endpoints are distinct.
    std::set<phy::NodeId> nodes;
    for (const auto& f : inst.flows) {
      nodes.insert(f.src);
      nodes.insert(f.dst);
    }
    EXPECT_EQ(nodes.size(), 6u);
  }

  sim::Rng rng2(11);
  const auto mixed = ScenarioRegistry::global().at("mixed_floor").topology(
      shared_testbed(), 2, rng2);
  for (const auto& inst : mixed) {
    ASSERT_EQ(inst.flows.size(), 4u);
    std::set<phy::NodeId> nodes;
    for (const auto& f : inst.flows) {
      nodes.insert(f.src);
      nodes.insert(f.dst);
    }
    EXPECT_EQ(nodes.size(), 8u);  // exposed and hidden pairs are disjoint
  }
}

TEST(Registry, DenseGridScalesWithDensityAndAvoidsSelfFlows) {
  // Both dense-grid densities drawn on the shared floor, whatever
  // building flows_50 prescribes for its own runs.
  const auto& tb = shared_testbed();  // 50 nodes
  std::size_t prev_flows = 0;
  for (const auto& [name, pct] :
       {std::pair{"dense_grid_25", 25}, std::pair{"flows_50", 50}}) {
    const auto& scenario = ScenarioRegistry::global().at(name);
    sim::Rng rng(5);
    const auto draws = scenario.topology(tb, 2, rng);
    ASSERT_EQ(draws.size(), 2u) << name;
    for (const auto& inst : draws) {
      EXPECT_EQ(inst.flows.size(),
                static_cast<std::size_t>(tb.size() * pct / 100));
      std::set<phy::NodeId> senders;
      for (const auto& f : inst.flows) {
        EXPECT_NE(f.src, f.dst);
        senders.insert(f.src);
      }
      EXPECT_EQ(senders.size(), inst.flows.size());  // senders are distinct
    }
    EXPECT_GT(draws[0].flows.size(), prev_flows);
    prev_flows = draws[0].flows.size();
  }
}

TEST(Registry, MobileDescriptionsKeepTheirTtlTail) {
  const auto& reg = ScenarioRegistry::global();
  int checked = 0;
  for (const std::string& name : reg.names()) {
    if (!name.starts_with("mobile_floor_") && !name.starts_with("churn_")) {
      continue;
    }
    ++checked;
    const std::string& description = reg.at(name).description;
    EXPECT_TRUE(description.ends_with("defer TTL 5 s)"))
        << name << ": " << description;
  }
  EXPECT_GE(checked, 3);
}

TEST(Registry, MobileRelearningDefaultsSurviveTheIntegratedScheme) {
  // The integrated scheme fixes its own timings, not the TTL or period.
  testbed::RunConfig config =
      ScenarioRegistry::global().at("mobile_floor_50").defaults;
  config.scheme = testbed::Scheme::kCmapIntegrated;
  testbed::World world(shared_testbed(), config);
  world.add_node(0);
  ASSERT_NE(world.cmap(0), nullptr);
  const core::CmapConfig& mac = world.cmap(0)->config();
  EXPECT_EQ(mac.defer_entry_ttl, sim::seconds(5));
  EXPECT_EQ(mac.ilist_period, sim::milliseconds(500));
  EXPECT_EQ(mac.mode, core::PhyMode::kIntegrated);
  EXPECT_EQ(mac.nvpkt, 1);
  EXPECT_TRUE(world.config().cmap == mac);
}

TEST(Registry, InterfererTripleCountsOnlyTheSendersPackets) {
  // A triple whose interferer I reaches the receiver R: R's sink also takes
  // I's broadcasts, and the triple's throughput must leave them out.
  const testbed::Testbed& tb = shared_testbed();
  const auto& scenario = ScenarioRegistry::global().at("interferer_triple");
  sim::Rng rng(1);
  const auto draws = scenario.topology(tb, 40, rng);
  const auto heard = std::find_if(
      draws.begin(), draws.end(), [&](const TopologyInstance& t) {
        return tb.prr(t.extras[0], t.flows[0].dst) > 0.9;
      });
  ASSERT_NE(heard, draws.end());
  const phy::NodeId s = heard->flows[0].src;
  const phy::NodeId r = heard->flows[0].dst;
  const phy::NodeId i = heard->extras[0];

  testbed::RunConfig config = scenario.defaults;
  config.scheme = testbed::Scheme::kCsma;
  config.duration = sim::seconds(3);
  config.warmup = sim::seconds(1);
  const RunOutcome out = scenario.run(RunContext{tb, *heard, config});
  ASSERT_TRUE(out.valid);

  // The executor's interfered run again, read per source at R.
  testbed::World world(tb, config);
  world.add_saturated_flow(s, r);
  world.add_saturated_flow(i, phy::kBroadcastId);
  world.run(config.duration);
  const net::PacketSink& sink = world.sink(r);
  EXPECT_GT(sink.from(i).unique_packets, 0u) << "I never reached R";
  EXPECT_GT(sink.from(s).unique_packets, 0u);
  EXPECT_EQ(out.aggregate_mbps, sink.from(s).meter.mbps());
  EXPECT_LT(out.aggregate_mbps, sink.meter().mbps());
}

}  // namespace
}  // namespace cmap::scenario
