#include "scenario/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "testbed/experiment.h"

namespace cmap::scenario {
namespace {

const testbed::Testbed& shared_testbed() {
  static testbed::Testbed tb{testbed::TestbedConfig{}};
  return tb;
}

TEST(Registry, GlobalHasEveryBuiltin) {
  const auto& reg = ScenarioRegistry::global();
  for (const char* name :
       {"fig12_exposed", "fig13_inrange", "fig15_hidden", "single_link",
        "ap_wlan", "ap_wlan_3", "ap_wlan_4", "ap_wlan_5", "ap_wlan_6",
        "mesh_dissemination", "interferer_triple", "disjoint_flows_2",
        "disjoint_flows_7", "dest_queue_ablation", "chain", "mixed_floor",
        "dense_grid_10", "dense_grid_25", "dense_grid_50", "testbed_100",
        "flows_50", "metro_10k", "mobile_floor_25", "mobile_floor_50",
        "mobile_chain", "churn_25"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
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
  const auto& tb = shared_testbed();  // 50 nodes
  std::size_t prev_flows = 0;
  for (int pct : {10, 25, 50}) {
    const auto& scenario = ScenarioRegistry::global().at(
        "dense_grid_" + std::to_string(pct));
    sim::Rng rng(5);
    const auto draws = scenario.topology(tb, 2, rng);
    ASSERT_EQ(draws.size(), 2u);
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

}  // namespace
}  // namespace cmap::scenario
