#include "scenario/sweep.h"

#include <gtest/gtest.h>

#include <set>

namespace cmap::scenario {
namespace {

const testbed::Testbed& shared_testbed() {
  static testbed::Testbed tb{testbed::TestbedConfig{}};
  return tb;
}

// A synthetic scenario whose executor does no simulation: runs are instant
// and the outcome encodes the run coordinates, which lets structural tests
// (expansion, parallel determinism, ordering) execute in microseconds.
ScenarioRegistry synthetic_registry() {
  ScenarioRegistry reg;
  Scenario s;
  s.name = "synthetic";
  s.description = "coordinate-echo scenario for runner tests";
  s.topology = [](const testbed::Testbed&, int count, sim::Rng& rng) {
    std::vector<TopologyInstance> out;
    for (int i = 0; i < count; ++i) {
      TopologyInstance inst;
      inst.flows = {{static_cast<phy::NodeId>(i), static_cast<phy::NodeId>(
                                                      i + 1)}};
      inst.label = "topo" + std::to_string(i) + "/" +
                   std::to_string(rng.uniform_int(0, 1 << 20));
      out.push_back(inst);
    }
    return out;
  };
  s.run = [](const RunContext& ctx) {
    RunOutcome out;
    out.aggregate_mbps = static_cast<double>(ctx.config.seed % 1000);
    out.metrics = {
        {"seed_lo", static_cast<double>(ctx.config.seed & 0xff)},
        {"nwindow", static_cast<double>(ctx.config.cmap.nwindow_vps)}};
    return out;
  };
  reg.add(s);
  return reg;
}

TEST(SweepExpansion, CountsAreTheCartesianProduct) {
  Sweep sweep;
  sweep.scenario = "synthetic";
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCsmaOffAcks,
                   testbed::Scheme::kCmap};
  sweep.variants = {{"a", nullptr}, {"b", nullptr}};
  sweep.replicates = 4;
  const auto specs = SweepRunner::expand(sweep, 5);
  EXPECT_EQ(specs.size(), 3u * 2u * 5u * 4u);
}

TEST(SweepExpansion, NoVariantsMeansOneImplicitVariant) {
  Sweep sweep;
  sweep.scenario = "synthetic";
  sweep.schemes = {testbed::Scheme::kCmap};
  const auto specs = SweepRunner::expand(sweep, 7);
  EXPECT_EQ(specs.size(), 7u);
  for (const auto& spec : specs) EXPECT_EQ(spec.variant_index, 0);
}

TEST(SweepExpansion, SeedsAreUniqueAcrossCellsScenariosAndBaseSeeds) {
  std::set<std::uint64_t> seeds;
  std::size_t total = 0;
  for (const char* name : {"synthetic", "other_name"}) {
    for (std::uint64_t base : {1ull, 2ull, 7919ull}) {
      Sweep sweep;
      sweep.scenario = name;
      sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
      sweep.variants = {{"a", nullptr}, {"b", nullptr}};
      sweep.replicates = 3;
      sweep.base_seed = base;
      for (const auto& spec : SweepRunner::expand(sweep, 10)) {
        seeds.insert(spec.seed);
        ++total;
      }
    }
  }
  // The old bench derivation (seed * 7919 + scheme) collided across
  // schemes and base seeds; the splitmix64 mix must not.
  EXPECT_EQ(seeds.size(), total);
}

TEST(SweepMixSeed, ChangingAnyCoordinateChangesTheSeed) {
  const std::uint64_t base = mix_seed({1, 2, 3, 4, 5, 6});
  EXPECT_NE(mix_seed({9, 2, 3, 4, 5, 6}), base);
  EXPECT_NE(mix_seed({1, 9, 3, 4, 5, 6}), base);
  EXPECT_NE(mix_seed({1, 2, 9, 4, 5, 6}), base);
  EXPECT_NE(mix_seed({1, 2, 3, 9, 5, 6}), base);
  EXPECT_NE(mix_seed({1, 2, 3, 4, 9, 6}), base);
  EXPECT_NE(mix_seed({1, 2, 3, 4, 5, 9}), base);
  EXPECT_EQ(mix_seed({1, 2, 3, 4, 5, 6}), base);  // and it is a pure function
}

TEST(SweepRunnerTest, ThreadCountIsRespected) {
  EXPECT_EQ(SweepRunner(1).threads(), 1);
  EXPECT_EQ(SweepRunner(4).threads(), 4);
  EXPECT_GE(SweepRunner(0).threads(), 1);
}

TEST(SweepRunnerTest, RowsFollowExpansionOrderRegardlessOfThreads) {
  const auto reg = synthetic_registry();
  Sweep sweep;
  sweep.scenario = "synthetic";
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.variants = {
      {"w1", [](testbed::RunConfig& rc) { rc.cmap.nwindow_vps = 1; }},
      {"w8", [](testbed::RunConfig& rc) { rc.cmap.nwindow_vps = 8; }}};
  sweep.topologies = 6;
  sweep.replicates = 2;

  const auto serial = SweepRunner(1).run(sweep, shared_testbed(), reg);
  const auto parallel = SweepRunner(8).run(sweep, shared_testbed(), reg);
  EXPECT_EQ(serial.rows().size(), 2u * 2u * 6u * 2u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());

  // Variants really applied per cell.
  const auto* w1 = serial.find("CMAP", 0, "w1");
  const auto* w8 = serial.find("CMAP", 0, "w8");
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w8, nullptr);
  EXPECT_DOUBLE_EQ(w1->metric("nwindow"), 1.0);
  EXPECT_DOUBLE_EQ(w8->metric("nwindow"), 8.0);
}

TEST(SweepRunnerTest, InvalidOutcomesAreDroppedDeterministically) {
  ScenarioRegistry reg;
  Scenario s;
  s.name = "half_valid";
  s.description = "drops odd topologies";
  s.topology = [](const testbed::Testbed&, int count, sim::Rng&) {
    std::vector<TopologyInstance> out;
    for (int i = 0; i < count; ++i) {
      TopologyInstance inst;
      inst.flows = {{1, 2}};
      inst.label = std::to_string(i);
      out.push_back(inst);
    }
    return out;
  };
  s.run = [](const RunContext& ctx) {
    RunOutcome out;
    out.valid = std::stoi(ctx.topology.label) % 2 == 0;
    out.aggregate_mbps = 1.0;
    return out;
  };
  reg.add(s);

  Sweep sweep;
  sweep.scenario = "half_valid";
  sweep.schemes = {testbed::Scheme::kCmap};
  sweep.topologies = 10;
  const auto serial = SweepRunner(1).run(sweep, shared_testbed(), reg);
  const auto parallel = SweepRunner(4).run(sweep, shared_testbed(), reg);
  EXPECT_EQ(serial.rows().size(), 5u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

// The end-to-end guarantee the parallel runner is built on: real
// simulations produce byte-identical reports at 1 thread and N threads.
TEST(SweepRunnerTest, RealSweepIsByteIdenticalAcrossThreadCounts) {
  Sweep sweep;
  sweep.scenario = "fig12_exposed";
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.topologies = 2;
  sweep.duration = sim::seconds(2);
  sweep.warmup = sim::seconds(1);

  const auto serial = SweepRunner(1).run(sweep, shared_testbed());
  const auto parallel = SweepRunner(4).run(sweep, shared_testbed());
  ASSERT_FALSE(serial.rows().empty());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  for (const auto& row : serial.rows()) {
    EXPECT_GT(row.aggregate_mbps, 0.0) << row.scheme << " " << row.topology;
    ASSERT_EQ(row.flows.size(), 2u);  // per-flow results survive into rows
    EXPECT_GT(row.flows[0].unique_packets, 0u);
    if (row.scheme == "CMAP") {
      EXPECT_GT(row.flows[0].vps_sent, 0u);
    }
  }
}

// The testbed_100/400 family prescribes its own building; the
// testbed-resolving overload must instantiate it through the global
// TestbedCache so repeated sweeps share one measurement pass.
TEST(SweepRunnerTest, ScenarioResolvedTestbedComesFromTheGlobalCache) {
  const auto& reg = ScenarioRegistry::global();
  const Scenario& scenario = reg.at("testbed_100");
  ASSERT_TRUE(scenario.testbed.has_value());
  EXPECT_EQ(scenario.testbed->num_nodes, 100);
  // fig12_exposed has no canonical building: drivers must pass one.
  EXPECT_FALSE(reg.at("fig12_exposed").testbed.has_value());

  const auto tb1 = testbed::TestbedCache::global().get(*scenario.testbed);
  const auto tb2 = testbed::TestbedCache::global().get(*scenario.testbed);
  EXPECT_EQ(tb1.get(), tb2.get());
  EXPECT_EQ(tb1->size(), 100);

  Sweep sweep;
  sweep.scenario = "testbed_100";
  sweep.schemes = {testbed::Scheme::kCsma};
  sweep.topologies = 1;
  sweep.duration = sim::seconds(1);
  sweep.warmup = sim::seconds(0);
  const auto via_cache = SweepRunner(1).run(sweep);
  const auto explicit_tb = SweepRunner(1).run(sweep, *tb1);
  ASSERT_FALSE(via_cache.rows().empty());
  EXPECT_EQ(via_cache.to_json(), explicit_tb.to_json());
}

TEST(SweepRunnerTest, DrawTopologiesMatchesWhatRunUses) {
  Sweep sweep;
  sweep.scenario = "fig12_exposed";
  sweep.schemes = {testbed::Scheme::kCsma};
  sweep.topologies = 2;
  sweep.duration = sim::seconds(2);
  sweep.warmup = sim::seconds(1);
  const auto topos = SweepRunner::draw_topologies(sweep, shared_testbed());
  const auto report = SweepRunner(2).run(sweep, shared_testbed());
  ASSERT_EQ(report.rows().size(), topos.size());
  for (std::size_t i = 0; i < topos.size(); ++i) {
    EXPECT_EQ(report.rows()[i].topology, topos[i].label);
  }
}

}  // namespace
}  // namespace cmap::scenario
