// Unit tests for the metrics subsystem (src/metrics/metrics.h): registry
// accumulation semantics (sum vs high-water max), hook masking (a hook
// bound to a disabled domain must never reach the registry), the fixed
// catalog order and domain filtering of counters_json, the counter-section
// merge of aggregate_counters, and the end-to-end World wiring: a metered
// run produces a populated snapshot, writes it where asked, and an
// unmetered run pays no registry at all.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"

namespace cmap::metrics {
namespace {

TEST(Registry, SumAndMaxSemantics) {
  Registry reg;
  reg.add(Counter::kPhyTransmits, 3);
  reg.add(Counter::kPhyTransmits, 4);
  EXPECT_EQ(reg.value(Counter::kPhyTransmits), 7u);

  reg.raise(Counter::kMacDeferOccupancyHw, 5);
  reg.raise(Counter::kMacDeferOccupancyHw, 2);  // lower: no effect
  reg.raise(Counter::kMacDeferOccupancyHw, 9);
  EXPECT_EQ(reg.value(Counter::kMacDeferOccupancyHw), 9u);
}

TEST(MetricsHook, DisabledDomainNeverReachesRegistry) {
  Registry reg(bit(Domain::kPhy));  // only PHY enabled
  MetricsHook phy, mac, unbound;
  phy.bind(&reg, Domain::kPhy);
  mac.bind(&reg, Domain::kMac);
  EXPECT_TRUE(phy.on());
  EXPECT_FALSE(mac.on());
  EXPECT_FALSE(unbound.on());

  phy.inc(Counter::kPhyTransmits);
  mac.inc(Counter::kMacSendDecisions);      // masked: dropped
  unbound.inc(Counter::kMacSendDecisions);  // no registry: dropped
  mac.raise(Counter::kMacDeferOccupancyHw, 42);

  EXPECT_EQ(reg.value(Counter::kPhyTransmits), 1u);
  EXPECT_EQ(reg.value(Counter::kMacSendDecisions), 0u);
  EXPECT_EQ(reg.value(Counter::kMacDeferOccupancyHw), 0u);
}

TEST(CounterCatalog, NamesKindsAndDomainsAreConsistent) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    ASSERT_NE(counter_name(c), nullptr);
    EXPECT_GT(std::string(counter_name(c)).size(), 0u);
  }
  EXPECT_EQ(counter_kind(Counter::kPhyTransmits), Kind::kSum);
  EXPECT_EQ(counter_kind(Counter::kMacDeferOccupancyHw), Kind::kMax);
  EXPECT_EQ(counter_kind(Counter::kMacOngoingActiveHw), Kind::kMax);
  EXPECT_EQ(counter_domain(Counter::kPhyGainCacheHits), Domain::kPhy);
  EXPECT_EQ(counter_domain(Counter::kMacDeferProbes), Domain::kMac);
  EXPECT_EQ(counter_domain(Counter::kDynMoves), Domain::kDynamics);
}

TEST(Snapshot, CountersJsonIsFixedOrderAndDomainFiltered) {
  MetricsSnapshot snap;
  snap.domains = kAllDomains;
  snap.counters[static_cast<std::size_t>(Counter::kPhyTransmits)] = 12;
  snap.counters[static_cast<std::size_t>(Counter::kMacSendDecisions)] = 7;
  const std::string all = snap.counters_json();
  EXPECT_NE(all.find("\"phy.transmits\":12"), std::string::npos);
  EXPECT_NE(all.find("\"mac.send_decisions\":7"), std::string::npos);
  // Catalog order: phy before mac.
  EXPECT_LT(all.find("phy.transmits"), all.find("mac.send_decisions"));

  snap.domains = bit(Domain::kMac);
  const std::string mac_only = snap.counters_json();
  EXPECT_EQ(mac_only.find("phy.transmits"), std::string::npos);
  EXPECT_NE(mac_only.find("mac.send_decisions"), std::string::npos);

  // Emission is a pure function of the snapshot: same bytes every call.
  EXPECT_EQ(snap.counters_json(), snap.counters_json());
}

TEST(Snapshot, ToJsonCarriesBothSections) {
  MetricsSnapshot snap;
  snap.domains = kAllDomains;
  snap.partitions = 4;
  snap.rounds = 17;
  snap.window_log2[20] = 3;
  PartitionExec pe;
  pe.partition = 2;
  pe.executed = 1234;
  snap.parts.push_back(pe);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"execution\":{"), std::string::npos);
  EXPECT_NE(json.find("\"partitions\":4"), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":17"), std::string::npos);
  EXPECT_NE(json.find("\"executed\":1234"), std::string::npos);
}

TEST(Aggregate, SumsCountersAndKeepsMaxes) {
  MetricsSnapshot a, b;
  a.domains = b.domains = kAllDomains;
  a.counters[static_cast<std::size_t>(Counter::kPhyTransmits)] = 10;
  b.counters[static_cast<std::size_t>(Counter::kPhyTransmits)] = 5;
  a.counters[static_cast<std::size_t>(Counter::kMacDeferOccupancyHw)] = 3;
  b.counters[static_cast<std::size_t>(Counter::kMacDeferOccupancyHw)] = 8;
  const MetricsSnapshot merged = aggregate_counters({&a, &b});
  EXPECT_EQ(merged.counter(Counter::kPhyTransmits), 15u);
  EXPECT_EQ(merged.counter(Counter::kMacDeferOccupancyHw), 8u);

  const MetricsSnapshot empty = aggregate_counters({});
  EXPECT_EQ(empty.domains, 0u);
}

// ---- End-to-end World wiring ----

testbed::RunConfig metered_config(const scenario::Scenario& sc,
                                  const std::string& path) {
  testbed::RunConfig config = sc.defaults;
  config.scheme = testbed::Scheme::kCmap;
  config.duration = sim::milliseconds(400);
  config.warmup = sim::milliseconds(100);
  config.seed = 5;
  MetricsConfig mc;
  mc.path = path;
  config.metrics = mc;
  return config;
}

TEST(WorldMetrics, MeteredRunProducesPopulatedSnapshotAndFile) {
  const scenario::Scenario& sc =
      scenario::ScenarioRegistry::global().at("fig12_exposed");
  const testbed::TestbedConfig tb_cfg =
      sc.testbed ? *sc.testbed : testbed::TestbedConfig{};
  const auto tb = testbed::TestbedCache::global().get(tb_cfg);
  sim::Rng topo_rng(3);
  const auto topologies = sc.topology(*tb, 1, topo_rng);
  ASSERT_FALSE(topologies.empty());

  const std::string path = ::testing::TempDir() + "metrics_fig12.json";
  const auto result = testbed::run_flows(
      *tb, topologies.front().flows, metered_config(sc, path));

  ASSERT_NE(result.profile, nullptr);
  const MetricsSnapshot& snap = *result.profile;
  EXPECT_GT(snap.counter(Counter::kPhyTransmits), 0u);
  EXPECT_GT(snap.counter(Counter::kPhyDeliveries), 0u);
  EXPECT_GT(snap.counter(Counter::kMacSendDecisions), 0u);
  EXPECT_GT(snap.queue_depth_high_water, 0u);
  ASSERT_EQ(snap.parts.size(), 1u);  // serial run: one pseudo-partition
  EXPECT_GT(snap.parts[0].executed, 0u);

  // Defer-reason attribution can never exceed the decision count, and
  // rx outcomes can never exceed deliveries.
  EXPECT_LE(snap.counter(Counter::kMacDeferDstBusy) +
                snap.counter(Counter::kMacDeferConflictMap),
            snap.counter(Counter::kMacSendDecisions));
  EXPECT_LE(snap.counter(Counter::kPhyRxOk) +
                snap.counter(Counter::kPhyRxCorrupt),
            snap.counter(Counter::kPhyDeliveries));

  // The per-run snapshot file landed and holds the same counter section.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  EXPECT_NE(contents.find(snap.counters_json()), std::string::npos);
  std::remove(path.c_str());
}

TEST(WorldMetrics, UnmeteredRunHasNoProfile) {
  const scenario::Scenario& sc =
      scenario::ScenarioRegistry::global().at("fig12_exposed");
  const testbed::TestbedConfig tb_cfg =
      sc.testbed ? *sc.testbed : testbed::TestbedConfig{};
  const auto tb = testbed::TestbedCache::global().get(tb_cfg);
  sim::Rng topo_rng(3);
  const auto topologies = sc.topology(*tb, 1, topo_rng);
  testbed::RunConfig config = sc.defaults;
  config.scheme = testbed::Scheme::kCmap;
  config.duration = sim::milliseconds(300);
  config.warmup = sim::milliseconds(100);
  config.seed = 5;
  const auto result =
      testbed::run_flows(*tb, topologies.front().flows, config);
  EXPECT_EQ(result.profile, nullptr);
}

TEST(WorldMetrics, ThreadsReportsTheThreadsThatRan) {
  const auto tb =
      testbed::TestbedCache::global().get(testbed::TestbedConfig{});
  testbed::RunConfig config;
  config.metrics = MetricsConfig{};
  config.pdes.threads = 4;
  // Serial: only the driving thread ever runs events.
  EXPECT_EQ(testbed::World(*tb, config).metrics_snapshot().threads, 1);
  // Two partitions: the threads are capped at the partition count.
  config.pdes.partitions = 2;
  {
    testbed::World world(*tb, config);
    world.run(sim::milliseconds(1));
    const MetricsSnapshot snap = world.metrics_snapshot();
    EXPECT_EQ(snap.partitions, 2);
    EXPECT_EQ(snap.threads, 2);
  }
  // Fewer threads than partitions: all of them ran.
  config.pdes.partitions = 4;
  config.pdes.threads = 3;
  EXPECT_EQ(testbed::World(*tb, config).metrics_snapshot().threads, 3);
}

TEST(WorldMetricsDeathTest, UnwritablePathAbortsNamingThePath) {
  const auto tb =
      testbed::TestbedCache::global().get(testbed::TestbedConfig{});
  testbed::RunConfig config;
  config.duration = sim::milliseconds(5);
  config.warmup = sim::milliseconds(1);
  config.metrics = MetricsConfig{};
  config.metrics->path =
      ::testing::TempDir() + "no_such_dir/run.metrics.json";
  EXPECT_DEATH(testbed::run_flows(*tb, {{0, 1}}, config),
               config.metrics->path);
}

TEST(SweepMetrics, RowsCarryProfilesAndReportAggregates) {
  scenario::Sweep sweep;
  sweep.scenario = "fig12_exposed";
  sweep.schemes = {testbed::Scheme::kCmap, testbed::Scheme::kCsma};
  sweep.topologies = 1;
  sweep.replicates = 2;
  sweep.duration = sim::milliseconds(300);
  sweep.warmup = sim::milliseconds(100);
  sweep.metrics = MetricsConfig{};  // in-memory only

  const scenario::Scenario& sc =
      scenario::ScenarioRegistry::global().at(sweep.scenario);
  const testbed::TestbedConfig tb_cfg =
      sc.testbed ? *sc.testbed : testbed::TestbedConfig{};
  const auto tb = testbed::TestbedCache::global().get(tb_cfg);
  const auto report = scenario::SweepRunner(1).run(sweep, *tb);
  ASSERT_FALSE(report.empty());
  for (const auto& row : report.rows()) {
    ASSERT_NE(row.profile, nullptr) << row.scheme;
  }

  const MetricsSnapshot total = report.aggregate_metrics();
  EXPECT_GT(total.counter(Counter::kPhyTransmits), 0u);

  const std::string json = report.metrics_json();
  EXPECT_NE(json.find("\"total\":{"), std::string::npos);
  EXPECT_NE(json.find("phy.transmits"), std::string::npos);

  // to_json stays byte-identical with metrics on or off: profiles are
  // deliberately excluded from the report contract.
  scenario::Sweep plain = sweep;
  plain.metrics.reset();
  EXPECT_EQ(report.to_json(),
            scenario::SweepRunner(1).run(plain, *tb).to_json());
}

// phy.transmits as written in a snapshot file; 0 when the file is missing.
std::uint64_t transmits_in_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::string key = "\"phy.transmits\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// An executor that builds more than one World per cell writes the measured
// World's snapshot to the cell file and into the row, and the earlier
// World's next to it: interferer_triple's control run to `.alone`
// (without the broadcasting interferer, so it transmits less) and
// mesh_dissemination's broadcast phase to `.phase1` (one sender against
// three).
class BespokeMetrics : public ::testing::TestWithParam<const char*> {};

TEST_P(BespokeMetrics, CellFileHoldsTheMeasuredWorld) {
  const std::string scenario = GetParam();
  const char* suffix =
      scenario == "interferer_triple" ? ".alone" : ".phase1";
  const std::string dir =
      ::testing::TempDir() + "bespoke_metrics_" + scenario;
  std::filesystem::create_directories(dir);
  scenario::Sweep sweep;
  sweep.scenario = scenario;
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.topologies = 2;
  sweep.duration = sim::seconds(1);
  sweep.warmup = sim::milliseconds(250);
  sweep.metrics = MetricsConfig{};
  sweep.metrics->path = dir;
  const testbed::Testbed tb{testbed::TestbedConfig{}};
  const auto report = scenario::SweepRunner(1).run(sweep, tb);

  ASSERT_FALSE(report.empty());
  for (const auto& row : report.rows()) {
    const scenario::RunSpec spec{row.scheme_index, row.variant_index,
                                 row.topology_index, row.replicate, row.seed};
    const std::string path =
        scenario::metrics_run_path(dir, scenario, spec);
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    ASSERT_TRUE(std::filesystem::exists(path + suffix)) << path << suffix;
    ASSERT_NE(row.profile, nullptr) << path;
    const std::uint64_t cell = transmits_in_file(path);
    EXPECT_EQ(cell, row.profile->counter(Counter::kPhyTransmits)) << path;
    EXPECT_GT(cell, transmits_in_file(path + suffix)) << path;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Executors, BespokeMetrics,
                         ::testing::Values("interferer_triple",
                                           "mesh_dissemination"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace cmap::metrics
