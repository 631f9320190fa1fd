// Link-row audits of the medium: every case runs one workload with a
// forwarding listener on every radio. At the end of each transmission the
// listener checks the transmitter's row against the brute-force link
// oracle (tests/oracles/link_oracle.h), which asks the propagation model
// about every other radio and knows nothing of the spatial grid, the
// watch lists or the move re-linking. Every row is also checked once all
// nodes have attached and once the run is over. A row that equals the
// brute-force row is what licenses the culled fan-out: the medium then
// delivers to exactly the receivers, with exactly the gains and delays, a
// per-receiver propagation query on every frame would, minus receivers a
// fade could lift over the delivery floor only beyond the guard band.
//
// The suite and case names are those of the dense-against-sparse report
// goldens these audits replaced; what the simulator outputs is pinned by
// tests/golden/report_digests.txt (test_report_digests.cpp).
//
// Three families:
//  - SparseGolden: every builtin scenario on its prescribed building,
//    CMAP, one topology. metro_10k is left out: brute-force rows over
//    10,000 radios at every transmit are what its sparse rows exist to
//    avoid (its digest is in the file).
//  - FastPathGolden: the fig12/fig15 figure benches, CS and CMAP, with
//    fading on and off.
//  - DynamicsGolden: the mobile family, where every move re-links the
//    mover's neighborhoods and channel epochs drive the watch lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "oracles/link_oracle.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"

namespace cmap::scenario {
namespace {

struct Audit {
  std::uint64_t rows = 0;       // rows audited
  std::uint64_t tx_rows = 0;    // of which at the end of a transmission
  std::uint64_t mismatches = 0;
  std::string first;            // the first mismatch found

  void check(const std::string& diff) {
    ++rows;
    if (diff.empty()) return;
    if (mismatches++ == 0) first = diff;
  }
};

// Installed on a radio in place of its MAC; forwards every callback, and
// audits the radio's row when one of its transmissions ends.
class AuditingListener final : public phy::RadioListener {
 public:
  AuditingListener(const phy::Radio& radio, phy::RadioListener& mac,
                   Audit& audit)
      : radio_(radio), mac_(mac), audit_(audit) {}
  void on_rx_start(const phy::Frame& frame, sim::Time end_time) override {
    mac_.on_rx_start(frame, end_time);
  }
  void on_header_decoded(const phy::Frame& frame, bool ok) override {
    mac_.on_header_decoded(frame, ok);
  }
  void on_rx_end(const phy::Frame& frame, const phy::RxResult& r) override {
    mac_.on_rx_end(frame, r);
  }
  void on_salvage(const phy::Frame& frame, const phy::RxResult& r) override {
    mac_.on_salvage(frame, r);
  }
  void on_cca(bool busy) override { mac_.on_cca(busy); }
  void on_tx_end(const phy::Frame& frame) override {
    ++audit_.tx_rows;
    audit_.check(oracles::audit_row(radio_.medium(), radio_.id()));
    mac_.on_tx_end(frame);
  }

 private:
  const phy::Radio& radio_;
  phy::RadioListener& mac_;
  Audit& audit_;
};

// Every cell of `sweep` as one audited run: the World the default
// executor builds for the cell (the scenario's defaults, the cell's
// scheme and seed, the drawn flows saturated, the extras attached).
// Serial, so the listeners run on this thread; rows do not depend on the
// executive.
Audit audited_sweep(const Sweep& sweep, const testbed::Testbed& tb) {
  const Scenario& s = ScenarioRegistry::global().at(sweep.scenario);
  const std::vector<TopologyInstance> topologies =
      SweepRunner::draw_topologies(sweep, tb);
  EXPECT_FALSE(topologies.empty()) << sweep.scenario;
  Audit audit;
  for (const RunSpec& spec :
       SweepRunner::expand(sweep, static_cast<int>(topologies.size()))) {
    const TopologyInstance& topo =
        topologies[static_cast<std::size_t>(spec.topology_index)];
    testbed::RunConfig config = s.defaults;
    config.scheme = sweep.schemes[static_cast<std::size_t>(spec.scheme_index)];
    config.duration = *sweep.duration;
    config.warmup = *sweep.warmup;
    config.seed = spec.seed;
    config.pdes = sim::PdesOptions{};
    // Declared before the World, so they outlive the radios pointing at
    // them.
    std::vector<std::unique_ptr<AuditingListener>> listeners;
    testbed::World world(tb, config);
    for (const testbed::Flow& f : topo.flows) {
      world.add_saturated_flow(f.src, f.dst);
    }
    for (const phy::NodeId id : topo.extras) world.add_node(id);
    const phy::Medium& medium = world.radio(topo.flows.at(0).src).medium();
    for (phy::Radio* radio : medium.radios()) {
      audit.check(oracles::audit_row(medium, radio->id()));
      auto* mac = dynamic_cast<phy::RadioListener*>(&world.mac(radio->id()));
      EXPECT_NE(mac, nullptr);
      if (mac == nullptr) continue;
      listeners.push_back(
          std::make_unique<AuditingListener>(*radio, *mac, audit));
      radio->set_listener(listeners.back().get());
    }
    world.run(config.duration);
    for (const phy::Radio* radio : medium.radios()) {
      audit.check(oracles::audit_row(medium, radio->id()));
    }
  }
  return audit;
}

void expect_rows_exact(const Sweep& sweep, const testbed::Testbed& tb) {
  const Audit audit = audited_sweep(sweep, tb);
  EXPECT_GT(audit.tx_rows, 0u) << sweep.scenario << ": nothing transmitted";
  EXPECT_EQ(audit.mismatches, 0u)
      << sweep.scenario << ": " << audit.mismatches << " of " << audit.rows
      << " audited rows differ; first: " << audit.first;
}

// ---- Registry-wide ----

std::vector<std::string> audited_scenarios() {
  auto names = ScenarioRegistry::global().names();
  std::erase(names, "metro_10k");
  return names;
}

class SparseGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SparseGolden, SweepReportIsByteIdenticalToDense) {
  const Scenario& s = ScenarioRegistry::global().at(GetParam());
  Sweep sweep;
  sweep.scenario = s.name;
  sweep.schemes = {testbed::Scheme::kCmap};
  sweep.topologies = 1;
  // The mobility family gets a longer window so the 500 ms channel epochs
  // actually advance and the watch-list refresh path runs.
  sweep.duration = s.defaults.dynamics.has_value() ? sim::milliseconds(1600)
                                                   : sim::milliseconds(400);
  sweep.warmup = *sweep.duration / 4;
  // Scenarios without a prescribed building (driver-supplied testbed) run
  // on the canonical 50-node one, same as the driver's default.
  const auto tb = testbed::TestbedCache::global().get(
      s.testbed ? *s.testbed : testbed::TestbedConfig{});
  expect_rows_exact(sweep, *tb);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SparseGolden, ::testing::ValuesIn(audited_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
          '_');
      return name;
    });

// ---- Figure benches and the mobile family: CS + CMAP, several draws ----

void expect_rows_exact(const testbed::TestbedConfig& cfg, const char* scenario,
                       int topologies) {
  const testbed::Testbed tb(cfg);
  Sweep sweep;
  sweep.scenario = scenario;
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.topologies = topologies;
  sweep.duration = sim::seconds(2);
  sweep.warmup = sim::milliseconds(500);
  expect_rows_exact(sweep, tb);
}

testbed::TestbedConfig figure_config(double fading_sigma_db) {
  testbed::TestbedConfig cfg;
  cfg.medium.fading_sigma_db = fading_sigma_db;
  return cfg;
}

class FastPathGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(FastPathGolden, FigureBenchReportIsByteIdenticalWithFading) {
  // Fading widens the guard band: the cull floor sits 6 sigma under the
  // delivery floor, so rows hold receivers the floor then drops.
  expect_rows_exact(figure_config(2.0), GetParam(), 3);
}

TEST_P(FastPathGolden, FigureBenchReportIsByteIdenticalWithoutFading) {
  // fading_sigma_db == 0: the cull floor is the delivery floor.
  expect_rows_exact(figure_config(0.0), GetParam(), 3);
}

INSTANTIATE_TEST_SUITE_P(FigureBenches, FastPathGolden,
                         ::testing::Values("fig12_exposed", "fig15_hidden"));

class DynamicsGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(DynamicsGolden, MobileSweepReportIsByteIdentical) {
  expect_rows_exact(testbed::TestbedConfig{}, GetParam(), 2);
}

// mobile_floor_25 moves half the floor every 200 ms under an evolving
// channel; churn_25 teleports nodes (the abrupt re-link case);
// mobile_chain drifts every node (all rows hot).
INSTANTIATE_TEST_SUITE_P(MobileScenarios, DynamicsGolden,
                         ::testing::Values("mobile_floor_25", "churn_25",
                                           "mobile_chain"));

TEST(DynamicsGoldenSanity, MobileRunsDifferFromStaticRuns) {
  // The dynamics must actually change outcomes (otherwise the family tests
  // nothing): the same workload with dynamics stripped produces a
  // different report.
  const testbed::Testbed tb{testbed::TestbedConfig{}};
  Sweep sweep;
  sweep.scenario = "mobile_floor_25";
  sweep.schemes = {testbed::Scheme::kCmap};
  sweep.topologies = 2;
  sweep.duration = sim::seconds(2);
  sweep.warmup = sim::milliseconds(500);
  const std::string mobile = SweepRunner(1).run(sweep, tb).to_json();
  sweep.variants = {{"", [](testbed::RunConfig& c) { c.dynamics.reset(); }}};
  const std::string frozen = SweepRunner(1).run(sweep, tb).to_json();
  EXPECT_NE(mobile, frozen);
}

}  // namespace
}  // namespace cmap::scenario
