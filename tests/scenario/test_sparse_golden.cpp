// Golden-report exactness of the production link-state path: every case
// sweeps one workload twice — over the default medium (LinkStateMode::
// kSparse: spatial index, culled cached rows, watch lists) and over the
// kDenseReference oracle (a propagation query per receiver per frame, full
// fan-out) — and requires BYTE-identical reports. This is what licenses
// the cached path: it is an indexing of the same pair state plus a cull of
// deliveries already below the floor, not an approximation — any
// divergence in any gain, delivery or fading draw would cascade into
// different timings and therefore different report bytes. Mirrors
// test_mac_decide_golden.cpp (the MAC decision fast path's equivalent
// guarantee).
//
// Three families:
//  - SparseGolden: every builtin scenario on its prescribed building.
//    metro_10k is excluded by design: it exists precisely because no
//    dense reference can be materialized at 10^8 directed pairs
//    (bench_metro gates its sparse peak RSS instead).
//  - FastPathGolden: the fig12/fig15 figure benches, CS and CMAP, with
//    fading on and off.
//  - DynamicsGolden: the mobile family, where every move re-links the
//    mover's neighborhoods and channel epochs drive the watch lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"

namespace cmap::scenario {
namespace {

testbed::TestbedConfig reference_variant(testbed::TestbedConfig cfg) {
  cfg.medium.link_state = phy::LinkStateMode::kDenseReference;
  return cfg;
}

// ---- Registry-wide sweep ----

std::vector<std::string> golden_scenarios() {
  auto names = ScenarioRegistry::global().names();
  std::erase(names, "metro_10k");
  return names;
}

std::string run_report(const Scenario& s,
                       const testbed::TestbedConfig& cfg) {
  Sweep sweep;
  sweep.scenario = s.name;
  sweep.schemes = {testbed::Scheme::kCmap};
  sweep.topologies = 1;
  // Short sweeps keep the full-registry pass affordable; the mobility
  // family gets a longer window so the 500 ms channel epochs actually
  // advance and the sparse medium's watch-list refresh path runs.
  sweep.duration = s.defaults.dynamics.has_value() ? sim::milliseconds(1600)
                                                   : sim::milliseconds(400);
  sweep.warmup = *sweep.duration / 4;
  const auto tb = testbed::TestbedCache::global().get(cfg);
  return SweepRunner(1).run(sweep, *tb).to_json();
}

class SparseGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SparseGolden, SweepReportIsByteIdenticalToDense) {
  const Scenario& s = ScenarioRegistry::global().at(GetParam());
  // Scenarios without a prescribed building (driver-supplied testbed) run
  // on the canonical 50-node one, same as the driver's default.
  const testbed::TestbedConfig base =
      s.testbed ? *s.testbed : testbed::TestbedConfig{};
  const std::string dense = run_report(s, reference_variant(base));
  const std::string sparse = run_report(s, base);
  EXPECT_FALSE(dense.empty());
  EXPECT_EQ(dense, sparse);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SparseGolden, ::testing::ValuesIn(golden_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
          '_');
      return name;
    });

// ---- Figure benches and the mobile family: CS + CMAP, several draws ----

std::string sweep_json(const testbed::TestbedConfig& cfg,
                       const char* scenario, int topologies) {
  const testbed::Testbed tb(cfg);
  Sweep sweep;
  sweep.scenario = scenario;
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.topologies = topologies;
  sweep.duration = sim::seconds(2);
  sweep.warmup = sim::milliseconds(500);
  const stats::SweepReport report = SweepRunner(1).run(sweep, tb);
  EXPECT_FALSE(report.empty()) << scenario;
  return report.to_json();
}

void expect_identical_to_reference(const testbed::TestbedConfig& cfg,
                                   const char* scenario, int topologies) {
  EXPECT_EQ(sweep_json(cfg, scenario, topologies),
            sweep_json(reference_variant(cfg), scenario, topologies));
}

testbed::TestbedConfig figure_config(double fading_sigma_db) {
  testbed::TestbedConfig cfg;
  cfg.medium.fading_sigma_db = fading_sigma_db;
  // With fading enabled, identity holds unless a fade beats the guard
  // band; at the default 6 sigma that is ~1e-9 per culled delivery, which
  // over a whole sweep leaves a designed-in flake window. 8 sigma (~6e-16)
  // makes this test deterministic for all practical purposes while still
  // exercising the fading path; the fading-off case pins the
  // unconditional guarantee.
  cfg.medium.cull_guard_sigmas = 8.0;
  return cfg;
}

class FastPathGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(FastPathGolden, FigureBenchReportIsByteIdenticalWithFading) {
  expect_identical_to_reference(figure_config(2.0), GetParam(), 3);
}

TEST_P(FastPathGolden, FigureBenchReportIsByteIdenticalWithoutFading) {
  // fading_sigma_db == 0: culling is exact, identity is unconditional.
  expect_identical_to_reference(figure_config(0.0), GetParam(), 3);
}

INSTANTIATE_TEST_SUITE_P(FigureBenches, FastPathGolden,
                         ::testing::Values("fig12_exposed", "fig15_hidden"));

class DynamicsGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(DynamicsGolden, MobileSweepReportIsByteIdentical) {
  expect_identical_to_reference(testbed::TestbedConfig{}, GetParam(), 2);
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
