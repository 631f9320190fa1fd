// Golden-report exactness of intra-run parallel execution: every builtin
// scenario swept under the PDES engine at 2 and 4 partitions must produce
// a SweepReport BYTE-identical to the serial single-queue oracle. This is
// the contract that licenses the partitioned executive (docs/pdes.md):
// spatial partitioning, conservative closure windows, mailbox routing, and
// the shared-seq merged-group interleave are an *execution strategy* over
// the same totally-ordered event program, not an approximation — any
// divergence in any delivery order would cascade into different MAC
// decisions and therefore different report bytes. Mirrors
// test_sparse_golden.cpp (the link-state stores' equivalent guarantee).
//
// metro_10k is excluded for runtime only (bench_pdes covers the scaling
// story); every other scenario — including the mobility family, whose
// global mobility ticks exercise the barrier + lookahead-refresh path —
// runs here. Worker threads are exercised in the 4-partition variant;
// thread count never affects results. Each sweep runs CMAP and 802.11
// carrier sense: only the latter's radios watch CCA, so only it runs the
// CCA wakes (phy/radio.h) under partitions.
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

std::vector<std::string> golden_scenarios() {
  auto names = ScenarioRegistry::global().names();
  std::erase(names, "metro_10k");
  return names;
}

std::string run_report(const Scenario& s, int partitions, int threads) {
  Sweep sweep;
  sweep.scenario = s.name;
  sweep.schemes = {testbed::Scheme::kCmap, testbed::Scheme::kCsma};
  sweep.topologies = 1;
  // Short sweeps keep the full-registry pass affordable; the mobility
  // family gets a longer window so mobility ticks actually fire and the
  // engine's global-barrier + delay-refresh path runs.
  sweep.duration = s.defaults.dynamics.has_value() ? sim::milliseconds(1600)
                                                   : sim::milliseconds(400);
  sweep.warmup = *sweep.duration / 4;
  if (partitions > 1) {
    // The variant label stays empty so the report rows are labeled
    // identically to the serial run's — only the execution strategy may
    // differ between the two reports, never their shape.
    sweep.variants = {ConfigVariant{"", [partitions, threads](
                                            testbed::RunConfig& rc) {
                        rc.pdes.partitions = partitions;
                        rc.pdes.threads = threads;
                      }}};
  }
  const testbed::TestbedConfig cfg =
      s.testbed ? *s.testbed : testbed::TestbedConfig{};
  const auto tb = testbed::TestbedCache::global().get(cfg);
  return SweepRunner(1).run(sweep, *tb).to_json();
}

class PdesGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(PdesGolden, SweepReportIsByteIdenticalToSerial) {
  const Scenario& s = ScenarioRegistry::global().at(GetParam());
  const std::string serial = run_report(s, 1, 1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_report(s, 2, 1));
  EXPECT_EQ(serial, run_report(s, 4, 2));
}

INSTANTIATE_TEST_SUITE_P(
    Registry, PdesGolden, ::testing::ValuesIn(golden_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
          '_');
      return name;
    });

}  // namespace
}  // namespace cmap::scenario
