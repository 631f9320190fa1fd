// The dense-grid family's shared draw picks each sender's best-PRR
// receiver by walking only the stored connected row. That must be the
// receiver an all-node scan over the full n^2 PRR matrix picks: ascending
// dst, strict >, from the same RNG draws. Here the scan runs over the
// test-only oracle matrix (tests/oracles/measurement_oracle.h), swapped in
// as the topology of a same-named scenario in a private registry, so both
// draws are seeded identically by SweepRunner::draw_topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "oracles/measurement_oracle.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "testbed/testbed.h"

namespace cmap::scenario {
namespace {

struct DrawCase {
  const char* scenario;
  int sender_pct;  // the make_dense_grid argument the scenario is built with
};

void PrintTo(const DrawCase& c, std::ostream* os) { *os << c.scenario; }

// Partial Fisher-Yates over all ids for k senders, then a best-PRR scan of
// every other node over the oracle matrix.
TopologyFn all_node_scan(const oracles::MeasurementMatrix& m, int sender_pct) {
  return [&m, sender_pct](const testbed::Testbed&, int count, sim::Rng& rng) {
    const int n = m.size();
    const int k = std::max(1, n * sender_pct / 100);
    std::vector<TopologyInstance> out;
    for (int draw = 0; draw < count; ++draw) {
      std::vector<phy::NodeId> ids(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
      for (int i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(i, static_cast<std::int64_t>(n) - 1));
        std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
      }
      TopologyInstance inst;
      for (int i = 0; i < k; ++i) {
        const phy::NodeId src = ids[static_cast<std::size_t>(i)];
        phy::NodeId best = src;
        double best_prr = -1.0;
        for (phy::NodeId dst = 0; dst < static_cast<phy::NodeId>(n); ++dst) {
          if (dst != src && m.prr(src, dst) > best_prr) {
            best_prr = m.prr(src, dst);
            best = dst;
          }
        }
        if (best != src) inst.flows.push_back({src, best});
      }
      if (!inst.flows.empty()) out.push_back(std::move(inst));
    }
    return out;
  };
}

class SharedDraw : public ::testing::TestWithParam<DrawCase> {};

TEST_P(SharedDraw, EqualsAnAllNodeScanOverTheOracleMatrix) {
  const Scenario& s = ScenarioRegistry::global().at(GetParam().scenario);
  const auto tb = testbed::TestbedCache::global().get(
      s.testbed ? *s.testbed : testbed::TestbedConfig{});
  const oracles::MeasurementMatrix matrix(*tb);
  ScenarioRegistry scan_registry;
  Scenario scan = s;
  scan.topology = all_node_scan(matrix, GetParam().sender_pct);
  scan_registry.add(scan);

  for (const std::uint64_t base_seed : {1ull, 2ull, 7ull}) {
    SCOPED_TRACE(base_seed);
    Sweep sweep;
    sweep.scenario = s.name;
    sweep.base_seed = base_seed;
    sweep.topologies = 4;
    const auto got = SweepRunner::draw_topologies(sweep, *tb);
    const auto want = SweepRunner::draw_topologies(sweep, *tb, scan_registry);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_FALSE(got.empty());
    for (std::size_t t = 0; t < got.size(); ++t) {
      ASSERT_EQ(got[t].flows.size(), want[t].flows.size()) << "draw " << t;
      for (std::size_t f = 0; f < got[t].flows.size(); ++f) {
        EXPECT_EQ(got[t].flows[f].src, want[t].flows[f].src);
        EXPECT_EQ(got[t].flows[f].dst, want[t].flows[f].dst)
            << "draw " << t << " sender " << got[t].flows[f].src;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DenseGridFamily, SharedDraw,
    ::testing::Values(DrawCase{"flows_50", 50}, DrawCase{"mobile_floor_50", 50},
                      DrawCase{"dense_grid_25", 25},
                      DrawCase{"testbed_400", 25}),
    [](const ::testing::TestParamInfo<DrawCase>& info) {
      return std::string(info.param.scenario);
    });

}  // namespace
}  // namespace cmap::scenario
