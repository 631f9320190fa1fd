// Carrier sense on demand (phy/radio.h): a radio whose MAC never asked for
// CCA edges keeps no CCA state, and a radio that did keeps one pending CCA
// wake instead of an event at the end of each arriving signal. Each case
// runs a registry workload twice: once as built, and once with every flow
// endpoint's radio opted in to CCA notifications. The per-flow results,
// the metrics counter section and the trace streams must be identical,
// and the run as built must execute fewer events.
//
// Watching costs the opted-in radios their CCA wakes, and turns an inert
// arrival (phy/radio.h) at them back into an arrival event unless their
// carrier is busy across its start for a reason that outlasts it; a
// salvaging radio also schedules that arrival's end. So the watched run has
// its wakes plus at most one event per delivery more (two when salvaging),
// and each radio's wakes run at distinct signal ends, fewer than the
// deliveries. Any events beyond the wakes are replayed inert arrivals: they
// show the inert path fired.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"

namespace cmap::scenario {
namespace {

struct Case {
  const char* label;
  const char* scenario;
  testbed::Scheme scheme;
  int partitions;
  int threads;
};

// Names the case in gtest's failure messages.
void PrintTo(const Case& c, std::ostream* os) { *os << c.label; }

struct Outcome {
  testbed::RunResult result;
  std::vector<std::string> streams;  // global stream, then one per partition
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t cca_wakes = 0;  // summed over the flow endpoints' radios
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

Outcome run(const Case& c, bool watch_cca, const std::string& trace_path) {
  const Scenario& s = ScenarioRegistry::global().at(c.scenario);
  const auto tb = testbed::TestbedCache::global().get(
      s.testbed ? *s.testbed : testbed::TestbedConfig{});
  Sweep sweep;
  sweep.scenario = c.scenario;
  sweep.schemes = {c.scheme};
  sweep.topologies = 1;
  const auto topologies = SweepRunner::draw_topologies(sweep, *tb);
  EXPECT_FALSE(topologies.empty());
  if (topologies.empty()) return {};
  const std::vector<testbed::Flow>& flows = topologies.front().flows;

  testbed::RunConfig config = s.defaults;
  config.scheme = c.scheme;
  // The mobility family runs long enough for waypoint moves and channel
  // epochs to fire.
  config.duration = s.defaults.dynamics.has_value() ? sim::milliseconds(1600)
                                                    : sim::milliseconds(500);
  config.warmup = config.duration / 4;
  config.seed = SweepRunner::expand(sweep, 1).front().seed;
  config.pdes.partitions = c.partitions;
  config.pdes.threads = c.threads;
  config.metrics = metrics::MetricsConfig{};
  config.trace = trace::TraceConfig{};
  config.trace->path = trace_path;

  Outcome out;
  {
    testbed::World world(*tb, config);
    for (const auto& f : flows) world.add_saturated_flow(f.src, f.dst);
    if (watch_cca) {
      for (const auto& f : flows) {
        world.radio(f.src).request_cca_notifications();
        world.radio(f.dst).request_cca_notifications();
      }
    }
    world.run(config.duration);
    out.result = testbed::collect_results(world, flows);
    std::set<phy::NodeId> endpoints;
    for (const auto& f : flows) endpoints.insert({f.src, f.dst});
    for (const phy::NodeId id : endpoints) {
      out.cca_wakes += world.radio(id).counters().cca_wakes;
    }
  }  // the World closes its trace streams
  for (const auto& part : out.result.profile->parts) {
    out.events += part.executed;
  }
  out.deliveries =
      out.result.profile->counter(metrics::Counter::kPhyDeliveries);
  out.streams.push_back(slurp(trace_path));
  for (int p = 0; c.partitions > 1 && p < c.partitions; ++p) {
    out.streams.push_back(slurp(trace_path + ".p" + std::to_string(p)));
  }
  return out;
}

class CarrierSenseOnDemand : public ::testing::TestWithParam<Case> {};

TEST_P(CarrierSenseOnDemand, UnwatchedSignalEndsChangeNothing) {
  const Case& c = GetParam();
  const std::string dir =
      ::testing::TempDir() + "carrier_sense_" + c.label + "/";
  std::filesystem::create_directories(dir);
  const Outcome as_built = run(c, false, dir + "as_built.cmtrace");
  const Outcome watched = run(c, true, dir + "watched.cmtrace");
  ASSERT_NE(as_built.result.profile, nullptr);
  ASSERT_NE(watched.result.profile, nullptr);

  EXPECT_GT(as_built.result.aggregate_mbps, 0.0);
  EXPECT_EQ(as_built.result.flows, watched.result.flows);
  EXPECT_EQ(as_built.result.aggregate_mbps, watched.result.aggregate_mbps);
  EXPECT_EQ(as_built.result.profile->counters_json(),
            watched.result.profile->counters_json());

  ASSERT_EQ(as_built.streams.size(), watched.streams.size());
  for (std::size_t i = 0; i < as_built.streams.size(); ++i) {
    EXPECT_FALSE(as_built.streams[i].empty()) << "stream " << i;
    EXPECT_TRUE(as_built.streams[i] == watched.streams[i]) << "stream " << i;
  }

  EXPECT_EQ(as_built.deliveries, watched.deliveries);
  EXPECT_LT(as_built.events, watched.events);
  const std::uint64_t saved = watched.events - as_built.events;
  const std::uint64_t wakes = watched.cca_wakes;
  EXPECT_EQ(as_built.cca_wakes, 0u);
  EXPECT_GT(wakes, 0u);
  EXPECT_LT(wakes, as_built.deliveries);
  EXPECT_LT(wakes, saved);
  const std::uint64_t per_inert_arrival =
      c.scheme == testbed::Scheme::kCmapIntegrated ? 2 : 1;
  EXPECT_LE(saved - wakes, per_inert_arrival * as_built.deliveries);
  EXPECT_LE(saved, 2 * as_built.deliveries);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, CarrierSenseOnDemand,
    ::testing::Values(
        Case{"flows_50_cmap_serial", "flows_50", testbed::Scheme::kCmap, 1,
             1},
        Case{"flows_50_cmap_4p2t", "flows_50", testbed::Scheme::kCmap, 4, 2},
        Case{"mobile_floor_50_cmap", "mobile_floor_50",
             testbed::Scheme::kCmap, 1, 1},
        Case{"flows_50_cs_off_acks", "flows_50",
             testbed::Scheme::kCsmaOffAcks, 1, 1},
        Case{"flows_50_cmap_integrated", "flows_50",
             testbed::Scheme::kCmapIntegrated, 1, 1}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.label);
    });

// Under 802.11 carrier sense every radio watches CCA, and most arrivals
// reach a radio whose carrier a stronger frame or its own transmission
// already holds across their start. Such an arrival takes no event
// (phy/radio.h). Before that rule a flows_50 carrier-sense run executed
// 1.43 events per delivered signal, serial or at 4 partitions alike.
Outcome run_carrier_sense(int partitions, int threads) {
  const Case c{"flows_50_cs", "flows_50", testbed::Scheme::kCsma, partitions,
               threads};
  const std::string dir = ::testing::TempDir() + "covered_arrivals_" +
                          std::to_string(partitions) + "p/";
  std::filesystem::create_directories(dir);
  Outcome out = run(c, false, dir + "run.cmtrace");
  std::filesystem::remove_all(dir);
  EXPECT_NE(out.result.profile, nullptr);
  EXPECT_GT(out.result.aggregate_mbps, 0.0);
  EXPECT_GT(out.cca_wakes, 0u);
  return out;
}

TEST(CoveredArrivals, SerialCarrierSenseRunsFewerEventsThanDeliveries) {
  // 0.75 events per delivery.
  const Outcome o = run_carrier_sense(1, 1);
  EXPECT_LT(o.events, o.deliveries);
}

TEST(CoveredArrivals, CarrierSense4p2tKeepsTheSavingWithinItsPartitions) {
  // An arrival from another partition keeps its event: only the
  // receiver's thread may touch its tracker. In flows_50 most nodes hear
  // one another, so at 4 partitions about three quarters of the covered
  // arrivals cross one, and the run executes 1.25 events per delivery.
  const Outcome o = run_carrier_sense(4, 2);
  EXPECT_LT(3 * o.events, 4 * o.deliveries);
}

}  // namespace
}  // namespace cmap::scenario
