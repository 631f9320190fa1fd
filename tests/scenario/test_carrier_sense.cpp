// Carrier sense on demand (phy/radio.h): a radio whose MAC never asked for
// CCA edges schedules no event at the end of each arriving signal. Those
// events only re-evaluated CCA, so dropping them must change nothing a run
// reports. Each case runs a registry workload twice: once as built, and
// once with every radio opted in to CCA notifications, which restores the
// signal-end event per delivery. The per-flow results, the metrics counter
// section and the trace streams must be identical, and the run as built
// must execute fewer events.
//
// Watching also turns each inert arrival (phy/radio.h) at a watched radio
// back into an arrival event, so the watched run has at most two events
// per delivery more: the arrival and the signal end. Without salvage the
// gap must exceed one event per delivery, more than the saved signal ends
// alone can account for: that shows the inert path fired. A salvaging
// radio keeps both events for every arrival at or above sensitivity, so
// there only the upper bound holds; that case runs the salvage exemption
// of the inert rule.
//
// The opted-in run also keeps the "signal missing at its end" assertion in
// Radio::on_signal_end exercised under CMAP, whose radios otherwise never
// reach it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
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
  if (c.scheme != testbed::Scheme::kCmapIntegrated) {
    EXPECT_LT(as_built.deliveries, saved);
  }
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

}  // namespace
}  // namespace cmap::scenario
