// Golden-report non-interference of the trace subsystem: a sweep run with
// full tracing enabled must produce a report BYTE-identical to the same
// sweep untraced. Any divergence would mean recording perturbed the
// simulation (drew randomness, scheduled an event, changed iteration
// order) — the invariant that makes tracing safe to leave on anywhere.
// Covers a static figure sweep and a mobile (dynamics-on) sweep so the
// kMove/kChannelEpoch instrumentation is exercised too, plus the two
// bespoke executors that build more than one World per cell: each World
// must write its own stream, and every stream must decode to its end.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"
#include "trace/reader.h"

namespace cmap::scenario {
namespace {

Sweep make_sweep(const char* scenario) {
  Sweep sweep;
  sweep.scenario = scenario;
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.topologies = 2;
  sweep.duration = sim::seconds(1);
  sweep.warmup = sim::milliseconds(250);
  return sweep;
}

// The stream a multi-World executor's earlier World writes next to each
// cell file (documented at Sweep::trace), or nullptr.
const char* earlier_world_suffix(const std::string& scenario) {
  if (scenario == "mesh_dissemination") return ".phase1";
  if (scenario == "interferer_triple") return ".alone";
  return nullptr;
}

class TraceGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceGolden, TracedSweepReportIsByteIdentical) {
  const testbed::Testbed tb{testbed::TestbedConfig{}};

  const std::string untraced =
      SweepRunner(1).run(make_sweep(GetParam()), tb).to_json();

  const std::string dir =
      ::testing::TempDir() + "trace_golden_" + GetParam();
  std::filesystem::create_directories(dir);
  Sweep traced_sweep = make_sweep(GetParam());
  traced_sweep.trace = trace::TraceConfig{};
  traced_sweep.trace->path = dir;
  const std::string traced = SweepRunner(1).run(traced_sweep, tb).to_json();

  EXPECT_FALSE(untraced.empty());
  EXPECT_EQ(untraced, traced);

  // Every cell wrote a decodable trace with its deterministic name.
  const auto specs = SweepRunner::expand(traced_sweep, 2);
  EXPECT_FALSE(specs.empty());
  for (const auto& spec : specs) {
    const std::string path = trace_run_path(dir, GetParam(), spec);
    trace::TraceReader reader(path);
    EXPECT_TRUE(reader.ok()) << path << ": " << reader.error();
    if (const char* suffix = earlier_world_suffix(GetParam())) {
      std::string error;
      trace::read_all(path + suffix, &error);
      EXPECT_TRUE(error.empty()) << path << suffix << ": " << error;
    }
  }
  // Every stream in the directory (cell files and the extra Worlds'
  // derived ones) decodes cleanly to its last record.
  int streams = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.find(".cmtrace") == std::string::npos) continue;
    ++streams;
    std::string error;
    trace::read_all(path, &error);
    EXPECT_TRUE(error.empty()) << path << ": " << error;
  }
  EXPECT_GE(streams, static_cast<int>(specs.size()));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Sweeps, TraceGolden,
                         ::testing::Values("fig12_exposed", "mobile_floor_25",
                                           "mesh_dissemination",
                                           "interferer_triple"));

}  // namespace
}  // namespace cmap::scenario
