// Intra-run PDES bench: the byte-identity gate and the scaling story for
// the partitioned executive (sim/pdes.h, docs/pdes.md).
//
// Two probes, all in one process:
//   1. pdes_reports_match — a sweep over the bench scenario run on the
//      serial oracle and again at 2 and 4 partitions (2 threads each);
//      1.0 iff all three SweepReport JSONs are byte-identical. This is the
//      contract the executive ships under and is CI-gated as a fixed
//      minimum of 1.0.
//   2. pdes_speedup — wall-clock serial / wall-clock 4-partition for the
//      same single run. Informational only: the CI container is
//      effectively single-core, so the honest expectation there is ~1x or
//      below (windows + barriers are pure overhead without parallelism).
//
// The 4-partition run also reports stall attribution from the metrics
// subsystem: per-partition executed events, mailbox traffic, busy time and
// barrier wait (src/metrics/metrics.h) — INFO rows, since they measure the
// machine, not the simulation.
//
// Knobs: CMAP_BENCH_SCENARIO (default flows_50), CMAP_BENCH_SECONDS /
// CMAP_BENCH_SEED as usual. Runtimes stay deliberately under the
// regression gate's 1000 ms floor so the _ms rows ride as info, not as
// flaky gates.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"

using namespace cmap;
using namespace cmap::bench;

namespace {

double wall_ms_now() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One sweep over the scenario, serial (partitions == 1) or partitioned,
// with metrics collected in memory (the per-partition stall-attribution
// rows come from the run's MetricsSnapshot). *wall_ms gets the sweep's
// wall-clock time. Note the byte-identity probe compares to_json(), which
// deliberately excludes the profile — metrics stay out of the gate.
stats::SweepReport run_sweep(const scenario::Scenario& s, const Scale& scale,
                             int partitions, int threads, double* wall_ms) {
  scenario::Sweep sweep;
  sweep.scenario = s.name;
  sweep.schemes = {testbed::Scheme::kCmap};
  sweep.topologies = 1;
  sweep.base_seed = scale.seed;
  sweep.duration = scale.duration;
  sweep.warmup = scale.warmup;
  sweep.metrics = metrics::MetricsConfig{};  // empty path: in-memory only
  if (partitions > 1) {
    sweep.variants = {scenario::ConfigVariant{
        "", [partitions, threads](testbed::RunConfig& rc) {
          rc.pdes.partitions = partitions;
          rc.pdes.threads = threads;
        }}};
  }
  const testbed::TestbedConfig cfg =
      s.testbed ? *s.testbed : testbed::TestbedConfig{};
  const auto tb = testbed::TestbedCache::global().get(cfg);
  const double t0 = wall_ms_now();
  stats::SweepReport report = scenario::SweepRunner(1).run(sweep, *tb);
  *wall_ms = wall_ms_now() - t0;
  return report;
}

}  // namespace

int main() {
  Scale s = load_scale();
  if (std::getenv("CMAP_BENCH_SECONDS") == nullptr && !s.full) {
    // Default well under the regression gate's 1000 ms info floor.
    s.duration = sim::milliseconds(800);
    s.warmup = sim::milliseconds(200);
  }
  const char* scen_env = std::getenv("CMAP_BENCH_SCENARIO");
  const std::string scenario_name = scen_env != nullptr ? scen_env : "flows_50";
  const scenario::Scenario& scen =
      scenario::ScenarioRegistry::global().at(scenario_name);

  print_header("Intra-run PDES: partitioned executive vs the serial oracle",
               "no paper claim — execution strategy; reports must be "
               "byte-identical at any partition count",
               s);
  std::printf("scenario: %s (CMAP_BENCH_SCENARIO)\n", scenario_name.c_str());

  double serial_ms = 0.0, p2_ms = 0.0, p4_ms = 0.0;
  const stats::SweepReport serial_report =
      run_sweep(scen, s, 1, 1, &serial_ms);
  const stats::SweepReport p2_report = run_sweep(scen, s, 2, 2, &p2_ms);
  const stats::SweepReport p4_report = run_sweep(scen, s, 4, 2, &p4_ms);
  const std::string serial = serial_report.to_json();
  const std::string p2 = p2_report.to_json();
  const std::string p4 = p4_report.to_json();
  const bool match = serial == p2 && serial == p4;
  const double speedup = serial_ms / std::max(p4_ms, 1e-3);

  std::printf("serial oracle:         %8.1f wall-ms\n", serial_ms);
  std::printf("2 partitions:          %8.1f wall-ms\n", p2_ms);
  std::printf("4 partitions:          %8.1f wall-ms\n", p4_ms);
  std::printf("speedup (4p):          %8.2fx (wall; info-only on 1 core)\n",
              speedup);
  std::printf("reports identical:     %s\n", match ? "yes" : "NO — BUG");

  // Stall attribution for the 4-partition run: who executed what, and who
  // spent the parallel phase waiting. busy/barrier-wait need wall-clock and
  // so ride as INFO only (new keys inside the existing pdes_bench row are
  // ignored by the regression gate's baseline-driven iteration).
  std::vector<std::pair<std::string, double>> partition_info;
  if (!p4_report.rows().empty() && p4_report.rows().front().profile) {
    const metrics::MetricsSnapshot& snap = *p4_report.rows().front().profile;
    std::printf("4p stall attribution:  %" PRIu64 " rounds, %" PRIu64
                " global barriers\n",
                snap.rounds, snap.global_barriers);
    for (const metrics::PartitionExec& pe : snap.parts) {
      const double util =
          snap.parallel_wall_ms > 0.0 ? pe.busy_ms / snap.parallel_wall_ms
                                      : 0.0;
      std::printf("  partition %d: %10" PRIu64 " events, %8" PRIu64
                  " mailbox msgs, busy %8.1f ms, barrier-wait %8.1f ms "
                  "(%.0f%% util)\n",
                  pe.partition, pe.executed, pe.mailbox_posted, pe.busy_ms,
                  pe.barrier_wait_ms, util * 100.0);
      const std::string prefix = "pdes_p" + std::to_string(pe.partition);
      partition_info.emplace_back(prefix + "_executed",
                                  static_cast<double>(pe.executed));
      partition_info.emplace_back(prefix + "_busy_ms", pe.busy_ms);
      partition_info.emplace_back(prefix + "_barrier_wait_ms",
                                  pe.barrier_wait_ms);
    }
  }

  stats::SweepReport report;
  stats::RunRow timing;
  timing.scenario = "pdes_bench";
  timing.scheme = "timing";
  timing.topology = "cpu-time";
  // pdes_reports_match is the fixed ==1.0 gate; the wall timings and the
  // speedup ride as info (the CI container has one core, and the runtimes
  // sit under the gate's 1000 ms floor by construction).
  timing.metrics = {{"pdes_serial_wall_ms", serial_ms},
                    {"pdes_p4_wall_ms", p4_ms},
                    {"pdes_speedup", speedup},
                    {"pdes_reports_match", match ? 1.0 : 0.0},
                    {"calibration_ms", calibration_ms()}};
  for (auto& kv : partition_info) timing.metrics.push_back(std::move(kv));
  report.add_row(std::move(timing));

  maybe_write_json(report);
  return match ? 0 : 1;
}
