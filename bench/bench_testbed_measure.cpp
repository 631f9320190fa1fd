// Testbed measurement-pass bench: times the O(n^2) directed-pair PRR
// measurement two ways — the tabulated fast path (a full Testbed build)
// and the test-only per-pair Monte-Carlo oracle over the same n(n-1)
// pairs (tests/oracles/measurement_oracle.h) — on one large building,
// reports the speedup and the fast-vs-oracle PRR drift, and exercises the
// TestbedCache hit path. Doubles as a CI regression probe: the timing row
// rides in the CMAP_BENCH_JSON report and tools/check_bench_regression.py
// enforces the fast-path speedup (machine-independent, both timed in this
// process) plus the calibration-normalized wall-clock gates.
//
// Knobs: CMAP_BENCH_NODES (default 200) sizes the testbed;
// CMAP_BENCH_MEASURE_THREADS (default 1) shards the per-pair loop — the
// gated run keeps 1 so the speedup is the algorithmic factor, not
// parallelism.
#include "bench_main.h"
#include "oracles/measurement_oracle.h"
#include "testbed/measurement.h"

using namespace cmap;
using namespace cmap::bench;

// Fading draws per directed pair the measurement pass took before the
// table replaced it: the workload the speedup gate was set against.
constexpr int kOracleSamples = 100;

int main() {
  const Scale s = load_scale();
  const int nodes = static_cast<int>(env_long("CMAP_BENCH_NODES", 200));
  const int threads =
      static_cast<int>(env_long("CMAP_BENCH_MEASURE_THREADS", 1));
  print_header("Testbed measurement pass: fast (tabulated) vs MC oracle",
               "no paper claim — startup scaling for large buildings", s);
  std::printf("nodes: %d (CMAP_BENCH_NODES), measure threads: %d\n", nodes,
              threads);

  testbed::TestbedConfig cfg;
  cfg.num_nodes = nodes;
  cfg.seed = s.seed;
  cfg.measurement.threads = threads;

  double t0 = cpu_ms_now();
  testbed::Testbed fast(cfg);
  const double fast_ms = cpu_ms_now() - t0;

  t0 = cpu_ms_now();
  const std::vector<double> ref =
      oracles::monte_carlo_prr_matrix(fast, kOracleSamples);
  const double ref_ms = cpu_ms_now() - t0;
  // Floor the denominator at one clock quantum: a fast pass that finishes
  // within clock()'s resolution (tiny CMAP_BENCH_NODES on a quick machine)
  // must read as very fast, not as speedup 0 — and the metric must stay
  // finite for the JSON report.
  const double speedup = ref_ms / std::max(fast_ms, 1000.0 / CLOCKS_PER_SEC);

  double max_delta = 0.0;
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(nodes); ++i) {
    for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(nodes); ++j) {
      if (i != j) {
        max_delta = std::max(
            max_delta,
            std::abs(fast.prr(i, j) -
                     ref[static_cast<std::size_t>(i) * nodes + j]));
      }
    }
  }

  // Cache: a second build of the same config must be a pointer lookup.
  testbed::TestbedCache cache;
  const auto first = cache.get(cfg);
  t0 = cpu_ms_now();
  const auto second = cache.get(cfg);
  const double cache_hit_ms = cpu_ms_now() - t0;
  const bool cache_hit = first.get() == second.get();

  std::printf("fast (tabulated):      %8.1f CPU-ms\n", fast_ms);
  std::printf("oracle (MC x %3d):     %8.1f CPU-ms\n",
              kOracleSamples, ref_ms);
  std::printf("speedup:               %8.1fx\n", speedup);
  std::printf("max |dPRR| fast-MC:    %8.4f\n", max_delta);
  std::printf("cache hit:             %8.2f CPU-ms (%s)\n", cache_hit_ms,
              cache_hit ? "identical instance" : "MISS — BUG");
  std::printf("mean degree:           %8.1f (fast)\n", fast.mean_degree());

  stats::SweepReport report;
  stats::RunRow timing;
  timing.scenario = "testbed_measure_bench";
  timing.scheme = "timing";
  timing.topology = "cpu-time";
  // Knob values ride along so the regression gate can reject a comparison
  // whose workload drifted from the baseline's; *_ms rows are normalized
  // by calibration_ms; measure_speedup is gated as a raw minimum.
  timing.metrics = {{"nodes", static_cast<double>(nodes)},
                    {"measure_threads", static_cast<double>(threads)},
                    {"measure_fast_cpu_ms", fast_ms},
                    {"measure_reference_cpu_ms", ref_ms},
                    {"measure_speedup", speedup},
                    {"max_abs_delta_prr", max_delta},
                    {"cache_hit", cache_hit ? 1.0 : 0.0},
                    {"calibration_ms", calibration_ms()}};
  report.add_row(std::move(timing));

  maybe_write_json(report);
  return 0;
}
