// Metro-scale memory bench: the 10,000-node metro_10k scenario over the
// sparse link-state stores, gated in CI on PEAK RSS — the dense O(n^2)
// pair state would need ~1.6 GB for the measurement matrices alone, so a
// regression that silently re-densifies any layer shows up as a gate
// failure, not a slow creep. Also times a testbed_400 build and sweep so
// the CSR store's cost at a mid-size building stays visible.
//
// Measurement order matters: ru_maxrss is process-monotone, so the gated
// metro numbers are taken BEFORE the testbed_400 timings.
//
// Timing rows use process CPU time normalized by the shared calibration
// workload — see cpu_ms_now()/calibration_ms() in bench_main.h.
#include "bench_main.h"

using namespace cmap;
using namespace cmap::bench;

int main() {
  Scale s = load_scale();
  if (std::getenv("CMAP_BENCH_SECONDS") == nullptr && !s.full) {
    s.duration = sim::seconds(2);  // ~100 concurrent flows: event-dense
    s.warmup = sim::milliseconds(500);
  }
  if (std::getenv("CMAP_BENCH_CONFIGS") == nullptr && !s.full) {
    s.configs = 1;
  }
  print_header("Metro 10k: sparse link-state memory",
               "no paper claim — the 10k-node scale the dense pair state "
               "cannot hold",
               s);
  const auto& registry = scenario::ScenarioRegistry::global();

  // ---- metro_10k over the sparse stores: the gated measurement ----
  const auto& metro = registry.at("metro_10k");
  double t0 = cpu_ms_now();
  testbed::Testbed metro_tb(*metro.testbed);
  const double metro_build_ms = cpu_ms_now() - t0;
  std::printf(
      "metro_10k testbed: %d nodes, %zu stored links (%.2f MB CSR), "
      "measurement pass %.0f CPU-ms\n",
      metro_tb.size(), metro_tb.stored_links(),
      static_cast<double>(metro_tb.stored_links()) * 20.0 / 1e6,
      metro_build_ms);

  auto metro_sweep = make_sweep(s, "metro_10k", {testbed::Scheme::kCmap});
  t0 = cpu_ms_now();
  auto report = make_runner(s).run(metro_sweep, metro_tb);
  const double metro_sweep_ms = cpu_ms_now() - t0;
  // Peak RSS now covers registry + metro build + metro sweep and nothing
  // else: this is the number the CI gate holds fixed.
  const double metro_rss_mb = peak_rss_mb();
  std::printf("metro_10k sweep: %zu runs in %.0f CPU-ms, peak RSS %.0f MB\n",
              report.rows().size(), metro_sweep_ms, metro_rss_mb);
  report.print_table();

  // ---- testbed_400: build and sweep cost of the CSR store ----
  const auto& t400 = registry.at("testbed_400");
  testbed::TestbedConfig t400_cfg = *t400.testbed;
  t400_cfg.seed = s.seed;
  t0 = cpu_ms_now();
  testbed::Testbed tb400(t400_cfg);
  const double t400_sparse_build_ms = cpu_ms_now() - t0;
  auto sweep400 = make_sweep(s, "testbed_400", {testbed::Scheme::kCmap});
  t0 = cpu_ms_now();
  auto report400 = make_runner(s).run(sweep400, tb400);
  const double t400_sparse_sweep_ms = cpu_ms_now() - t0;
  std::printf("testbed_400 build: %.0f CPU-ms (%zu stored links)\n",
              t400_sparse_build_ms, tb400.stored_links());
  std::printf("testbed_400 sweep: %.0f CPU-ms (%.3f Mb/s)\n",
              t400_sparse_sweep_ms, report400.rows().front().aggregate_mbps);

  const double calib = calibration_ms();
  stats::RunRow timing;
  timing.scenario = "metro_bench";
  timing.scheme = "timing";
  timing.topology = "cpu-time";
  timing.metrics = {
      {"nodes", static_cast<double>(metro_tb.size())},
      {"configs", static_cast<double>(s.configs)},
      {"run_seconds", sim::to_seconds(s.duration)},
      {"threads", static_cast<double>(make_runner(s).threads())},
      {"metro_sparse_peak_rss_mb", metro_rss_mb},
      {"metro_stored_links", static_cast<double>(metro_tb.stored_links())},
      {"metro_testbed_build_cpu_ms", metro_build_ms},
      {"metro_sweep_cpu_ms", metro_sweep_ms},
      {"t400_sparse_build_cpu_ms", t400_sparse_build_ms},
      {"t400_sparse_sweep_cpu_ms", t400_sparse_sweep_ms},
      {"calibration_ms", calib}};
  report.add_row(std::move(timing));
  std::printf("calibration: %.0f CPU-ms (normalizes the regression gate)\n",
              calib);

  maybe_write_json(report);
  return 0;
}
