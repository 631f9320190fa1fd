#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares the timing rows emitted by the bench drivers (stats::SweepReport
JSONs with a trailing "timing"-scheme row each) against the committed
baseline, and optionally checks the fast-path speedup ratios from a Google
Benchmark JSON produced by bench_micro.

Eight timing rows are gated today, matched by scenario name across however
many --pr files are given:
  dense_grid_bench       (bench_dense_grid)      — simulation hot path
  testbed_measure_bench  (bench_testbed_measure) — measurement pass; its
      measure_speedup metric (tabulated fast path vs the test-only
      Monte-Carlo oracle, both timed in the same process) is enforced as a
      raw machine-independent minimum.
  mac_decide_bench       (bench_mac_decide)      — CMAP send decision; its
      mac_decide_speedup metric (indexed fast path vs the test-only oracle
      scan at high flow concurrency) is enforced the same way, and
      decisions_match must be 1.0 (the two answered byte-identically).
  mobility_bench         (bench_mobility)        — link-state maintenance
      under node mobility; its mobility_speedup metric (the medium's
      incremental per-move re-link vs building a fresh medium at each
      move's resulting positions) is enforced the same way, and
      mobility_states_match must be 1.0 (the moved medium is bit-identical
      to a fresh build at the final positions).
  trace_bench            (bench_trace)           — trace-subsystem cost; its
      trace_overhead_off metric (CPU time with a Tracer attached but all
      categories disabled vs untraced, both timed in the same process) is
      enforced as a fixed maximum of 1.02: disabled instrumentation must
      stay within 2% of free.
  metrics_bench          (bench_metrics)         — metrics-subsystem cost;
      its metrics_overhead_off metric (CPU time with a counter Registry
      attached but all domains disabled vs unmetered, both timed in the
      same process) is enforced under the same fixed 1.02 maximum as the
      trace gate, for the same reason: a disabled instrumentation site is
      one branch on a cached mask.
  metro_bench            (bench_metro)           — sparse link-state memory
      at the 10,000-node metro scale; its metro_sparse_peak_rss_mb metric
      (process peak RSS taken before the bench's testbed_400 timings) is
      enforced as a fixed maximum of 256 MB. The dense O(n^2) pair state
      would need ~1.6 GB for the measurement matrices alone, so any layer
      silently re-densifying fails the gate outright rather than creeping.
      metro_stored_links is exact: same seed, same culling geometry, same
      sparse link count — a drift means the spatial index or cull floor
      changed behavior.
  pdes_bench             (bench_pdes)            — intra-run parallel event
      execution; its pdes_reports_match metric is 1.0 when the partitioned
      executive (2 and 4 partitions, worker threads on) produced
      SweepReports byte-identical to the serial single-queue oracle — the
      contract that licenses PDES at all (docs/pdes.md). pdes_speedup
      rides as info: the CI container is effectively single-core, so
      wall-clock parallel speedup is not meaningful there.

Every non-timing row of the baseline (today the four dense_grid_25
throughput rows bench_dense_grid emits) must reappear in the PR reports
exactly, field for field. Those runs are deterministic at the CI recipe's
knobs, so any difference means the simulator's output moved; refresh the
baseline only together with a change that means to move it.

Wall-clock comparisons (metrics ending in "_ms") are normalized by each
row's own calibration_ms (a fixed CPU-bound workload timed on the same
machine), so a slower or faster CI runner does not masquerade as a code
regression; only changes relative to the machine's own speed count. The
gate fails when a normalized timing exceeds baseline * threshold (default
1.25, i.e. >25% regression).

Refresh the baseline after an intentional performance change by re-running
the CI bench recipe locally (see .github/workflows/ci.yml, job
bench-regression) and committing the merged reports as
bench/baselines/BENCH_baseline.json (the runs arrays concatenated).
"""

import argparse
import json
import sys

CALIBRATION_KEY = "calibration_ms"
# Workload knobs compared for exact equality (not timings): a wall-clock
# comparison is only meaningful when the PR ran the same workload the
# baseline did.
EXACT_KEYS = {"nodes", "configs", "run_seconds", "threads", "measure_threads",
              "flows", "decisions", "moves", "metro_stored_links"}
# Metrics enforced as raw minimums (machine-independent ratios measured
# within one process). Values name the argparse option carrying the bound.
MIN_KEYS = {"measure_speedup": "min_measure_speedup",
            "mac_decide_speedup": "min_mac_decide_speedup",
            "mobility_speedup": "min_mobility_speedup"}
# Metrics enforced as fixed minimums: cache_hit is 1.0 when the second
# TestbedCache request returned the identical instance, decisions_match /
# mobility_states_match are 1.0 when the fast and reference paths answered
# (or left the link state) byte-identical, pdes_reports_match is 1.0 when the
# partitioned executive reproduced the serial oracle's SweepReport
# byte-for-byte at 2 and 4 partitions — a miss on any is the regression
# the bench exists to catch, not a diagnostic.
FIXED_MIN_KEYS = {"cache_hit": 1.0, "decisions_match": 1.0,
                  "mobility_states_match": 1.0, "pdes_reports_match": 1.0}
# Metrics enforced as fixed maximums (machine-independent quantities,
# like FIXED_MIN_KEYS but bounded from above):
# trace_overhead_off is the CPU-time ratio of a sweep with a Tracer
# attached but every category disabled vs the same sweep untraced — the
# trace subsystem's bounded-overhead guarantee (each disabled site is one
# branch on a cached mask) that makes it safe to leave compiled in.
# metrics_overhead_off is the identical guarantee for the metrics
# subsystem (bench_metrics): a sweep with a counter Registry attached but
# every domain disabled vs the same sweep unmetered, bounded the same way
# because each disabled instrumentation site is one branch on a
# MetricsHook's cached mask.
# metro_sparse_peak_rss_mb is bench_metro's process peak RSS after the
# sparse 10k-node build + sweep and before its testbed_400 timings: the
# sparse stores measure ~21 MB while the dense pair matrices alone would be
# ~1.6 GB, so 256 MB is ~12x headroom for allocator noise yet an order of
# magnitude below what any re-densified layer would cost.
FIXED_MAX_KEYS = {"trace_overhead_off": 1.02,
                  "metrics_overhead_off": 1.02,
                  "metro_sparse_peak_rss_mb": 256.0}
# Reported, never gated: non-timing diagnostics, plus the reference
# oracles' runtimes — they exist only as denominators of the gated speedup
# ratios, and their ~1 s baselines sit close enough to MIN_GATED_MS that
# normalized-runtime gating would flake on shared runners without guarding
# anything the speedup gates do not. The trace and metrics benches' raw
# mode timings exist only as terms of their gated *_overhead_off ratios.
INFO_KEYS = {"max_abs_delta_prr", "table_entries", "decide_oracle_cpu_ms",
             "move_reference_cpu_ms", "trace_untraced_cpu_ms",
             "trace_disabled_cpu_ms", "trace_enabled_cpu_ms",
             "metrics_unmetered_cpu_ms", "metrics_disabled_cpu_ms",
             "metrics_enabled_cpu_ms",
             # bench_pdes: terms of the info-only pdes_speedup ratio. The
             # PDES wall timings run worker threads, so wall clock on a
             # shared runner is scheduler noise the calibration ratio
             # cannot correct.
             "pdes_serial_wall_ms", "pdes_p4_wall_ms"}
# Timings whose baseline is shorter than this are reported but not gated:
# sub-second samples on shared CI runners are dominated by scheduler and
# cache noise that the calibration ratio cannot correct.
MIN_GATED_MS = 1000.0


def load_runs(paths):
    """Every run row of every report file, in order."""
    runs = []
    for path in paths:
        with open(path) as f:
            runs += json.load(f).get("runs", [])
    return runs


def load_timing_rows(paths):
    """scenario -> metrics, merged across report files."""
    rows = {}
    for run in load_runs(paths):
        if run.get("scheme") != "timing":
            continue
        scenario = run.get("scenario", "?")
        if scenario in rows:
            sys.exit(f"error: duplicate timing row for '{scenario}'")
        rows[scenario] = run.get("metrics", {})
    if not rows:
        sys.exit(f"error: no timing rows found in {', '.join(paths)}")
    return rows


def check_timing_row(scenario, pr, base, threshold, minimums):
    for key in (CALIBRATION_KEY,):
        if key not in pr or key not in base:
            sys.exit(f"error: missing {key} in '{scenario}' timing rows")
    pr_calib, base_calib = pr[CALIBRATION_KEY], base[CALIBRATION_KEY]
    if pr_calib <= 0 or base_calib <= 0:
        sys.exit("error: non-positive calibration time")

    failures = []
    for key, base_val in sorted(base.items()):
        if key == CALIBRATION_KEY:
            continue
        label = f"{scenario}/{key}"
        if key not in pr:
            failures.append(f"{label}: missing from PR report")
            continue
        if key in EXACT_KEYS:
            if pr[key] != base_val:
                failures.append(f"{label}: PR ran with {pr[key]}, baseline "
                                f"{base_val} (bench knobs must match the "
                                "baseline)")
            continue
        if key in MIN_KEYS or key in FIXED_MIN_KEYS:
            minimum = minimums[MIN_KEYS[key]] if key in MIN_KEYS \
                else FIXED_MIN_KEYS[key]
            status = "FAIL" if pr[key] < minimum else "ok"
            print(f"[{status}] {label}: {pr[key]:.1f} "
                  f"(require >= {minimum:.1f}; baseline {base_val:.1f})")
            if pr[key] < minimum:
                failures.append(f"{label}: {pr[key]:.1f} below required "
                                f"minimum {minimum:.1f}")
            continue
        if key in FIXED_MAX_KEYS:
            maximum = FIXED_MAX_KEYS[key]
            status = "FAIL" if pr[key] > maximum else "ok"
            print(f"[{status}] {label}: {pr[key]:.3f} "
                  f"(require <= {maximum:.2f}; baseline {base_val:.3f})")
            if pr[key] > maximum:
                failures.append(f"{label}: {pr[key]:.3f} above allowed "
                                f"maximum {maximum:.2f}")
            continue
        if key in INFO_KEYS or not key.endswith("_ms"):
            print(f"[info] {label}: {pr[key]:.4f} (baseline {base_val:.4f})")
            continue
        pr_norm = pr[key] / pr_calib
        base_norm = base_val / base_calib
        ratio = pr_norm / base_norm if base_norm > 0 else float("inf")
        gated = base_val >= MIN_GATED_MS
        status = "FAIL" if gated and ratio > threshold else \
            ("ok" if gated else "info")
        print(f"[{status}] {label}: {pr[key]:.0f} ms (norm {pr_norm:.2f}) vs "
              f"baseline {base_val:.0f} ms (norm {base_norm:.2f}) "
              f"-> x{ratio:.3f}")
        if gated and ratio > threshold:
            failures.append(f"{label}: normalized runtime x{ratio:.3f} "
                            f"exceeds threshold x{threshold:.2f}")
    return failures


def check_timings(pr_paths, baseline_path, threshold, minimums):
    pr_rows = load_timing_rows(pr_paths)
    base_rows = load_timing_rows([baseline_path])
    failures = []
    for scenario, base in sorted(base_rows.items()):
        if scenario not in pr_rows:
            failures.append(f"{scenario}: timing row missing from PR reports")
            continue
        failures += check_timing_row(scenario, pr_rows[scenario], base,
                                     threshold, minimums)
    # A PR row with no baseline counterpart would otherwise be silently
    # ungated — the exact mistake (new bench wired into CI, baseline not
    # regenerated) this gate exists to catch.
    for scenario in sorted(set(pr_rows) - set(base_rows)):
        failures.append(f"{scenario}: PR timing row has no baseline entry "
                        "(regenerate bench/baselines/BENCH_baseline.json)")
    return failures


def row_key(run):
    return tuple(run.get(k) for k in ("scenario", "scheme", "variant",
                                      "topology_index", "replicate"))


def check_result_rows(pr_paths, baseline_path):
    """Every non-timing baseline row must reappear in the PR reports
    exactly: the runs are deterministic, so a difference is a change in
    what the simulator outputs, not noise."""
    pr_rows = {row_key(run): run for run in load_runs(pr_paths)
               if run.get("scheme") != "timing"}
    failures = []
    for base in load_runs([baseline_path]):
        if base.get("scheme") == "timing":
            continue
        label = "/".join(str(k) for k in row_key(base))
        pr = pr_rows.get(row_key(base))
        if pr is None:
            failures.append(f"{label}: result row missing from PR reports")
            continue
        if pr == base:
            print(f"[ok] {label}: identical to baseline "
                  f"({base.get('aggregate_mbps', 0.0):.2f} Mbit/s)")
            continue
        fields = sorted(k for k in set(base) | set(pr)
                        if base.get(k) != pr.get(k))
        print(f"[FAIL] {label}: differs in {', '.join(fields)} "
              f"({pr.get('aggregate_mbps')} Mbit/s, baseline "
              f"{base.get('aggregate_mbps')})")
        failures.append(f"{label}: result row differs from baseline in "
                        f"{', '.join(fields)}")
    return failures


def micro_times(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b["real_time"] for b in data.get("benchmarks", [])
            if "real_time" in b}


def check_micro(micro_path, min_speedup):
    """Machine-independent gate: the fast paths must beat their in-binary
    brute-force references by at least min_speedup at the largest size."""
    times = micro_times(micro_path)
    pairs = [
        ("BM_TransmitFanoutBrute/400", "BM_TransmitFanoutFast/400"),
        ("BM_InterferenceEvaluateReference/256", "BM_InterferenceEvaluate/256"),
    ]
    failures = []
    for brute, fast in pairs:
        if brute not in times or fast not in times:
            failures.append(f"missing {brute} / {fast} in {micro_path}")
            continue
        speedup = times[brute] / times[fast]
        status = "FAIL" if speedup < min_speedup else "ok"
        print(f"[{status}] {fast}: {speedup:.1f}x over {brute} "
              f"(require >= {min_speedup:.1f}x)")
        if speedup < min_speedup:
            failures.append(f"{fast}: speedup {speedup:.1f}x below "
                            f"{min_speedup:.1f}x")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pr", required=True, action="append",
                    help="bench report JSON from this run (repeatable)")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline BENCH JSON (all timing rows)")
    ap.add_argument("--micro", help="bench_micro --benchmark_out JSON")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="allowed normalized-runtime ratio (default 1.25)")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="required fast-vs-brute speedup (default 5.0)")
    ap.add_argument("--min-measure-speedup", type=float, default=10.0,
                    help="required measurement fast-vs-oracle speedup "
                         "(default 10.0)")
    ap.add_argument("--min-mac-decide-speedup", type=float, default=5.0,
                    help="required MAC-decision fast-vs-oracle speedup "
                         "(default 5.0)")
    ap.add_argument("--min-mobility-speedup", type=float, default=5.0,
                    help="required incremental-move vs fresh-build "
                         "speedup (default 5.0)")
    args = ap.parse_args()

    minimums = {"min_measure_speedup": args.min_measure_speedup,
                "min_mac_decide_speedup": args.min_mac_decide_speedup,
                "min_mobility_speedup": args.min_mobility_speedup}
    failures = check_timings(args.pr, args.baseline, args.threshold, minimums)
    failures += check_result_rows(args.pr, args.baseline)
    if args.micro:
        failures += check_micro(args.micro, args.min_speedup)
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\nbenchmark regression gate passed")


if __name__ == "__main__":
    main()
