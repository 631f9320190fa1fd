#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md in this directory).

Builds the driver (a Release build of the repository's `cmap` library plus
e2e_driver.cpp) and runs it.

One measurement, the form BENCHMARK.json's command takes:

    python3 bench/e2e/run.py --workload dense_cmap --seed 1 \
        --seconds 20 --trace 0

prints `workload metric value unit` lines and, last, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).

A full pass, every workload traced and untraced, optionally twice:

    python3 bench/e2e/run.py --seed 1 [--workload NAME] [--sets 2] [--out DIR]

writes DIR/results.json; with --sets 2 it prints both sets' medians of every
end-to-end metric with a verdict against the bound in BENCHMARK.json, and
requires every deterministic count and digest to match exactly. It exits
non-zero if any correctness check or verdict fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170

# Per-layer metrics that are pure functions of (workload, seed): two sets of
# runs must agree on them exactly.
EXACT_METRICS = [
    "sim.events", "sim.allocs_per_event", "sim.queue_depth_hw",
    "phy.transmits", "phy.deliveries_per_tx", "phy.floor_drop_ratio",
    "phy.cull_ratio", "phy.gain_cache_hit_ratio", "phy.rx_ok_ratio",
    "core.send_decisions", "core.defer_ratio", "core.probes_per_decision",
    "core.defer_inserts", "core.ttl_expiries", "dynamics.moves",
    "dynamics.full_refreshes", "testbed.stored_links",
]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT}; run from a full checkout")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release", "-DCMAP_SANITIZE="]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    settings = dict(line.split("=", 1) for line in
                    cache.read_text().splitlines()
                    if "=" in line and not line.startswith(("#", "//")))
    if settings.get("CMAKE_BUILD_TYPE:STRING") != "Release":
        fail(f"{out} is not a Release build; remove it and rerun")
    if settings.get("CMAP_SANITIZE:STRING", ""):
        fail(f"{out} has CMAP_SANITIZE set; remove it and rerun")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target", "e2e_driver",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "e2e_driver"


def run_driver(driver, workload, seed, seconds, trace, out_dir, quick):
    """One driver process. Returns (result dict, digest, output lines); a
    crash or a timeout yields a failed result."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out",
           str(out_dir)]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.splitlines()
        crashed = proc.returncode != 0
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        lines = out.splitlines()
        crashed = True
    result = None
    if lines and not crashed:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        lines.append(f"{workload} FAILED driver crashed or printed no result")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        lines.append(json.dumps(result))
    digest = next((ln.split()[2] for ln in lines
                   if ln.startswith(f"{workload} report_digest ")), None)
    return result, digest, lines


def one_pass(driver, workloads, args, out_dir):
    """Every workload untraced then traced; returns {workload: record}."""
    records = {}
    for name in workloads:
        rec = {"correct": True, "attempted": 0, "failed": 0, "digests": []}
        for trace in (0, 1):
            result, digest, lines = run_driver(driver, name, args.seed,
                                               args.seconds, trace, out_dir,
                                               args.quick)
            print("\n".join(lines[:-1]), flush=True)
            rec[f"trace{trace}"] = result["metrics"]
            rec["digests"].append(digest)
            rec["correct"] = rec["correct"] and result["correct"]
            rec["attempted"] += result["attempted"]
            rec["failed"] += result["failed"]
        if len(set(rec["digests"])) != 1:
            rec["correct"] = False
            print(f"{name} FAILED traced and untraced digests differ: "
                  f"{rec['digests']}")
        print(f"{name} runs_attempted {rec['attempted']} count")
        print(f"{name} runs_failed {rec['failed']} count", flush=True)
        records[name] = rec
    return records


def compare_sets(first, second, bench):
    """Verdicts of set 2 against set 1; returns (rows, all_ok)."""
    rows, ok = [], True
    for name in first:
        a, b = first[name], second[name]
        for m in bench["end_to_end"]:
            va = a["trace0"].get(m["name"], {}).get("value")
            vb = b["trace0"].get(m["name"], {}).get("value")
            if va is None or vb is None or va <= 0:
                rows.append((name, m["name"], va, vb, None, m["bound"],
                             "MISSING"))
                ok = False
                continue
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            verdict = "PASS" if worse <= m["bound"] else "FAIL"
            ok = ok and verdict == "PASS"
            rows.append((name, m["name"], va, vb, worse, m["bound"], verdict))
        for key in EXACT_METRICS:
            va = a["trace1"].get(key, {}).get("value")
            vb = b["trace1"].get(key, {}).get("value")
            if va != vb:
                rows.append((name, key, va, vb, None, 0, "FAIL"))
                ok = False
        if a["digests"] != b["digests"]:
            rows.append((name, "report_digest", a["digests"][0],
                         b["digests"][0], None, 0, "FAIL"))
            ok = False
    return rows, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--quick", action="store_true",
                    help="simulated durations divided by 20 (smoke test)")
    args = ap.parse_args()

    driver = build()
    out_dir = Path(args.out) if args.out else build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.workload and args.trace is not None and args.sets == 1:
        result, _, lines = run_driver(driver, args.workload, args.seed,
                                      args.seconds, args.trace, out_dir,
                                      args.quick)
        print("\n".join(lines), flush=True)
        sys.exit(0 if result["correct"] else 1)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    sets = [one_pass(driver, workloads, args, out_dir)
            for _ in range(max(1, args.sets))]
    ok = all(rec["correct"] for s in sets for rec in s.values())
    report = {"seed": args.seed, "seconds": args.seconds, "sets": sets}
    if len(sets) >= 2:
        rows, agree = compare_sets(sets[0], sets[1], bench)
        ok = ok and agree
        print(f"{'workload':10} {'metric':22} {'set1':>14} {'set2':>14} "
              f"{'worse':>8} {'bound':>6} verdict")
        for name, metric, va, vb, worse, bound, verdict in rows:
            w = "" if worse is None else f"{worse:+.3f}"
            print(f"{name:10} {metric:22} {va!s:>14.14} {vb!s:>14.14} "
                  f"{w:>8} {bound:>6} {verdict}")
        report["verdicts"] = [dict(zip(("workload", "metric", "set1", "set2",
                                        "worse", "bound", "verdict"), r))
                              for r in rows]
    (out_dir / "results.json").write_text(json.dumps(report, indent=1))
    print(f"results written to {out_dir / 'results.json'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
