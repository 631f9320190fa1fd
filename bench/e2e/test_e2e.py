#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 bench/e2e/test_e2e.py --quick

runs one full pass (every workload, untraced and traced) through run.py and
asserts that
  * every metric BENCHMARK.json names is emitted with its unit,
  * every correctness check passed (digests agree, no failed run),
  * on every workload the traced buckets plus the queue probes account for
    the traced wall time within 5% (trace.coverage),
  * the layer summary and the Chrome trace were written and parse.
--quick divides every simulated duration by 20 so the pass stays under a
minute once the driver is built.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main():
    quick = "--quick" in sys.argv[1:]
    out = ROOT / ".bench_build" / "e2e-smoke"
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "1",
           "--seconds", "1" if quick else "15", "--out", str(out)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = json.loads((out / "results.json").read_text())["sets"][0]
    problems = []
    if proc.returncode != 0:
        problems.append(f"run.py exited {proc.returncode}")
    for w in bench["workloads"]:
        name = w["name"]
        rec = results.get(name)
        if rec is None:
            problems.append(f"{name}: no results")
            continue
        if not rec["correct"] or rec["failed"] != 0:
            problems.append(f"{name}: correctness checks failed")
        for section, key in (("end_to_end", "trace0"), ("per_layer", "trace1")):
            for m in bench[section]:
                got = rec[key].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{name}: {m['name']} missing or not in "
                                    f"{m['unit']}: {got}")
        coverage = rec["trace1"].get("trace.coverage", {}).get("value", 0)
        if not 0.95 <= coverage <= 1.05:
            problems.append(f"{name}: buckets cover {coverage:.3f} of the "
                            "traced wall time")
        try:
            json.loads((out / f"{name}.layers.json").read_text())
            spans = json.loads((out / f"{name}.trace.json").read_text())
            if not spans["traceEvents"]:
                problems.append(f"{name}: empty Chrome trace")
        except (OSError, ValueError) as e:
            problems.append(f"{name}: trace output unreadable: {e}")

    for p in problems:
        print("FAIL", p)
    print("PASS" if not problems else f"{len(problems)} failure(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
