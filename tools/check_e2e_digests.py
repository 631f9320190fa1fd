#!/usr/bin/env python3
"""Check the end-to-end benchmark's report digests against the committed file.

Runs `bench/e2e/run.py --workload W --seed 1 --seconds 0.1 --trace 0` for
every workload named in tests/golden/e2e_digests.txt (about 15 s in all,
plus the first build of e2e_driver) and compares the `report_digest` each run
prints with the committed one. The digest folds every per-flow result of the
workload's reference runs, so a change that must not alter results keeps all
of them. Exits 1 naming each workload whose digest moved or whose run
failed; a change meant to move results updates the file and names the moved
workloads in CHANGES.md.

    python3 tools/check_e2e_digests.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "e2e_digests.txt"


def committed():
    """{workload: digest} from the golden file (`workload digest` lines)."""
    out = {}
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            workload, digest = line.split()
            out[workload] = digest
    return out


def run_digest(workload):
    """The digest one seed-1 run prints, or None if it printed none."""
    cmd = [sys.executable, str(ROOT / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.1",
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    prefix = f"{workload} report_digest "
    for line in proc.stdout.splitlines():
        if line.startswith(prefix):
            return line.split()[2] if proc.returncode == 0 else None
    return None


def main():
    expected = committed()
    moved = []
    for workload, digest in expected.items():
        got = run_digest(workload)
        status = "ok" if got == digest else "MOVED"
        print(f"{workload:12s} {digest} {got} {status}", flush=True)
        if got != digest:
            moved.append(workload)
    if moved:
        print(f"e2e digests moved or runs failed: {', '.join(moved)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
