#!/usr/bin/env python3
"""Checks `tools/bench_report.py compare` against small fixture files.

Each directory under tests/data/bench_report/ holds one BENCH_scale.json;
`baseline` is compared with every other one:

  equal        identical metrics              -> passes
  missing_key  a baseline metric is absent    -> fails
  new_key      a metric the baseline lacks    -> fails
  regression   a lower-is-better metric +20%  -> fails (tolerance 15%)

Usage: bench_report_test.py [repo-root]
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_report.py"
DATA = ROOT / "tests" / "data" / "bench_report"

CASES = {"equal": 0, "missing_key": 1, "new_key": 1, "regression": 1}


def main():
    failures = []
    for case, want in CASES.items():
        proc = subprocess.run(
            [sys.executable, str(TOOL), "compare",
             "--baseline", str(DATA / "baseline"),
             "--current", str(DATA / case), "BENCH_scale.json"],
            capture_output=True, text=True)
        ok = proc.returncode == want
        print("%-12s exit %d (want %d)  %s"
              % (case, proc.returncode, want, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(case)
            print(proc.stdout + proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
