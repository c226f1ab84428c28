#!/usr/bin/env python3
"""Checks `tools/bench_report.py compare` against small fixture files.

Each directory under tests/data/bench_report/ holds one BENCH_scale.json;
`baseline` is compared with every other one:

  equal        identical metrics              -> passes
  missing_key  a baseline metric is absent    -> fails
  new_key      a metric the baseline lacks    -> fails
  regression   a lower-is-better metric +20%  -> fails (tolerance 15%)

`check --min-ratio` runs on ratio/, where 153k over 1k kNeighbor
events/wall-sec is exactly 0.22:

  at or above the bound (0.22, 0.21)          -> passes
  below the bound (0.23)                      -> fails
  a key the file lacks                        -> fails

Usage: bench_report_test.py [repo-root]
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_report.py"
DATA = ROOT / "tests" / "data" / "bench_report"

CASES = {"equal": 0, "missing_key": 1, "new_key": 1, "regression": 1}

FULL = "pes153216.kneighbor.sim_events_per_wall_sec"
SMALL = "pes1024.kneighbor.sim_events_per_wall_sec"
RATIO_CASES = {
    "ratio_at_bound": ("%s/%s=0.22" % (FULL, SMALL), 0),
    "ratio_above_bound": ("%s/%s=0.21" % (FULL, SMALL), 0),
    "ratio_below_bound": ("%s/%s=0.23" % (FULL, SMALL), 1),
    "ratio_missing_key": ("%s/pes4096.kneighbor.sim_events_per_wall_sec"
                          "=0.21" % FULL, 1),
}


def run(case, argv, want, failures):
    proc = subprocess.run([sys.executable, str(TOOL)] + argv,
                          capture_output=True, text=True)
    ok = proc.returncode == want
    print("%-18s exit %d (want %d)  %s"
          % (case, proc.returncode, want, "ok" if ok else "FAIL"))
    if not ok:
        failures.append(case)
        print(proc.stdout + proc.stderr)


def main():
    failures = []
    for case, want in CASES.items():
        run(case, ["compare", "--baseline", str(DATA / "baseline"),
                   "--current", str(DATA / case), "BENCH_scale.json"],
            want, failures)
    for case, (spec, want) in RATIO_CASES.items():
        run(case, ["check", str(DATA / "ratio" / "BENCH_scale.json"),
                   "--min-ratio", spec], want, failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
