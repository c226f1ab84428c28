#!/usr/bin/env python3
"""Compare BENCH_*.json suite results against committed baselines.

The suite runner (build/bench/suite_runner) writes BENCH_core.json and
BENCH_scale.json; every metric carries a "better" direction:

  "lower"  / "higher"  gated: a change past --tolerance in the worse
                       direction fails the run (exit 1)
  "info"               reported, never gated (wall-clock and other
                       machine-dependent numbers)

compare also fails when the two files disagree on which metrics exist: a
baseline metric missing from the current results, or a current metric
the baseline lacks.  Add a new metric to the baseline in the change that
starts emitting it.

Virtual-time metrics are deterministic, so the committed baselines in
bench/baselines/ are exact values from a known-good revision; the
tolerance only absorbs intentional model changes small enough not to
matter.  Refresh baselines by copying fresh BENCH_*.json over them in the
same change that alters the model (and say why in the commit message).

Usage:
  bench_report.py report BENCH_core.json [BENCH_scale.json ...]
  bench_report.py compare --baseline bench/baselines --current . \
      [--tolerance 0.15] [BENCH_core.json BENCH_scale.json]
  bench_report.py check BENCH_scale.json \
      --min-ratio pes153216.kneighbor.sim_events_per_wall_sec/\
pes1024.kneighbor.sim_events_per_wall_sec=0.21

check gates floors: --min KEY=VALUE on one metric, or --min-ratio
NUM/DEN=VALUE on the ratio of two metrics from the same file.  A ratio
taken in one run cancels the runner's speed, so wall-clock gates should
use it.
"""

import argparse
import json
import os
import sys

DEFAULT_FILES = ["BENCH_core.json", "BENCH_scale.json"]


def flatten(doc):
    """Yield (key, value, better, unit) rows from a suite document."""
    if "metrics" in doc:
        for name, m in doc["metrics"].items():
            yield name, m["value"], m.get("better", "info"), m.get("unit", "")
    for point in doc.get("sweep", []):
        # Scale sweep points are keyed pes<N>.<pattern>.<metric>.
        prefix = "pes%d.%s." % (point["pes"], point["pattern"])
        for name, m in point["metrics"].items():
            yield (prefix + name, m["value"], m.get("better", "info"),
                   m.get("unit", ""))


def load(path):
    with open(path) as f:
        return dict(
            (k, (v, better, unit)) for k, v, better, unit in flatten(json.load(f))
        )


def cmd_report(args):
    for path in args.files or DEFAULT_FILES:
        if not os.path.exists(path):
            print("missing: %s" % path)
            continue
        print("== %s ==" % path)
        for key, (value, better, unit) in sorted(load(path).items()):
            print("  %-44s %14.3f %-8s (%s)" % (key, value, unit, better))
    return 0


def compare_one(name, base, cur, tolerance):
    """Return (regressions, lines) comparing two flattened metric dicts."""
    regressions = []
    lines = []
    for key in sorted(base):
        bval, better, unit = base[key]
        if key not in cur:
            regressions.append("%s: metric disappeared" % key)
            continue
        cval = cur[key][0]
        if bval == 0:
            delta = 0.0 if cval == 0 else float("inf")
        else:
            delta = (cval - bval) / abs(bval)
        worse = (better == "lower" and delta > tolerance) or (
            better == "higher" and delta < -tolerance
        )
        flag = "REGRESSION" if worse else ("   info" if better == "info" else "")
        lines.append(
            "  %-44s %14.3f -> %14.3f  %+7.1f%%  %s"
            % (key, bval, cval, delta * 100.0, flag)
        )
        if worse:
            regressions.append(
                "%s/%s: %.3f -> %.3f (%+.1f%%, better=%s)"
                % (name, key, bval, cval, delta * 100.0, better)
            )
    for key in sorted(set(cur) - set(base)):
        lines.append("  %-44s (new metric: %.3f)  NOT IN BASELINE"
                     % (key, cur[key][0]))
        regressions.append("%s: new metric, not in the baseline" % key)
    return regressions, lines


def cmd_check(args):
    """Gate floors: check FILE [--min KEY=V] [--min-ratio NUM/DEN=V] ..."""
    if not os.path.exists(args.file):
        print("MISSING: %s" % args.file)
        return 1
    metrics = load(args.file)
    specs = [(spec, False) for spec in args.min or []]
    specs += [(spec, True) for spec in args.min_ratio or []]
    failures = []
    for spec, is_ratio in specs:
        name, _, floor_s = spec.partition("=")
        keys = name.split("/") if is_ratio else [name]
        if not floor_s or len(keys) != (2 if is_ratio else 1):
            print("bad spec (want %s=value): %s"
                  % ("num/den" if is_ratio else "key", spec))
            return 2
        floor = float(floor_s)
        missing = [k for k in keys if k not in metrics]
        if missing:
            failures.append("%s: metric missing (floor %.3f)"
                            % (", ".join(missing), floor))
            continue
        value = metrics[keys[0]][0]
        if is_ratio:
            den = metrics[keys[1]][0]
            value = value / den if den else float("inf")
        ok = value >= floor
        print("  %-52s %14.3f >= %10.3f  %s"
              % (name, value, floor, "ok" if ok else "FAIL"))
        if not ok:
            failures.append("%s: %.3f below floor %.3f" % (name, value, floor))
    if failures:
        print("\nFAIL: %d floor(s) not met:" % len(failures))
        for f in failures:
            print("  " + f)
        return 1
    print("\nOK: all %d floor(s) met" % len(specs))
    return 0


def cmd_compare(args):
    files = args.files or DEFAULT_FILES
    tolerance = args.tolerance
    all_regressions = []
    for fname in files:
        base_path = os.path.join(args.baseline, fname)
        cur_path = os.path.join(args.current, fname)
        if not os.path.exists(base_path):
            print("no baseline for %s (looked in %s); skipping" % (fname, base_path))
            continue
        if not os.path.exists(cur_path):
            all_regressions.append("%s: current result missing" % fname)
            print("MISSING current result: %s" % cur_path)
            continue
        regs, lines = compare_one(fname, load(base_path), load(cur_path), tolerance)
        print("== %s (tolerance %.0f%%) ==" % (fname, tolerance * 100.0))
        print("\n".join(lines))
        all_regressions.extend(regs)
    if all_regressions:
        print("\nFAIL: %d regression(s) or metric mismatch(es) "
              "(tolerance %.0f%%):" % (len(all_regressions), tolerance * 100.0))
        for r in all_regressions:
            print("  " + r)
        return 1
    print("\nOK: no gated metric regressed beyond %.0f%%" % (tolerance * 100.0))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_report = sub.add_parser("report", help="pretty-print suite JSONs")
    p_report.add_argument("files", nargs="*")
    p_report.set_defaults(func=cmd_report)

    p_cmp = sub.add_parser("compare", help="gate current results on baselines")
    p_cmp.add_argument("--baseline", default="bench/baselines")
    p_cmp.add_argument("--current", default=".")
    p_cmp.add_argument("--tolerance", type=float, default=0.15)
    p_cmp.add_argument("files", nargs="*")
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser(
        "check", help="gate floors on one metric or a same-run ratio")
    p_chk.add_argument("file")
    p_chk.add_argument(
        "--min", action="append", metavar="KEY=VALUE",
        help="fail unless flattened metric KEY is >= VALUE (repeatable)")
    p_chk.add_argument(
        "--min-ratio", action="append", metavar="NUM/DEN=VALUE",
        help="fail unless metric NUM divided by metric DEN is >= VALUE "
             "(repeatable)")
    p_chk.set_defaults(func=cmd_check)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
