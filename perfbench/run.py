#!/usr/bin/env python3
"""End-to-end benchmark: builds the runtime from source, runs one workload,
checks its answers and prints every metric by name and unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: host wall time, set-up time and
peak RSS, and the workload's modelled (virtual-time) answer.  A run is a
fixed number of iterations, each a fresh process (perfbench.cpp) on its own
sub-seed; host metrics are medians over the iterations, the modelled answer
is their mean.  Wall and set-up times are scaled to a reference host speed
(see PROBE_REF_S).

--trace 1 reports the per-layer metrics.  It runs the first sub-seed three
times: untraced, traced (span sampling on, small event rings), untraced
again, and checks that the modelled answer and the result counts are
identical across the three.

Every UGNIRT_* variable is removed from the environment of the runs, because
lrts::make_machine applies them as overrides.  README.md describes the
workloads and what each layer metric is expected to move.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "perfbench"
DEADLINE_S = 175.0
# Host times are reported at a reference host speed: each process times a
# fixed probe (perfbench.cpp, probe_seconds) around its run, and its wall_s
# and setup_s are scaled by PROBE_REF_S / its probe time.  0.28 s is the
# probe on the 4-core x86 VM the bounds were set on.
PROBE_REF_S = 0.28

# Host seconds of one iteration on a 4-core x86 VM; it fixes the iteration
# count, max(2, round(seconds / nominal_s)), so a seed always runs the same
# sub-seeds.
NOMINAL_S = {
    "kneighbor-65k": 16.0,
    "nqueens-17": 3.0,
    "namd-apoa1": 2.2,
    "namd-apoa1-smp": 4.0,
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_result_us": "sim_us",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "converse.host_ns_per_send": "ns",
    "converse.host_ns_per_alloc": "ns",
    "converse.teardown_s": "s",
    "converse.msgs_executed": "count",
    "converse.sched_steps": "count",
    "converse.host_ns_per_msg": "ns",
    "converse.deliver_wait_ns.p50": "sim_ns",
    "converse.deliver_wait_ns.p99": "sim_ns",
    "ugni.smsg_sends": "count",
    "ugni.rendezvous_gets": "count",
    "ugni.pxshm_msgs": "count",
    "ugni.credit_stalls": "count",
    "ugni.smsg_channels": "count",
    "ugni.mailbox_bytes_per_pe": "B",
    "ugni.cq_wait_ns.p50": "sim_ns",
    "ugni.cq_wait_ns.p99": "sim_ns",
    "cq.max_depth": "count",
    "smp.comm_thread_sends": "count",
    "smp.intra_node_ptr_msgs": "count",
    "lrts.send_ns.p50": "sim_ns",
    "lrts.send_ns.p99": "sim_ns",
    "lrts.retries": "count",
    "lrts.fallbacks": "count",
    "mempool.allocs": "count",
    "mempool.expansions": "count",
    "mempool.freelist_hit_ratio": "ratio",
    "mempool.slab_bytes_per_pe": "B",
    "mempool.outstanding_end": "count",
    "net.transfers": "count",
    "net.bytes_smsg": "B",
    "net.bytes_fma": "B",
    "net.bytes_bte": "B",
    "net.link_waits": "count",
    "net.link_wait_ns_per_transfer": "sim_ns",
    "gemini.wire_ns.p50": "sim_ns",
    "gemini.wire_ns.p99": "sim_ns",
    "msg.latency_ns.p50": "sim_ns",
    "msg.latency_ns.p99": "sim_ns",
    "trace.spans": "count",
    "trace.backward_spans": "count",
    "trace.overhead_pct": "%",
}

# Traced runs: sample every 16th message's lifecycle span; keep 4 events
# per PE ring, so the traced kneighbor-65k stays within memory.
TRACE_ENV = {"UGNIRT_SPAN_SAMPLE": "16", "UGNIRT_TRACE_RING": "4"}


class BenchError(Exception):
    pass


def hermetic_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("UGNIRT_")}


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "perfbench-build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=hermetic_env()).returncode != 0:
                raise BenchError("build failed:\n" + log.read_text()[-4000:])


def sub_seed(seed, i):
    return (seed * 1_000_003 + i) % 2**64


def child(workload, seed, deadline, traced=False):
    env = hermetic_env()
    cmd = [str(BINARY), workload, "--seed", str(seed)]
    if traced:
        trace_dir = BUILD_ROOT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        env.update(TRACE_ENV, UGNIRT_TRACE_FILE=str(trace_dir / workload))
        cmd.append("--layers")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run exceeded the time limit")
    if p.returncode != 0:
        raise BenchError(f"{workload}: perfbench exited {p.returncode}\n"
                         + p.stderr[-4000:])
    return json.loads(p.stdout.strip().splitlines()[-1])


def paper_line(workload, virtual_us):
    rows = json.loads((HERE / "paper_rows.json").read_text())
    row = rows.get(workload)
    if row is None:
        return "paper_error_pct = unvalidated (the paper has no row for this workload)"
    err = abs(virtual_us - row["paper_us"]) / row["paper_us"] * 100
    return (f"paper_error_pct = {err:.4f} % (model {virtual_us:.3f} us vs "
            f"paper {row['paper_us']} us; {row['source']})")


def end_to_end(workload, seed, seconds, deadline):
    n = max(2, round(seconds / NOMINAL_S[workload]))
    runs = [child(workload, sub_seed(seed, i), deadline) for i in range(n)]
    median = lambda key: statistics.median(r[key] for r in runs)
    wall = median("wall_s")
    setup = statistics.median(s for r in runs for s in r["setup_s"])
    probe = statistics.median(r["host"]["probe_s"] for r in runs)
    speed = lambda r: PROBE_REF_S / r["host"]["probe_s"]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] * speed(r) for r in runs),
        "setup_s": statistics.median(s * speed(r) for r in runs
                                     for s in r["setup_s"]),
        "peak_rss_mb": median("peak_rss_mb"),
        # Deterministic per sub-seed: the mean over placements is the
        # model's expected answer.
        "virtual_result_us": statistics.mean(
            r["virtual_result_us"] for r in runs),
    }
    notes = [f"{n} iterations, sub-seeds {sub_seed(seed, 0)}.."
             f"{sub_seed(seed, n - 1)}",
             f"host speed: probe {probe:.4f} s vs reference {PROBE_REF_S} s; "
             f"unscaled wall_s {wall:.6g} s, setup_s {setup:.6g} s",
             paper_line(workload, metrics["virtual_result_us"])]
    return runs, metrics, notes


def per_layer(workload, seed, deadline):
    s0 = sub_seed(seed, 0)
    base = child(workload, s0, deadline)
    traced = child(workload, s0, deadline, traced=True)
    again = child(workload, s0, deadline)
    runs = [base, traced, again]
    for name, r in (("traced", traced), ("repeated", again)):
        if (r["virtual_result_us"] != base["virtual_result_us"]
                or r["app"] != base["app"]):
            # The answers of the whole triple are unverified.
            r["failures"].append(f"{name} run differs from the untraced run: "
                                 f"{r['virtual_result_us']} {r['app']} vs "
                                 f"{base['virtual_result_us']} {base['app']}")
            r["failed"] = r["attempted"]

    untraced = lambda key: statistics.mean([base[key], again[key]])
    untraced_host = lambda key: statistics.mean(
        [base["host"][key], again["host"][key]])
    untraced_wall = untraced("wall_s")
    metrics = {name: traced["layer"].get(name, 0.0) for name in PER_LAYER}
    # Host-side numbers the benchmark can observe only where it owns the
    # machine (kneighbor-65k); elsewhere the application builds and destroys
    # its own machine, and these stay 0.
    events = base["app"].get("sim.events", 0.0)
    metrics["sim.events"] = events
    if events:
        metrics["sim.host_ns_per_event"] = untraced_host("run_s") * 1e9 / events
        metrics["converse.teardown_s"] = untraced_host("teardown_s")
    executed = metrics["converse.msgs_executed"]
    metrics["converse.host_ns_per_msg"] = (
        untraced_wall * 1e9 / executed if executed else 0.0)
    metrics["trace.overhead_pct"] = (traced["wall_s"] / untraced_wall - 1) * 100
    return runs, metrics, [f"sub-seed {s0}: untraced, traced, untraced"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            runs, metrics, notes = per_layer(args.workload, args.seed, deadline)
            units = PER_LAYER
        else:
            runs, metrics, notes = end_to_end(args.workload, args.seed,
                                              args.seconds, deadline)
            units = END_TO_END
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = sorted({f for r in runs for f in r["failures"]})
    correct = not failures and failed == 0 and attempted > 0

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  failed_frac = {failed / attempted if attempted else 1:.6g} "
          f"({failed} of {attempted} operations)")
    for f in failures:
        print(f"  check failed: {f}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
