#!/usr/bin/env python3
"""Builds and runs the zomp benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload npb-sync --seed 1 --seconds 20 --trace 0

Run from the root of a zomp checkout. The benchmark package is built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
--trace 0 reports the end-to-end metrics: the timed run is split over
PROCESSES processes whose pass samples are pooled (set-up: the median over
the processes). --trace 1 reports the per-layer metrics from one traced
process and writes its last traced pass as Chrome trace JSON next to the
build.

stdout carries the host fingerprint, run details, and last the result
object. The exit status is 0 only when every solve matched its oracle.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# --trace 0 splits the timed run over this many processes and pools their
# samples: runtime state settles differently in each process (which hot
# teams are cached, where the OS puts spinning workers), so one process
# alone under-samples it. Each process also gives one set-up sample.
PROCESSES = 4
TIME_BUDGET_S = 165  # after the build: a run must end inside 180 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "pool.cpp")):
        fail(f"zomp sources not found under {ROOT}/src; run from a zomp checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "zomp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def run(binary, args, deadline):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("benchmark process timed out")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def parse_result(code, lines):
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError):
        fail(f"benchmark process exited {code} without a result", code or 2)
    return result


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    v = sorted(samples)
    idx = len(v) - 11 if len(v) > 10 else len(v) - 1
    return v[idx], 100.0 * (idx + 1) / len(v), len(v) - 1 - idx


def end_to_end(procs):
    """Pools the processes' pass samples into the end-to-end metrics."""
    pool = {k: [x for p in procs for x in p["samples"][k]]
            for k in ("mz_s", "ref_s", "serial_s")}
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    p50 = statistics.median(pool["mz_s"])
    ref_p50 = statistics.median(pool["ref_s"])
    tail_s, pct, beyond = tail(pool["mz_s"])
    values = [
        ("setup_s", statistics.median(p["setup_s"] for p in procs), "s"),
        ("solves_per_s", len(pool["mz_s"]) / sum(pool["mz_s"]), "1/s"),
        ("solve_p50_s", p50, "s"),
        ("solve_tail_s", tail_s, "s"),
        ("ref_solve_p50_s", ref_p50, "s"),
        ("mz_over_ref", p50 / ref_p50, "ratio"),
        ("speedup_vs_serial", statistics.median(pool["serial_s"]) / p50,
         "ratio"),
        ("peak_rss_mb",
         statistics.median(p["samples"]["peak_rss_mb"] for p in procs), "MB"),
        # The share of solves that passed its oracle check. A metric that
        # reads 0 on every healthy run cannot carry a relative bound, so the
        # gate is reported as 1 - verify_fail_frac.
        ("verify_pass_frac", 1 - failed / attempted, "ratio"),
    ]
    info = {"passes": len(pool["mz_s"]), "serial_passes": len(pool["serial_s"]),
            "solve_tail_percentile": pct, "solve_tail_samples_beyond": beyond,
            "verify_fail_frac": failed / attempted,
            "setup_s_each": [p["setup_s"] for p in procs]}
    return {k: {"value": v, "unit": u} for k, v, u in values}, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    binary = os.path.join(build(), "zomp_perfbench")
    deadline = time.time() + TIME_BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    procs, codes, host = [], [], None
    if a.trace == 0:
        runs = [common + ["--seconds", str(a.seconds / PROCESSES), "--trace", "0"]
                for _ in range(PROCESSES)]
    else:
        trace_dir = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        runs = [common + ["--seconds", str(a.seconds), "--trace", "1",
                          "--trace-out", os.path.join(
                              trace_dir, f"{a.workload}-seed{a.seed}.json")]]
    steal0, total0 = cpu_ticks()
    for args in runs:
        code, lines = run(binary, args, deadline)
        procs.append(parse_result(code, lines))
        codes.append(code)
        host = host or lines[0]

    steal1, total1 = cpu_ticks()
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    if a.trace == 0:
        metrics, info = end_to_end(procs)
    else:
        metrics, info = procs[0]["metrics"], procs[0]["info"]
    print(host)
    print(json.dumps({"run": {"workload": a.workload, "seed": a.seed,
                              "trace": a.trace, "processes": len(procs),
                              # CPU time the hypervisor gave to other guests
                              # while the run timed: spin-waiting teams slow
                              # down sharply when it is high.
                              "host_steal_frac": (steal1 - steal0) /
                              max(1, total1 - total0),
                              **info}}))
    correct = failed == 0 and not any(codes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
