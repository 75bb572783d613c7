#!/usr/bin/env python3
"""Benchmark for rnlab: run one workload's job list through rnlab.cli.main.

Usage, from the repository root:

    python3 bench/run.py --workload survey-odd --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 0

Workloads are survey-odd, survey-two, pade-audit and certify-sweep (see
bench/workloads.py and bench/README.md).  A run starts fresh processes one
after another for about ``--seconds`` seconds; each runs the job list once
(bench/joblist.py), in one thread, invocation after invocation (a closed
loop), and every report is checked against known answers.

With ``--trace 0`` the run reports the end-to-end metrics: ``job_s`` (the
sum over the job list's invocations of each one's median latency over the
processes), ``setup_s`` (median over the processes of the time from process
start until the first job can run), ``peak_rss_mb`` (median peak resident
memory of a process) and ``call_p98_s``.  With ``--trace 1`` untraced and
traced processes alternate, and the run reports per-layer metrics (median
over the traced processes) and the tracing overhead; the spans are written
to .bench_out/.  Every time is given at a reference machine speed (see
bench/joblist.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload and prints a table instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOBLIST = os.path.join(HERE, "joblist.py")

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "call_p98_s": "s"}
OVERHEAD = ("trace.overhead", "ratio")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from joblist import spans_path  # noqa: E402
from tracer import UNITS, median_metrics  # noqa: E402


def spawn(name: str, seed: int, trace: bool, rep: int) -> dict:
    """One job list in a fresh process: its result, plus ``setup_s``, the
    time from starting the process until it was ready to run jobs, at
    reference speed."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, JOBLIST, name, str(seed),
                           str(int(trace)), str(rep)],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != b"ready":
        raise RuntimeError(f"job list process for {name} exited with code "
                           f"{proc.returncode}")
    result = json.loads(rest.splitlines()[-1])
    result["raw_setup_s"] = setup_s
    result["setup_s"] = setup_s * result["setup_scale"]
    return result


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Start job list processes until the next one would end after
    ``seconds``; with ``trace``, untraced and traced ones alternate.
    Returns the results of the untraced and of the traced processes."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain.append(spawn(name, seed, False, len(plain)))
        if trace:
            traced.append(spawn(name, seed, True, len(traced)))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return plain, traced


def per_invocation(results: list, key: str = "latencies") -> list[float]:
    """Each invocation's median latency over the processes of a run.  Every
    repeat is a fresh process, so no repeat reuses what an earlier one
    cached."""
    return [statistics.median(lat) for lat in zip(*(r[key] for r in results))]


def p98(values: list[float]) -> float:
    """Nearest-rank 98th percentile: always one of ``values``."""
    return sorted(values)[math.ceil(0.98 * len(values)) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = measure(name, seed, seconds, trace)
    everything = plain + traced
    calls = per_invocation(plain)
    if trace:
        values = median_metrics([r["layers"] for r in traced])
        units = dict(UNITS)
        values[OVERHEAD[0]] = sum(per_invocation(traced)) / sum(calls)
        units[OVERHEAD[0]] = OVERHEAD[1]
        print(f"spans of {len(traced)} traced job lists: {spans_path(name)}")
        if traced[0]["absent"]:
            print("absent (not traced): " + ", ".join(traced[0]["absent"]))
    else:
        values = {
            "job_s": sum(calls),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "call_p98_s": p98(calls),
        }
        units = END_TO_END
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    for r in everything:
        for reason in r["reasons"]:
            print(f"FAILED {reason}", file=sys.stderr)
    raw = per_invocation(plain, "raw_latencies")
    print(f"{name} seed={seed} processes={len(plain)}"
          f"{f' traced={len(traced)}' if trace else ''} "
          f"invocations={attempted} failed_frac={failed / attempted:g}; "
          f"as measured, not at reference speed: job_s {sum(raw):.6g} "
          f"call_p98_s {p98(raw):.6g} setup_s "
          f"{statistics.median(r['raw_setup_s'] for r in plain):.6g}")
    for key in values:
        print(f"  {key:28s} {values[key]:>14.6g} {units[key]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in turn, summarized in one table."""
    results = {name: run_workload(name, seed, seconds, trace)
               for name in workloads.NAMES}
    metrics = list(results[workloads.NAMES[0]]["metrics"])
    print(f"{'workload':14s} {'failed_frac':>11s} " +
          " ".join(f"{m:>14s}" for m in metrics))
    for name, res in results.items():
        row = " ".join(f"{res['metrics'][m]['value']:>10.5g} "
                       f"{res['metrics'][m]['unit']:3s}" for m in metrics)
        print(f"{name:14s} {res['failed'] / res['attempted']:>11g} {row}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rnlab", "__init__.py")):
        print(f"error: rnlab sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
