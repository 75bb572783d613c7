"""One job list of a workload, run in a fresh process.

Usage: python3 bench/joblist.py <workload> <seed> <trace 0|1> <rep>

Imports rnlab and builds the workload's inputs, then prints ``ready``:
bench/run.py times the span from starting this process to that line as the
set-up time.  It then runs the job list once through ``rnlab.cli.main`` and
prints one JSON line with each invocation's latency, as measured and at
reference speed, the factor that brings the set-up time to reference
speed, the tallies and the process's peak resident memory.  With trace 1
the line also holds the per-layer metrics, and the spans are appended to
.bench_out/spans-<workload>.tsv as job list number <rep>.

Speed reference.  The host is shared: everything on it runs up to twice as
slow for seconds to minutes at a time, often more than once in a job list.
Before an invocation that starts at least REF_EVERY_S after the last sample,
and after the last invocation, the process times a fixed block of
interpreter and big-integer work.  Each latency is reported at reference
speed, the speed at which the block takes REF_NOMINAL_S: it is multiplied
by REF_NOMINAL_S over the mean of the samples just before and just after
it.  The set-up time is scaled by the first sample, taken right after it.
REF_NOMINAL_S is the block's time in a fast phase of a 2-vCPU Xeon VM under
CPython 3.11.7.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.2
_REF_X, _REF_Y = 3 ** 30000, 7 ** 30000 + 1

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import UNITS, Tracer  # noqa: E402


def spans_path(name: str) -> str:
    return os.path.join(OUT_DIR, f"spans-{name}.tsv")


def setup(name: str, seed: int):
    """Everything before the first job can run: import rnlab, build inputs."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rnlab.cli
    os.makedirs(OUT_DIR, exist_ok=True)
    return rnlab.cli, workloads.make_inputs(name, seed, OUT_DIR)


class Runner:
    """Runs CLI invocations, checks their reports and keeps the tallies."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.reasons: list[str] = []
        # (number of invocations before it, seconds) per reference sample
        self.refs: list[tuple[int, float]] = []
        self._last_ref = -REF_EVERY_S

    def sample_speed(self) -> None:
        self.refs.append((len(self.latencies), reference_s()))
        self._last_ref = time.perf_counter()

    def invoke(self, argv: list) -> tuple[int, str]:
        if time.perf_counter() - self._last_ref >= REF_EVERY_S:
            self.sample_speed()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            finally:
                self.latencies.append(time.perf_counter() - start)
        return rc, buf.getvalue()

    def call(self, argv: list, check) -> dict | None:
        """One invocation; the parsed report if it passed ``check``."""
        self.attempted += 1
        try:
            rc, text = self.invoke(argv)
            if self.tracer is not None:
                self.tracer.count("cli.out_bytes", len(text.encode()))
            report = json.loads(text)
            reason = check(rc, report)
        # SystemExit: argparse rejected the arguments
        except (Exception, SystemExit) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            return report
        self.failed += 1
        self.reasons.append(f"{' '.join(argv[:9])}: {reason}")
        return None


def reference_s() -> float:
    """Seconds taken by one speed-reference block."""
    start = time.perf_counter()
    acc = 0
    for i in range(33_000):
        acc += i * i % 7
    _REF_X * _REF_Y
    return time.perf_counter() - start


def at_reference_speed(latencies: list[float], refs: list) -> list[float]:
    """Each latency scaled by REF_NOMINAL_S over the mean of the reference
    samples just before and just after it; ``refs`` holds (number of
    invocations before the sample, seconds), in order, ending with a
    sample after the last invocation."""
    out, k = [], 0
    for i, lat in enumerate(latencies):
        while refs[k + 1][0] <= i:
            k += 1
        out.append(lat * 2 * REF_NOMINAL_S / (refs[k][1] + refs[k + 1][1]))
    return out


def main(argv: list) -> int:
    name, seed, trace, rep = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    cli, inputs = setup(name, seed)
    print("ready", flush=True)
    runner = Runner(cli)
    runner.sample_speed()
    if trace:
        runner.tracer = Tracer()
        with runner.tracer:
            workloads.run_jobs(name, inputs, runner.call)
    else:
        workloads.run_jobs(name, inputs, runner.call)
    runner.sample_speed()
    out = {"latencies": at_reference_speed(runner.latencies, runner.refs),
           "raw_latencies": runner.latencies,
           "setup_scale": REF_NOMINAL_S / runner.refs[0][1],
           "attempted": runner.attempted, "failed": runner.failed,
           "reasons": runner.reasons[:10],
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        layers = runner.tracer.layer_metrics()
        scale = REF_NOMINAL_S / statistics.median(r for _, r in runner.refs)
        out["layers"] = {k: v * scale if UNITS[k] == "s" else v
                         for k, v in layers.items()}
        out["absent"] = runner.tracer.absent
        runner.tracer.write_spans(spans_path(name), rep)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
