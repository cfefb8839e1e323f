"""Benchmark of hhcert: one workload per run, measured in a fresh child process.

    python3 bench/run.py --workload {sweep,modulus,chains} --seed N --seconds T --trace {0,1}

Run it from the repository root; it imports hhcert from ``src/``.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds details such as sample
counts, failure reasons and the known defects the run's probes saw.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones of a traced run.  DESIGN.md explains the workloads,
the metrics and the known defects.

The ops run in one fresh interpreter, one at a time (a closed loop with one
client), so ``peak_rss_mb`` is the workload's own.  ``setup_s`` is the
median over fresh interpreters, launched from that process at evenly spaced
points of the run while it waits, of the time from launch until hhcert.cli
is imported and the inputs are built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep", "modulus", "chains")
SETUP_LAUNCHES = 9
RUN_BUDGET_S = 170.0
MIN_ROUNDS = 3

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# One thread per process: the machine has two cores and the benchmark owns one.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(Exception):
    """A child process failed or the run could not be measured."""


def _spawn(role: str, args, timeout: float) -> str:
    """Run this script in ``role`` in a fresh interpreter; its last stdout line."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{role} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} child exited {proc.returncode}: {err.strip()[-2000:]}")
    return out.strip().splitlines()[-1]


# --------------------------------------------------------------------------
# Measuring child
# --------------------------------------------------------------------------

class Tally:
    """Runs ops through their oracles and counts attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def run(self, op) -> float:
        """Run one op, check it, and return its latency in seconds."""
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            elapsed = time.perf_counter() - t0
            self._record(op, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            reason = op.check(output)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"output unreadable: {type(exc).__name__}: {exc}"
        self._record(op, reason)
        return elapsed

    def _record(self, op, reason) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.reasons[f"{op.label}: {reason}"] += 1


def run_probes(probes):
    """Run the untimed defect probes once: (known defects seen, other failures).

    A probe that shows its documented defect is counted, not failed; one
    that fails in any other way is an unexplained failure of the run.
    """
    from workloads import KNOWN_LOG_AFFINE

    tally = Tally()
    for op in probes:
        tally.run(op)
    known = sum(n for reason, n in tally.reasons.items() if reason.endswith(KNOWN_LOG_AFFINE))
    others = {r: n for r, n in tally.reasons.items() if not r.endswith(KNOWN_LOG_AFFINE)}
    return known, others


def end_to_end(ops, args, tally: Tally):
    """Median-of-rounds latency of every op of the cycle, and statistics over them.

    Co-tenants on a shared machine slow everything by up to 1.7x in
    stretches of seconds; an op's median over the rounds steadies that
    better than its fastest round, which depends on catching a rare quiet
    moment.  The setup launches happen between rounds and do not count
    towards ``--seconds``.
    """
    for op in ops:  # warm-up round: caches fill, first outputs are kept
        tally.run(op)
    rounds, setup = [], []

    def launch_setup():
        launched = time.monotonic()
        setup.append(float(_spawn("setup", args, 60.0)) - launched)

    measured = 0.0
    while measured < args.seconds:
        if len(setup) * args.seconds <= measured * SETUP_LAUNCHES:
            launch_setup()
        start = time.monotonic()
        latencies = []
        for op in ops:
            if measured + time.monotonic() - start >= args.seconds:
                break
            latencies.append(tally.run(op))
        measured += time.monotonic() - start
        if len(latencies) == len(ops):
            rounds.append(latencies)
    if len(rounds) < MIN_ROUNDS:
        raise BenchError(f"only {len(rounds)} complete rounds of {len(ops)} ops in {args.seconds} s")
    while len(setup) < SETUP_LAUNCHES:
        launch_setup()

    per_op = [statistics.median(r[i] for r in rounds) for i in range(len(ops))]
    p90 = statistics.quantiles(per_op, n=10)[8]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "ops_per_round": len(ops),
        "rounds": len(rounds),
        "samples_beyond_p90": sum(1 for x in per_op if x > p90),
        "setup_launches": len(setup),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, details, True


def traced(ops, args, tally: Tally, misverdicts: int):
    """Alternate traced and untraced passes over the cycle for ``--seconds``.

    Counts come from the first traced pass and must repeat exactly in every
    later one; self times and pass times are medians over the passes.
    ``misverdicts`` is the count of defect probes that showed the defect.
    """
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    for op in ops:
        tally.run(op)
    passes, untraced = [], []
    deadline = time.monotonic() + args.seconds
    while not passes or time.monotonic() < deadline:
        tracer.clear()
        with tracer.installed():
            wall = sum(tally.run(op) for op in ops)
        passes.append((wall, tracer.reduce(len(ops))))
        untraced.append(sum(tally.run(op) for op in ops))
    tracer.clear()

    first = passes[0][1]
    counts = [k for k in first if not k.endswith("_s")]
    repeat = all(m[k] == first[k] for _, m in passes for k in counts)
    within_wall = all(m["total_self_s"] <= wall for wall, m in passes)
    values = {name: first[name] for name in counts}
    for name in first:
        if name.endswith("_s"):
            values[name] = statistics.median(m[name] for _, m in passes)
    values["trace.pass_s"] = statistics.median(wall for wall, _ in passes)
    values["trace.untraced_pass_s"] = statistics.median(untraced)
    values["trace.overhead_ratio"] = values["trace.pass_s"] / values["trace.untraced_pass_s"] - 1.0
    values["certify.log_affine_misverdicts"] = misverdicts
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    details = {
        "ops_per_pass": len(ops),
        "traced_passes": len(passes),
        "counts_repeat": repeat,
        "self_time_within_wall": within_wall,
    }
    return metrics, details, repeat and within_wall


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads  # imports hhcert.cli

    ops = workloads.build(args.workload, args.seed)
    if args.role == "setup":
        print(repr(time.monotonic()))
        return 0
    misverdicts, probe_failures = run_probes(workloads.probes(args.workload, args.seed))
    tally = Tally()
    try:
        if args.trace:
            metrics, details, consistent = traced(ops, args, tally, misverdicts)
        else:
            metrics, details, consistent = end_to_end(ops, args, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = dict(tally.reasons.most_common(10), **probe_failures)
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.failed == 0 and not probe_failures and consistent,
        "metrics": metrics,
        "details": dict(details, failures=failures, known_defects={
            workloads.KNOWN_LOG_AFFINE: misverdicts}),
    }))
    return 0


# --------------------------------------------------------------------------
# Parent
# --------------------------------------------------------------------------

def parent(args) -> int:
    if not (SRC / "hhcert" / "__init__.py").is_file():
        print(f"error: no hhcert sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    try:
        result = json.loads(_spawn("measure", args, RUN_BUDGET_S))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details = dict(result["details"], workload=args.workload, seed=args.seed)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one hhcert workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "setup", "measure"), default="parent",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return parent(args) if args.role == "parent" else child(args)


if __name__ == "__main__":
    sys.exit(main())
