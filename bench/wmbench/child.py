"""One workload in one fresh interpreter: warm up, run the timed closed loop,
check every outcome, and print a JSON summary as the last stdout line.

    python3 -m wmbench.child --workload comm-f101 --seed 1 --seconds 15 [--trace]
    python3 -m wmbench.child --workload comm-f101 --seed 1 --ops 150

A run times a fixed number of ops, so that the same seed always gives the
same ops and the same outcomes: whole cycles over the strata, as many as a
run at the reference speed completes in ``--seconds`` (the workload's
``nominal_rate`` in ``specs``), and at least ``MIN_OPS``. With ``--ops`` the
loop runs exactly that many ops instead (the untraced twin of a traced run).
Op times are thread CPU times scaled to the reference speed (``calib``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
from collections import Counter, deque

from . import calib, stats
from .outcome import DeadlineExceeded, classify_error
from .specs import WORKLOADS
from .tracer import Tracer, layer_metrics
from .workloads import Workload

MIN_OPS = stats.min_samples_for(95)
WARMUP_OPS = 20
# Stop measuring here even short of the planned ops, so a run always ends
# in time on a very slow host.
HARD_STOP_S = 140.0


def _deadline(signum, frame):
    raise DeadlineExceeded()


def run_op(op, deadline_cpu_s, tracer=None, op_id=0):
    """Run one op under a CPU-time deadline; return (cpu_ns, wall_ns,
    outcome)."""
    signal.setitimer(signal.ITIMER_PROF, deadline_cpu_s)
    if tracer is not None:
        tracer.begin_op(op_id)
    error = result = None
    w0 = time.perf_counter_ns()
    c0 = time.thread_time_ns()
    try:
        result = op.call()
    except BaseException as exc:  # classified below; interrupts re-raised
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        error = exc
    finally:
        c1 = time.thread_time_ns()
        w1 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_PROF, 0)
        if tracer is not None:
            tracer.end_op()
    if error is not None:
        return c1 - c0, w1 - w0, classify_error(error, op.reachable)
    return c1 - c0, w1 - w0, op.judge(result)


def planned_ops(workload: Workload, seconds: float) -> int:
    n = len(workload.strata)
    cycles = round(seconds * WORKLOADS[workload.name]["nominal_rate"] / n)
    return max(cycles * n, math.ceil(MIN_OPS / n) * n)


def summarize(times_ns, outcomes) -> dict:
    lat_ms = [ns / 1e6 for ns in times_ns]
    reasons = Counter(o.reason for o in outcomes)
    statuses = Counter(o.status for o in outcomes)
    p95 = stats.percentile(lat_ms, 95)
    return {
        "attempted": len(outcomes),
        "answered": statuses["answered"],
        "negatives": statuses["negative"],
        "failed": statuses["failed"],
        "wrong_outputs": sum(1 for o in outcomes if o.wrong_output),
        "reasons": dict(sorted(reasons.items())),
        "op_time_s": sum(times_ns) / 1e9,
        "latency_p50_ms": stats.median(lat_ms),
        "latency_p95_ms": p95,
        "beyond_p95": stats.count_beyond(lat_ms, p95),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--deadline-factor", type=float, default=1.0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGPROF, _deadline)
    workload = Workload(args.workload)
    deadline_s = WORKLOADS[args.workload]["deadline_s"] * args.deadline_factor
    n_ops = args.ops if args.ops is not None else planned_ops(workload, args.seconds)

    # The deadline is in reference-speed seconds too: it is converted to CPU
    # seconds with the latest kernel samples before each op.
    recent = deque((calib.sample() for _ in range(2 * calib.WINDOW + 1)),
                   maxlen=2 * calib.WINDOW + 1)

    def cpu_deadline():
        return deadline_s * calib.slowdown(recent)

    # untimed warm-up on a stream of its own seed
    warm = workload.stream(f"warmup/{args.seed}")
    for _ in range(WARMUP_OPS):
        run_op(next(warm), cpu_deadline())
        recent.append(calib.sample())

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ops = workload.stream(f"timed/{args.seed}")
    cpu_ns, wall_ns, kernel, outcomes, strata = [], [], [], [], Counter()
    t_start = time.perf_counter()
    while len(outcomes) < n_ops and time.perf_counter() - t_start < HARD_STOP_S:
        op = next(ops)
        cpu, wall, outcome = run_op(op, cpu_deadline(), tracer, len(outcomes))
        kernel.append(calib.sample())
        recent.append(kernel[-1])
        cpu_ns.append(cpu)
        wall_ns.append(wall)
        outcomes.append(outcome)
        strata[op.stratum] += 1
    run_wall_s = time.perf_counter() - t_start

    # An op cut off at its deadline ran for exactly its deadline at the
    # reference speed; it counts with that time rather than with a scaled
    # reading of it.
    scaled = [deadline_s * 1e9 if o.reason == "deadline" else t
              for t, o in zip(calib.scale(cpu_ns, kernel), outcomes)]
    summary = summarize(scaled, outcomes)
    half = len(scaled) // 2
    summary["first_half"] = {"ops": half, "op_time_s": sum(scaled[:half]) / 1e9}
    summary["planned"] = n_ops
    summary["wall_op_time_s"] = sum(wall_ns) / 1e9
    summary["cpu_op_time_s"] = sum(cpu_ns) / 1e9
    summary["run_wall_s"] = run_wall_s
    summary["slowdown"] = calib.slowdown(kernel)
    summary["workload"] = args.workload
    summary["seed"] = args.seed
    summary["deadline_s"] = deadline_s
    summary["strata"] = len(strata)
    # the kernel's buffer is the benchmark's, not the library's
    summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                              - calib.MEM_BYTES) / 2**20
    if tracer is not None:
        tracer.uninstall()
        summary["spans"] = len(tracer)
        summary["layers"] = layer_metrics(tracer.totals(), len(outcomes))
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out) or ".", exist_ok=True)
            tracer.write(args.spans_out)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
