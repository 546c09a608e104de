"""wordmap benchmark: seeded workloads, checked outcomes, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload comm-f101 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
pass and prints the per-layer metrics. ``--workload all`` runs every
workload in turn and prints each one's table; with ``--trace 1`` it also
fails if a traced function recorded no call on any workload. Each workload
runs single-threaded in fresh child processes, one caller in a closed loop,
and times a fixed number of ops set by ``--seconds``. Times are CPU times
scaled to a reference speed by a calibration kernel (``wmbench.calib``), so
that the host's drifting speed does not show as a change of the program.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)

from wmbench import stats  # noqa: E402
from wmbench.specs import TRACE_DEADLINE_FACTOR, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0

# name -> unit of the end-to-end metrics in BENCHMARK.json (defined in NOTES.md)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "answered_share": "ratio",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([BENCH_DIR, SRC])
    env.pop("PYTHONSTARTUP", None)
    return env


def _run_child(module: str, args: list) -> str:
    proc = subprocess.run([sys.executable, "-m", module, *args], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{module} {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(workload: str) -> list:
    """Set-up time of each of SETUP_REPEATS fresh interpreters."""
    return [float(_run_child("wmbench.probe", ["--workload", workload]))
            for _ in range(SETUP_REPEATS)]


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    setups = measure_setup(workload)
    summary = json.loads(_run_child("wmbench.child", [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]))
    attempted = summary["attempted"]
    ok = summary["answered"] + summary["negatives"]
    summary["setup_s"] = stats.median(setups)
    summary["setup_samples"] = len(setups)
    summary["ops_per_s"] = attempted / summary["op_time_s"]
    summary["ok_per_s"] = ok / summary["op_time_s"]
    summary["fail_share"] = summary["failed"] / attempted
    summary["negative_share"] = summary["negatives"] / attempted
    summary["ok_share"] = ok / attempted
    summary["answered_share"] = summary["answered"] / attempted
    return summary


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.bin.gz")
    common = ["--workload", workload, "--seed", str(seed),
              "--deadline-factor", str(TRACE_DEADLINE_FACTOR)]
    traced = json.loads(_run_child("wmbench.child", common + [
        "--seconds", str(seconds), "--trace", "--spans-out", spans]))
    # the overhead is measured on the first half of the traced ops, which an
    # untraced child with the same seed replays
    half = traced["first_half"]
    plain = json.loads(_run_child("wmbench.child", common + ["--ops", str(half["ops"])]))
    layers = traced["layers"]
    layers["trace.overhead"] = half["op_time_s"] / plain["op_time_s"]
    if workload == "comm-f101" and layers["fields.kth_roots.calls"] != 0:
        raise BenchError("fields.kth_roots was called on comm-f101, which makes no "
                         "k-th root calls by construction")
    traced["spans_file"] = os.path.relpath(spans, ROOT)
    return traced


def print_end_to_end(s: dict) -> None:
    print(f"== {s['workload']} seed {s['seed']}: {s['attempted']} of {s['planned']} "
          f"planned ops timed over {len(WORKLOADS[s['workload']]['fields'])} field(s), "
          f"{s['strata']} strata; deadline {s['deadline_s']} s per op")
    print(f"   op time {s['op_time_s']:.2f} s at reference speed "
          f"({s['cpu_op_time_s']:.2f} s CPU, {s['wall_op_time_s']:.2f} s wall, "
          f"host {s['slowdown']:.2f}x slower than reference); run {s['run_wall_s']:.1f} s wall")
    rows = [
        ("setup_s", s["setup_s"], "s", f"median of {s['setup_samples']} fresh interpreters"),
        ("ops_per_s", s["ops_per_s"], "ops/s", f"{s['attempted']} ops, whatever the outcome"),
        ("ok_per_s", s["ok_per_s"], "ops/s",
         f"{s['answered'] + s['negatives']} correct outcomes (not gated)"),
        ("latency_p50_ms", s["latency_p50_ms"], "ms", f"{s['attempted']} samples"),
        ("latency_p95_ms", s["latency_p95_ms"], "ms",
         f"{s['attempted']} samples, {s['beyond_p95']} beyond"),
        ("fail_share", s["fail_share"], "ratio",
         f"{s['failed']} of {s['attempted']}: "
         + (", ".join(f"{k} {v}" for k, v in s["reasons"].items()
                      if k not in ("ok", "negative")) or "none")),
        ("negative_share", s["negative_share"], "ratio",
         f"{s['negatives']} of {s['attempted']}"),
        ("peak_rss_mb", s["peak_rss_mb"], "MB", "child ru_maxrss less the kernel buffer"),
        ("ok_share", s["ok_share"], "ratio", "1 - fail_share"),
        ("answered_share", s["answered_share"], "ratio",
         f"{s['answered']} answered and checked"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:>12.4f} {unit:<6} {note}")
    if s["wrong_outputs"]:
        print(f"  WRONG OUTPUTS: {s['wrong_outputs']}")


def print_layers(t: dict) -> None:
    print(f"== {t['workload']} seed {t['seed']} traced: {t['attempted']} ops, "
          f"{t['spans']} spans -> {t['spans_file']}")
    for name, value in t["layers"].items():
        print(f"  {name:<52} {value:>12.4f}")


def result_line(summaries, metrics) -> str:
    attempted = sum(s["attempted"] for s in summaries)
    return json.dumps({
        "correct": all(s["wrong_outputs"] == 0 for s in summaries),
        "attempted": attempted,
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wordmap", "__init__.py")):
        print(f"error: no wordmap sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries, metrics = [], {}
    try:
        for name in names:
            prefix = f"{name}." if args.workload == "all" else ""
            if args.trace:
                t = run_traced(name, args.seed, args.seconds)
                print_layers(t)
                summaries.append(t)
                metrics.update({prefix + k: {"value": v, "unit": layer_unit(k)}
                                for k, v in t["layers"].items()})
            else:
                s = run_workload(name, args.seed, args.seconds)
                print_end_to_end(s)
                summaries.append(s)
                metrics.update({prefix + k: {"value": s[k], "unit": unit}
                                for k, unit in END_TO_END.items()})
        if args.trace and args.workload == "all":
            check_every_function_called(summaries)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(summaries, metrics))
    return 0


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return {"calls": "count", "self_ms": "ms", "raised": "count"}.get(stat, "ratio")


def check_every_function_called(traces) -> None:
    """A traced function with no call on any workload means a missed alias."""
    names = [k[:-len(".calls")] for k in traces[0]["layers"] if k.endswith(".calls")]
    silent = [n for n in names if all(t["layers"][n + ".calls"] == 0 for t in traces)]
    if silent:
        raise BenchError("traced functions with zero calls on every workload "
                         f"(missed alias?): {', '.join(silent)}")


if __name__ == "__main__":
    sys.exit(main())
