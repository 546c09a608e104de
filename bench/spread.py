"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload small-fields --seeds 1 2 3 4 5 --seconds 15

Runs ``bench/run.py`` once per seed, one after another, and prints for every
metric the median, the quartile spread as a share of the median (the
figure the regression gate compares with each metric's bound) and the bound
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from wmbench import stats  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:<16} {stats.median(vals):>12.4f} {spread:>8.4f} "
              f"{bounds.get(name, float('nan')):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
