"""Set-up time in a fresh interpreter: ``import wordmap``, then build the
workload's fields (tower moduli are checked for irreducibility here).

    python3 -m wmbench.probe --workload small-fields

Prints the set-up's CPU time scaled to the reference speed by kernel runs
made in the same interpreter right after it (see ``calib``). Nothing
but ``sys``, ``time`` and the workload table is imported before the timing
starts.
"""

import sys
import time

from .specs import WORKLOADS

KERNEL_WARMUP = 5
KERNEL_SAMPLES = 21


def main() -> int:
    name = sys.argv[sys.argv.index("--workload") + 1]
    specs = WORKLOADS[name]["fields"]
    t0 = time.process_time_ns()
    import wordmap

    for spec in specs:
        wordmap.parse_field_spec(spec)
    elapsed_ns = time.process_time_ns() - t0
    # imported only now, so that its own imports are not timed as set-up
    from . import calib

    for _ in range(KERNEL_WARMUP):
        calib.sample()
    slowdown = calib.slowdown([calib.sample() for _ in range(KERNEL_SAMPLES)])
    sys.stdout.write(f"{elapsed_ns / slowdown / 1e9!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
