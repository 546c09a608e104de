"""Speed calibration: op times scaled to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed changes
under it: a fixed loop switched between about 0.43 and 0.80 ms within a
second, and the same ops took 1.7 to 3.4 s of CPU time from one minute to
the next, with CPU time equal to wall time, so not from waiting for a core.
Every op is therefore measured together with a fixed calibration kernel run
in the same stretch of time, and its reported time is its thread CPU time
times the kernel's reference time over the kernel's time nearby: what the
op would have taken on the reference machine at its reference speed.

The kernel has two parts, timed apart, because the host's changes slow
compute-bound and memory-bound code by different amounts and the library's
ops are a mix of both: ``obj_kernel``, a naive product of two 8x8 matrices
over F_101 whose entries are small wrapper objects (the same kind of work
as ``Matrix.__mul__`` and the field arithmetic below it), and
``mem_kernel``, a dependent walk through a 4 MiB buffer. A time is scaled
by the geometric mean of the two parts' slowdowns, each the median over
``WINDOW`` samples on either side. Neither part imports the library, so a
change to the library changes the ops and not the kernel.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array

# Median CPU time of each part on the reference machine (2-vCPU Xeon
# Sapphire Rapids guest, Python 3.11) in its fast state.
OBJ_REF_NS = 420_000
MEM_REF_NS = 460_000

# Samples on each side of an op whose median scales it.
WINDOW = 10

# Size of the buffer the memory part walks; it is resident for the whole
# run, so the benchmark subtracts it from the peak RSS it reports.
MEM_BYTES = 4 << 20
MEM_STEPS = 3500

_P = 101
_N = 8
_MASK = MEM_BYTES // 4 - 1
_buf = None


class _Elt:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        if not isinstance(other, _Elt):
            return NotImplemented
        return _Elt((self.v + other.v) % _P)

    def __mul__(self, other):
        if not isinstance(other, _Elt):
            return NotImplemented
        return _Elt(self.v * other.v % _P)

    def is_zero(self):
        return self.v == 0


def obj_kernel():
    a = [[_Elt((7 * i + 3 * j + 1) % _P) for j in range(_N)] for i in range(_N)]
    b = [[_Elt((5 * i + 11 * j + 2) % _P) for j in range(_N)] for i in range(_N)]
    cols = [list(c) for c in zip(*b)]
    zero = _Elt(0)
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = zero
            for x, y in zip(row, col):
                if not x.is_zero():
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def mem_kernel():
    """Each step's index depends on the value the previous step loaded."""
    global _buf
    if _buf is None:
        _buf, rng = array("i"), random.Random(1)
        for _ in range(MEM_BYTES >> 16):  # in 64 KiB pieces, to add no peak
            _buf.frombytes(rng.randbytes(1 << 16))
    buf, j = _buf, 1
    for _ in range(MEM_STEPS):
        j = (buf[j] + j) & _MASK
    return j


def sample() -> tuple:
    """CPU time of one run of each kernel part, in ns."""
    t0 = time.thread_time_ns()
    obj_kernel()
    t1 = time.thread_time_ns()
    mem_kernel()
    return t1 - t0, time.thread_time_ns() - t1


def slowdown(samples) -> float:
    """How much slower than the reference speed the kernel ran over
    ``samples``, a list of ``sample()`` results."""
    obj = statistics.median(s[0] for s in samples)
    mem = statistics.median(s[1] for s in samples)
    return math.sqrt(obj / OBJ_REF_NS * mem / MEM_REF_NS)


def scale(times_ns, samples, window: int = WINDOW) -> list:
    """Each time at the reference speed: ``samples[i]`` was taken right
    after ``times_ns[i]`` and the samples within ``window`` places of it
    give its slowdown."""
    if len(times_ns) != len(samples):
        raise ValueError("one kernel sample per timed op is needed")
    return [t / slowdown(samples[max(0, i - window):i + window + 1])
            for i, t in enumerate(times_ns)]
