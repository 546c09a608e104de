"""Spans around calls into the library's layers, recorded from outside.

The tracer wraps each function in ``TRACED`` and rebinds every global of
every ``wordmap`` module that is bound to the same function object (solvers
import each other's functions by name, so ``diagonal.kth_roots`` is the same
object as ``fields.kth_roots``). Methods are patched on their class.
Submodules are reached through ``importlib`` because ``wordmap.factor`` is
the re-exported function, not the module.

Only calls made inside an op (between ``begin_op`` and ``end_op``) are
recorded, so the benchmark's own checks do not show up in the layer
numbers. Spans stay in memory as columns and are written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("fields", "polynomials", "factor", "matrices", "reduction", "words",
          "diagonal", "commutators", "counting", "cli")

TRACED = (
    "fields.kth_roots", "fields.extend", "fields.regular_solution_search",
    "polynomials.approx_roots", "factor.factor",
    "matrices.charpoly", "matrices.minpoly", "matrices.generalized_jordan_form",
    "matrices.companion_lift", "matrices.eigenbasis",
    "matrices.Matrix.__mul__", "matrices.Matrix.inverse", "matrices.Matrix.nullspace",
    "reduction.plan", "reduction.assemble",
    "words.eval_word", "words.make_witness",
    "diagonal.solve_diagonal_word", "diagonal.invertible_jordan_decompose",
    "diagonal.large_nilpotent_decompose", "diagonal.bordered_solve",
    "diagonal.scalar_solution", "diagonal.scalar_two_solutions",
    "diagonal.small_nilpotent_decompose",
    "commutators.solve_commutator_product", "commutators.factor_two_trace_zero",
    "commutators.trace_zero_to_commutator",
    "counting.count_solutions", "counting.image_enumerate",
    "cli.main",
)

# The stats reported for each traced function; calls and self_ms for all.
HIT_RATIO = ("fields.kth_roots", "diagonal.scalar_solution",
             "diagonal.scalar_two_solutions", "diagonal.small_nilpotent_decompose")
RAISED = ("fields.kth_roots",)

RAISED_FLAG, HIT_FLAG = 1, 2
COLUMNS = ("name", "start_ns", "end_ns", "parent", "op", "flags")


class TracerError(RuntimeError):
    """The tracer could not wrap what it was asked to wrap."""


def usable(result) -> bool:
    """A call's result counts as a hit unless it is None or empty."""
    if result is None:
        return False
    if isinstance(result, (list, tuple)) and not result:
        return False
    return True


class Tracer:
    def __init__(self, names=TRACED):
        self.names = list(names)
        self.cols = {c: array("q") for c in COLUMNS}
        self.stack = []
        self.op_id = None
        self._op_first = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.clear()
        self._op_first = len(self)

    def end_op(self) -> None:
        """Close the op. A deadline raised between two statements of a
        wrapper can leave a span half written (trimmed here) or never closed
        (closed here at its parent's end, or now, and marked as raised)."""
        self.op_id = None
        now = time.perf_counter_ns()
        cols = self.cols
        n = min(len(col) for col in cols.values())
        for col in cols.values():
            del col[n:]
        ends, parents, flags = cols["end_ns"], cols["parent"], cols["flags"]
        for idx in range(self._op_first, n):
            if ends[idx] == 0:
                parent = parents[idx]
                ends[idx] = ends[parent] if parent >= self._op_first else now
                flags[idx] = RAISED_FLAG
        self.stack.clear()

    def wrap(self, name_id: int, fn):
        c = self.cols
        names, starts, ends = c["name"], c["start_ns"], c["end_ns"]
        parents, ops, flags = c["parent"], c["op"], c["flags"]
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op_id
            if op is None:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(op)
            ends.append(0)
            flags.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                flags[idx] = RAISED_FLAG
                stack.pop()
                raise
            ends[idx] = clock()
            if usable(result):
                flags[idx] = HIT_FLAG
            stack.pop()
            return result

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------

    def install(self, package: str = "wordmap") -> None:
        """Wrap every name in ``self.names`` inside the imported package."""
        importlib.import_module(package)
        for layer in LAYERS:
            importlib.import_module(f"{package}.{layer}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name_id, qual in enumerate(self.names):
            layer, _, attr = qual.partition(".")
            module = sys.modules[f"{package}.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__.get(meth)
                if original is None:
                    raise TracerError(f"{qual} is not defined on {cls_name}")
                wrapper = self.wrap(name_id, original)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._restore.append((cls, key, value))
                        setattr(cls, key, wrapper)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise TracerError(f"{qual} is not a function of {module.__name__}")
            wrapper = self.wrap(name_id, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cols["start_ns"])

    def totals(self) -> dict:
        """Per traced name: calls, self_ns, hits and raised, summed over
        every recorded span. Self time is a span's duration minus the
        durations of its direct child spans, so nested and recursive calls
        are counted once."""
        return totals_from_columns(self.names, self.cols)

    def write(self, path: str) -> None:
        header = {"names": self.names, "columns": list(COLUMNS), "count": len(self)}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in COLUMNS:
                fh.write(self.cols[col].tobytes())


def totals_from_columns(names, cols) -> dict:
    starts, ends, parents = cols["start_ns"], cols["end_ns"], cols["parent"]
    durations = [e - s for s, e in zip(starts, ends)]
    child_time = [0] * len(durations)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[idx]
    out = {name: {"calls": 0, "self_ns": 0, "hits": 0, "raised": 0} for name in names}
    for idx, name_id in enumerate(cols["name"]):
        entry = out[names[name_id]]
        entry["calls"] += 1
        entry["self_ns"] += durations[idx] - child_time[idx]
        flag = cols["flags"][idx]
        if flag & HIT_FLAG:
            entry["hits"] += 1
        if flag & RAISED_FLAG:
            entry["raised"] += 1
    return out


def load_spans(path: str):
    """Read a file written by ``Tracer.write``: (names, columns)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        cols = {}
        for col in header["columns"]:
            arr = array("q")
            arr.frombytes(fh.read(count * arr.itemsize))
            cols[col] = arr
    return header["names"], cols


def layer_metrics(totals: dict, n_ops: int) -> dict:
    """Per-op metrics named ``<layer>.<function>.<stat>``, plus the
    ``<layer>.self_ms`` rollups."""
    if n_ops < 1:
        raise ValueError("no ops traced")
    metrics = {}
    rollup = defaultdict(int)
    for name, t in totals.items():
        metrics[f"{name}.calls"] = t["calls"] / n_ops
        metrics[f"{name}.self_ms"] = t["self_ns"] / 1e6 / n_ops
        if name in HIT_RATIO:
            metrics[f"{name}.hit_ratio"] = t["hits"] / t["calls"] if t["calls"] else 0.0
        if name in RAISED:
            metrics[f"{name}.raised"] = t["raised"] / n_ops
        rollup[name.split(".")[0]] += t["self_ns"]
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = rollup[layer] / 1e6 / n_ops
    return metrics
