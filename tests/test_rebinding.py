"""Rebinding a layer function by name reaches every call of it.

The benchmark's tracer (``bench/wmbench/tracer.py``) times a layer function
by wrapping it and rebinding every global of every loaded ``wordmap``
module that is bound to the same function object, after importing every
layer.  That holds only while each caller looks the function up as a
module global: here a counter is installed the same way, and a profile
hook counts the runs of the function's code, so a call that went around
the rebinding shows as a difference.
"""

import collections
import importlib
import sys

import pytest

import wordmap
from wordmap import DiagonalWord, Matrix, fields, generalized_jordan_form, solve_diagonal_word

LAYERS = ("fields", "polynomials", "factor", "matrices", "reduction", "words",
          "diagonal", "commutators", "counting", "cli")


@pytest.fixture
def rebound(monkeypatch):
    """Counters for ``fields.kth_roots``, ``fields.regular_solution_search``
    and ``factor.factor``, rebound in every wordmap module, and the runs
    of their code seen by a profile hook, as two Counters."""
    for layer in LAYERS:
        importlib.import_module(f"wordmap.{layer}")
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "wordmap" or key.startswith("wordmap.")]
    # factor is read through the package, which keeps it as a global there,
    # so that binding is rebound and restored with the others
    originals = {"kth_roots": fields.kth_roots,
                 "regular_solution_search": fields.regular_solution_search,
                 "factor": wordmap.factor}
    assert originals["factor"] is sys.modules["wordmap.factor"].factor
    counted, ran = collections.Counter(), collections.Counter()
    for name, original in originals.items():
        def counter(*args, _name=name, _original=original, **kwargs):
            counted[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counter)
    codes = {fn.__code__: name for name, fn in originals.items()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            ran[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    yield counted, ran
    sys.setprofile(None)


def test_a_counter_rebound_by_name_sees_every_call(rebound):
    counted, ran = rebound
    # what the tracer reads back through fields and the package
    assert fields.kth_roots.__name__ == "counter"
    assert fields.regular_solution_search.__name__ == "counter"
    assert wordmap.factor.__name__ == "counter"
    F = wordmap.parse_field_spec("Fp:101")
    # J_{0,3}: a small nilpotent block, solved through regular solutions,
    # whose searches close each draw by a k-th root
    J = Matrix.from_rows(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    solve_diagonal_word(J, DiagonalWord(((F(1), 2), (F(1), 3))))
    # X^2 = diag(4, 9): a k-th root taken by the diagonal solver itself
    solve_diagonal_word(Matrix.diagonal(F, [F(4), F(9)]), DiagonalWord(((F(1), 2),)))
    generalized_jordan_form(Matrix.from_rows(F, [[0, 1], [4, 0]]))
    sys.setprofile(None)
    assert counted == ran
    assert counted["kth_roots"] >= 4
    assert counted["regular_solution_search"] >= 1
    assert counted["factor"] >= 3
