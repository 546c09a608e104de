"""The package and the CLI compile only the modules a call needs.

Each check runs in a fresh interpreter, since the test session has long
since imported every submodule.
"""

import json
import os
import subprocess
import sys

import pytest

import wordmap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wordmap.__file__)))

EXPORTS = [
    "CommutatorProduct", "DiagonalWord", "Field", "FieldElement", "GF", "Matrix",
    "NonzeroTrace", "NotFound", "Partition", "Poly", "Unsupported", "Witness",
    "WordmapError", "charpoly", "commutators", "companion_lift", "count_solutions",
    "counting", "diagonal", "enumerate_elements", "errors", "eval_word", "extend",
    "factor", "factor_two_trace_zero", "fields", "generalized_jordan_form",
    "image_enumerate", "kth_roots", "matrices", "minpoly", "nilpotent_partition",
    "nilpotent_power_partition", "parse_field_spec", "parse_word", "polynomials",
    "reduction", "regular_solution_search", "solve_commutator_product",
    "solve_diagonal_word", "threshold", "trace_zero_to_commutator", "words",
]

# what `import wordmap` loads: factor, bound eagerly, and what it imports
EAGER = ["wordmap", "wordmap.errors", "wordmap.factor", "wordmap.fields", "wordmap.polynomials"]

LOADED = "sorted(m for m in sys.modules if m.startswith('wordmap'))"


def fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports wordmap from this
    tree, with ``args`` as sys.argv[1:], and decode its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_a_field_spec_load_only_factor_and_what_it_imports():
    loaded = fresh(f"""
import json, sys
import wordmap
wordmap.parse_field_spec("Fp:101")
print(json.dumps({LOADED}))
""")
    assert loaded == EAGER


def test_every_export_resolves_and_is_listed():
    got = fresh("""
import json
import wordmap
names = list(wordmap.__all__)
resolved = [name for name in names if getattr(wordmap, name, None) is not None]
print(json.dumps([names, resolved, sorted(set(names) - set(dir(wordmap)))]))
""")
    assert got == [EXPORTS, EXPORTS, []]


@pytest.mark.parametrize("first", [
    "import wordmap.factor",
    "from wordmap.factor import factor",
    "import wordmap.matrices",
    "from wordmap import matrices",
    "import wordmap.commutators",
], ids=["import-submodule", "from-submodule", "matrices", "from-package", "commutators"])
def test_factor_stays_the_function_whatever_runs_first(first):
    got = fresh(f"""
import json, sys
{first}
import wordmap
from wordmap import Matrix, generalized_jordan_form, parse_field_spec
import wordmap.factor
F = parse_field_spec("Fp:7")
generalized_jordan_form(Matrix.from_rows(F, [[0, 1], [4, 0]]))
print(json.dumps([callable(wordmap.factor), type(wordmap.factor).__name__,
                  sys.modules["wordmap.factor"].factor is wordmap.factor]))
""")
    assert got == [True, "function", True]


def test_an_unknown_name_raises_attribute_error():
    got = fresh("""
import json
import wordmap
try:
    wordmap.solve_everything
except AttributeError as exc:
    print(json.dumps(str(exc)))
""")
    assert got == "module 'wordmap' has no attribute 'solve_everything'"
    with pytest.raises(ImportError):
        exec("from wordmap import solve_everything", {})


CLI = f"""
import contextlib, io, json, sys
from wordmap import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, {LOADED}]))
"""

WITNESS = json.dumps({
    "field": "Fp:5", "word": "comm:m=2",
    "target": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 4]]},
    "witnesses": [{"rows": 2, "cols": 2, "entries": [[0, 1], [0, 0]]},
                  {"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0]]}],
})

TARGET = '{"rows":2,"cols":2,"entries":[[1,2],[3,4]]}'


@pytest.mark.parametrize("argv, absent", [
    (["threshold", "--k1", "2", "--k2", "3"], ["commutators", "diagonal"]),
    (["count", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2", "--gamma", "1"],
     ["commutators", "diagonal"]),
    (["count", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2", "--out", "csv",
      "--cap", "1000"], ["commutators", "diagonal"]),
    (["verify", "--witness", WITNESS], ["commutators", "diagonal", "counting"]),
    (["solve", "--field", "Fp:5", "--word", "comm:m=4", "--matrix", TARGET],
     ["diagonal", "counting"]),
    (["solve", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=3", "--matrix", TARGET],
     ["commutators", "counting"]),
], ids=["threshold", "count", "count-csv-cap", "verify", "solve-comm", "solve-diag"])
def test_a_command_loads_only_the_solver_it_runs(argv, absent):
    code, loaded = fresh(CLI, *argv)
    assert code == 0
    assert not {f"wordmap.{name}" for name in absent} & set(loaded), loaded
