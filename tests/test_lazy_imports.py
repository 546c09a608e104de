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

# what set-up, `import wordmap` and an F_p field spec, loads: the field core
EAGER = ["wordmap", "wordmap.errors", "wordmap.fields"]

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


def test_import_and_a_field_spec_load_only_the_field_core():
    loaded = fresh(f"""
import json, sys
import wordmap
wordmap.parse_field_spec("Fp:101")
print(json.dumps({LOADED}))
""")
    assert loaded == EAGER


# what set-up over F_p, R and C leaves unloaded: dataclasses (with inspect)
# and Q's rational core (with fractions and decimal)
HEAVY = ["dataclasses", "decimal", "fractions", "inspect", "wordmap.rationals"]

ADDED = """
import json, sys
before = set(sys.modules)
import wordmap
wordmap.parse_field_spec({spec!r})
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_and_a_field_spec_load_no_dataclass_and_no_fraction():
    """Compared with what the interpreter held before the import, so that
    a site module that preloads one of them does not count."""
    added = fresh(ADDED.format(spec="Fp:101"))
    assert not set(HEAVY) & set(added), added


def test_q_loads_the_rational_core_when_its_field_is_built():
    added = fresh(ADDED.format(spec="Q"))
    assert "wordmap.rationals" in added
    assert not {"dataclasses", "inspect"} & set(added), added


def test_rationals_is_q_field_from_the_table():
    got = fresh("""
import json, sys
from wordmap import fields
loaded = "wordmap.rationals" in sys.modules
from wordmap.fields import RATIONALS
print(json.dumps([loaded, RATIONALS is fields.parse_field_spec("Q") is fields.RATIONALS,
                  "wordmap.rationals" in sys.modules]))
""")
    assert got == [False, True, True]


def test_the_scalar_layer_loads_with_its_first_name_and_is_read_through_fields():
    """``fields.kth_roots`` and ``fields.regular_solution_search`` are the
    scalar layer's own functions, made on first read, not wrappers."""
    got = fresh("""
import json, sys
from wordmap import fields
loaded = "wordmap.scalars" in sys.modules
roots = fields.kth_roots
from wordmap import scalars
print(json.dumps([loaded, roots is scalars.kth_roots is fields.kth_roots,
                  fields.regular_solution_search is scalars.regular_solution_search]))
""")
    assert got == [False, True, True]


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
    "from wordmap import Matrix, parse_field_spec, solve_commutator_product\n"
    "solve_commutator_product(Matrix.from_rows(parse_field_spec('Fp:7'), [[1, 2], [3, 4]]), 4)",
    "import wordmap\nwordmap.factor",
], ids=["import-submodule", "from-submodule", "matrices", "from-package", "commutators",
        "solve", "read-from-package"])
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
    (["threshold", "--k1", "2", "--k2", "3"], ["commutators", "diagonal", "factor"]),
    (["count", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2", "--gamma", "1"],
     ["commutators", "diagonal"]),
    (["count", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2", "--out", "csv",
      "--cap", "1000"], ["commutators", "diagonal"]),
    (["verify", "--witness", WITNESS], ["commutators", "diagonal", "counting", "factor"]),
    (["solve", "--field", "Fp:5", "--word", "comm:m=4", "--matrix", TARGET],
     ["diagonal", "counting", "scalars"]),
    (["solve", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=3", "--matrix", TARGET],
     ["commutators", "counting"]),
    (["solve", "--field", "R:tol=1e-9", "--word", "comm:m=4", "--matrix", TARGET],
     ["diagonal", "counting", "factor"]),
    (["solve", "--field", "R:tol=1e-9", "--word", "diag:d=1,k=2;d=1,k=3", "--matrix", TARGET],
     ["commutators", "counting", "factor"]),
    (["solve", "--field", "C:tol=1e-9", "--word", "comm:m=4", "--matrix", TARGET],
     ["diagonal", "counting", "factor"]),
], ids=["threshold", "count", "count-csv-cap", "verify", "solve-comm", "solve-diag",
        "solve-comm-R", "solve-diag-R", "solve-comm-C"])
def test_a_command_loads_only_the_solver_it_runs(argv, absent):
    code, loaded = fresh(CLI, *argv)
    assert code == 0
    assert not {f"wordmap.{name}" for name in absent} & set(loaded), loaded
