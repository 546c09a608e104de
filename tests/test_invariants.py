"""The design checks of tools/invariants.py, in tier-1: each passes on
src/wordmap and fails on a copy with one violation planted, naming it.

A violation is planted in a copy of the package under tmp_path, to which
the module's PACKAGE is pointed; the two probes, which import the
library, are planted in by monkeypatching a library object.
"""

import pathlib
import re
import shutil
import sys

import pytest

from wordmap import diagonal, fields
from wordmap.errors import TooLarge
from wordmap.matrices import MatrixSpace

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import invariants  # noqa: E402

# (check, module, old text or None to append, new text, what the check
# reports); {line} is the line the new text starts on
PLANTS = [
    ("no_assertion_error", "words", None,
     "def _check(x): raise AssertionError(x)", ["words.py:{line}"]),
    ("jordan_fields_chosen_in_reduction", "words", None,
     "def _field(field, p): return working_field(field, p, per_solve=True)",
     ["per_solve= in words._field"]),
    ("jordan_fields_chosen_in_reduction", "reduction", None,
     "def _trusted(p): return Field('prime', p=p, _per_solve=True)",
     ["_per_solve= in reduction._trusted"]),
    ("q_factors_certified", "factor", None,
     "def _linear(f): return _rational_roots(f)", ["factor.py:{line}"]),
    ("one_polynomial_kernel", "polynomials", None,
     "def _zmul(a, b, p): return a * b % p", ["polynomials.py:{line}"]),
    ("extension_arithmetic_on_base_kernel", "fields", "        pad = (base._zero_raw,) * d\n",
     "        for _ in range(1):\n            pad = (base._zero_raw,) * d\n", ["fields.py:{line}"]),
    ("extension_arithmetic_on_base_kernel", "fields", "    def _install_ext_ops(self):",
     "    def _install_ext_arithmetic(self):", ["fields.Field._install_ext_ops"]),
    ("one_kth_root_algorithm", "fields", None,
     "_DRAWS = random.Random(0)", ["fields.py:{line}"]),
    ("one_scalar_search", "diagonal", None,
     "def _first_root(a, k):\n    try:\n        return kth_roots(a, k)[0]\n"
     "    except (Unsupported, NotFound):\n        return None",
     ["diagonal._first_root"]),
    ("one_binary_power", "polynomials", None,
     "def _power(x, k):\n    while k:\n        k >>= 1\n    return x", ["polynomials._power"]),
    ("one_field_table", "factor", None,
     "def _prime_field(p): return Field('prime', p=p)", ["factor._prime_field"]),
    ("fraction_internals_in_one_place", "polynomials", None,
     "def _num(q): return q._numerator", ["polynomials._num"]),
    ("one_whole_space_kernel", "counting", None,
     "def _each(space): return list(space.rows())", ["counting.py:{line}"]),
    # an accessor named rows walks nothing
    ("one_whole_space_kernel", "words", None,
     "class _Rows:\n    @property\n    def rows(self):\n        return []", []),
    ("one_commutator_gate", "commutators", "_commutator(M, seed)]",
     "trace_zero_to_commutator(M, seed)]", ["commutators.solve_commutator_product"]),
    # _real_even_even has no exemption
    ("one_fallback_mechanism", "diagonal",
     "    if n == 2 and k1 == 2 and k2 == 2 and beta.rep > 0:\n",
     "    try:\n        n = A.nrows\n    except NotFound:\n        raise\n"
     "    if n == 2 and k1 == 2 and k2 == 2 and beta.rep > 0:\n", ["diagonal.py:{line}"]),
    ("one_fallback_mechanism", "commutators", None,
     "try:\n    import math\nexcept ImportError:\n    pass", ["commutators.py:{line}"]),
    ("product_chains", "reduction", None,
     "def _triple(K, a, b, c): return K.matmul(a, K.matmul(b, c))", ["reduction.py:{line}"]),
    ("one_container_format", "polynomials", None,
     "def _unchecked(p): return p", ["polynomials.py:{line}"]),
    ("import_only_what_is_called", "cli", None,
     "from .diagonal import solve_diagonal_word", ["cli.py imports .diagonal"]),
    ("import_only_what_is_called", "__init__", None,
     "from . import fields", ["__init__.py imports .fields"]),
    ("bounded_caches", "reduction", None,
     "@functools.lru_cache(maxsize=None)\ndef _cached(x):\n    return x", ["reduction._cached"]),
    ("bounded_caches", "reduction", None,
     "@functools.lru_cache\ndef _cached(x):\n    return x", ["reduction._cached"]),
    ("bounded_caches", "reduction", None,
     "def _cached(x):\n    return x\n\n\n_cached_too = functools.lru_cache(_cached)",
     ["reduction._cached"]),
    ("bounded_caches", "reduction", None,
     "_squares = functools.lru_cache(maxsize=2 * 16)(lambda x: x * x)",
     ["reduction.<lambda>"]),
    # a cache on a function without parameters holds one value
    ("bounded_caches", "reduction", None,
     "@functools.lru_cache(maxsize=None)\ndef _table():\n    return {}", []),
    # a product by a permutation is the kernel's reorder for every kind
    ("structured_products_in_the_kernel", "commutators",
     "    inv = sorted(range(n), key=order.__getitem__)\n",
     "    if not field.is_exact:\n        return _checked_pair(t1, t2, target)\n"
     "    inv = sorted(range(n), key=order.__getitem__)\n",
     ["commutators.diagonal_trace_zero"]),
    ("structured_products_in_the_kernel", "commutators",
     "    kern = field.kernel\n    d, w = _shift_pair(field, n)\n",
     "    kern = field.kernel\n    if not kern.exact:\n        return []\n"
     "    d, w = _shift_pair(field, n)\n", ["commutators._peel_pair"]),
    # _zero_diagonalize is one of the functions that read it
    ("structured_products_in_the_kernel", "commutators",
     "    seen = set()\n", "    seen = set() if kern.exact else set()\n", []),
    # the R/C cluster radii are one route chain; other matrices code may
    # check its input with a try
    ("one_fallback_mechanism", "matrices", "        tried = set()\n",
     "        try:\n            tried = set()\n        except TypeError:\n            raise\n",
     ["matrices.py:{line}"]),
    ("one_fallback_mechanism", "matrices", None,
     "def _entries(rows):\n    try:\n        return list(rows)\n    except TypeError:\n"
     "        return []", []),
]


@pytest.fixture(autouse=True, scope="module")
def drop_parsed_trees():
    """The parsed trees go with this module, so that no later test's garbage
    collections walk them."""
    yield
    invariants._parse.cache_clear()


def plant(tmp_path, monkeypatch, module, old, new):
    """Point invariants.PACKAGE at a copy of the package in which ``module``
    has ``old`` replaced by ``new``, or ``new`` appended when ``old`` is
    None; the line the new text starts on."""
    package = tmp_path / "wordmap"
    shutil.copytree(invariants.PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / f"{module}.py"
    text = path.read_text()
    if old is None:
        head, tail = text + "\n\n", "\n"
    else:
        head, found, tail = text.partition(old)
        assert found, f"{old!r} is not in {module}.py"
    path.write_text(head + new + tail)
    monkeypatch.setattr(invariants, "PACKAGE", package)
    return head.count("\n") + 1


@pytest.mark.parametrize("name", invariants.CHECKS)
def test_each_check_passes_on_the_package(name):
    assert invariants.CHECKS[name]() == []


@pytest.mark.parametrize("name, module, old, new, expected", PLANTS,
                         ids=[f"{p[0]}-{i}" for i, p in enumerate(PLANTS)])
def test_each_check_names_a_planted_violation(tmp_path, monkeypatch, name, module, old, new,
                                              expected):
    line = plant(tmp_path, monkeypatch, module, old, new)
    assert invariants.CHECKS[name]() == [e.format(line=line) for e in expected]


def test_one_plane_format_names_planes_that_are_not_bytes_and_a_space_over_f257(monkeypatch):
    spec_of, init, add = fields.parse_field_spec, MatrixSpace.__init__, MatrixSpace.add

    def lenient(self, field, n):
        try:
            init(self, field, n)
        except TooLarge:
            pass
    # the probe's other fields all become F_2, whose spaces are quick to build
    monkeypatch.setattr(fields, "parse_field_spec",
                        lambda spec: spec_of(spec if spec == "Fp:257" else "Fp:2"))
    monkeypatch.setattr(MatrixSpace, "__init__", lenient)
    monkeypatch.setattr(MatrixSpace, "add", lambda self, a, b: bytearray(add(self, a, b)))
    found = invariants.one_plane_format()
    # F_257 and every spec of the probe: the 54 primes below 257, F_9, F_256
    assert len(found) == 57
    assert {"Fp:257", "Fp:2", "Fp:251", "Fq:p=3,d=2,mod=[2,2,1]"} <= set(found)


def test_no_unsteerable_seed_names_a_seeded_function(monkeypatch):
    def seeded(A, k1, beta, k2, seed=0):
        pass
    monkeypatch.setattr(diagonal, "_real_even_even", seeded)
    assert invariants.no_unsteerable_seed() == ["diagonal._real_even_even"]


def test_ci_runs_every_check_in_exactly_one_step():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.findall(r"tools/invariants\.py\s+(\S+)", workflow)
    assert sorted(steps) == sorted(invariants.CHECKS)


def test_bounded_caches_walks_every_lru_cache_site():
    assert sorted(invariants.lru_caches()) == [
        "cli._parser", "factor._factorization", "fields._first_non_power",
        "polynomials._durand_kerner"]
