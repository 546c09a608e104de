import functools
import hashlib
import importlib
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wordmap
from wordmap.commutators import solve_commutator_product
from wordmap.diagonal import solve_diagonal_word
from wordmap.errors import NotFound, UnsupportedField, ZeroPolynomial
from wordmap.factor import (
    FACTOR_MEMO_SIZE,
    _distinct_degree,
    _equal_degree,
    _half_power,
    factor,
    is_irreducible,
)
from wordmap.fields import (
    Field,
    GF,
    _iroot_ceil,
    enumerate_elements,
    extend,
    parse_field_spec,
    random_element,
)
from wordmap.matrices import Matrix, charpoly
from wordmap.polynomials import Poly
from wordmap.words import parse_word

from oracles import (
    equal_degree_power,
    frobenius_rows,
    naive_rational_roots,
    power_equal_degree_split,
    power_per_degree_distinct_degree,
    rabin_irreducible,
)

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
Q = Field("rationals")

# the module: the package's name wordmap.factor is the function factor
factor_mod = importlib.import_module("wordmap.factor")


@pytest.fixture
def empty_factor_memo():
    """A test that patches factor's internals counts their calls, so it starts
    with no earlier test's factorizations in the memo."""
    factor_mod._factorization.cache_clear()


def as_pairs(fac):
    return sorted(((tuple(c.rep for c in t.poly.coeffs), t.multiplicity)
                   for t in fac.factors))


def test_factor_char2_square():
    fac = factor(Poly(F2, [0, 0, 1, 0, 1]))  # T^4 + T^2 = T^2 (T+1)^2
    assert as_pairs(fac) == [((0, 1), 2), ((1, 1), 2)]


def test_factor_f5_splits_t2_plus_1():
    fac = factor(Poly(F5, [1, 0, 1]))
    assert as_pairs(fac) == [((2, 1), 1), ((3, 1), 1)]
    assert F5(2) ** 2 == F5(-1)


def test_factor_q_irreducible_quadratic():
    fac = factor(Poly(Q, [1, 0, 1]))
    assert len(fac.factors) == 1
    assert fac.factors[0].multiplicity == 1


def test_factor_q_rational_roots_and_units():
    # 6T^2 + 5T + 1 = 6 (T + 1/2)(T + 1/3)
    f = Poly(Q, [1, 5, 6])
    fac = factor(f)
    assert fac.unit == Q(6)
    assert fac.expand() == f
    roots = sorted(str((-t.poly[0]).rep) for t in fac.factors)
    assert roots == ["-1/2", "-1/3"]


def test_factor_q_degree4_unverified():
    # T^4 + T + 1 has no rational root, and it is irreducible mod 2
    f = Poly(Q, [1, 1, 0, 0, 1])
    fac = factor(f)
    assert len(fac.factors) == 1
    assert fac.factors[0].multiplicity == 1


def test_factor_q_perfect_power():
    f = Poly(Q, [1, 0, 2, 0, 1])  # (T^2+1)^2
    fac = factor(f)
    assert len(fac.factors) == 1
    assert fac.factors[0].multiplicity == 2
    assert fac.factors[0].poly == Poly(Q, [1, 0, 1])
    # r^m with r squarefree: each irreducible factor of r with multiplicity m
    g = Poly(Q, [1, 1, 0, 0, 1])
    h = Poly(Q, [1, 0, 1]) * Poly(Q, [2, 0, 1])
    for f, want in ((g ** 3, [(g, 3)]),
                    (h ** 2, [(Poly(Q, [1, 0, 1]), 2), (Poly(Q, [2, 0, 1]), 2)]),
                    (Poly(Q, [1, 0, 1]) ** 5, [(Poly(Q, [1, 0, 1]), 5)])):
        assert [(t.poly, t.multiplicity) for t in factor(f).factors] == want


def test_factor_q_repeated_factors_of_two_multiplicities():
    # (T^2+1)(T^2+T+1)^2 is no perfect power: split by multiplicity, then
    # each part factored
    f = Poly(Q, [1, 0, 1]) * Poly(Q, [1, 1, 1]) ** 2
    fac = factor(f)
    assert [(t.poly, t.multiplicity) for t in fac.factors] == [
        (Poly(Q, [1, 0, 1]), 1), (Poly(Q, [1, 1, 1]), 2)]
    g = Poly(Q, [1, 1, 0, 0, 1])
    fac = factor(Poly(Q, [2, 1]) * Poly(Q, [1, 0, 1]) * g ** 2)
    assert [(t.poly, t.multiplicity) for t in fac.factors] == [
        (Poly(Q, [2, 1]), 1), (Poly(Q, [1, 0, 1]), 1), (g, 2)]


@st.composite
def irreducible_over_q(draw):
    """A monic polynomial over Q of degree 1 to 4 whose integer multiple
    Rabin's test proves irreducible mod a prime that keeps its degree, so
    that it is irreducible over Q."""
    deg = draw(st.integers(1, 4))
    ints = draw(st.lists(st.integers(-20, 20), min_size=deg, max_size=deg))
    ints.append(draw(st.integers(1, 6)))
    for p in (3, 5, 7, 11, 13):
        if ints[-1] % p:
            inv = pow(ints[-1], -1, p)
            if rabin_irreducible([c * inv % p for c in ints], Field("prime", p=p)):
                return Poly(Q, ints).monic()
    assume(False)


SWINNERTON_DYER_8 = Poly(Q, [576, 0, -960, 0, 352, 0, -40, 0, 1])  # sqrt2 + sqrt3 + sqrt5


# x^4 + 1, x^4 - 10x^2 + 1 and the degree-8 minimal polynomial of
# sqrt2 + sqrt3 + sqrt5 are irreducible over Q but split mod every prime, so
# only recombination of the lifted factors proves them whole; x^4 + 4 and
# (x^2 + 1)(x^2 + 2) have no rational root and must split
@settings(max_examples=60, deadline=None)
@given(planted=st.lists(st.tuples(irreducible_over_q(), st.integers(1, 3)),
                        min_size=1, max_size=3),
       scale=st.fractions(-50, 50, max_denominator=20).map(lambda s: s or Fraction(1)))
@example(planted=[(Poly(Q, [1, 0, 0, 0, 1]), 1)], scale=Fraction(1))
@example(planted=[(Poly(Q, [1, 0, -10, 0, 1]), 2)], scale=Fraction(-3, 7))
@example(planted=[(Poly(Q, [2, -2, 1]), 1), (Poly(Q, [2, 2, 1]), 1)], scale=Fraction(1))
@example(planted=[(Poly(Q, [1, 0, 1]), 1), (Poly(Q, [2, 0, 1]), 1)], scale=Fraction(5))
@example(planted=[(SWINNERTON_DYER_8, 1), (Poly(Q, [-1, 1]), 1)], scale=Fraction(2))
def test_factor_q_returns_planted_factors(planted, scale):
    want = {}
    for g, mult in planted:
        want[g] = want.get(g, 0) + mult
    f = Poly.constant(Q(scale))
    for g, mult in want.items():
        f = f * g ** mult
    fac = factor(f)
    assert fac.unit == Q(scale)
    assert [(t.poly, t.multiplicity) for t in fac.factors] == \
        sorted(want.items(), key=lambda t: t[0].sort_key())


def test_huge_rational_eigenvalues_factor_at_once():
    """comm:m=4 on [[a, 1], [0, 3]] with a = 10^16 + 7 and 10^320 + 7: the
    charpoly (x - a)(x - 3) once had its rational roots found by trial
    division of a_0, which never ended; a subprocess with a timeout keeps a
    regression from hanging the suite."""
    code = (
        "from wordmap.commutators import solve_commutator_product\n"
        "from wordmap.fields import Field\n"
        "from wordmap.matrices import Matrix\n"
        "from wordmap.words import CommutatorProduct, eval_word\n"
        "Q = Field('rationals')\n"
        "for a in (10 ** 16 + 7, 10 ** 320 + 7):\n"
        "    A = Matrix.from_rows(Q, [[a, 1], [0, 3]])\n"
        "    w = solve_commutator_product(A, 4)\n"
        "    assert eval_word(CommutatorProduct(4), w.matrices) == A\n"
        "print('ok')\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordmap.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_repeated_factors_with_large_coefficients_factor_quickly():
    """g1^3 g2^2 g3^2 g4 over Q with random degree-5 g_i and 31-digit
    coefficients: the squarefree decomposition's gcds once let their
    Fraction remainders grow for minutes; a subprocess with a timeout keeps
    a regression from hanging the suite."""
    code = (
        "import random\n"
        "from wordmap.factor import factor\n"
        "from wordmap.fields import Field\n"
        "from wordmap.polynomials import Poly\n"
        "Q = Field('rationals')\n"
        "rng = random.Random(1)\n"
        "gs = [Poly(Q, [rng.randrange(-10**31, 10**31) for _ in range(5)]\n"
        "           + [rng.randrange(1, 10**31)]) for _ in range(4)]\n"
        "want = sorted(zip([g.monic() for g in gs], (3, 2, 2, 1)),\n"
        "              key=lambda t: t[0].sort_key())\n"
        "f = gs[0] ** 3 * gs[1] ** 2 * gs[2] ** 2 * gs[3]\n"
        "assert f.degree == 40\n"
        "assert [(t.poly, t.multiplicity) for t in factor(f).factors] == want\n"
        "print('ok')\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordmap.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_factor_roundtrip_random():
    rng = random.Random(7)
    for field in (F2, F3, F7):
        for _ in range(34):
            deg = rng.randrange(1, 9)
            coeffs = [rng.randrange(field.p) for _ in range(deg)] + [1]
            f = Poly(field, coeffs)
            fac = factor(f)
            assert fac.expand() == f
            for term in fac.factors:
                assert rabin_irreducible(term.poly.reps, field)
            refac = factor(fac.expand())
            assert as_pairs(refac) == as_pairs(fac)


def test_factor_extension_field():
    F4 = GF(4)
    t = F4.generator()
    f = Poly.from_roots(F4, [t, t + F4.one(), F4.one()]) ** 2
    fac = factor(f)
    assert fac.expand() == f
    assert all(term.multiplicity == 2 for term in fac.factors)
    assert len(fac.factors) == 3


def test_factor_errors():
    with pytest.raises(ZeroPolynomial):
        factor(Poly.zero(F2))
    with pytest.raises(UnsupportedField):
        factor(Poly(Field("real", tolerance=1e-9), [1.0, 1.0]))


def test_factor_deterministic_given_seed():
    f = Poly(F7, [3, 1, 4, 1, 5, 1])
    a = factor(f)
    b = factor(f)
    assert as_pairs(a) == as_pairs(b)
    assert [t.poly.coeffs for t in a.factors] == [t.poly.coeffs for t in b.factors]


def test_factor_tower_field():
    import itertools
    import random as _random

    from wordmap.fields import extend

    F4 = GF(4)
    for c0, c1 in itertools.product(list(enumerate_elements(F4)), repeat=2):
        p = Poly(F4, [c0, c1, F4.one()])
        if is_irreducible(p):
            break
    F16, _, _ = extend(F4, p)
    rng = _random.Random(0)
    elems = list(enumerate_elements(F16))
    for _ in range(8):
        deg = rng.randrange(2, 6)
        f = Poly(F16, [rng.choice(elems) for _ in range(deg)] + [F16.one()])
        fac = factor(f)
        assert fac.expand() == f
        assert all(rabin_irreducible(t.poly.reps, F16) for t in fac.factors)


# ----------------------------------------------------------------------
# rational roots
# ----------------------------------------------------------------------

HUGE = 10**320

# (big, small, cofactor, lead, huge, x_power, scale, monic): the 30 examples
# a derandomized hypothesis search drew for this test.  They are listed
# because that search also draws integer literals mined from src/wordmap, so
# deleting an unrelated literal there changes the examples; with c0 = 0 and
# huge = 10^320 the constant term grows to about 10^325, and the unbounded
# reference trial-divides it up to its square root, which never ends.
RATIONAL_ROOT_EXAMPLES = [
    ((-6053, 42), [(-24, 20)], (-5, 5), 1, HUGE, 0, "2/5", False),
    ((-207170, 39), [], (4, 3), -5, HUGE, 0, "-11/5", False),
    ((-462, 24), [], (-8, 9), 7, 1, 2, "-6/5", True),
    ((4096, 20), [(-3, 20)], (2, 1), 8, 1, 1, "19/9", True),
    ((-159, 31), [(-19, 7)], (0, -6), 9, 1, 2, "-6/5", True),
    ((16574, 43), [(43, 21)], (6, 8), -7, HUGE, 0, "8/9", False),
    ((-1230, 42), [], (-2, -1), 9, HUGE, 0, "19/9", False),
    ((418, 23), [], (9, 7), -7, 1, 1, "8/9", False),
    ((4099, 2), [(-20, 13)], (2, -4), 3, HUGE, 0, "10/9", True),
    ((-12755, 19), [(35, 29)], (-8, 7), -1, 1, 2, "-5/9", True),
    ((-12755, 19), [(0, 19)], (-8, 7), -1, 1, 2, "-5/9", True),
    ((-12755, 19), [], (0, -8), 7, 1, 0, "1/2", False),
    ((-12755, 19), [], (-8, -8), 7, 1, 0, "1/2", False),
    ((2, 19), [], (-8, -8), 7, 1, 0, "1/2", False),
    ((2, 19), [], (-8, -8), 7, 1, 0, "-4/3", False),
    ((2, 19), [], (-8, -8), -8, 1, 0, "2/3", False),
    ((-367, 40), [], (-3, 1), 3, 1, 2, "-2/3", True),
    ((-367, 40), [], (-3, 0), 3, 1, 2, "-2/3", True),
    ((9, 40), [], (-3, 0), 3, 1, 2, "-2/3", True),
    ((9, 40), [], (-3, 9), 3, 1, 2, "-2/3", True),
    ((40, 40), [], (-3, 0), 3, 1, 2, "-2/3", True),
    ((0, 40), [], (-3, 0), 3, 1, 2, "-2/3", True),
    ((1809, 8), [(-47, 25)], (-9, 4), -8, HUGE, 2, "-9/5", True),
    ((1809, 8), [(0, 8)], (-9, 4), -8, HUGE, 2, "-9/5", True),
    ((-9, 8), [(0, 8)], (-9, 4), -8, HUGE, 2, "-9/5", True),
    ((0, 8), [(0, 8)], (-9, 4), -8, HUGE, 2, "-9/5", True),
    ((0, 8), [(0, 8)], (-9, 4), -8, HUGE, 2, "0", True),
    ((0, 8), [], (-9, 4), -8, HUGE, 2, "0", True),
    ((0, 8), [], (-9, 4), -8, HUGE, 0, "0", True),
    ((-5120, 3), [(-38, 37)], (9, 2), -5, HUGE, 1, "-14/9", True),
]


def linear_roots(f):
    return sorted(-t.poly[0].rep for t in factor(f).factors if t.poly.degree == 1)


def test_rational_roots_match_unbounded_search():
    """Planted roots p/q with |p| <= 10^6 and q <= 50, a non-monic cofactor
    (with a middle coefficient of 10^320 in some draws, past the float
    range), powers of x, and rational scalings: the roots of the linear
    factors are those trial division over every divisor of a_0 and a_n
    finds."""
    for big, small, cofactor, lead, huge, x_power, scale, monic in RATIONAL_ROOT_EXAMPLES:
        scale = Fraction(scale) or Fraction(1)
        f = Poly(Q, [0] * x_power + [1])
        for p, q in [big] + small:
            f = f * Poly(Q, [-p, q])
        # the cofactor lead * x^2 + huge * c_1 x + c_0 has its own (rational
        # or irrational) roots besides the planted ones
        g = Poly(Q, [cofactor[0], cofactor[1] * huge, lead])
        f = (f * g).scale(Q(scale))
        if monic:
            f = f.monic()
        got = linear_roots(f)
        assert got == sorted(naive_rational_roots(f))
        for p, q in [big] + small:
            assert Fraction(p, q) in got


def test_rational_roots_with_coefficients_past_float_range():
    # (x - 3)(2x + 5)(x^2 + 10^400 x + 7): the root bound is about 10^400,
    # and int / int would overflow a float
    f = Poly(Q, [-3, 1]) * Poly(Q, [5, 2]) * Poly(Q, [7, 10**400, 1])
    assert linear_roots(f) == [Fraction(-5, 2), Fraction(3)]
    assert linear_roots(f) == sorted(naive_rational_roots(f))


@given(m=st.integers(0, 10**60), k=st.integers(1, 9))
@example(m=10**400, k=2)
@example(m=10**400 + 1, k=2)
@example(m=3**900, k=3)
@example(m=3**900 - 1, k=3)
@example(m=(2**61 - 1)**2, k=2)
@example(m=(2**61 - 1)**2 + 1, k=2)
def test_iroot_ceil_is_least_kth_root_above(m, k):
    c = _iroot_ceil(m, k)
    assert c ** k >= m
    assert c == 0 or (c - 1) ** k < m


# ----------------------------------------------------------------------
# distinct-degree splitting by the Frobenius matrix
# ----------------------------------------------------------------------

def _tower_f16():
    F4 = GF(4)
    t = F4.generator()
    # T^2 + T + t has no root in F_4, so it is irreducible
    F16, _, _ = extend(F4, Poly(F4, [t, F4.one(), F4.one()]))
    return F16


DDF_FIELDS = [Field("prime", p=3), Field("prime", p=101), GF(9), GF(25), GF(8), GF(16),
              _tower_f16()]


@pytest.mark.parametrize("field", DDF_FIELDS, ids=repr)
def test_distinct_degree_matches_power_per_degree(field):
    """Random monic polynomials, and products of random monic factors of
    mixed degrees (so that g loses factors at several degrees and the
    Frobenius matrix is reduced after each split), give the same (g_d, d)
    list as one modular power per degree."""
    rng = random.Random(field.cardinality)
    elems = list(enumerate_elements(field)) if field.cardinality <= 256 else None

    def monic(deg):
        draw = (lambda: rng.choice(elems)) if elems else (lambda: field(rng.randrange(field.p)))
        return Poly(field, [draw() for _ in range(deg)] + [field.one()])

    cases = [monic(rng.randrange(1, 13)) for _ in range(12)]
    for _ in range(12):
        f = Poly.one(field)
        for _ in range(rng.randrange(1, 5)):
            f = f * monic(rng.randrange(1, 5))
        cases.append(f)
    splits = 0
    for f in cases:
        parts = _distinct_degree(field, list(f.reps))
        got = [(Poly._from_raw(field, g), d) for g, d, _ in parts]
        assert got == power_per_degree_distinct_degree(f)
        _assert_frobenius_rows(field, parts)
        splits += len(got) > 1
    assert splits >= 5


def _assert_frobenius_rows(field, parts):
    """From d = 2 on, each piece g comes with rows that reduce mod g to its
    Frobenius rows x^(qj) mod g (the equal-degree split reads them)."""
    for g, d, rows in parts:
        if rows is None:
            assert d == 1 or len(g) - 1 == d
        else:
            assert d > 1
            gp = Poly._from_raw(field, g)
            assert [Poly._from_raw(field, r) % gp for r in rows[:gp.degree]] == frobenius_rows(gp)


@pytest.mark.parametrize("field", [Field("prime", p=101), GF(9)], ids=repr)
def test_distinct_degree_prepares_one_product_when_linear_factors_split_off(
        monkeypatch, field):
    """f = two linear factors times irreducibles of degrees 2, 3 and 4: g
    loses its linear factors at d = 1, and the Frobenius rows are then built
    through the product mod f and reduced, not through a second one."""
    rng = random.Random(5)
    elems = list(enumerate_elements(field))

    def irreducible(deg):
        while True:
            p = Poly(field, [rng.choice(elems) for _ in range(deg)] + [field.one()])
            if is_irreducible(p):
                return p

    f = Poly(field, [1, 1]) * Poly(field, [2, 1])
    for deg in (2, 3, 4):
        f = f * irreducible(deg)
    kernel_type = type(field.kernel)
    prepare = kernel_type.poly_mulmod_fn
    prepared = []
    monkeypatch.setattr(kernel_type, "poly_mulmod_fn",
                        lambda self, g: prepared.append(len(g) - 1) or prepare(self, g))
    parts = _distinct_degree(field, list(f.reps))
    monkeypatch.undo()
    got = [(Poly._from_raw(field, g), d) for g, d, _ in parts]
    assert prepared == [f.degree]
    assert [d for _, d in got] == [1, 2, 3, 4]
    assert got == power_per_degree_distinct_degree(f)
    _assert_frobenius_rows(field, parts)


# odd q on both sides of FIELD_TABLE_BOUND (F_65521 splits its linear factors
# by random draws), and two extension fields
SPLIT_FIELDS = [Field("prime", p=p) for p in (3, 5, 101, 251, 65521)] + [GF(9), GF(25)]


def _random_irreducibles(field, deg, count, rng):
    """``count`` distinct random monic irreducibles of degree ``deg``."""
    elems = list(enumerate_elements(field)) if field.cardinality <= 256 else None
    out = []
    while len(out) < count:
        coeffs = [rng.choice(elems) if elems else field(rng.randrange(field.p))
                  for _ in range(deg)]
        f = Poly(field, coeffs + [field.one()])
        if f not in out and is_irreducible(f):
            out.append(f)
    return out


@pytest.mark.parametrize("field", SPLIT_FIELDS, ids=repr)
def test_frobenius_split_matches_the_binary_power(field):
    """For a product g of two or three irreducibles of degree d = 2..6, the
    draws' a^((q^d-1)/2) mod g through the Frobenius rows that the
    degree split hands on equals one binary power, and the split gives the
    reference's factors."""
    rng = random.Random(field.cardinality)
    kern = field.kernel
    for d in range(2, 7):
        planted = _random_irreducibles(field, d, 2 + d % 2, rng)
        g = functools.reduce(operator.mul, planted)
        [(piece, degree, rows)] = _distinct_degree(field, list(g.reps))
        assert (Poly._from_raw(field, piece), degree) == (g, d)
        reduced = [kern.poly_divmod(r, piece)[1] for r in rows[:g.degree]]
        power = _half_power(kern, piece, d, field.cardinality, reduced,
                            kern.poly_mulmod_fn(piece))
        for _ in range(4):
            a = Poly(field, [random_element(field, rng) for _ in range(g.degree)])
            assert Poly._from_raw(field, power(list(a.reps))) == equal_degree_power(a, d, g)
        got = sorted((Poly._from_raw(field, h)
                      for h in _equal_degree(field, piece, d, random.Random(d), rows)),
                     key=Poly.sort_key)
        assert got == sorted(planted, key=Poly.sort_key)
        assert got == power_equal_degree_split(g, d, random.Random(d))
        assert [t.poly for t in factor(g)] == got


@pytest.mark.parametrize("p", [2, 3, 5, 101, 251, 257, 65521])
def test_linear_factors_by_scan_match_random_root_splitting(p):
    """Products of distinct linear factors over F_p: the root scan (p up to
    FIELD_TABLE_BOUND) and random root splitting (above it) both give the
    reference's roots."""
    field = Field("prime", p=p)
    rng = random.Random(p)
    for size in range(2, min(p, 9) + 1):
        roots = rng.sample(range(p), size)
        f = functools.reduce(operator.mul, (Poly(field, [-r, 1]) for r in roots))
        got = sorted((Poly._from_raw(field, h)
                      for h in _equal_degree(field, list(f.reps), 1, random.Random(size))),
                     key=Poly.sort_key)
        expected = ([Poly(field, [-r, 1]) for r in sorted(roots)] if p == 2 else
                    power_equal_degree_split(f, 1, random.Random(size)))
        assert got == expected
        assert sorted(-t.poly.reps[0] % p for t in factor(f)) == sorted(roots)


# ----------------------------------------------------------------------
# pinned factorizations
# ----------------------------------------------------------------------

def _golden_cases(field, kind, seed):
    """Seeded polynomials of degree 1..40: ``random`` ones (any leading
    coefficient), products of random monic factors of degree 1-4 with
    multiplicities 1-3 (``repeated``), and p-th powers (``pth``, which reach
    ``_pth_root_poly``; only degrees divisible by p)."""
    rng = random.Random(seed)
    p = field.characteristic
    elems = list(enumerate_elements(field)) if field.cardinality <= 256 else None

    def draw(nonzero=False):
        while True:
            c = rng.choice(elems) if elems else field(rng.randrange(p))
            if c != field.zero() or not nonzero:
                return c

    def poly(d, monic):
        return Poly(field, [draw() for _ in range(d)] + [field.one() if monic else draw(True)])

    out = []
    for d in range(1, 41):
        if kind == "random":
            out.append(poly(d, False))
        elif kind == "repeated":
            f, left = poly(0, False), d
            while left:
                e = rng.randint(1, min(4, left))
                m = rng.randint(1, min(3, left // e))
                f = f * poly(e, True) ** m
                left -= e * m
            out.append(f)
        elif d % p == 0:
            out.append(poly(d // p, False) ** p)
    return out


def _factor_digest(field, kind, seed):
    data = []
    for f in _golden_cases(field, kind, seed):
        fac = factor(f)
        data.append((f.reps, fac.unit.rep, [(t.poly.reps, t.multiplicity) for t in fac.factors]))
    return hashlib.sha256(repr(data).encode()).hexdigest()


# SHA-256 of (f, unit, [(factor, multiplicity)]) over the seed-1 cases of each
# field and kind, recorded before factoring moved onto raw reps and kernel ops
FACTOR_GOLDEN = [
    ("Fp:2", "random", "1ab01b1eb71f8e93868b59d171b10b1732ba62d71191ceeb0bb17894e21ec997"),
    ("Fp:2", "repeated", "0bd2c7a32859603baec3bf2efa17a5c76ed772a2b693964d27e707c6e131a950"),
    ("Fp:2", "pth", "49bb064f23092b5651dd7998a16854e5d5b6f1b7063f22943688628a2251839e"),
    ("Fp:3", "random", "d3c56190bdfe7f92c82063d30e1ed6b4ffa0e1796d8b0a64a56a40014ab16548"),
    ("Fp:3", "repeated", "8df03e53c90aa8925a533b5dc9c6f039622ea68cb50827202e90b915dcf0b305"),
    ("Fp:3", "pth", "f1d25659f09c7d21ee525cb600bb3468ce2ae4f995bce2c82ef366a8a6f0ffde"),
    ("Fp:101", "random", "8b2d92896caf38dfa1a13c72674c6eeb422ebb95b4ddcc1e34c9910e2c6c7b37"),
    ("Fp:101", "repeated", "78db05cdca08b7d68f15677cbbb8f7b28aeef752714767d540f6d801efd639b3"),
    ("Fp:65521", "random", "fbb75cfd89aa956afa20a039423d5308e7a6a45db987479283cceba1b2d87f5d"),
    ("Fp:65521", "repeated", "50489ff2835bb8f3de4d69787b8fa7d42f2484ebfd4e65a37841f73a4ee82a0f"),
    ("Fp:2147483647", "random", "ebd1be85f976b92dace2d587ab3e0d9a8acac5b45e65ecb42d95a23de67b38a5"),
    ("Fp:2147483647", "repeated", "e165402200bd8de5209719dbfc84d16912f436031047b12356134e9d58bdda0e"),
    ("Fq:p=2,d=2,mod=[1,1,1]", "random", "e1a6d692368a69441150003f0028260a6d38b61cd1a4c1cb51f33962d799ffd5"),
    ("Fq:p=2,d=2,mod=[1,1,1]", "repeated", "efa2f8fce2d5ed4640e204e1f7ed405db54c40c13363e5d7efd7f7f7aa06fe8b"),
    ("Fq:p=2,d=2,mod=[1,1,1]", "pth", "639b84dde4c9b3705a955ca232aac17d6f1e49e89eb4e3db9fc647f7ee8a3cd2"),
    ("Fq:p=3,d=2,mod=[2,2,1]", "random", "ae32439f48aa372fef27422cd45747e65c1370bb62eb5a9646a8cf578ebc26a5"),
    ("Fq:p=3,d=2,mod=[2,2,1]", "repeated", "15d792c05d3a3d7a8e84646de436edd66f35a8dae12e3a2071e4d7950d00d930"),
    ("Fq:p=3,d=2,mod=[2,2,1]", "pth", "cdd5ee188b09812566d248e0fe0b830b4b257135a6c35a73accfb682249ea74c"),
]


@pytest.mark.parametrize("spec,kind,digest", FACTOR_GOLDEN)
def test_factorizations_are_pinned(spec, kind, digest):
    assert _factor_digest(parse_field_spec(spec), kind, 1) == digest


# ----------------------------------------------------------------------
# the memo of recent factorizations
# ----------------------------------------------------------------------

def _counting(monkeypatch, name):
    """Patch factor's internal ``name`` to record its first argument."""
    calls, real = [], getattr(factor_mod, name)
    monkeypatch.setattr(factor_mod, name, lambda f, *rest: calls.append(f) or real(f, *rest))
    return calls


def test_a_repeated_polynomial_gets_the_same_factorization(monkeypatch, empty_factor_memo):
    calls = _counting(monkeypatch, "_factor_finite")
    f = Poly(F7, [3, 1]) * Poly(F7, [3, 1]) * Poly(F7, [3, 0, 1]) * Poly(F7, [5])
    fac = factor(f)
    assert factor(Poly(F7, [c.rep for c in f.coeffs])) is fac
    assert len(calls) == 1
    # over another field object of the same key the answer is the same
    assert factor(Poly(parse_field_spec("Fp:7"), [c.rep for c in f.coeffs])) is fac
    assert len(calls) == 1


def test_the_memo_holds_at_most_its_bound(empty_factor_memo):
    rng = random.Random(33)
    polys = [Poly(F5, [rng.randrange(5) for _ in range(4)] + [1])
             for _ in range(3 * FACTOR_MEMO_SIZE)]
    for f in polys:
        fac = factor(f)
        assert fac.expand() == f
        assert factor_mod._factorization.cache_info().currsize <= FACTOR_MEMO_SIZE
    info = factor_mod._factorization.cache_info()
    assert (info.maxsize, info.currsize) == (FACTOR_MEMO_SIZE, FACTOR_MEMO_SIZE)
    # what the cache answers is what a fresh factorization gives
    assert as_pairs(factor(polys[0])) == as_pairs(factor_mod._factorization.__wrapped__(polys[0]))


def test_a_q_solve_proves_its_factor_irreducible_once(monkeypatch, empty_factor_memo):
    """A = X^2 + Y^2 over Q with chi = x^2 + x + 189 irreducible: the
    factorization of chi proves the working field's modulus irreducible, so
    Zassenhaus runs once (twice when Q(alpha) factored its modulus again).
    Planted Q targets can still end in a false NotFound (ROADMAP item 12)."""
    X = Matrix.from_rows(Q, [[2, 1], [-3, 3]])
    Y = Matrix.from_rows(Q, [[0, 3], [-2, 2]])
    A = X * X + Y * Y
    assert [t.poly.degree for t in factor_mod._factorization(charpoly(A)).factors] == [2]
    factor_mod._factorization.cache_clear()
    calls = _counting(monkeypatch, "_zassenhaus")
    try:
        solve_diagonal_word(A, parse_word("diag:d=1,k=2;d=1,k=2", Q))
    except NotFound:
        pass
    assert len(calls) == 1


@pytest.mark.parametrize("rows", [[[1, 2], [0, 3]], [[0, 1], [3, 0]], [[2, 1], [0, 2]]],
                         ids=["split", "irreducible", "repeated"])
def test_a_2x2_commutator_solve_factors_chi_once(monkeypatch, empty_factor_memo, rows):
    """The m = 4 solve on a 2x2 target reads chi's roots (``_canonical_2x2``)
    from the Jordan blocks, so only the Jordan form asks for the
    factorization of chi (a second ask would be a cache hit)."""
    A = Matrix.from_rows(F5, rows)
    chi = charpoly(A)
    calls = _counting(monkeypatch, "factor")
    w = solve_commutator_product(A, 4, seed=1)
    assert w.target == A
    assert [f for f in calls if f == chi] == [chi]
