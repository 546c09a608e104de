import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wordmap
from wordmap.errors import UnsupportedField, ZeroPolynomial
from wordmap.factor import _distinct_degree, factor, is_irreducible
from wordmap.fields import Field, GF, _iroot_ceil, enumerate_elements, extend
from wordmap.polynomials import Poly

from oracles import naive_rational_roots, power_per_degree_distinct_degree, rabin_irreducible

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
Q = Field("rationals")


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
        got = _distinct_degree(f)
        assert got == power_per_degree_distinct_degree(f)
        splits += len(got) > 1
    assert splits >= 5
