import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordmap.errors import UnsupportedField, ZeroPolynomial
from wordmap.factor import (
    _distinct_degree,
    _iroot_ceil,
    _rational_roots,
    factor,
    is_irreducible,
)
from wordmap.fields import Field, GF, enumerate_elements, extend
from wordmap.polynomials import Poly

from oracles import naive_rational_roots, power_per_degree_distinct_degree

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
    assert fac.factors[0].certified


def test_factor_q_rational_roots_and_units():
    # 6T^2 + 5T + 1 = 6 (T + 1/2)(T + 1/3)
    f = Poly(Q, [1, 5, 6])
    fac = factor(f)
    assert fac.unit == Q(6)
    assert fac.expand() == f
    roots = sorted(str((-t.poly[0]).rep) for t in fac.factors)
    assert roots == ["-1/2", "-1/3"]


def test_factor_q_degree4_unverified():
    # T^4 + T + 1 has no rational root; residual stays whole, flagged
    f = Poly(Q, [1, 1, 0, 0, 1])
    fac = factor(f)
    assert len(fac.factors) == 1
    assert not fac.factors[0].certified


def test_factor_q_perfect_power():
    f = Poly(Q, [1, 0, 2, 0, 1])  # (T^2+1)^2
    fac = factor(f)
    assert len(fac.factors) == 1
    assert fac.factors[0].multiplicity == 2
    assert fac.factors[0].poly == Poly(Q, [1, 0, 1])
    # r^m with r squarefree: one term r with multiplicity m, and r factored
    # as a squarefree residual (a degree-4 r stays whole and uncertified)
    g = Poly(Q, [1, 1, 0, 0, 1])
    h = Poly(Q, [1, 0, 1]) * Poly(Q, [2, 0, 1])
    for f, want in ((g ** 3, [(g, 3, False)]), (h ** 2, [(h, 2, False)]),
                    (Poly(Q, [1, 0, 1]) ** 5, [(Poly(Q, [1, 0, 1]), 5, True)])):
        assert [(t.poly, t.multiplicity, t.certified) for t in factor(f).factors] == want


def test_factor_q_repeated_factors_of_two_multiplicities():
    # (T^2+1)(T^2+T+1)^2 is no perfect power: split by multiplicity, in
    # increasing order, then each part as a squarefree residual
    f = Poly(Q, [1, 0, 1]) * Poly(Q, [1, 1, 1]) ** 2
    fac = factor(f)
    assert [(t.poly, t.multiplicity, t.certified) for t in fac.factors] == [
        (Poly(Q, [1, 0, 1]), 1, True), (Poly(Q, [1, 1, 1]), 2, True)]
    # T^4 + T + 1 has degree 4: kept whole and flagged, with multiplicity 2
    g = Poly(Q, [1, 1, 0, 0, 1])
    fac = factor(Poly(Q, [2, 1]) * Poly(Q, [1, 0, 1]) * g ** 2)
    assert [(t.poly, t.multiplicity, t.certified) for t in fac.factors] == [
        (Poly(Q, [2, 1]), 1, True), (Poly(Q, [1, 0, 1]), 1, True), (g, 2, False)]


def test_factor_roundtrip_random():
    rng = random.Random(7)
    for field in (F2, F3, F7):
        for _ in range(34):
            deg = rng.randrange(1, 9)
            coeffs = [rng.randrange(field.p) for _ in range(deg)] + [1]
            f = Poly(field, coeffs)
            fac = factor(f, seed=rng.randrange(1000))
            assert fac.expand() == f
            for term in fac.factors:
                assert is_irreducible(term.poly)
            refac = factor(fac.expand(), seed=1)
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
    a = factor(f, seed=42)
    b = factor(f, seed=42)
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
        fac = factor(f, seed=1)
        assert fac.expand() == f
        assert all(is_irreducible(t.poly) for t in fac.factors)


# ----------------------------------------------------------------------
# rational roots inside the root bound
# ----------------------------------------------------------------------

HUGE = 10**320

# (big, small, cofactor, lead, huge, x_power, scale, monic): the 30 examples
# a derandomized hypothesis search drew for this test.  They are listed
# because that search also draws integer literals mined from src/wordmap, so
# deleting an unrelated literal there changes the examples; with c0 = 0 and
# huge = 10^320 the constant term grows to about 10^325, and both
# _rational_roots and the unbounded reference trial-divide it up to its
# square root, which never ends.
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


def test_rational_roots_match_unbounded_search():
    """Planted roots p/q with |p| <= 10^6 and q <= 50, a non-monic cofactor
    (with a middle coefficient of 10^320 in some draws, past the float
    range), powers of x, and rational scalings give the same roots in the
    same order as trial division over every divisor of a_0 and a_n."""
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
        got = _rational_roots(f)
        assert got == naive_rational_roots(f)
        for p, q in [big] + small:
            assert Fraction(p, q) in got


def test_rational_roots_with_coefficients_past_float_range():
    # (x - 3)(2x + 5)(x^2 + 10^400 x + 7): the root bound is about 10^400,
    # and int / int would overflow a float
    f = Poly(Q, [-3, 1]) * Poly(Q, [5, 2]) * Poly(Q, [7, 10**400, 1])
    assert sorted(_rational_roots(f)) == [Fraction(-5, 2), Fraction(3)]
    assert _rational_roots(f) == naive_rational_roots(f)


@given(m=st.integers(0, 10**60), k=st.integers(1, 9))
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
