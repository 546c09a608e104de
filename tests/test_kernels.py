"""The raw kernels under Matrix and Poly against element-by-element
references, on every field kind; the Q kernel against the generic kernel
on the same raw rows; plus CLI output pinned byte for byte.

Results must agree exactly: exact kinds by value, R and C bit for bit
(the generic kernel keeps the operation order, zero skips and pivot rules
of the FieldElement operators).
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wordmap.cli import main
from wordmap.commutators import factor_two_trace_zero, solve_commutator_product
from wordmap.diagonal import _exhaustive_two_term, solve_diagonal_word
from wordmap.errors import ReduciblePolynomial, SingularMatrix
from wordmap.factor import is_irreducible
import wordmap.fields as fields_mod
from wordmap.fields import (
    MULMOD_PACK_MIN_DEGREE,
    GenericKernel,
    PrimeKernel,
    RationalKernel,
    _mulmod_lists,
    _ratio,
    enumerate_elements,
    extend,
    parse_field_spec,
)
from wordmap.matrices import (
    Matrix,
    MatrixSpace,
    charpoly,
    generalized_jordan_form,
    krylov_annihilator,
)
from wordmap.polynomials import Poly, approx_roots
from wordmap.words import DiagonalWord

from oracles import (
    brute_inverse,
    loop_matpow,
    loop_poly_pow,
    loop_poly_powmod,
    loop_rpow,
    loop_space_power,
    random_invertible,
    naive_apply,
    naive_berkowitz,
    naive_horner,
    naive_inverse,
    naive_matmul,
    naive_nullspace,
    naive_poly_divmod,
    naive_poly_gcd,
    naive_poly_mul,
    naive_power,
    naive_rank,
    naive_solve_right,
    rabin_irreducible,
    ref_durand_kerner,
)

F4_SPEC = "Fq:p=2,d=2,mod=[1,1,1]"
F9_SPEC = "Fq:p=3,d=2,mod=[2,2,1]"
F64_SPEC = "Fq:p=2,d=6,mod=[1,1,0,0,0,0,1]"
SPECS = ["Fp:2", "Fp:3", "Fp:101", F4_SPEC, F9_SPEC, "Q", "R:tol=1e-9", "C:tol=1e-9"]
FIELDS = {spec: parse_field_spec(spec) for spec in SPECS}

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def bits(x):
    """A value's exact identity: float bits for R and C, the rep otherwise."""
    rep = x.rep
    if isinstance(rep, float):
        return rep.hex()
    if isinstance(rep, complex):
        return (rep.real.hex(), rep.imag.hex())
    return rep


def mbits(M):
    return [[bits(x) for x in row] for row in M.rows]


def vbits(v):
    return [bits(x) for x in v]


def _float():
    # magnitudes from below the tolerance (skipped as zero) up to 1e3;
    # adding 0.0 turns -0.0 into 0.0, whose sign no operation promises
    return st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e-9, 1e-9),
                     st.integers(-3, 3).map(float)).map(lambda x: x + 0.0)


def elements(field):
    if field.is_finite:
        return st.sampled_from(list(enumerate_elements(field)))
    if field.kind == "rationals":
        return st.builds(lambda a, b: field(Fraction(a, b)),
                         st.integers(-9, 9), st.integers(1, 4))
    if field.kind == "real":
        return _float().map(field)
    return st.builds(complex, _float(), _float()).map(field)


@st.composite
def matrices(draw, field, nrows=None, ncols=None):
    """Random matrices, some with repeated rows so that the rank drops."""
    nrows = draw(st.integers(1, 6)) if nrows is None else nrows
    ncols = draw(st.integers(1, 6)) if ncols is None else ncols
    rows = [draw(st.lists(elements(field), min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            rows[i] = rows[draw(st.integers(0, i - 1))]
    return Matrix(field, rows)


def polys(field, max_degree=7):
    return st.lists(elements(field), max_size=max_degree + 1).map(
        lambda cs: Poly(field, cs))


fields = pytest.mark.parametrize("spec", SPECS)


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

@fields
@SETTINGS
@given(data=st.data())
def test_matmul_and_apply(spec, data):
    field = FIELDS[spec]
    A = data.draw(matrices(field))
    B = data.draw(matrices(field, nrows=A.ncols))
    assert mbits(A * B) == mbits(naive_matmul(A, B))
    v = data.draw(st.lists(elements(field), min_size=A.ncols, max_size=A.ncols))
    assert vbits(A.apply(v)) == vbits(naive_apply(A, v))


def _shear_float():
    # signed zeros and magnitudes below the tolerance, which the dense
    # products skip as zero left factors, next to ordinary ones
    return st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e-9, 1e-9),
                     st.floats(-1e3, 1e3))


def shear_elements(field):
    if field.kind == "real":
        return _shear_float().map(field)
    if field.kind == "complex":
        return st.builds(complex, _shear_float(), _shear_float()).map(field)
    return elements(field)


@fields
@SETTINGS
@given(data=st.data())
def test_shear_matches_dense_products(spec, data):
    """Matrix.shear against the dense products E*Z*E^-1 and E*Z, with E and
    E^-1 built as I +/- c*e_{r,s} by matrix arithmetic, bit for bit."""
    field = FIELDS[spec]
    n = data.draw(st.integers(2, 6))
    Z = Matrix(field, [data.draw(st.lists(shear_elements(field), min_size=n, max_size=n))
                       for _ in range(n)])
    r = data.draw(st.integers(0, n - 1))
    s = data.draw(st.integers(0, n - 2))
    s += s >= r
    c = data.draw(shear_elements(field))
    ident = Matrix.identity(field, n)
    step = Matrix.unit(field, n, r, s).scale(c)
    E, E_inv = ident + step, ident - step
    assert mbits(Z.shear(r, s, c)) == mbits(naive_matmul(naive_matmul(E, Z), E_inv))
    assert mbits(Z.shear(r, s, c, conjugate=False)) == mbits(naive_matmul(E, Z))


@fields
@SETTINGS
@given(data=st.data())
def test_add_sub_scale(spec, data):
    field = FIELDS[spec]
    A = data.draw(matrices(field))
    B = data.draw(matrices(field, A.nrows, A.ncols))
    c = data.draw(elements(field))
    assert mbits(A + B) == [[bits(a + b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(A.rows, B.rows)]
    assert mbits(A - B) == [[bits(a - b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(A.rows, B.rows)]
    assert mbits(A.scale(c)) == [[bits(a * c) for a in row] for row in A.rows]


@fields
@SETTINGS
@given(data=st.data(), k=st.integers(0, 6))
def test_power(spec, data, k):
    field = FIELDS[spec]
    n = data.draw(st.integers(1, 5))
    A = data.draw(matrices(field, n, n))
    assert mbits(A ** k) == mbits(naive_power(A, k))


@fields
@SETTINGS
@given(data=st.data())
def test_rank_nullspace_solve_right(spec, data):
    field = FIELDS[spec]
    A = data.draw(matrices(field))
    assert A.rank() == naive_rank(A)
    assert [vbits(v) for v in A.nullspace()] == [vbits(v) for v in naive_nullspace(A)]
    b = data.draw(st.lists(elements(field), min_size=A.nrows, max_size=A.nrows))
    got, want = A.solve_right(b), naive_solve_right(A, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert vbits(got) == vbits(want)


@fields
@SETTINGS
@given(data=st.data())
def test_inverse_and_det(spec, data):
    field = FIELDS[spec]
    n = data.draw(st.integers(1, 6))
    A = data.draw(matrices(field, n, n))
    want = naive_inverse(A)
    if want is None:
        with pytest.raises(SingularMatrix):
            A.inverse()
    else:
        assert mbits(A.inverse()) == mbits(want)


@fields
@SETTINGS
@given(data=st.data())
def test_charpoly_and_krylov(spec, data):
    field = FIELDS[spec]
    n = data.draw(st.integers(1, 6))
    A = data.draw(matrices(field, n, n))
    assert vbits(charpoly(A).coeffs) == vbits(naive_berkowitz(A))
    if field.is_exact:
        # the annihilator of v divides the characteristic polynomial and
        # kills v; over R/C the float result has no exact property to check
        v = data.draw(st.lists(elements(field), min_size=n, max_size=n))
        g = krylov_annihilator(A, v)
        assert g.is_monic()
        assert all(x.is_zero() for x in naive_apply(naive_horner(g.coeffs, A), v))
        assert (charpoly(A) % g).is_zero()


@fields
@SETTINGS
@given(data=st.data())
def test_poly_evaluation_at_matrix(spec, data):
    field = FIELDS[spec]
    n = data.draw(st.integers(1, 4))
    A = data.draw(matrices(field, n, n))
    p = data.draw(polys(field, 5))
    assert mbits(p(A)) == mbits(naive_horner(p.coeffs, A))


# ----------------------------------------------------------------------
# the Q kernel against the generic kernel, on the same raw rows
# ----------------------------------------------------------------------

def _wide_rationals():
    """Q entries with denominators up to 10^12, some of them 10^320 / d."""
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**12)),
        st.builds(Fraction, st.sampled_from([10**320, -10**320 - 7]),
                  st.integers(1, 10**12)))


@st.composite
def _raw_q_rows(draw, width, ncols, nrows=None):
    """Raw rows of Fractions with zero rows, repeated rows, and rows that
    repeat a multiple of an earlier row on the first ``ncols`` columns only
    (so that non-pivot rows keep nonzero augmented columns)."""
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    rows = [draw(st.lists(_wide_rationals(), min_size=width, max_size=width))
            for _ in range(nrows)]
    for i in range(1, nrows):
        j = draw(st.integers(0, i - 1))
        how = draw(st.integers(0, 4))
        if how == 0:
            rows[i] = list(rows[j])
        elif how == 1:
            rows[i] = [Fraction(0)] * width
        elif how == 2:
            c = draw(_wide_rationals())
            rows[i] = [c * x for x in rows[j][:ncols]] + rows[i][ncols:]
    return rows


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_rational_kernel_matches_generic_kernel(data):
    field = FIELDS["Q"]
    kern, ref = field.kernel, GenericKernel(field)
    assert type(kern) is RationalKernel
    width = data.draw(st.integers(0, 6))
    ncols = data.draw(st.integers(0, width))
    rows = data.draw(_raw_q_rows(width, ncols))
    # in-place echelon: every row, pivot or not, augmented columns included
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    assert kern.echelon(got, ncols) == ref.echelon(want, ncols)
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    assert kern.echelon(got) == ref.echelon(want)
    assert got == want
    other = data.draw(_raw_q_rows(data.draw(st.integers(0, 4)), 0, width))
    assert kern.matmul(rows, other) == ref.matmul(rows, other)
    for xs in rows:
        for ys in rows:
            assert kern.dot(xs, ys) == ref.dot(xs, ys)


# the rational core: Q's closures and _ratio build Fractions without the
# constructor, so their values, normalisation and hashes must be the
# fractions module's own

_BIG = st.integers(-2**130, 2**130)
_INTS = st.one_of(st.just(0), st.integers(-12, 12), _BIG)
_Q_VALUES = st.one_of(_INTS, st.builds(Fraction, _INTS, _INTS.filter(bool)))


def _same_fraction(got, want):
    return (type(got) is Fraction and got == want and hash(got) == hash(want)
            and (got.numerator, got.denominator) == (want.numerator, want.denominator))


@settings(max_examples=400, deadline=None)
@given(a=_Q_VALUES, b=_Q_VALUES, n=_INTS, d=_INTS.filter(bool))
@example(a=0, b=Fraction(-3, 2**70), n=0, d=-5)
@example(a=Fraction(0), b=-7, n=2**80, d=-(2**81))
def test_rational_core_equals_fraction_arithmetic(a, b, n, d):
    Q = FIELDS["Q"]
    fa, fb = Fraction(a), Fraction(b)
    assert _same_fraction(_ratio(n, d), Fraction(n, d))
    assert _same_fraction(Q._radd(a, b), fa + fb)
    assert _same_fraction(Q._rsub(a, b), fa - fb)
    assert _same_fraction(Q._rmul(a, b), fa * fb)
    assert _same_fraction(Q._rneg(a), -fa)
    if fa:
        assert _same_fraction(Q._rinv(a), 1 / fa)
    else:
        with pytest.raises(ZeroDivisionError):
            Q._rinv(a)


def test_rational_matvec_fn_clears_the_matrix_once(monkeypatch):
    Q = FIELDS["Q"]
    rng = random.Random(28)
    calls = []
    cleared = fields_mod._cleared
    monkeypatch.setattr(fields_mod, "_cleared",
                        lambda xs: calls.append(len(xs)) or cleared(xs))

    def entry():
        return Q(Fraction(rng.choice((0, rng.randint(-9, 9), rng.randint(-2**70, 2**70))),
                          rng.randint(1, 12)))
    for nrows, ncols in ((1, 1), (3, 5), (6, 6)):
        A = Matrix(Q, [[entry() for _ in range(ncols)] for _ in range(nrows)])
        calls.clear()
        apply = Q.kernel.matvec_fn(A.reps)
        assert calls == [ncols] * nrows
        for _ in range(5):
            v = [entry() for _ in range(ncols)]
            got = apply([x.rep for x in v])
            assert all(type(x) is Fraction for x in got)
            assert got == [x.rep for x in naive_apply(A, v)]
        assert calls == [ncols] * (nrows + 5)


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------

@fields
@SETTINGS
@given(data=st.data())
def test_poly_mul_divmod_gcd(spec, data):
    field = FIELDS[spec]
    a = data.draw(polys(field))
    b = data.draw(polys(field))
    assert vbits((a * b).coeffs) == vbits(naive_poly_mul(a.coeffs, b.coeffs, field))
    if not b.is_zero():
        q, r = a.divmod(b)
        nq, nr = naive_poly_divmod(a.coeffs, b.coeffs, field)
        assert (vbits(q.coeffs), vbits(r.coeffs)) == (vbits(nq), vbits(nr))
    assert vbits(a.gcd(b).coeffs) == vbits(naive_poly_gcd(a.coeffs, b.coeffs, field))


@pytest.mark.parametrize("spec", ["Fp:2", "Fp:3", "Fp:101", F4_SPEC, F9_SPEC, "Q"])
@SETTINGS
@given(data=st.data(), e=st.integers(0, 300))
def test_poly_pow_mod(spec, data, e):
    field = FIELDS[spec]
    a = data.draw(polys(field, 5))
    m = data.draw(polys(field, 4).filter(lambda p: not p.is_zero()))
    want = Poly.one(field)
    for _ in range(e):
        want = (want * a) % m
    assert Poly._from_raw(field, field.kernel.poly_powmod(a.reps, e, m.reps)) == want % m


def _hex(rep):
    if isinstance(rep, complex):
        return (rep.real.hex(), rep.imag.hex())
    return rep.hex()


def _hex_rows(rows):
    return None if rows is None else [[_hex(x) for x in row] for row in rows]


SIGNED_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 1.1, -1.25)


def test_binary_power_bits_equal_the_five_loops():
    """The one binary power against the five loops it replaced (kept in
    oracles), float bits and signed zeros included: element powers over R
    and C, whose first product from one is one * a, polynomial powers and
    modular powers over C, and matrix powers over R."""
    R, C = FIELDS["R:tol=1e-9"], FIELDS["C:tol=1e-9"]
    reals = SIGNED_FLOATS + (1e-10, -3.0)
    complexes = [complex(a, b) for a in SIGNED_FLOATS for b in SIGNED_FLOATS]
    for field, xs in ((R, reals), (C, complexes)):
        for x in xs:
            for k in range(71):
                assert _hex((field.element(x) ** k).rep) == _hex(loop_rpow(field, x, k))
    rng = random.Random(27)
    kern = C.kernel
    for _ in range(6):
        reps = [complex(rng.choice(SIGNED_FLOATS), rng.choice(SIGNED_FLOATS))
                for _ in range(3)] + [complex(1.0, rng.choice(SIGNED_FLOATS))]
        p = Poly._from_raw(C, reps)
        m = Poly._from_raw(C, reps[1:] + [complex(0.5, -0.0)])
        for k in range(21):
            assert [_hex(c) for c in (p ** k).reps] == [_hex(c) for c in loop_poly_pow(p, k).reps]
        for e in range(41):
            assert ([_hex(c) for c in kern.poly_powmod(p.reps, e, m.reps)]
                    == [_hex(c) for c in loop_poly_powmod(kern, p.reps, e, m.reps)])
    kern = R.kernel
    for n in (1, 2, 3):
        A = Matrix._from_raw(R, [[rng.choice(SIGNED_FLOATS) for _ in range(n)]
                                 for _ in range(n)])
        for k in range(71):
            want = _hex_rows(loop_matpow(kern, A.reps, k))
            assert _hex_rows(kern.matpow(A.reps, k)) == want
            if k:
                assert _hex_rows((A ** k).reps) == want


def test_matrix_space_power_equals_the_kernel_power():
    """MatrixSpace.power on the planes of all of M_2(F_3) against
    kernel.matpow, matrix by matrix, and against its former loop."""
    field = FIELDS["Fp:3"]
    space = MatrixSpace(field, 2)
    whole = space.planes()
    for k in range(1, 10):
        planes = space.power(whole, k)
        assert planes == loop_space_power(space, whole, k)
        for code, got in enumerate(space.codes(planes)):
            assert (space.matrix_at(got).reps
                    == Matrix._from_raw(field, field.kernel.matpow(space.rows_at(code), k)).reps)


def _durand_kerner_cases():
    """Seeded real and complex polynomials of degree 1..10 whose coefficients
    have magnitudes from 1e-3 to 1e28, repeated roots, zero constant terms,
    and the charpoly of an 8x8 real S diag(1000, ..., 8000) S^-1."""
    rng = random.Random(2025)
    R, C = FIELDS["R:tol=1e-9"], FIELDS["C:tol=1e-9"]

    def coeff(field, mag):
        if field is R:
            return rng.uniform(-1, 1) * mag
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mag

    cases = []
    for field in (R, C):
        for deg in range(1, 11):
            for mag in (1e-3, 1.0, 1e4, 1e16, 1e28, None):  # None: mixed magnitudes
                cases.append(Poly(field, [
                    coeff(field, 10.0 ** rng.uniform(-3, 28) if mag is None else mag)
                    for _ in range(deg + 1)]))
        cases.append(Poly(field, [0.0] + [coeff(field, 1e3) for _ in range(4)]))
    cases += [Poly.from_roots(R, [2.0, 2.0, 2.0, -1.0]),
              Poly.from_roots(C, [1j, 1j, -3.0, -3.0, 0.5, 0.0]),
              Poly(R, [0.0, 0.0, 0.0, 1.0])]
    S = Matrix(R, [[R(rng.uniform(-1, 1)) for _ in range(8)] for _ in range(8)])
    D = Matrix(R, [[R(1000.0 * (i + 1) if i == j else 0.0) for j in range(8)]
                   for i in range(8)])
    cases.append(charpoly(S * D * S.inverse()))
    return cases


def test_approx_roots_bits_equal_the_textbook_loop():
    """approx_roots against the Durand-Kerner loop as first written, every
    real and imaginary part compared by float.hex: the same complex
    operations in the same order give the same bits on every interpreter."""
    def bits(zs):
        return [(z.real.hex(), z.imag.hex()) for z in zs]

    for p in _durand_kerner_cases():
        assert p.degree >= 1
        assert bits(approx_roots(p)) == bits(ref_durand_kerner(p)), p


# ----------------------------------------------------------------------
# extension fields: inverses and the irreducibility test
# ----------------------------------------------------------------------

def _quadratic_tower(base, middle):
    """base[t]/(t^2 + middle*t - g) for the first g in enumeration order
    that makes the modulus irreducible."""
    for g in enumerate_elements(base):
        try:
            return extend(base, Poly(base, [-g, middle, base.one()]))[0]
        except ReduciblePolynomial:
            continue
    raise AssertionError(f"no irreducible quadratic t^2 + {middle!r}t - g over {base}")


TOWER = _quadratic_tower(FIELDS[F9_SPEC], FIELDS[F9_SPEC].zero())


@pytest.mark.parametrize("field", [FIELDS[F4_SPEC], FIELDS[F9_SPEC], TOWER],
                         ids=["F4", "F9", "F81-tower"])
def test_extension_inverse(field):
    for x in enumerate_elements(field):
        if x.is_zero():
            continue
        assert x.inverse() == brute_inverse(x)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducibility_test_by_roots(p):
    """Up to degree 3 a monic polynomial is irreducible iff it has no root."""
    base = parse_field_spec(f"Fp:{p}")
    for d in (2, 3):
        for tail in itertools.product(range(p), repeat=d):
            mod = tuple(tail) + (1,)
            has_root = any(sum(c * x ** i for i, c in enumerate(mod)) % p == 0
                           for x in range(p))
            assert is_irreducible(Poly(base, mod)) == (not has_root)


def _monic_polys(field, d):
    elems = list(enumerate_elements(field))
    for tail in itertools.product(elems, repeat=d):
        yield Poly(field, list(tail) + [field.one()])


@pytest.mark.parametrize("spec", ["Fp:2", "Fp:3", "Fp:5", F4_SPEC, F9_SPEC])
def test_is_irreducible_matches_rabin_on_every_monic(spec):
    """Factoring decides irreducibility; Rabin's test is the reference.
    Every monic of degree 2-4, except that the 6561 quartics over F_9 are
    sampled."""
    field = parse_field_spec(spec)
    polys = [f for d in (2, 3, 4) if d < 4 or field.cardinality < 9
             for f in _monic_polys(field, d)]
    if field.cardinality == 9:
        polys += random.Random(9).sample(list(_monic_polys(field, 4)), 400)
    for f in polys:
        assert is_irreducible(f) == rabin_irreducible(f.reps, field), f


def test_is_irreducible_matches_rabin_over_f101():
    field = FIELDS["Fp:101"]
    rng = random.Random(101)
    for d in range(1, 13):
        for _ in range(6):
            f = Poly(field, [rng.randrange(101) for _ in range(d)] + [1])
            assert is_irreducible(f) == rabin_irreducible(f.reps, field), f


def test_is_irreducible_matches_rabin_over_f16_tower():
    F16 = _quadratic_tower(FIELDS[F4_SPEC], FIELDS[F4_SPEC].one())
    assert F16.cardinality == 16
    polys = list(_monic_polys(F16, 2))
    rng = random.Random(16)
    elems = list(enumerate_elements(F16))
    for d in (3, 4):
        polys += [Poly(F16, [rng.choice(elems) for _ in range(d)] + [F16.one()])
                  for _ in range(40)]
    for f in polys:
        assert is_irreducible(f) == rabin_irreducible(f.reps, F16), f


def _int_poly_mod(a, m):
    """Coefficients mod m with trailing zeros dropped."""
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _int_poly_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 101]), k=st.integers(1, 6), data=st.data())
def test_prime_kernel_mod_prime_power(p, k, data):
    """PrimeKernel(p^k), the ring Hensel lifting works in, against integer
    polynomial arithmetic reduced mod p^k; inputs may be any ints."""
    m = p ** k
    kern = PrimeKernel(m)
    ints = st.lists(st.integers(-3 * m, 3 * m), max_size=8)
    a, b = data.draw(ints), data.draw(ints)
    assert kern.poly_mul(a, b) == _int_poly_mod(_int_poly_mul(a, b), m)
    pad = max(len(a), len(b))
    diff = [x - y for x, y in zip(a + [0] * (pad - len(a)), b + [0] * (pad - len(b)))]
    assert kern.poly_sub(a, b) == _int_poly_mod(diff, m)
    monic = data.draw(st.lists(st.integers(-3 * m, 3 * m), max_size=5)) + [1]
    quot, rem = kern.poly_divmod(a, monic)
    assert quot == _int_poly_mod(quot, m) and rem == _int_poly_mod(rem, m)
    assert len(rem) < len(monic)
    back = _int_poly_mul(quot, monic)
    back = [x + (rem[i] if i < len(rem) else 0) for i, x in enumerate(back + [0] * len(rem))]
    assert _int_poly_mod(back, m) == _int_poly_mod(a, m)


# ----------------------------------------------------------------------
# PrimeKernel's packed layout against its list loops
# ----------------------------------------------------------------------

PACK_MODULI = [2, 3, 101, 65521, 2 ** 31 - 1]


def test_slot_widths_at_the_layout_boundaries():
    # a slot holds terms*(m-1)^2 + m: 65521 needs 8 bytes from two terms
    # on, and 2^31 - 1 fits no slot from five terms on (list loops)
    assert PrimeKernel(65521)._slot(1) == (4, "I")
    assert PrimeKernel(65521)._slot(2) == (8, "Q")
    assert PrimeKernel(2 ** 31 - 1)._slot(4) == (8, "Q")
    assert PrimeKernel(2 ** 31 - 1)._slot(5) is None


def _residue_rows(rng, m, nrows, ncols, fill=None):
    """Random residues, or every entry ``fill`` (m - 1 puts each slot at its
    bound), with some zero rows and some rows combined from earlier ones,
    so that the rank drops."""
    if fill is not None:
        return [[fill] * ncols for _ in range(nrows)]
    rows = [[rng.randrange(m) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        kind = rng.randrange(5)
        if kind == 0:
            rows[i] = [0] * ncols
        elif kind == 1:
            j, c = rng.randrange(i), rng.randrange(m)
            rows[i] = [(a + c * b) % m for a, b in zip(rows[i - 1], rows[j])]
    return rows


def _product_shapes():
    """(rows of A, inner, columns of B): square 1..16, non-square, and B
    with 1 to 5 columns on both sides of the packing threshold."""
    shapes = [(n, n, n) for n in range(1, 17)]
    shapes += [(1, 7, 9), (9, 1, 7), (7, 9, 1), (16, 3, 11), (3, 16, 8), (5, 12, 16)]
    shapes += [(r, inner, c) for c in range(1, 6) for r, inner in ((1, 6), (12, 12), (6, 16))]
    return shapes


@pytest.mark.parametrize("m", PACK_MODULI)
def test_packed_products_equal_the_list_loops(m):
    kern, rng = PrimeKernel(m), random.Random(m)
    for r, inner, c in _product_shapes():
        for fill in (None, m - 1):
            A = _residue_rows(rng, m, r, inner, fill)
            B = _residue_rows(rng, m, inner, c, fill)
            want = [[sum(a * b for a, b in zip(row, col)) % m for col in zip(*B)]
                    for row in A]
            assert kern.matmul(A, B) == want
            apply = kern.matvec_fn(A)
            for v in (B[0] if c == inner else [m - 1] * inner, [0] * inner):
                assert apply(v) == [sum(a * b for a, b in zip(row, v)) % m for row in A]


def _echelon_shapes():
    """(rows, width, ncols): square 1..16, non-square, and augmented rows
    reduced over their left half only, as in ``inverse``."""
    shapes = [(n, n, None) for n in range(1, 17)]
    shapes += [(6, 8, None), (8, 6, None), (16, 5, None), (5, 16, None), (12, 3, None)]
    shapes += [(n, 2 * n, n) for n in (3, 6, 8, 12, 16)] + [(9, 10, 9), (7, 8, 0)]
    return shapes


@pytest.mark.parametrize("m", PACK_MODULI)
def test_packed_echelon_equals_the_list_loop(m):
    kern, rng = PrimeKernel(m), random.Random(m)
    for nrows, width, ncols in _echelon_shapes():
        for fill in (None, None, m - 1):
            rows = _residue_rows(rng, m, nrows, width, fill)
            if ncols and width == 2 * ncols and fill is None:  # an inverse's augmented rows
                rows = [row[:ncols] + [int(i == j) for j in range(ncols)]
                        for i, row in enumerate(rows)]
            got, want = [row[:] for row in rows], [row[:] for row in rows]
            pivots = kern.echelon(got, ncols)
            assert pivots == kern._echelon_lists(want, width if ncols is None else ncols)
            assert got == want


def test_mulmod_slot_widths_at_the_layout_boundaries():
    # a product mod g of degree d fills a slot up to
    # d(m-1)^2 (1 + (d-1)(m-1)) + m; below MULMOD_PACK_MIN_DEGREE it stays on lists
    assert MULMOD_PACK_MIN_DEGREE == 3
    assert PrimeKernel(101)._mulmod_slot(2) is None
    assert PrimeKernel(101)._mulmod_slot(3) == (4, "I")
    assert PrimeKernel(101)._mulmod_slot(66) == (4, "I")
    assert PrimeKernel(101)._mulmod_slot(67) == (8, "Q")
    assert PrimeKernel(2)._mulmod_slot(65535) == (4, "I")
    assert PrimeKernel(2)._mulmod_slot(65536) == (8, "Q")
    assert PrimeKernel(3)._mulmod_slot(23170) == (4, "I")
    assert PrimeKernel(3)._mulmod_slot(23171) == (8, "Q")
    assert PrimeKernel(65521)._mulmod_slot(3) == (8, "Q")
    assert PrimeKernel(65521)._mulmod_slot(256) == (8, "Q")
    assert PrimeKernel(65521)._mulmod_slot(257) is None
    assert PrimeKernel(2 ** 31 - 1)._mulmod_slot(3) is None


def _residue_poly(rng, m, length, fill=None):
    """A trimmed list of ``length`` residues, every one ``fill`` when given."""
    out = [fill if fill is not None else rng.randrange(m) for _ in range(length)]
    while out and not out[-1]:
        out.pop()
    return out


@pytest.mark.parametrize("m", PACK_MODULI)
def test_packed_mulmod_and_powmod_equal_the_list_loops(m):
    """For deg g = 1..40, the prepared product mod g (packed from degree 3
    on where a slot fits) against one list product and division and against
    the FieldElement oracles; powers against the same power on list
    products, the generic kernel's loops and, for small exponents, repeated
    oracle products."""
    field = parse_field_spec(f"Fp:{m}")
    kern, generic, rng = field.kernel, GenericKernel(field), random.Random(m)
    wrap = field.wrap
    for d in range(1, 41):
        g = [rng.randrange(m) for _ in range(d)] + [rng.randrange(1, m)]
        mulmod = kern.poly_mulmod_fn(g)
        cases = [(_residue_poly(rng, m, d), _residue_poly(rng, m, d)) for _ in range(3)]
        cases += [(_residue_poly(rng, m, d, m - 1),) * 2, ([], _residue_poly(rng, m, d)),
                  ([1], _residue_poly(rng, m, d))]
        for i, (a, b) in enumerate(cases):
            got = mulmod(a, b)
            assert got == generic.poly_divmod(generic.poly_mul(a, b), g)[1]
            if i in (0, 3):  # a random pair and the pair that fills every slot
                assert got == [x.rep for x in naive_poly_divmod(
                    naive_poly_mul(wrap(a), wrap(b), field), wrap(g), field)[1]]
        a = _residue_poly(rng, m, d + 3)
        lists = _mulmod_lists(kern, g)
        for e in (0, 1, 2, 7, 8, 9, 1000) + ((m,) if d <= 12 or d % 4 == 0 else ()):
            got = kern.poly_powmod(a, e, g, mulmod)
            assert got == kern.poly_powmod(a, e, g, lists)
            assert got == kern.poly_powmod(a, e, g)  # preparing its own product
            if e <= 9 or (e == 1000 and d <= 12):
                assert got == generic.poly_powmod(a, e, g)
            if e == 2 or (e == 9 and d <= 12):
                want = [field.one()]
                for _ in range(e):
                    want = naive_poly_mul(want, wrap(a), field)
                assert got == [x.rep for x in naive_poly_divmod(want, wrap(g), field)[1]]


@pytest.mark.parametrize("m", PACK_MODULI)
def test_prime_kernel_gcd_equals_the_generic_loop(m):
    """poly_gcd on F_p against the FieldElement Euclid and the generic
    kernel's monic loop: coprime pairs, pairs with a planted common factor
    (repeated too), unequal and equal degrees, constants and zero."""
    field = parse_field_spec(f"Fp:{m}")
    kern, generic, rng = field.kernel, GenericKernel(field), random.Random(m)
    for d in range(1, 41):
        common = _residue_poly(rng, m, rng.randrange(1, d + 1)) + [1]
        a = _residue_poly(rng, m, d + 1)
        b = _residue_poly(rng, m, rng.randrange(0, d + 2))
        pairs = [(a, b), (b, a), (kern.poly_mul(a, common), kern.poly_mul(b, common)),
                 (kern.poly_mul(kern.poly_mul(a, common), common), kern.poly_mul(common, b)),
                 (a, kern.poly_derivative(a)), (a, []), ([], a), ([3 % m or 1], a), ([], [])]
        for x, y in pairs:
            want = [c.rep for c in naive_poly_gcd(field.wrap(x), field.wrap(y), field)]
            assert kern.poly_gcd(x, y) == want == generic.poly_gcd(x, y)


def test_rational_gcd_equals_the_generic_loop_on_repeated_factors():
    """The primitive remainder sequence over Q against the FieldElement
    Euclid, on seeded products with repeated factors and large coefficients,
    and on f with f' (the squarefree decomposition's first gcd)."""
    Q = FIELDS["Q"]
    kern, rng = Q.kernel, random.Random(40)

    def rational(length, digits):
        top = 10 ** digits
        return [Fraction(rng.randrange(-top, top), rng.randrange(1, 50)) for _ in range(length)]

    for _ in range(12):
        parts = [kern.poly_trim(rational(rng.randrange(2, 5), rng.choice((1, 8, 20))))
                 for _ in range(3)]
        parts = [p for p in parts if len(p) > 1]
        f = functools.reduce(kern.poly_mul, [p for p in parts for _ in range(rng.randrange(1, 4))],
                             [Fraction(1)])
        g = kern.poly_mul(parts[0], kern.poly_trim(rational(rng.randrange(1, 4), 3)) or [1])
        for x, y in ((f, kern.poly_derivative(f)), (f, g), (g, f), (f, []), ([], g)):
            want = [c.rep for c in naive_poly_gcd(Q.wrap(x), Q.wrap(y), Q)]
            assert kern.poly_gcd(x, y) == want == GenericKernel.poly_gcd(kern, x, y)


def test_rational_mulmod_equals_the_list_product():
    """The prepared integer fold over Q against one list product and
    division, numerators and denominators alike: seeded g of degree 1..8
    with integer or rational coefficients, monic or not, and reduced a, b,
    the zero polynomial, trailing zeros and squares included."""
    Q = FIELDS["Q"]
    kern, rng = Q.kernel, random.Random(25)

    def coeff(rational):
        return Fraction(rng.randrange(-40, 41), rng.randrange(1, 12) if rational else 1)

    def parts(xs):
        assert all(type(x) is Fraction for x in xs)
        return [(x.numerator, x.denominator) for x in xs]

    for d in range(1, 9):
        for rational, monic in itertools.product((False, True), repeat=2):
            lead = Fraction(1) if monic else rng.choice((Fraction(-3), Fraction(5, 7), Fraction(2)))
            g = [coeff(rational) for _ in range(d)] + [lead]
            mulmod, lists = kern.poly_mulmod_fn(g), _mulmod_lists(kern, g)
            for _ in range(6):
                a = [coeff(rng.random() < 0.5) for _ in range(rng.randrange(d + 1))]
                b = [coeff(rng.random() < 0.5) for _ in range(rng.randrange(d + 1))]
                padded = a + [Fraction(0)] * (d - len(a))
                for x, y in ((a, b), (b, a), (a, a), (padded, b), (a, []), ([], b)):
                    assert parts(mulmod(x, y)) == parts(lists(x, y)), (g, x, y)


# ----------------------------------------------------------------------
# the exhaustive fallback
# ----------------------------------------------------------------------

def _object_hash_join(A, k1, beta, k2):
    """The hash join over Matrix objects: first X per power, first Y."""
    field, n = A.field, A.nrows
    elems = list(enumerate_elements(field))
    mats = [Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])
            for flat in itertools.product(elems, repeat=n * n)]
    by_power = {}
    for M in mats:
        by_power.setdefault(naive_power(M, k1), M)
    for Y in mats:
        want = A - naive_power(Y, k2).scale(beta)
        if want in by_power:
            return by_power[want], Y
    return None


OBJECT_SEARCH_CELLS = [("Fp:2", 2, 2, 2), ("Fp:2", 2, 3, 3), ("Fp:3", 2, 2, 2),
                       ("Fp:3", 2, 2, 3), (F4_SPEC, 2, 3, 2), ("Fp:2", 3, 2, 3)]


@pytest.mark.parametrize("spec,n,k1,k2", OBJECT_SEARCH_CELLS,
                         ids=[f"{s}-{k1}-{k2}" + ("" if n == 2 else f"-n={n}")
                              for s, n, k1, k2 in OBJECT_SEARCH_CELLS])
def test_exhaustive_two_term_matches_object_search(spec, n, k1, k2):
    field = FIELDS[spec]
    rng = random.Random(k1 * 10 + k2)
    elems = list(enumerate_elements(field))
    beta = elems[-1]
    for _ in range(6 if n == 2 else 3):
        A = Matrix(field, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
        assert _exhaustive_two_term(A, k1, beta, k2) == _object_hash_join(A, k1, beta, k2)


# (field, n, k1, k2, codes of targets that have no witness), beta the
# field's last element.  X^3 + Y^3 reaches all of M_4(F_2), and no random
# target of the small exponents missed, so the NotFound targets come with
# exponents that make every power a semisimple idempotent: lcm of the unit
# orders times the p-power that kills the nilpotent part (84 for M_3(F_2),
# 312 for M_3(F_3), 720 for M_2(F_9), 420 for M_4(F_2)).
EXHAUSTIVE_CELLS = [
    ("Fp:2", 3, 84, 84, (507, 499)),
    ("Fp:3", 3, 2, 3, ()),
    ("Fp:3", 3, 312, 312, (2067,)),
    (F9_SPEC, 2, 8, 3, ()),
    (F9_SPEC, 2, 720, 720, (1100,)),
    ("Fp:17", 2, 48, 16, (26236,)),
    ("Fp:2", 4, 3, 3, ()),
    ("Fp:2", 4, 420, 420, (3452,)),
]


@pytest.mark.parametrize("spec,n,k1,k2,misses", EXHAUSTIVE_CELLS,
                         ids=[f"{s}-n={n}-{k1},{k2}" for s, n, k1, k2, _ in EXHAUSTIVE_CELLS])
def test_exhaustive_two_term_on_spaces_beyond_the_object_search(spec, n, k1, k2, misses):
    """Seeded samples of the power planes against naive_power; then the
    join against a reference that keeps, per power value, its first code:
    the witness is the first Y whose A - beta*Y^k2 is a k1-th power, with
    the first X of that power, or NotFound."""
    field = parse_field_spec(spec)
    space = MatrixSpace(field, n)
    beta = list(enumerate_elements(field))[-1]
    rng = random.Random(f"{spec} {n} {k1} {k2}")
    index = {x.rep: i for i, x in enumerate(enumerate_elements(field))}

    def code(M):
        return functools.reduce(lambda c, x: c * space.q + index[x.rep],
                                itertools.chain(*M.rows), 0)

    whole = space.planes()
    first = {}  # code of a power -> the first code with that power
    for k in {k1, k2}:
        codes = space.codes(space.power(whole, k))
        for c in rng.sample(range(space.size), 6):
            assert space.matrix_at(codes[c]) == naive_power(space.matrix_at(c), k)
        first[k] = {}
        for i, c in enumerate(codes):
            first[k].setdefault(c, i)

    def reference(A):
        for c, y in first[k2].items():  # in order of first code
            x = first[k1].get(code(A - space.matrix_at(c).scale(beta)))
            if x is not None:
                return space.matrix_at(x), space.matrix_at(y)
        return None

    planted = (naive_power(space.matrix_at(rng.randrange(space.size)), k1)
               + naive_power(space.matrix_at(rng.randrange(space.size)), k2).scale(beta))
    for A, reachable in [(planted, True)] + [(space.matrix_at(c), False) for c in misses]:
        got = _exhaustive_two_term(A, k1, beta, k2)
        assert got == reference(A)
        assert (got is not None) == reachable
        if reachable:
            X, Y = got
            assert naive_power(X, k1) + naive_power(Y, k2).scale(beta) == A


# ----------------------------------------------------------------------
# CLI output pinned byte for byte
# ----------------------------------------------------------------------

# (field, word, n, seed, SHA-256 of the `wordmap solve` stdout); the exact
# kinds recorded with the element-by-element arithmetic the kernels
# replaced, the R/C ones with the per-attempt spectrum of the R/C Jordan form,
# the F_9 targets with an irreducible cubic factor (roots in F_729) and the
# F_4 one (cube roots with gcd(3, q-1) = 3) with per-field power tables
GOLDEN = [
    ("Fp:101", "comm:m=4", 4, 1,
     "b5705cf620b9e68618bbcec69470a5961bf58f329afb92f1f3b50ee4b03a68c9"),
    ("Fp:101", "comm:m=4", 6, 2,
     "feb4e9b14a6a51a6d29de7717e0cd3954e85916adb32097ce745668e37ce12b9"),
    ("Fp:101", "comm:m=2", 5, 3,
     "d86c4a9305fee9412dc3d713822e488325dd5c1d9cbe390018f15e96d4ff9271"),
    ("Fp:101", "comm:m=6", 4, 4,
     "fe1d761f1f63eaabd5bac7e4e0d7dae6e3acff08898198293ebfc912705faa83"),
    ("Fp:101", "diag:d=1,k=2;d=3,k=2", 3, 5,
     "e1825c178f58ef4b6cd67a15b677729baedffacfe765e2872f251e82576e987c"),
    ("Fp:101", "diag:d=1,k=2;d=1,k=3", 4, 6,
     "d7c7cf16a464ec4103b5203d2fcb6dce5c3044a601897655f71aec89a7283b33"),
    (F9_SPEC, "comm:m=4", 3, 7,
     "192994ed229c76f70d11730a5ab24c8e16986f2adfb7cecff8faf6f235b2df9b"),
    (F9_SPEC, "comm:m=2", 3, 8,
     "b3e1d7e7da82eb9f74ae14fcf8f56b2f1f5054731c6567e17fd4e1f4b8e2b246"),
    (F9_SPEC, "diag:d=1,k=2;d=1,k=2", 2, 9,
     "2877f18066a7accab85b776914fb95b9becdc8e777847367311f47dc1859f5e9"),
    (F9_SPEC, "diag:d=1,k=2;d=1,k=2", 3, 21,
     "b9807fc819dd1865d0d7b3f9c2e3d9ae05399e6e6db0fca0bdad4e8f887327b7"),
    (F9_SPEC, "diag:d=1,k=2;d=1,k=3", 3, 22,
     "6b88ca2c79377653f13b3b734210e3b8fcd2225b152b54f950acc03300145b38"),
    (F4_SPEC, "diag:d=1,k=2;d=1,k=3", 3, 28,
     "0ac24d09017513fbae3f8dc592709deb0ef335919be78202e1da53330ac0c423"),
    ("Q", "comm:m=4", 3, 10,
     "5885f86b9028b9dde576d85840992afc9524a8d627801f802cefeff2e05ba5a7"),
    ("Q", "comm:m=2", 4, 11,
     "f033971a8484f1cb4244385a84d42b2025a92f90e2476223ef42b9a318b8e26f"),
    ("Q", "diag:d=1,k=1;d=2,k=2", 3, 12,
     "c7126c3bc6e71664ad3d421426a942a446d99af49a4e6a0c36e5c2967698d57c"),
    ("Q", "comm:m=6", 4, 13,
     "ecdcf8b4addf77a598975d5b4d2e4591e76761af8cb6576f55af7bc508549fe8"),
    ("R:tol=1e-9", "diag:d=1,k=2;d=1,k=3", 4, 14,
     "c751577513bd3f532a905cdf44008dd81ae47531fef52fa69cf5e2631aa561d5"),
    ("R:tol=1e-9", "comm:m=4", 3, 15,
     "f4ab5e91cf8efc72066efca7df0e72529f7c1f2209a1a4a70a4986820f17e7a7"),
    ("C:tol=1e-9", "diag:d=1,k=2;d=1,k=3", 3, 16,
     "821ad7e7f050769fce6a13f8731bc1baa02c4f8d12acc84e20333a4e471b2bde"),
    ("C:tol=1e-9", "comm:m=4", 4, 17,
     "a0443a482cb2d85ea192c73c18bd87f00d89eab9b12a519e3416873f6ac5c80d"),
    # recorded before the m = 4 solve reused its Jordan form, shears became
    # row and column operations and distinct-degree splitting took the
    # Frobenius matrix
    ("Fp:101", "comm:m=4", 9, 29,
     "2ba7dd99333c4c9091b01f9d3c543f279affd5c7894153fd9d0d311288f52225"),
    ("Fp:101", "comm:m=4", 12, 30,
     "5463be03e88c5b2bb17f69d79a6af4de7c2ba3603fbc7d9641bdbed76c211420"),
    ("Q", "comm:m=4", 6, 31,
     "d9719bb9ad3c435752d71dbf1053b95680317ef75b499b26b1d7a88fc6f866d4"),
    # recorded with the per-element closure arithmetic of F_4
    (F4_SPEC, "comm:m=4", 3, 43,
     "c56ba6e6b095dafbee48df767b2cadfc0fab13bc46e6593650a6055a1d574323"),
    # an irreducible cubic chi over F_7 and an irreducible quadratic chi over
    # F_64, so each solve builds a working field past the field table (F_343,
    # F_{64^2}); recorded while those fields still had log tables
    ("Fp:7", "diag:d=1,k=2;d=1,k=3", 3, 44,
     "e2b478b343ff60ab6290907621de4a0facc6d2e476aa48cb2d5313b5ef531921"),
    (F64_SPEC, "diag:d=1,k=2;d=1,k=3", 2, 45,
     "a015479e48e0c42f21e59018550bfe75a00ae0275c74cff082d01b4a25a48877"),
]


def _golden_target(spec, wspec, n, seed) -> str:
    rng = random.Random(seed)

    def entry():
        if spec == "Q":
            return str(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if spec == F9_SPEC:
            return [rng.randrange(3), rng.randrange(3)]
        if spec == F4_SPEC:
            return [rng.randrange(2), rng.randrange(2)]
        if spec == F64_SPEC:
            return [rng.randrange(2) for _ in range(6)]
        if spec == "Fp:7":
            return rng.randrange(7)
        if spec.startswith("R"):
            return round(rng.uniform(-2, 2), 2)
        if spec.startswith("C"):
            return [round(rng.uniform(-2, 2), 2), round(rng.uniform(-2, 2), 2)]
        return rng.randrange(101)

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if wspec == "comm:m=2":  # the image of one commutator is trace zero
        diag = [rows[i][i] for i in range(n - 1)]
        if spec == "Q":
            rows[-1][-1] = str(-sum(Fraction(d) for d in diag))
        elif spec == F9_SPEC:
            rows[-1][-1] = [-sum(d[0] for d in diag) % 3, -sum(d[1] for d in diag) % 3]
        else:
            rows[-1][-1] = -sum(diag) % 101
    return json.dumps({"field": spec, "rows": n, "cols": n, "entries": rows})


@pytest.mark.parametrize("spec,wspec,n,seed,digest", GOLDEN)
def test_cli_solve_output_is_pinned(spec, wspec, n, seed, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--field", spec, "--word", wspec, "--matrix",
                     _golden_target(spec, wspec, n, seed), "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# Targets S J S^-1 with repeated factors and Jordan blocks of size >= 2:
# (field, word, blocks as (monic poly coefficients, low first; size l),
# seed of S, SHA-256 of the `wordmap solve` stdout), recorded as above
GOLDEN_JORDAN = [
    ("Fp:101", "comm:m=4", [([98, 1], 3), ([98, 1], 1), ([99, 0, 1], 2), ([94, 1], 2)],
     32, "a1ae74eb35f54c1b2f5c9790bf76d10ebba5568b47e842865492c9a9ab7456bb"),
    ("Fp:101", "comm:m=6", [([0, 1], 2), ([0, 1], 2), ([5, 1], 1), ([99, 0, 1], 1)],
     33, "f5c32da26ce061f03626bd32d33c03542cd1df6ad9aff8e6fd17cee1450801d3"),
    ("Fp:101", "diag:d=1,k=2;d=1,k=3", [([2, 1], 2), ([2, 1], 1), ([99, 0, 1], 1)],
     34, "601bb343996297b8d947a4a81b8eeec0560528a0d8e2c746db1f01234031055f"),
    ("Fp:3", "comm:m=4", [([2, 1], 2), ([2, 1], 1), ([1, 0, 1], 2)],
     35, "3d85f82982986c4dff602ba5e32fca60efdfb544197f6b285a5d0f6ba1b97207"),
    ("Fp:3", "comm:m=4", [([0, 1], 2), ([0, 1], 1), ([1, 1], 2), ([1, 0, 1], 1)],
     36, "4cc5dae59350ec08d217b9592f511cf89657c4fdf6a4fffd919a60fff087ff8c"),
    # one extension factor with one block of size 2 and one 1x1 block: the
    # Jordan-plus-scalar task over K(alpha)
    ("Fp:3", "comm:m=4", [([1, 0, 1], 2), ([1, 0, 1], 1)],
     41, "a116cbe1b17881d14ea271d4bfb0dc1b68f1c696b2946b9f7da359ccfe14c29b"),
    ("Fp:101", "comm:m=4", [([1, 1, 0, 1], 2), ([1, 1, 0, 1], 1)],
     42, "e440bfaea35a6924c790f2e57fdf228ed33db7a96771a69b97438becafd2efba"),
]


def _jordan_target(spec, blocks, seed):
    field = FIELDS[spec]
    J = Matrix.block_diag(field, [
        Matrix.generalized_jordan_block(Poly(field, coeffs), l) for coeffs, l in blocks])
    S = random_invertible(field, J.nrows, random.Random(seed))
    return S * J * S.inverse()


@pytest.mark.parametrize("spec,wspec,blocks,seed,digest", GOLDEN_JORDAN)
def test_cli_solve_output_on_jordan_targets_is_pinned(spec, wspec, blocks, seed, digest):
    A = _jordan_target(spec, blocks, seed)
    target = json.dumps({"field": spec, "rows": A.nrows, "cols": A.ncols,
                         "entries": [[x.rep for x in row] for row in A.rows]})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--field", spec, "--word", wspec, "--matrix", target,
                     "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# factor_two_trace_zero(A, seed): SHA-256 of repr((T1, T2)) for the GOLDEN
# random targets and one Jordan target, recorded as above
GOLDEN_FACTOR_TWO = [
    ("Fp:101", 6, 37, "00809f887f7af76d8f87d3cbde5823999accd43d860fd70887371ea8d0bc765b"),
    ("Fp:101", 11, 38, "f8faaceda608f7556e267c3bbd2ae33540f7f9aaadf548c181d6a4921676df06"),
    ("Q", 5, 39, "1f150dddc1d621de389b67b5c830421be385e427678cc0d4a4579a9100a7fdfd"),
    (F9_SPEC, 4, 40, "5f98242385a3a42683fff73f34335d254078cc67b46a2edae418909ffaf8439d"),
]


@pytest.mark.parametrize("spec,n,seed,digest", GOLDEN_FACTOR_TWO)
def test_factor_two_trace_zero_output_is_pinned(spec, n, seed, digest):
    field = FIELDS[spec]
    entries = json.loads(_golden_target(spec, "comm:m=4", n, seed))["entries"]
    A = Matrix(field, [[field(x) for x in row] for row in entries])
    pair = factor_two_trace_zero(A, seed)
    assert hashlib.sha256(repr((pair.t1, pair.t2)).encode()).hexdigest() == digest


def test_factor_two_trace_zero_on_a_jordan_target_is_pinned():
    spec, _, blocks, seed, _ = GOLDEN_JORDAN[0]
    pair = factor_two_trace_zero(_jordan_target(spec, blocks, seed), seed)
    assert hashlib.sha256(repr((pair.t1, pair.t2)).encode()).hexdigest() == \
        "8fd0af4babf8a92b524aa0eeecdecd5512467a4e130f4d3eb42ee46c91ee01a2"


# Witnesses over the towers F_16 = F_4[t]/(t^2 + t - g) and F_81 =
# F_9[t]/(t^2 + t - g) (``_quadratic_tower``) for random targets drawn with
# random.Random(40): the SHA-256 of repr((matrices, conjugators)), recorded
# with the per-element closure arithmetic of extension fields
GOLDEN_TOWER = [
    (F4_SPEC, "comm:m=4", 3,
     "78b892b2b19f4d226d986889c74f6b554806301ba18bbb0e66d1c42155dde396"),
    (F4_SPEC, "X^2+Y^3", 2,
     "2bc106f28200809714ae6aa8e7c41a0bfb01a2af56516a241e1cea57df57ec36"),
    (F4_SPEC, "X^2+Y^3", 3,
     "f459f6db5efd2b5f8a15dc3a74e46902bfbc30403252bbdb2d1cb489edbe0e91"),
    (F9_SPEC, "comm:m=4", 3,
     "51e3e4300ee65e13f14b69602c393ecbbe6ee266933c48f44cfe3a98509bec6a"),
    (F9_SPEC, "X^2+Y^3", 2,
     "a208a8e3476c25cada4d95b9815d44d6a1078ba76f10d13d6066dd422f2175bb"),
    (F9_SPEC, "X^2+Y^3", 3,
     "6b789fce98e4a04d803fa70e192e0305a66edbfd1f89d2faf48ab971f0650790"),
]


@pytest.mark.parametrize("spec,word,n,digest", GOLDEN_TOWER)
def test_tower_witnesses_are_pinned(spec, word, n, digest):
    base = FIELDS[spec]
    L = _quadratic_tower(base, base.one())
    elems = list(enumerate_elements(L))
    rng = random.Random(40)
    A = Matrix(L, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
    if word == "comm:m=4":
        w = solve_commutator_product(A, 4, 40)
    else:
        w = solve_diagonal_word(A, DiagonalWord(((L.one(), 2), (L.one(), 3))), 40)
    got = hashlib.sha256(repr((w.matrices, w.conjugators)).encode()).hexdigest()
    assert got == digest


# generalized_jordan_form over R and C, float bits included: the SHA-256 of
# the blocks' sizes and polynomials and of the conjugator, every rep as
# float.hex
RC_JORDAN_BLOCKS = {
    "real-pair": [([-0.5, 1], 2), ([0.25, 1], 1)],
    "complex-pair": [([1, 0, 1], 2)],
    "complex-pair-split": [([1, -1, 1], 1), ([1, -1, 1], 1), ([0.5, 1], 1)],
    "complex-root": [([-1j, 1], 2), ([0.5, 1], 1)],
}
GOLDEN_RC_JORDAN = [
    ("R:tol=1e-9", "random", 2, 1,
     "9cc27d4557d01ea68d73095f6f217064fbf965607b9c528a2a6225d5e8445b01"),
    ("R:tol=1e-9", "random", 2, 2,
     "26b0fee4328315d967dbe1a72b4b4883bd2b5b61ed26b7da9c099af3d10c0a23"),
    ("R:tol=1e-9", "random", 3, 1,
     "a77b4ed3be51fd715f5525a8aede6dba44660fc44011bd58e7fd2845cf763071"),
    ("R:tol=1e-9", "random", 3, 2,
     "0cbfea47a02a84e9260aaa4dc44c0991a4a803ce23a830843c3a0f0f537cc044"),
    ("R:tol=1e-9", "random", 4, 1,
     "045d2747380a10cadabce4ee5b5cfc90f6d5b47d13e745b8054cf7ded5681882"),
    ("R:tol=1e-9", "random", 4, 2,
     "30394329386ee0f644f1a07d9c0d83b5d0df73657ab41f73c6fb4e4bada0b607"),
    ("R:tol=1e-9", "random", 5, 1,
     "99c79752acf222b6ad645ba3b9f100207b5ae001d5122c43a7271b353ee50f93"),
    ("R:tol=1e-9", "random", 5, 2,
     "ff573326a4a63cca08da04187bbc9d4bbc27f441919d416867eafe38b471b1b4"),
    ("R:tol=1e-9", "random", 6, 1,
     "cee969f24f8b9937b12df03bc11dd83de09041cf2312b17ea4c3f3a5bbb9e9f2"),
    ("R:tol=1e-9", "random", 6, 2,
     "940655ab15840de2b7d4ecce7fd689fae8a4da5f8f8a9428e1e9f739e62d933c"),
    ("C:tol=1e-9", "random", 2, 1,
     "0340d2656038577f0f516c2f94c7e53bd52d8b00a857525e558894ecd7599458"),
    ("C:tol=1e-9", "random", 2, 2,
     "b0098c2537b284f50fb7b2b56af0ae6402564cef739239100f66db2c3acab804"),
    ("C:tol=1e-9", "random", 3, 1,
     "9c8c0e24504205dfc8591f60ec4a36dd9696852a12b45cac9515a4906e267061"),
    ("C:tol=1e-9", "random", 3, 2,
     "01d5cf59938a282b849d6bbe3f8676ef9ebd6b1a595c2c8af32640873481c493"),
    ("C:tol=1e-9", "random", 4, 1,
     "8406a98d493b6de6265f451b6b6c27d9ceb69b340df2da93bb3bab6330c138f7"),
    ("C:tol=1e-9", "random", 4, 2,
     "5b719eba08208c39cb8b1c8d1c578d063a48b30b44de042993b0baa0a099ecb0"),
    ("C:tol=1e-9", "random", 5, 1,
     "50f1405f08b6b944e76b5710630f06682dc7189698c58dbd2e34afcd27c8dab1"),
    ("C:tol=1e-9", "random", 5, 2,
     "9cfb2e250cd449aea54e037b6644c0749e34ff6a2b11d0d28f998a68a19211f2"),
    ("C:tol=1e-9", "random", 6, 1,
     "4efa581ecb3abe7b0fb96c6e768a338d4ebfaa4060bc4e8650b38aeba734e2ee"),
    ("C:tol=1e-9", "random", 6, 2,
     "c336e7fc166aaf65efbda4febba79b121a873f7e19622d8a92c8f4687d344e2d"),
    ("R:tol=1e-9", "real-pair", 3, 1,
     "fbd451240ca88f8c0bd9ae3b5cb5fb2f011cd77bede8b10319cc58d9c756f510"),
    ("R:tol=1e-9", "complex-pair", 4, 1,
     "a334e74685427ba70aef399629ef15857c3e7353bc2b5441f9ab392b24551dad"),
    ("R:tol=1e-9", "complex-pair-split", 5, 2,
     "1130221158c9a21ceb8a4835158edcd59f58c115c076b2d2e19fbc726b393bef"),
    ("C:tol=1e-9", "complex-root", 3, 1,
     "db69f5b50d048695563de15d12bb778a4e24362011a863f6da59cef52b9c2986"),
    ("C:tol=1e-9", "real-pair", 3, 3,
     "aaaa0153bba7d524ebf324502d1b84e7c2283e67cea8cde5bbe500f25ebf0f24"),
]


def _unimodular(field, n, rng):
    """L*U with unit diagonals and entries in -1..1: its inverse is an
    integer matrix, so S J S^-1 is formed without rounding."""
    L = Matrix.from_rows(field, [[int(i == j) if j >= i else rng.randint(-1, 1)
                                  for j in range(n)] for i in range(n)])
    U = Matrix.from_rows(field, [[int(i == j) if j <= i else rng.randint(-1, 1)
                                  for j in range(n)] for i in range(n)])
    return L * U


def _rc_jordan_target(field, kind, n, seed):
    """Magnitude-1 entries: uniform in [-1, 1] (both parts over C), or a
    repeated real eigenvalue, a repeated complex pair over R, a complex
    pair twice, or a repeated complex root over C, conjugated by _unimodular."""
    rng = random.Random(seed)
    if kind == "random":
        if field.kind == "real":
            def draw():
                return rng.uniform(-1, 1)
        else:
            def draw():
                return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return Matrix.from_rows(field, [[draw() for _ in range(n)] for _ in range(n)])
    J = Matrix.block_diag(field, [Matrix.generalized_jordan_block(Poly(field, cs), l)
                                  for cs, l in RC_JORDAN_BLOCKS[kind]])
    assert J.nrows == n
    S = _unimodular(field, n, rng)
    return S * J * S.inverse()


@pytest.mark.parametrize("spec,kind,n,seed,digest", GOLDEN_RC_JORDAN)
def test_rc_jordan_form_bits_are_pinned(spec, kind, n, seed, digest):
    form = generalized_jordan_form(_rc_jordan_target(parse_field_spec(spec), kind, n, seed))
    data = ([(b.size, [bits(c) for c in b.poly.coeffs]) for b in form.blocks],
            mbits(form.conjugator))
    assert hashlib.sha256(repr(data).encode()).hexdigest() == digest
