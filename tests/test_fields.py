import copy
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import wordmap
from wordmap.errors import (
    DescriptorMismatch,
    DivisionByZero,
    InfiniteField,
    NotFound,
    ReduciblePolynomial,
    UsageError,
    WordmapError,
)
from wordmap.fields import (
    ELEMENT_TABLE_BOUND,
    GF,
    RATIONALS,
    SCAN_BOUND,
    Field,
    _log_tables,
    enumerate_elements,
    extend,
    kth_roots,
    parse_field_spec,
    random_element,
    regular_solution_iter,
    regular_solution_search,
)
from wordmap.polynomials import Poly

from oracles import (
    naive_kth_roots,
    ref_add,
    ref_inverses,
    ref_mul,
    ref_neg,
    ref_pow,
    ref_sqrt_tonelli_shanks,
    ref_sub,
)

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)
Q = Field("rationals")


def test_inverse_f7_exhaustive():
    # 3 * 5 = 15 = 1 mod 7, and every nonzero inverse checks out
    assert F7(3).inverse() == F7(5)
    for x in enumerate_elements(F7):
        if x.is_zero():
            continue
        assert x * x.inverse() == F7.one()


def test_rational_fraction_arithmetic():
    assert Q("1/2") + Q("1/3") == Q("5/6")
    assert (Q(3) / Q(7)).rep.numerator == 3


@pytest.mark.parametrize("value", ["1/0", "abc", "nan", "inf", None, [1, 2], 1 + 2j])
def test_rational_coercion_errors_are_usage_errors(value):
    with pytest.raises(UsageError):
        Q(value)


COERCION_SPECS = ["Fp:5", "Fq:p=3,d=2,mod=[2,2,1]", "R:tol=1e-9", "C:tol=1e-9"]


@pytest.mark.parametrize("spec", COERCION_SPECS)
@pytest.mark.parametrize("value", ["abc", None, math.nan, math.inf, -math.inf, "nan", "inf"])
def test_coercion_errors_are_usage_errors(spec, value):
    field = parse_field_spec(spec)
    with pytest.raises(UsageError):
        field(value)
    with pytest.raises(UsageError):
        field(2) + value


@pytest.mark.parametrize("spec", ["Fp:5", "Fq:p=3,d=2,mod=[2,2,1]"])
@pytest.mark.parametrize("value", [1.5, -0.25, Fraction(3, 2), "1.5", "1/2", 1 + 2j])
def test_finite_fields_refuse_non_integers(spec, value):
    with pytest.raises(UsageError):
        parse_field_spec(spec)(value)


def test_integral_values_still_coerce():
    assert F5(7.0) == F5(2) == F5(Fraction(12, 6)) == F5("7") == F5(-3)
    F9 = parse_field_spec("Fq:p=3,d=2,mod=[2,2,1]")
    assert F9([1.0, 2]) == F9([1, 2]) and F9(4.0) == F9(1)
    R = parse_field_spec("R:tol=1e-9")
    assert R(2).rep == 2.0 and R("0.5").rep == 0.5 and R(Fraction(1, 4)).rep == 0.25
    C = parse_field_spec("C:tol=1e-9")
    assert C([1, -2]).rep == 1 - 2j and C(1j).rep == 1j and C("1+2j").rep == 1 + 2j


@pytest.mark.parametrize("spec", ["Fp:5", "Fq:p=3,d=2,mod=[2,2,1]", "Q", "R:tol=1e-9",
                                  "C:tol=1e-9"])
def test_field_powers_need_int_exponents(spec):
    x = parse_field_spec(spec)(2)
    for k in (1.5, 2.0, "2", None):
        with pytest.raises(UsageError):
            x ** k
    assert x ** 3 == x * x * x


@pytest.mark.parametrize("spec", ["Fq:p=3,d=2,mod=[1,x,1]", "Fq:p=3,d=2,mod=[]",
                                  "Fq:p=3,d=0,mod=[1]", "Fq:p=3,d=2,mod=[1,0,3]",
                                  "Fq:p=3,d=2,mod=[1,0,0]"])
def test_bad_extension_specs_are_usage_errors(spec):
    with pytest.raises(UsageError):
        parse_field_spec(spec)


def test_non_monic_spec_modulus_fails_fast_from_the_cli():
    """mod=[1,0,3] has leading coefficient 0 mod 3: the Rabin test's
    polynomial division once looped forever on it.  A subprocess with a
    timeout keeps a regression from hanging the suite."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordmap.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "wordmap.cli", "solve", "--field", "Fq:p=3,d=2,mod=[1,0,3]",
         "--word", "comm:m=4", "--matrix", '{"entries": [[1, 0], [0, 1]]}'],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_gf_checks_a_given_modulus():
    with pytest.raises(ReduciblePolynomial):
        GF(4, modulus=(1, 0, 1))  # (T + 1)^2 over F_2
    with pytest.raises(UsageError):
        GF(9, modulus=(1, 0, 3))  # leading coefficient 0 mod 3
    with pytest.raises(UsageError):
        GF(9, modulus=(1, 1))
    assert GF(4, modulus=(1, 1, 1)).modulus == (1, 1, 1)
    assert GF(9, modulus=(1, 0, 4)).modulus == (1, 0, 1)
    # a prime q takes a degree-1 modulus only, as a prime power takes degree d
    for q, modulus in ((7, (1, 0, 1)), (7, (5,)), (9, (1, 0, 1, 0))):
        d = 1 if q == 7 else 2
        with pytest.raises(UsageError, match=rf"^GF\({q}\) needs a modulus of degree {d}$"):
            GF(q, modulus=modulus)
    assert GF(7, modulus=(3, 1)) is GF(7)


def test_gf_finds_p_and_d_without_a_search_below_q():
    """GF once tested every integer below q for primality: GF(10**7) took
    21 s to refuse, and GF((2**31 - 1)**2) did not return in a minute.  A
    subprocess with a timeout keeps a regression from hanging the suite."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordmap.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = (
        "from wordmap.errors import UsageError\n"
        "from wordmap.fields import GF\n"
        "for q in (10**12, 10**7, 6, 1, 0):\n"
        "    try:\n"
        "        GF(q)\n"
        "    except UsageError:\n"
        "        continue\n"
        "    raise SystemExit(f'GF({q}) built')\n"
        "L = GF((2**31 - 1)**2)\n"
        "assert (L.p, L.degree, L.modulus) == (2**31 - 1, 2, (1, 0, 1))\n"
        "L = GF(2**20)\n"
        "assert (L.p, L.degree) == (2, 20)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env=env)
    assert proc.returncode == 0, proc.stderr


def test_f4_generator_relation():
    F4 = parse_field_spec("Fq:p=2,d=2,mod=[1,1,1]")
    t = F4.generator()
    assert t * t == t + F4.one()  # reduce t^2 mod t^2+t+1
    assert t * t * t == F4.one()


def test_arith_dispatch_and_errors():
    with pytest.raises(DivisionByZero):
        F5(0).inverse()
    with pytest.raises(DescriptorMismatch):
        F5(1) + F7(1)


def test_kth_roots_f5():
    assert [r.rep for r in kth_roots(F5(4), 2)] == [2, 3]
    assert kth_roots(F5(2), 2) == []
    assert [r.rep for r in kth_roots(F5(0), 2)] == [0]


def test_kth_roots_rationals():
    assert [r.rep for r in kth_roots(Q(8), 3)] == [2]
    roots = kth_roots(Q("9/4"), 2)
    assert sorted(r.rep for r in roots) == [Q("-3/2").rep, Q("3/2").rep]
    assert kth_roots(Q(-4), 2) == []


@pytest.mark.parametrize("k", [10 ** 30, 10 ** 30 + 1])
def test_kth_roots_rationals_huge_exponent(k):
    """Below 2^k only 1 is a k-th power, so these answer without k-sized work."""
    odd = k % 2
    assert kth_roots(Q(1), k) == ([Q(1)] if odd else [Q(1), Q(-1)])
    assert kth_roots(Q(-1), k) == ([Q(-1)] if odd else [])
    for e in ("1/2", "2", "-1/2", "-2"):
        assert kth_roots(Q(e), k) == []


def test_kth_roots_count_matches_gcd():
    # for e a nonzero k-th power, the number of k-th roots is gcd(k, q-1)
    for field in (F5, F7, GF(9)):
        q = field.cardinality
        for k in (2, 3, 4):
            for x in enumerate_elements(field):
                if x.is_zero():
                    continue
                e = x ** k
                roots = kth_roots(e, k)
                assert len(roots) == math.gcd(k, q - 1)
                assert all(r ** k == e for r in roots)


def test_kth_roots_large_field_tonelli():
    # beyond the scan bound: square roots via Tonelli-Shanks
    big = Field("prime", p=1000003)
    e = big(123456) ** 2
    roots = kth_roots(e, 2)
    assert len(roots) == 2 and all(r * r == e for r in roots)
    L = GF(101 ** 3)
    x = L([3, 5, 7])
    e = x * x
    roots = kth_roots(e, 2)
    assert len(roots) == 2 and all(r * r == e for r in roots)
    # gcd(k, q-1) = 1: unique root by exponent inversion
    e3 = x ** 7
    assert math.gcd(7, 101 ** 3 - 1) == 1
    (r,) = kth_roots(e3, 7)
    assert r ** 7 == e3


# GF(q) picks the first irreducible monic modulus, constant term varying
# slowest; recorded when every candidate with constant term 0 was still tested
GF_MODULI = {
    4: (1, 1, 1), 8: (1, 0, 1, 1), 9: (1, 0, 1), 16: (1, 0, 0, 1, 1),
    25: (1, 1, 1), 27: (1, 0, 2, 1), 49: (1, 0, 1), 64: (1, 0, 0, 0, 0, 1, 1),
    81: (1, 0, 1, 1, 1), 125: (1, 0, 1, 1), 101 ** 2: (1, 1, 1),
    101 ** 3: (1, 0, 1, 1),
}


@pytest.mark.parametrize("q", sorted(GF_MODULI))
def test_gf_modulus_is_unchanged(q):
    assert GF(q).modulus == GF_MODULI[q]


def _first_irreducible(base, d):
    """The first irreducible monic m of degree d over base."""
    from wordmap.factor import is_irreducible

    for tail in itertools.product(list(enumerate_elements(base)), repeat=d):
        m = Poly(base, list(tail) + [base.one()])
        if is_irreducible(m):
            return m


def _tower(base, d):
    """base[t]/(m) for the first irreducible monic m of degree d."""
    return extend(base, _first_irreducible(base, d))[0]


# Test cases name their fields by repr and build them inside the test, so a
# fault in field construction fails that test rather than the module's
# collection: a tower (base q, degree) from ``_tower``, or a field spec (each
# one GF(q)'s own choice of modulus).
TOWERS = {"Ftower:card=16": (4, 2), "Ftower:card=64": (4, 3),
          "Ftower:card=81": (9, 2), "Ftower:card=729": (9, 3)}


def _field(name):
    if name in TOWERS:
        # named, like the fields of GF and parse_field_spec: log tables up to
        # ELEMENT_TABLE_BOUND, where a working field's F_729 has none
        q, d = TOWERS[name]
        base = GF(q)
        return Field("ext", modulus=_first_irreducible(base, d).reps, base=base)
    return parse_field_spec(name)


# (field, stride): every stride-th element and its k-th power is a target;
# in F_163, F_251, F_257 and F_449 (q - 1 = 2*3^4, 2*5^3, 2^8, 2^6*7) a k-th
# root for k = 8, 9, 25 or 27 takes several l-th root steps of one prime l
ROOT_FIELDS = [(name, 1) for name in (
    "Fp:2", "Fp:3", "Fq:p=2,d=2,mod=[1,1,1]", "Fp:5", "Fp:7", "Fq:p=2,d=3,mod=[1,0,1,1]",
    "Fq:p=3,d=2,mod=[1,0,1]", "Fp:11", "Fp:13", "Fq:p=2,d=4,mod=[1,0,0,1,1]",
    "Fq:p=5,d=2,mod=[1,1,1]", "Fq:p=3,d=3,mod=[1,0,2,1]", "Fq:p=7,d=2,mod=[1,0,1]",
    "Fp:101", "Ftower:card=16")] + [("Ftower:card=64", 7), ("Ftower:card=81", 7)] + [
    ("Fp:163", 7), ("Fp:251", 11), ("Fp:257", 11), ("Fp:449", 17)]


@pytest.mark.parametrize("name,stride", ROOT_FIELDS)
def test_kth_roots_match_enumeration(name, stride):
    # the roots, order included, are those a scan in enumeration order finds
    field = _field(name)
    elems = list(enumerate_elements(field))[::stride]
    for k in (1, 2, 3, 4, 5, 6, 8, 9, 25, 27):
        targets = {y.rep: y for x in elems for y in (x, x ** k)}
        for e in targets.values():
            assert kth_roots(e, k) == naive_kth_roots(e, k)


def test_kth_roots_beyond_scan_bound_with_common_factor():
    # gcd(3, q-1) = 3 above SCAN_BOUND: three cube roots, or none
    big = Field("prime", p=1000003)
    assert math.gcd(3, big.p - 1) == 3 and big.p > SCAN_BOUND
    x = big(123456)
    roots = kth_roots(x ** 3, 3)
    assert len({r.rep for r in roots}) == 3 and x in roots
    assert all(r ** 3 == x ** 3 for r in roots)
    non_cube = next(big(v) for v in range(2, 100)
                    if big(v) ** ((big.p - 1) // 3) != big.one())
    assert kth_roots(non_cube, 3) == []


# above SCAN_BOUND roots come in the algorithm's order, which witnesses read;
# 2^23 divides 998244353 - 1, so Tonelli-Shanks' loop runs deep there
BIG_ROOT_FIELDS = [998244353, 1000003, 101 ** 3, 101 ** 4]


@pytest.mark.parametrize("q", BIG_ROOT_FIELDS)
def test_square_roots_above_scan_bound_are_tonelli_shanks(q):
    field = GF(q)
    assert q > SCAN_BOUND
    rng = random.Random(q)
    for _ in range(6):
        e = random_element(field, rng) ** 2
        if e.is_zero():
            continue
        r = ref_sqrt_tonelli_shanks(e)
        assert [x.rep for x in kth_roots(e, 2)] == [r.rep, (-r).rep]


@pytest.mark.parametrize("q", [1000003, 101 ** 4])
def test_roots_above_scan_bound_are_one_root_times_powers_of_zeta(q):
    field = GF(q)
    one = field.one()
    rng = random.Random(q)
    for k in (3, 4, 6, 12):
        g = math.gcd(k, q - 1)
        e = random_element(field, rng) ** k
        roots = kth_roots(e, k)
        assert len({r.rep for r in roots}) == len(roots) == g
        assert roots[0] ** k == e
        zeta = roots[1] / roots[0]
        assert zeta ** g == one
        assert all(zeta ** (g // l) != one for l in (2, 3) if g % l == 0)
        assert all(roots[j] == roots[0] * zeta ** j for j in range(g))


def test_non_integer_sizes_and_exponents_are_usage_errors():
    with pytest.raises(UsageError):
        kth_roots(F5(4), 2.0)
    with pytest.raises(UsageError):
        kth_roots(Field("real", tolerance=1e-9)(4), 2.0)
    with pytest.raises(UsageError):
        GF(4.5)
    with pytest.raises(UsageError):
        Field("prime", p=7.0)
    with pytest.raises(UsageError, match="k must be >= 1"):
        regular_solution_search(F7, -1, 2, F7(1))


@pytest.mark.parametrize("name", ["Fp:7", "Fp:13", "Fq:p=7,d=2,mod=[1,0,1]"])
def test_kth_roots_with_exponents_past_the_index_range(name):
    # x^k - e was once built densely, and k = 10^30 raised OverflowError
    field = _field(name)
    for k in (10**30, 10**30 + 1, 3 * 10**40 + 2):
        targets = {y.rep: y for x in enumerate_elements(field) for y in (x, x ** k)}
        for e in targets.values():
            assert kth_roots(e, k) == naive_kth_roots(e, k)


def test_kth_roots_of_rationals_past_the_float_range():
    # the integer k-th root was once the rounded float n ** (1/k)
    assert kth_roots(Q(10**400), 2) == [Q(10**200), Q(-10**200)]
    assert kth_roots(Q(10**400 + 1), 2) == []
    assert kth_roots(Q(3**900), 3) == [Q(3**300)]
    assert kth_roots(Q(Fraction(-3**900, 2**600)), 3) == [Q(Fraction(-3**300, 2**200))]
    assert kth_roots(Q(3**900 - 1), 3) == []
    n = 2**61 - 1
    assert kth_roots(Q(n * n), 2) == [Q(n), Q(-n)]
    assert kth_roots(Q(n * n + 1), 2) == []
    assert kth_roots(Q(Fraction(1, n * n)), 4) == []


def test_field_holds_no_state_changed_by_roots_or_solves():
    from wordmap.diagonal import solve_diagonal_word
    from wordmap.matrices import Matrix
    from wordmap.words import DiagonalWord

    F101 = Field("prime", p=101)
    fields = [F101, GF(9), _tower(GF(4), 2), GF(101 ** 2), Field("prime", p=1000003)]

    def snapshot():
        return [[(getattr(f, s), copy.copy(getattr(f, s))) for s in Field.__slots__]
                for f in fields]

    def assert_unchanged(before):
        for f, slots in zip(fields, before):
            for name, (obj, shallow) in zip(Field.__slots__, slots):
                assert getattr(f, name) is obj, name
                if isinstance(obj, (dict, list, set)):
                    assert obj == shallow, name

    before = snapshot()
    for f in fields:
        for k in (2, 3, 5):
            kth_roots(f.generator() if f.kind == "ext" else f(7), k)
    assert_unchanged(before)
    word = DiagonalWord(((F101.one(), 2), (F101.one(), 3)))
    A = Matrix.companion(Poly(F101, [3, 0, 1]))  # x^2 + 3: F_{101^2} block
    solve_diagonal_word(A, word)
    assert_unchanged(before)
    # a field from the field table is shared by every later caller: two solves
    # over it (with an F_81 block) leave it as they found it
    F9 = parse_field_spec("Fq:p=3,d=2,mod=[2,2,1]")
    fields.append(F9)
    before = snapshot()
    word = DiagonalWord(((F9.one(), 2), (F9.one(), 3)))
    A = Matrix(F9, [[F9.zero(), F9.one()], [F9.generator(), F9.zero()]])  # x^2 - t
    for _ in range(2):
        solve_diagonal_word(A, word)
    assert parse_field_spec("Fq:p=3,d=2,mod=[2,2,1]") is F9
    assert_unchanged(before)


def test_small_finite_fields_are_built_once_per_key():
    for spec in ("Fp:7", "Fq:p=2,d=2,mod=[1,1,1]", "Fq:p=3,d=2,mod=[2,2,1]"):
        assert parse_field_spec(spec) is parse_field_spec(spec)
    assert GF(9) is GF(9)
    F9 = extend(F3, Poly(F3, [1, 0, 1]))[0]
    assert extend(F3, Poly(F3, [1, 0, 1]))[0] is F9 and extend(F3, [1, 0, 1])[0] is F9
    F81 = _tower(F9, 2)
    assert F81.cardinality == 81 and _tower(GF(9, modulus=(1, 0, 1)), 2) is F81
    assert parse_field_spec("Q") is RATIONALS


def test_larger_and_infinite_fields_are_built_on_every_call():
    F101 = parse_field_spec("Fp:101")
    pairs = [(GF(343), GF(343)), (GF(101 ** 2), GF(101 ** 2)),
             (extend(F101, [2, 0, 1])[0], extend(F101, [2, 0, 1])[0]),
             (extend(Q, [-2, 0, 1])[0], extend(Q, [-2, 0, 1])[0]),
             (parse_field_spec("R:tol=1e-9"), parse_field_spec("R:tol=1e-9"))]
    for a, b in pairs:
        assert a == b and a is not b


def test_reducible_moduli_are_refused_on_every_call():
    for _ in range(2):  # t^2 + 2 = (t + 1)(t + 2) over F_3
        with pytest.raises(ReduciblePolynomial):
            extend(F3, [2, 0, 1])
        with pytest.raises(ReduciblePolynomial):
            GF(9, modulus=(2, 0, 1))
        with pytest.raises(ReduciblePolynomial):
            parse_field_spec("Fq:p=3,d=2,mod=[2,0,1]")


def test_cli_calls_prove_a_spec_modulus_irreducible_once(monkeypatch, capsys):
    """Ten solves from the CLI over one F_9 spec share one field: its modulus
    is factored at most once (not at all when an earlier test built it)."""
    import importlib

    import wordmap.cli

    # the module: the package's name wordmap.factor is the function factor
    factor_mod = importlib.import_module("wordmap.factor")
    proofs, is_irreducible = [], factor_mod.is_irreducible

    def counted(f):
        if f.field.key == ("prime", 3) and f.reps == (2, 2, 1):
            proofs.append(f)
        return is_irreducible(f)

    monkeypatch.setattr(factor_mod, "is_irreducible", counted)
    matrix = '{"rows":2,"cols":2,"entries":[[[0,0],[1,0]],[[0,1],[0,0]]]}'
    outs = []
    for _ in range(10):
        assert wordmap.cli.main(["solve", "--field", "Fq:p=3,d=2,mod=[2,2,1]", "--word",
                                 "diag:d=1,k=2;d=1,k=3", "--matrix", matrix]) == 0
        outs.append(capsys.readouterr().out)
    assert len(proofs) <= 1
    assert len(set(outs)) == 1 and '"verified":true' in outs[0]


def test_enumerate_fields():
    assert [x.rep for x in enumerate_elements(F3)] == [0, 1, 2]
    F4 = GF(4)
    assert len(list(enumerate_elements(F4))) == 4
    with pytest.raises(InfiniteField):
        list(enumerate_elements(Q))


def test_extend_f2_to_f4():
    L, alpha, embed = extend(F2, Poly(F2, [1, 1, 1]))
    assert L.cardinality == 4
    assert (alpha * alpha + alpha + L.one()).is_zero()


def test_extend_f5_nonresidue():
    # t^2 + 2 has no root mod 5 (-2 = 3 is a non-residue)
    assert all((x * x).rep != 3 for x in enumerate_elements(F5))
    L, alpha, embed = extend(F5, Poly(F5, [2, 0, 1]))
    assert L.cardinality == 25
    assert alpha * alpha == embed(F5(3))


def test_extend_rationals_gaussian():
    L, i, embed = extend(Q, Poly(Q, [1, 0, 1]))
    assert (i * i + L.one()).is_zero()
    assert embed(Q("1/2")) + embed(Q("1/2")) == L.one()


def test_extend_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        extend(F2, Poly(F2, [0, 1, 1]))  # t^2 + t = t(t+1)


def test_extension_of_q_needs_an_irreducible_modulus():
    # (x^2 + 1)(x^2 + 2) and x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2) have no
    # rational root; x^4 + 1, x^4 - 10x^2 + 1 and the minimal polynomial of
    # sqrt2 + sqrt3 + sqrt5 are irreducible but split mod every prime
    for modulus in ((2, 0, 3, 0, 1), (4, 0, 0, 0, 1)):
        with pytest.raises(ReduciblePolynomial):
            Field("ext", modulus=modulus, base=Q)
    for modulus in ((1, 0, 0, 0, 1), (1, 0, -10, 0, 1), (576, 0, -960, 0, 352, 0, -40, 0, 1)):
        L, _, _ = extend(Q, modulus)
        assert L.degree == len(modulus) - 1


def test_extend_embedding_is_homomorphism():
    rng = random.Random(0)
    L, alpha, embed = extend(F7, Poly(F7, [3, 0, 0, 1]))  # t^3 + 3 irreducible mod 7
    for _ in range(100):
        a, b = F7(rng.randrange(7)), F7(rng.randrange(7))
        assert embed(a + b) == embed(a) + embed(b)
        assert embed(a * b) == embed(a) * embed(b)


def test_canonical_equality_is_congruence():
    rng = random.Random(1)
    F4 = GF(4)
    elems = list(enumerate_elements(F4))
    for _ in range(100):
        a = rng.choice(elems)
        c = rng.choice(elems)
        b = F4(list(a.rep))  # same value, fresh object
        d = F4(list(c.rep))
        assert a == b and c == d
        assert a + c == b + d and a * c == b * d and a - c == b - d


def test_regular_solution_examples():
    sol = regular_solution_search(F7, 2, 3, F7(0))
    assert tuple(x.rep for x in sol) == (1, 2, 3)
    sol = regular_solution_search(F5, 2, 2, F5(1))
    assert tuple(x.rep for x in sol) == (0, 1)
    sol = regular_solution_search(F7, 1, 2, F7(4))
    assert sum((x for x in sol), F7.zero()) == F7(4)
    assert sol[0] != sol[1]


def test_regular_solution_postconditions():
    for field, k, n, gamma in ((F7, 2, 3, 0), (F7, 2, 2, 3), (F5, 2, 2, 1),
                               (Field("prime", p=11), 2, 3, 1)):
        g = field(gamma)
        sol = regular_solution_search(field, k, n, g)
        powers = [x ** k for x in sol]
        total = field.zero()
        for p in powers:
            total = total + p
        assert total == g
        assert len({p.rep for p in powers}) == n
        zeros = sum(1 for x in sol if x.is_zero())
        assert zeros <= 1


def test_regular_solution_nonzero_flag():
    F11 = Field("prime", p=11)
    sol = regular_solution_search(F11, 2, 3, F11(1), require_nonzero=True)
    assert all(not x.is_zero() for x in sol)
    with pytest.raises(NotFound):
        regular_solution_search(F7, 2, 3, F7(1), require_nonzero=True)


def test_impossible_regular_solutions_are_decided_by_counting_powers(monkeypatch):
    """F_13 has (13 - 1)/gcd(2, 12) = 6 nonzero squares, 7 with zero: 7
    pairwise distinct nonzero squares, or 8 squares, do not exist, and the
    search says so without a walk; at the count itself it walks."""
    import wordmap.fields as fields_mod

    F13 = Field("prime", p=13)
    walks = []
    walk = fields_mod._power_sum_solutions

    def counted(gamma, ks, *args, **kwargs):
        walks.append(len(ks))
        return walk(gamma, ks, *args, **kwargs)

    monkeypatch.setattr(fields_mod, "_power_sum_solutions", counted)
    with pytest.raises(NotFound):
        regular_solution_search(F13, 2, 7, F13(1), require_nonzero=True)
    assert list(regular_solution_iter(F13, 2, 8, F13(1))) == []
    assert walks == []
    # the six nonzero squares 1, 4, 9, 3, 12, 10 sum to 0, and with 0 so do seven
    for n, nonzero in ((6, True), (7, False)):
        sol = regular_solution_search(F13, 2, n, F13(0), require_nonzero=nonzero)
        assert len({(x * x).rep for x in sol}) == n
    assert walks == [6, 7]


def _memo_walk_cases(field):
    """(gamma, n, nonzero) for k in 2..4 and n <= 9 over ``field``: a target
    planted as a sum of n draws and a random one, where the plain walk
    ends in well under a second (over Q, n <= 4, and n <= 6 for k = 3;
    over F_q only the n the power count lets through)."""
    rng = random.Random(37)
    pool = (list(enumerate_elements(field)) if field.is_finite
            else [field(v) for v in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8)])
    for k, n, nonzero in itertools.product((2, 3, 4), range(1, 10), (False, True)):
        if field.is_finite:
            q = field.cardinality
            if (q - 1) // math.gcd(k, q - 1) + (not nonzero) < n:
                continue
        elif n > (6 if k == 3 else 4):
            continue
        planted = sum((x ** k for x in rng.sample(pool, n)), field.zero())
        drawn = random_element(field, rng) if field.is_finite else field(rng.randint(-50, 50))
        for gamma in (planted, drawn):
            yield k, n, nonzero, gamma, pool


@pytest.mark.parametrize("spec", ["Fp:13", "Fp:101", "tower", "Q"])
def test_memoized_walk_yields_the_plain_walk(spec):
    """The regular-solution search, which skips the states whose subtree
    yielded nothing, against the plain walk: the first ten yields are the
    same tuples in the same order, and so are the diagonal solver's
    two-term searches a^k1 + beta*b^k2 = alpha and the three-term search
    with exponents (2, 3, 4) (no distinct powers)."""
    from wordmap.fields import _power_sum_solutions

    from oracles import plain_power_sum_walk

    field = _tower(_tower(F3, 2), 2) if spec == "tower" else parse_field_spec(spec)
    for k, n, nonzero, gamma, pool in _memo_walk_cases(field):
        cands = lambda: pool
        got = _power_sum_solutions(gamma, [k] * n, cands, distinct=True, nonzero=nonzero)
        want = plain_power_sum_walk(gamma, [k] * n, cands, distinct=True, nonzero=nonzero)
        assert list(itertools.islice(got, 10)) == list(itertools.islice(want, 10)), \
            (k, n, nonzero, gamma)
        beta = pool[-1]
        for ks in ((k, 2), (k, 3), (k, 4), (2, 3, 4)):
            got = _power_sum_solutions(gamma, ks, cands, beta.inverse())
            want = plain_power_sum_walk(gamma, ks, cands, beta.inverse())
            assert list(itertools.islice(got, 10)) == list(itertools.islice(want, 10)), ks


def test_regular_solution_real_even_and_odd():
    R = Field("real", tolerance=1e-9)
    sol = regular_solution_search(R, 2, 3, R(1), require_nonzero=True)
    total = sum((x * x for x in sol), R.zero())
    assert abs(total.rep - 1) < 1e-9
    sol = regular_solution_search(R, 3, 2, R(-5))
    total = sum((x ** 3 for x in sol), R.zero())
    assert abs(total.rep + 5) < 1e-9


# One digest per field over a grid of k in {1, 2, 3}, n in {1..4}, five
# gammas and both require_nonzero values: the repr of each regular solution
# or its error line, then, over finite fields, the first five tuples of
# regular_solution_iter for each point.  It pins which solution the search
# picks and the float bits of the R/C closed forms.
REGULAR_GOLDEN = [
    ("Fp:7",
     "506d5c03e6b24ae9c4ca943ddfcd58a54e7759afc09c112f8cfa70f776acc89d"),
    ("Fq:p=3,d=2,mod=[1,0,1]",
     "473c98211a360dd4663e58f8bd6d151c35c1e119df08b79819f1c8a9c6be6fb8"),
    ("Fp:101",
     "5e25be17f2ecdfb1ea750037310900e9f2bec0fcb291e5b356bc871e917d5919"),
    ("Ftower:card=16",
     "3b94342226f9c18f86ef5eeb7bdc2f9c5193b64d706116ec6b8b78600bc0baa5"),
    ("Q",
     "dc27d99e42a74b6c1881eae29274d0f2a547953a07097a5e28134961ce1c4ba6"),
    ("R:tol=1e-9",
     "3cd6be1878f99a04358e2846edfd67a7af86e73a3c7131f193df2d9950609d44"),
    ("C:tol=1e-9",
     "6fdba76355e4c7a7892c9ab16b40b1b13a8733b55fc49182879366a79310cae1"),
]


def _regular_digest(field):
    if field.kind == "ext":
        g = field.generator()
    elif field.kind == "complex":
        g = field(complex(1, 2))
    else:
        g = field(3) / field(2)
    gammas = [field(0), field(1), field(-1), g, g + field(2)]
    h = hashlib.sha256()
    for k, n, gamma, nonzero in itertools.product((1, 2, 3), (1, 2, 3, 4), gammas,
                                                 (False, True)):
        try:
            line = repr(regular_solution_search(field, k, n, gamma, nonzero))
        except WordmapError as exc:
            line = f"{type(exc).__name__}: {exc}"
        if field.is_finite:
            line += " " + repr(list(itertools.islice(
                regular_solution_iter(field, k, n, gamma, nonzero), 5)))
        h.update((line + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,digest", REGULAR_GOLDEN,
                         ids=[name for name, _ in REGULAR_GOLDEN])
def test_regular_solutions_are_pinned(name, digest):
    assert _regular_digest(_field(name)) == digest


def test_field_spec_round_trip():
    for spec in ("Fp:7", "Fq:p=2,d=2,mod=[1,1,1]", "Q", "R:tol=1e-09", "C:tol=1e-09"):
        field = parse_field_spec(spec)
        assert parse_field_spec(field.spec_string()).key == field.key
    with pytest.raises(UsageError):
        parse_field_spec("Fp:6")
    with pytest.raises(UsageError):
        parse_field_spec("nonsense")


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
def test_approximate_fields_need_finite_positive_tolerance(tol):
    for kind in ("real", "complex"):
        with pytest.raises(UsageError):
            Field(kind, tolerance=tol)
    with pytest.raises(UsageError):
        parse_field_spec(f"R:tol={tol}")
    with pytest.raises(UsageError):
        parse_field_spec(f"C:tol={tol}")


def test_kth_roots_complex_principal_and_all():
    C = Field("complex", tolerance=1e-9)
    e = C(complex(0, 8))
    (r,) = kth_roots(e, 3)
    assert abs((r ** 3).rep - 8j) < 1e-9


def test_kth_roots_real():
    R = Field("real", tolerance=1e-9)
    assert [round(r.rep, 9) for r in kth_roots(R(9), 2)] == [3.0, -3.0]
    assert kth_roots(R(-9), 2) == []
    (r,) = kth_roots(R(-27), 3)
    assert abs(r.rep + 3) < 1e-9


def test_extend_unsupported_base():
    from wordmap.errors import UnsupportedBase
    R = Field("real", tolerance=1e-9)
    with pytest.raises(UnsupportedBase):
        extend(R, Poly(Q, [1, 0, 1]))


def test_extension_tower_over_f4():
    # extensions of extensions collapse to the right finite field
    import itertools
    from wordmap.factor import is_irreducible

    F4 = GF(4)
    for c0, c1 in itertools.product(list(enumerate_elements(F4)), repeat=2):
        p = Poly(F4, [c0, c1, F4.one()])
        if is_irreducible(p):
            break
    L, alpha, embed = extend(F4, p)
    assert L.cardinality == 16 and L.characteristic == 2
    assert len({x.rep for x in enumerate_elements(L)}) == 16
    lifted = Poly(L, [embed(c) for c in p.coeffs])
    assert lifted(alpha).is_zero()
    x = alpha + embed(F4.generator())
    roots = kth_roots(x * x, 2)
    assert roots and all(r * r == x * x for r in roots)


# ----------------------------------------------------------------------
# log-table arithmetic of finite extensions with q <= ELEMENT_TABLE_BOUND
# ----------------------------------------------------------------------

EXHAUSTIVE_TABLE_FIELDS = [
    "Fq:p=2,d=2,mod=[1,1,1]", "Fq:p=2,d=3,mod=[1,0,1,1]", "Fq:p=3,d=2,mod=[1,0,1]",
    "Fq:p=5,d=2,mod=[1,1,1]", "Fq:p=3,d=3,mod=[1,0,2,1]", "Fq:p=7,d=2,mod=[1,0,1]",
    "Fq:p=2,d=6,mod=[1,0,0,0,0,1,1]", "Ftower:card=16", "Ftower:card=81"]
SAMPLED_TABLE_FIELDS = ["Ftower:card=729", "Fq:p=3,d=7,mod=[1,0,0,0,0,1,2,1]",
                        "Fq:p=61,d=2,mod=[1,5,1]",
                        "Fq:p=2,d=12,mod=[1,0,0,0,0,0,0,0,0,1,0,0,1]"]
POWERS = (0, 1, 2, 3, 5, 7)


def _check_ops(field, a, b):
    x, y = field.element(a), field.element(b)
    assert (x + y).rep == ref_add(field, a, b)
    assert (x - y).rep == ref_sub(field, a, b)
    assert (-x).rep == ref_neg(field, a)
    assert (x * y).rep == ref_mul(field, a, b)


@pytest.mark.parametrize("name", EXHAUSTIVE_TABLE_FIELDS)
def test_table_arithmetic_matches_schoolbook_on_every_pair(name):
    field = _field(name)
    assert field.cardinality <= ELEMENT_TABLE_BOUND and _log_tables(field) is not None
    raws = [x.rep for x in enumerate_elements(field)]
    for a in raws:
        for b in raws:
            _check_ops(field, a, b)
    inverses = ref_inverses(field)
    assert len(inverses) == field.cardinality - 1
    for a in raws[1:]:
        x = field.element(a)
        assert x.inverse().rep == inverses[a]
        for k in POWERS:
            assert (x ** k).rep == ref_pow(field, a, k)
            assert (x ** -k).rep == ref_pow(field, inverses[a], k)
    with pytest.raises(DivisionByZero):
        field.zero().inverse()
    with pytest.raises(DivisionByZero):
        field._rinv(field._zero_raw)  # the raw op the kernels call


@pytest.mark.parametrize("name", SAMPLED_TABLE_FIELDS)
def test_table_arithmetic_matches_schoolbook_on_seeded_pairs(name):
    field = _field(name)
    assert field.cardinality <= ELEMENT_TABLE_BOUND and _log_tables(field) is not None
    raws = [x.rep for x in enumerate_elements(field)]
    rng = random.Random(field.cardinality)
    one = field.one().rep
    for _ in range(2000):
        a, b = rng.choice(raws), rng.choice(raws)
        _check_ops(field, a, b)
        if a == field.zero().rep:
            continue
        # an inverse is unique, so the product test is what a search finds
        x = field.element(a)
        inv = x.inverse().rep
        assert ref_mul(field, a, inv) == one
        k = rng.choice(POWERS)
        assert (x ** k).rep == ref_pow(field, a, k)
        assert (x ** -k).rep == ref_pow(field, inv, k)


def _arithmetic(field):
    """Which closures a field's element ops run on."""
    qualname = field._rmul.__qualname__
    return "log tables" if "_install_log_ops" in qualname else "base kernel"


def test_log_tables_go_to_named_fields_and_to_the_field_table():
    from wordmap.reduction import working_field

    F64 = parse_field_spec("Fq:p=2,d=6,mod=[1,1,0,0,0,0,1]")
    cubic, quadratic = _first_irreducible(F7, 3), _first_irreducible(F64, 2)
    # per-solve working fields: tables only for those the field table keeps
    assert _arithmetic(working_field(F3, Poly(F3, [1, 0, 1]))[0]) == "log tables"  # F_9
    assert _arithmetic(working_field(F7, cubic)[0]) == "base kernel"  # F_343
    assert _arithmetic(working_field(F64, quadratic)[0]) == "base kernel"  # F_{64^2}
    # named fields, up to ELEMENT_TABLE_BOUND
    assert _arithmetic(extend(F7, cubic)[0]) == "log tables"
    assert _arithmetic(GF(343, modulus=[c.rep for c in cubic.coeffs])) == "log tables"
    assert _arithmetic(parse_field_spec("Fq:p=7,d=3,mod=[4,0,0,1]")) == "log tables"
    assert _arithmetic(Field("ext", modulus=quadratic.reps, base=F64)) == "log tables"
    assert _arithmetic(GF(8192)) == "base kernel"


@pytest.mark.parametrize("name,d", [("Fp:7", 3), ("Fq:p=3,d=2,mod=[1,0,1]", 3)],
                         ids=["F_343", "F_729-tower"])
def test_per_solve_fields_agree_with_the_named_field(name, d):
    """A working field past the field table runs on its base kernel's ops;
    the named field of the same modulus runs on log tables, with the same
    values."""
    from wordmap.reduction import working_field

    base = parse_field_spec(name)
    m = _first_irreducible(base, d)
    L = working_field(base, m)[0]
    named = Field("ext", modulus=m.reps, base=base)
    assert (_arithmetic(L), _arithmetic(named)) == ("base kernel", "log tables")
    assert L == named and L is not named

    def ops(F, a, b, k):
        x, y = F.element(a), F.element(b)
        out = [(x + y).rep, (x - y).rep, (-x).rep, (x * y).rep]
        if not y.is_zero():
            out += [y.inverse().rep, (y ** k).rep, (y ** -k).rep]
        return out

    raws = [x.rep for x in enumerate_elements(named)]
    rng = random.Random(L.cardinality)
    for _ in range(2000):
        a, b, k = rng.choice(raws), rng.choice(raws), rng.choice(POWERS)
        assert ops(L, a, b, k) == ops(named, a, b, k)


# (base, modulus coefficients low degree first, a root of the modulus)
REDUCIBLE_MODULI = [
    ("Fp:2", [1, 0, 1], 1),                    # t^2 + 1 = (t + 1)^2
    ("Fp:3", [2, 0, 1], 1),                    # t^2 + 2 = (t + 1)(t + 2)
    ("Fp:101", [-1, 0, 1], 1),                 # q = 101^2, past the table bound
    ("Fq:p=2,d=2,mod=[1,1,1]", [1, 1, 1], [0, 1]),  # (t + a)(t + a + 1), a^2 = a + 1
    ("Q", [-1, 0, 1], 1),                      # x^2 - 1 = (x - 1)(x + 1)
]


@pytest.mark.parametrize("name,coeffs,root", REDUCIBLE_MODULI, ids=lambda v: str(v))
def test_field_refuses_a_reducible_modulus(name, coeffs, root):
    base = _field(name)
    modulus = Poly(base, coeffs)
    assert modulus(base(root)).is_zero()
    with pytest.raises(ReduciblePolynomial):
        Field("ext", modulus=tuple(c.rep for c in modulus.coeffs), base=base)


# (base, modulus as {exponent: coefficient}) of fields with no log tables,
# whose products are the base kernel's prepared product mod the modulus: the
# finite moduli are those GF(q) picks; F_2 has tables below d = 13, and
# 2^31 - 1 fits no packed slot, so its products run on the list loops
PAST_BOUND_MODULI = [
    ("Fp:101", {0: 1, 1: 1, 2: 1}), ("Fp:101", {0: 1, 2: 1, 3: 1}),
    ("Fp:101", {0: 1, 3: 1, 4: 1}), ("Fp:101", {0: 1, 4: 4, 5: 1}),
    ("Fp:101", {0: 1, 5: 6, 6: 1}), ("Fp:101", {0: 1, 6: 1, 7: 1}),
    ("Fp:101", {0: 1, 7: 8, 8: 1}), ("Fp:101", {0: 1, 8: 11, 9: 1}),
    ("Fp:101", {0: 1, 9: 3, 10: 1}), ("Fp:101", {0: 1, 10: 22, 11: 1}),
    ("Fp:101", {0: 1, 11: 14, 12: 1}), ("Fp:101", {0: 1, 12: 4, 13: 1}),
    ("Fp:101", {0: 1, 13: 6, 14: 1}), ("Fp:101", {0: 1, 14: 39, 15: 1}),
    ("Fp:101", {0: 1, 15: 3, 16: 1}), ("Fp:101", {0: 1, 16: 14, 17: 1}),
    ("Fp:101", {0: 1, 17: 3, 18: 1}), ("Fp:101", {0: 1, 18: 3, 19: 1}),
    ("Fp:101", {0: 1, 18: 1, 19: 47, 20: 1}), ("Fp:101", {0: 1, 20: 2, 21: 1}),
    ("Fp:101", {0: 1, 21: 29, 22: 1}), ("Fp:101", {0: 1, 22: 17, 23: 1}),
    ("Fp:101", {0: 1, 22: 2, 23: 6, 24: 1}), ("Fp:101", {0: 1, 24: 1, 25: 1}),
    ("Fp:101", {0: 1, 25: 11, 26: 1}), ("Fp:101", {0: 1, 26: 19, 27: 1}),
    ("Fp:101", {0: 1, 27: 9, 28: 1}), ("Fp:101", {0: 1, 28: 18, 29: 1}),
    ("Fp:101", {0: 1, 29: 4, 30: 1}), ("Fp:101", {0: 1, 30: 75, 31: 1}),
    ("Fp:101", {0: 1, 31: 7, 32: 1}), ("Fp:2", {0: 1, 9: 1, 10: 1, 12: 1, 13: 1}),
    ("Fp:2", {0: 1, 9: 1, 14: 1}), ("Fp:2", {0: 1, 14: 1, 15: 1}),
    ("Fp:2", {0: 1, 11: 1, 13: 1, 15: 1, 16: 1}), ("Fp:2", {0: 1, 14: 1, 17: 1}),
    ("Fp:2", {0: 1, 15: 1, 18: 1}), ("Fp:2", {0: 1, 14: 1, 17: 1, 18: 1, 19: 1}),
    ("Fp:2", {0: 1, 17: 1, 20: 1}), ("Fp:2", {0: 1, 19: 1, 21: 1}),
    ("Fp:2", {0: 1, 21: 1, 22: 1}), ("Fp:2", {0: 1, 18: 1, 23: 1}),
    ("Fp:2", {0: 1, 20: 1, 21: 1, 23: 1, 24: 1}), ("Fp:2", {0: 1, 22: 1, 25: 1}),
    ("Fp:2", {0: 1, 22: 1, 23: 1, 25: 1, 26: 1}),
    ("Fp:2", {0: 1, 22: 1, 25: 1, 26: 1, 27: 1}), ("Fp:2", {0: 1, 27: 1, 28: 1}),
    ("Fp:2", {0: 1, 27: 1, 29: 1}), ("Fp:2", {0: 1, 29: 1, 30: 1}),
    ("Fp:2", {0: 1, 28: 1, 31: 1}), ("Fp:2", {0: 1, 25: 1, 29: 1, 30: 1, 32: 1}),
    ("Fp:2147483647", {0: 1, 2: 1}), ("Fp:2147483647", {0: 1, 2: 5, 3: 1}),
    ("Fp:2147483647", {0: 1, 3: 1, 4: 1}), ("Fp:2147483647", {0: 1, 7: 3, 8: 1}),
    ("Fp:2147483647", {0: 1, 12: 33, 13: 1}), ("Fp:2147483647", {0: 1, 20: 24, 21: 1}),
    ("Fp:2147483647", {0: 1, 31: 34, 32: 1}),
    # F_{9^4} over F_9 = F_3[s]/(s^2 + 1): t^4 + s t^3 + t^2 + t + 1
    ("Fq:p=3,d=2,mod=[1,0,1]", {0: [1, 0], 1: [1, 0], 2: [1, 0], 3: [0, 1], 4: [1, 0]}),
    # Q(alpha): a quadratic with no rational root, then Eisenstein at 2
    ("Q", {0: Fraction(1, 3), 1: Fraction(-1, 2), 2: 1}), ("Q", {0: 6, 1: -4, 2: 2, 3: 1}),
    ("Q", {0: 6, 1: -4, 3: 2, 4: 1}), ("Q", {0: 6, 1: -4, 4: 2, 5: 1}),
    ("Q", {0: 6, 1: -4, 5: 2, 6: 1}), ("Q", {0: 6, 1: -4, 6: 2, 7: 1}),
    ("Q", {0: 6, 1: -4, 7: 2, 8: 1}),
]


def _random_raw(field, rng):
    if field.kind == "prime":
        return rng.randrange(field.p)
    if field.kind == "rationals":
        return Fraction(rng.randint(-99, 99), rng.randint(1, 12))
    return tuple(_random_raw(field.base, rng) for _ in range(field.degree))


@pytest.mark.parametrize("name,modulus", PAST_BOUND_MODULI,
                         ids=lambda v: v if isinstance(v, str) else f"d={max(v)}")
def test_fields_past_the_bound_match_schoolbook_arithmetic(name, modulus):
    base, d = parse_field_spec(name), max(modulus)
    coeffs = tuple(base(modulus.get(i, 0)).rep for i in range(d + 1))
    L = Field("ext", modulus=coeffs, base=base)
    assert not L.is_finite or L.cardinality > ELEMENT_TABLE_BOUND
    rng = random.Random(f"{name} {d}")
    raws = [_random_raw(L, rng) for _ in range(12)]
    for a, b in zip(raws, raws[1:] + [L.zero().rep]):
        _check_ops(L, a, b)
        _check_ops(L, a, a)  # a product of an element with itself squares
        x = L.element(a)
        if not x.is_zero():
            assert x * x.inverse() == L.one()
