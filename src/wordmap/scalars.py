"""Scalar equations over a field: k-th roots and sums of powers.

The diagonal-word results reduce each Jordan block to scalar equations:
a k-th root, a^{k1} + beta*b^{k2} = alpha, or n distinct k-th powers with
a given sum.  This module solves them; the commutator routes solve none.
``wordmap.diagonal``, its one user in the library, imports it at module
level, so a process that never solves a diagonal word never compiles it.
``fields.kth_roots`` and ``fields.regular_solution_search``, the public
names, are the functions defined here, read through ``wordmap.fields`` on
first use (PEP 562).

K-th roots over F_q are computed per call, with no table and no state kept
on the Field, by one element-level algorithm (Adleman, Manders and Miller
1977): with g = gcd(k, q-1), e is a k-th power iff e^((q-1)/g) = 1; then
y with y^g = e comes from v_l(g) successive l-th roots for each prime l | g,
each step driven by the first non-l-th power in ``enumerate_elements``
order (the l = 2 step is Tonelli-Shanks), x = y^((k/g)^-1 mod (q-1)/g) is
one root, and x*zeta^j for j < g are all of them, zeta of order g.  For q
<= SCAN_BOUND the roots come in ``enumerate_elements`` order, so the root a
scalar search picks does not depend on the algorithm; above it they come in
the order x, x*zeta, x*zeta^2, ... (k = 2: [r, -r]).

Every search for scalars with prescribed powers runs
``_power_sum_solutions``: draws in a given order, the last unknown closed
by a k-th root.  Over R and C, where every value is a k-th power (up to
sign), ``regular_solution_search`` constructs its answer directly.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import Iterator

from .errors import NotFound, Unsupported, UsageError
from .fields import (
    Field,
    FieldElement,
    _element_at,
    _element_index,
    _iroot_ceil,
    _prime_divisors,
    enumerate_elements,
    require_element,
    require_field,
)

# Finite fields up to this cardinality have their elements enumerated as
# candidates in scalar searches, and get their k-th roots in enumeration order.
SCAN_BOUND = 10**6
# How many (field, l) pairs keep their non-l-th power rho_l for kth_roots.
NON_POWER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=NON_POWER_CACHE_SIZE)
def _first_non_power(field: Field, l: int):
    """Raw value of the first element in enumeration order that is not an
    l-th power, for a prime l dividing q - 1.

    The first |base| elements in that order are the base field's; when l
    divides (q-1)/(|base|-1), every one of them is an l-th power, so the
    search starts after them.  The value depends on the field's key and l
    alone (fields with equal keys are equal and hash alike), so the last
    NON_POWER_CACHE_SIZE searches are kept."""
    q = field.cardinality
    start = 1
    if field.kind == "ext" and (q - 1) // (field.base.cardinality - 1) % l == 0:
        start = field.base.cardinality
    for idx in itertools.count(start):
        rep = _element_at(field, idx)
        if field._rpow(rep, (q - 1) // l) != field._one_raw:
            return rep


def _amm_root(field: Field, a: FieldElement, l: int, rho: FieldElement) -> FieldElement:
    """An l-th root of a nonzero l-th power a, for a prime l dividing q - 1
    and rho a non-l-th power: the step of Adleman, Manders and Miller
    (1977).  For l = 2 it is Tonelli-Shanks, step for step."""
    q = field.cardinality
    s, m = q - 1, 0
    while s % l == 0:
        s //= l
        m += 1
    w = -pow(s, -1, l) % l  # s*w + 1 = 0 mod l
    one, zeta = field.one(), rho ** ((q - 1) // l)
    # x^l = a*t with t in the l-Sylow subgroup, which c = rho^s generates
    c, t, x = rho ** s, a ** (s * w), a ** ((s * w + 1) // l)
    while t != one:
        # least i with t^(l^i) = 1; h = t^(l^(i-1)) has order l
        i, t2 = 0, t
        while t2 != one:
            h, t2 = t2, t2 ** l
            i += 1
        b = c ** l ** (m - i - 1)
        m, c = i, b ** l
        # c^(l^(i-1)) = zeta, so at most l - 1 steps clear h
        while h != one:
            h, t, x = h * zeta, t * c, x * b
    return x


def _check_exponent(k) -> None:
    """UsageError unless k is an int >= 1."""
    if not isinstance(k, int):
        raise UsageError(f"k must be an int, got {type(k).__name__}")
    if k < 1:
        raise UsageError("k must be >= 1")


def kth_roots(e: FieldElement, k: int) -> list:
    """All x with x^k = e (finite fields, Q); real roots over R; the
    principal root over C.  Empty list when none exist.

    Over F_q, with g = gcd(k, q-1), e is a k-th power iff e^((q-1)/g) = 1.
    Then Adleman-Manders-Miller l-th root steps, v_l(g) of them for each
    prime l | g, give y with y^g = e; x = y^((k/g)^-1 mod (q-1)/g) is a root
    (for g = 1 the single one), and the roots are x*zeta^j, j < g, with zeta
    the product of rho_l^((q-1)/l^v_l(g)), rho_l the non-l-th power the steps
    use.  For q <= SCAN_BOUND the roots come in ``enumerate_elements``
    order; above it they come as x*zeta^j in increasing j (k = 2: [r, -r]
    with r Tonelli-Shanks')."""
    _check_exponent(k)
    require_element(e)
    field = e.field
    if k == 1:
        return [e]
    if e.is_zero():  # over every kind the only root of zero
        return [field.zero()]
    if field.is_finite:
        q = field.cardinality
        g = math.gcd(k, q - 1)
        if e ** ((q - 1) // g) != field.one():
            return []
        # y^g = e by successive l-th roots; zeta has order g
        y, zeta = e, field.one()
        for l in _prime_divisors(g):
            rho, lv = field.element(_first_non_power(field, l)), 1
            while g % (lv * l) == 0:
                y, lv = _amm_root(field, y, l, rho), lv * l
            zeta *= rho ** ((q - 1) // lv)
        # k/g is invertible mod (q-1)/g, and x^k = y^g
        roots = [y ** pow(k // g, -1, (q - 1) // g)]
        for _ in range(g - 1):
            roots.append(roots[-1] * zeta)
        if q <= SCAN_BOUND:
            roots.sort(key=lambda x: _element_index(field, x.rep))
        return roots
    if field.kind == "ext":
        # number field Q(alpha): only the trivial root is recognised
        raise Unsupported("k-th roots in number fields are not supported")
    if field.kind == "rationals":
        num, den = e.rep.numerator, e.rep.denominator
        neg = num < 0
        if neg and k % 2 == 0:
            return []
        if k >= max(abs(num), den).bit_length() and (abs(num), den) != (1, 1):
            return []  # only 1 is a k-th power below 2**k
        rn, rd = _iroot_ceil(abs(num), k), _iroot_ceil(den, k)
        if rn ** k != abs(num) or rd ** k != den:
            return []
        root = field.kernel.fraction(-rn if neg else rn, rd)
        roots = [field.element(root)]
        if k % 2 == 0:
            roots.append(field.element(-root))
        return roots
    if field.kind == "real":
        v = e.rep
        if k % 2 == 1:
            r = math.copysign(abs(v) ** (1.0 / k), v)
            return [field.element(r)]
        if v < 0:
            return []
        r = v ** (1.0 / k)
        return [field.element(r), field.element(-r)]
    # complex
    v = e.rep
    principal = v ** (1.0 / k) if v.imag == 0 and v.real > 0 else cmath.exp(cmath.log(v) / k)
    return [field.element(principal)]


def regular_solution_search(field: Field, k: int, n: int, gamma: FieldElement,
                            require_nonzero: bool = False):
    """First tuple (l_1..l_n) with sum l_i^k = gamma and pairwise distinct
    k-th powers, in deterministic order.  Raises NotFound when exhausted."""
    for sol in regular_solution_iter(field, k, n, gamma, require_nonzero):
        return sol
    raise NotFound(
        f"no {'non-zero ' if require_nonzero else ''}regular solution of "
        f"sum of {n} {k}-th powers = {gamma!r} over {field}")


def regular_solution_iter(field: Field, k: int, n: int, gamma: FieldElement,
                          require_nonzero: bool = False) -> Iterator[tuple]:
    require_field(field)
    gamma = field(gamma)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise UsageError(f"n must be an int >= 1, got {n!r}")
    _check_exponent(k)
    if field.kind in ("real", "complex"):
        sol = _regular_construct_analytic(field, k, n, gamma, require_nonzero)
        if sol is not None:
            yield sol
        return
    if field.is_finite:
        q = field.cardinality
        if (q - 1) // math.gcd(k, q - 1) + (not require_nonzero) < n:
            return  # F_q has fewer than n distinct (nonzero) k-th powers
        candidates = lambda: enumerate_elements(field)
    else:
        # Q: bounded small search; large-field existence guarantees do not cover Q
        small = [field(v) for v in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8)]
        candidates = lambda: small
    yield from _power_sum_solutions(gamma, [k] * n, candidates, distinct=True,
                                    nonzero=require_nonzero)


def _power_sum_solutions(gamma: FieldElement, ks, candidates, inv=None,
                         distinct: bool = False, nonzero: bool = False):
    """Tuples (x_1..x_n), n = len(ks), with x_1^{k_1} + ... + x_{n-1}^{k_{n-1}}
    + w = gamma and x_n^{k_n} = w * inv (w when inv is None), over an exact
    field: the one scalar search.

    x_1..x_{n-1} are drawn depth first from ``candidates()``, each level a
    fresh call in the same order, and x_n is the first k_n-th root of what
    is left.  ``nonzero`` skips zero draws and zero roots; ``distinct``
    keeps the n terms x_i^{k_i} (the last one w) pairwise distinct.

    A remainder whose roots ``kth_roots`` cannot find (number fields)
    closes nothing: over a number field only a zero remainder closes.  The
    candidates there are rationals (both callers draw small integers), so
    every remainder keeps gamma's irrational part, and a gamma with one
    yields nothing without a draw.  What a subtree yields depends only on
    its depth, its remainder and the powers in use, so a state whose
    subtree yielded nothing is remembered for the life of the search and
    not walked again; the yields are those of the plain walk.  Each
    candidate power x^k is computed once per search, in ``pows``."""
    field = gamma.field
    if field.kind == "ext" and not field.is_finite and any(gamma.rep[1:]):
        return iter(())
    n, used, dead, pows = len(ks), set(), set(), {}

    def close(w):
        # the only root of zero is zero, and no other value has it
        if (nonzero and w.is_zero()) or (distinct and w.rep in used):
            return None
        try:
            roots = kth_roots(w if inv is None else w * inv, ks[-1])
        except Unsupported:  # number fields: only the root of zero is known
            return None
        return roots[0] if roots else None

    def walk(prefix, w):
        if len(prefix) == n - 1:
            last = close(w)
            if last is not None:
                yield prefix + (last,)
            return
        state = (len(prefix), w.rep, frozenset(used))
        if state in dead:
            return
        found = False
        k = ks[len(prefix)]
        for x in candidates():
            if nonzero and x.is_zero():
                continue
            p = pows.get((k, x.rep))
            if p is None:
                p = pows[k, x.rep] = x ** k
            if distinct:
                if p.rep in used:
                    continue
                used.add(p.rep)
            for sol in walk(prefix + (x,), w - p):
                found = True
                yield sol
            used.discard(p.rep)
        if not found:
            dead.add(state)

    return walk((), gamma)


def _regular_construct_analytic(field, k, n, gamma, require_nonzero):
    """Direct construction over R/C: distinct k-th powers summing to gamma."""
    if field.kind == "real" and k % 2 == 0:
        # powers must be distinct non-negatives summing to gamma
        g = gamma.rep
        if n == 1:
            if g < 0 or (require_nonzero and gamma.is_zero()):
                return None
            return (kth_roots(gamma, k)[0],)
        if g < 0 or gamma.is_zero():
            return None
        tot = n * (n + 1) // 2  # the weights 1..n
        return tuple(kth_roots(field(g * (i + 1) / tot), k)[0] for i in range(n))
    # every value is a k-th power: the first n - 1 powers on a grid, the
    # last one closing the sum
    if field.kind == "complex":
        grids = ([complex(i + 1 + shift * 0.5, 0.25) for i in range(n - 1)]
                 for shift in range(64))
    else:
        grids = ([(i + 1) * scale for i in range(n - 1)]
                 for scale in (1.0, 0.5, 0.25, 2.0, 0.125))
    for grid in grids:
        powers = [field(v) for v in grid]
        last = gamma - sum(powers, field.zero())
        if any(map(last.is_close, powers)) or (require_nonzero and last.is_zero()):
            continue
        return tuple(kth_roots(p, k)[0] for p in powers + [last])
    return None
