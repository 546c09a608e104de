"""Seeded op streams for the four workloads.

A workload is a list of strata (field, size, word, target kind). The stream
walks the strata in cycles, each cycle in a fresh seeded order, and draws a
new random instance for every op, so every prefix of the stream has close to
the same mix and only the drawn matrices differ between seeds. The library
receives only the generated fields, words and matrices.

Uniform targets in M_n(F_p) with at most ``CLASS_SAMPLED_MAX`` matrices are
drawn by ``ClassSampler``: each draw is still uniform over M_n(F_p), but the
draws of one stratum are spread evenly over the similarity classes across
cycles. How long a solve takes there, and whether it falls back to the
exhaustive search, depends on the target's class alone, so this keeps the
number of such solves in a run close to its expected share instead of
varying from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable

from wordmap import parse_field_spec
from wordmap.errors import SingularMatrix, WordmapError
from wordmap.fields import enumerate_elements
from wordmap.matrices import Matrix
from wordmap.words import CommutatorProduct, DiagonalWord, eval_word, parse_word

from .outcome import (
    TRUE_NEGATIVE,
    Outcome,
    classify_value,
    classify_witness,
    matches,
    witness_checks,
)
from .specs import WORKLOADS

# Library entry points are looked up on their modules at call time, so a
# tracer that rebinds them sees every call the benchmark makes.
cli = importlib.import_module("wordmap.cli")
commutators = importlib.import_module("wordmap.commutators")
counting = importlib.import_module("wordmap.counting")
diagonal = importlib.import_module("wordmap.diagonal")

SOLVE_SEED = 0


@dataclass
class Op:
    stratum: str
    call: Callable[[], object]          # the timed library call
    judge: Callable[[object], Outcome]  # checks what the call returned
    reachable: Callable[[], bool]       # consulted only when the call gave a negative


def _never() -> bool:
    return False


def _always() -> bool:
    return True


# ----------------------------------------------------------------------
# random inputs
# ----------------------------------------------------------------------

def finite_entry(field):
    if field.kind == "prime":
        return lambda rng: field(rng.randrange(field.p))
    p, d = field.base.p, field.degree
    return lambda rng: field([rng.randrange(p) for _ in range(d)])


def rational_entry(field):
    return lambda rng: field(rng.randint(-9, 9))


def log_uniform(rng) -> float:
    """Magnitude log-uniform over 1e-2..1e4."""
    return 10.0 ** rng.uniform(-2.0, 4.0)


def real_entry(field):
    return lambda rng: field(rng.choice((-1.0, 1.0)) * log_uniform(rng))


def complex_entry(field):
    def draw(rng):
        r, theta = log_uniform(rng), rng.uniform(0.0, 2.0 * math.pi)
        return field(complex(r * math.cos(theta), r * math.sin(theta)))
    return draw


def entry_sampler(field):
    if field.is_finite:
        return finite_entry(field)
    return {"rationals": rational_entry, "real": real_entry,
            "complex": complex_entry}[field.kind](field)


def random_matrix(field, n, rng, entry):
    return Matrix(field, [[entry(rng) for _ in range(n)] for _ in range(n)])


def trace_zero(A):
    """A with its last diagonal entry shifted so the trace vanishes."""
    rows = [list(r) for r in A.rows]
    rows[-1][-1] = rows[-1][-1] - A.trace()
    return Matrix(A.field, rows)


class StreamRandom(random.Random):
    """A stream's generator. It also knows which cycle over the strata the
    stream is in, so that a stratum can spread its draws over cycles."""

    # frac(k * GOLDEN) fills [0, 1) evenly for k = 0, 1, 2, ...
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, label: str):
        super().__init__(label)
        self.label = label
        self.cycle = 0

    def spread(self, key: str) -> float:
        """A point in [0, 1) for stratum ``key`` in the current cycle: the
        cycle-th point of a Weyl sequence whose start is random and fixed by
        the stream label and the key. Each point on its own is uniform; the
        points of the first k cycles cover [0, 1) with a discrepancy of
        order log(k) / k."""
        start = random.Random(f"{self.label}/{key}").random()
        return (start + self.cycle * self.GOLDEN) % 1.0


CLASS_SAMPLED_MAX = 20000


def _minpoly_degree(rows, p: int) -> int:
    """Degree of the minimal polynomial of an n x n matrix (n <= 3) of ints
    mod p: 1 if scalar, else 2 if A^2 = x A + y I for some x, y, else 3."""
    n = len(rows)
    off = [(i, j) for i in range(n) for j in range(n) if i != j and rows[i][j]]
    if not off:
        return len({rows[i][i] for i in range(n)})
    if n == 2:
        return 2
    sq = [[sum(rows[i][k] * rows[k][j] for k in range(n)) % p for j in range(n)]
          for i in range(n)]
    i, j = off[0]
    x = sq[i][j] * pow(rows[i][j], p - 2, p) % p
    y = (sq[i][i] - x * rows[i][i]) % p
    fits = all((sq[r][c] - x * rows[r][c] - (y if r == c else 0)) % p == 0
               for r in range(n) for c in range(n))
    return 2 if fits else 3


def class_key(flat, n: int, p: int) -> tuple:
    """Similarity class of a matrix over F_p, n <= 3: the characteristic
    polynomial's coefficients and the minimal polynomial's degree, which
    together determine the class for n <= 3."""
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    trace = sum(rows[i][i] for i in range(n)) % p
    if n == 2:
        return trace, (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % p, \
            _minpoly_degree(rows, p)
    minors = sum(rows[i][i] * rows[j][j] - rows[i][j] * rows[j][i]
                 for i, j in ((0, 1), (0, 2), (1, 2))) % p
    det = sum(rows[0][c] * (rows[1][(c + 1) % 3] * rows[2][(c + 2) % 3]
                            - rows[1][(c + 2) % 3] * rows[2][(c + 1) % 3])
              for c in range(3)) % p
    return trace, minors, det, _minpoly_degree(rows, p)


def _flat(index: int, n: int, p: int) -> tuple:
    """The matrix whose entries are the base-p digits of ``index``."""
    return tuple(index // p ** k % p for k in range(n * n))


@functools.lru_cache(maxsize=None)
def _by_class(p: int, n: int) -> array:
    """The index of every matrix of M_n(F_p), grouped by class. Kept as
    plain ints throughout, so that building it adds little to peak RSS."""
    size, base = p ** (n * n), max(p, n) + 1  # every key part is below base
    codes = []
    for i in range(size):
        key = 0
        for part in class_key(_flat(i, n, p), n, p):
            key = key * base + part
        codes.append(key * size + i)
    codes.sort()
    return array("l", (c % size for c in codes))


class ClassSampler:
    """Uniform targets in M_n(F_p) for one stratum, spread evenly over the
    similarity classes across cycles (see the module docstring)."""

    def __init__(self, field, n: int, key: str):
        self.field, self.n, self.key = field, n, key

    @staticmethod
    def applies(field, n: int) -> bool:
        return (field.kind == "prime" and n <= 3
                and field.p ** (n * n) <= CLASS_SAMPLED_MAX)

    def __call__(self, rng: StreamRandom):
        n, F = self.n, self.field
        population = _by_class(F.p, n)
        flat = _flat(population[int(rng.spread(self.key) * len(population))], n, F.p)
        return Matrix(F, [[F(v) for v in flat[i * n:(i + 1) * n]] for i in range(n)])


def nonzero_element(field, rng, entry):
    while True:
        x = entry(rng)
        if not x.is_zero():
            return x


# ----------------------------------------------------------------------
# oracles for counts and images (computed outside the timed call)
# ----------------------------------------------------------------------

def count_oracle(field, coeffs, exps, gamma) -> int:
    """Direct enumeration of F_q^2 for sum d_i x_i^{k_i} = gamma."""
    (d1, d2), (k1, k2) = coeffs, exps
    elems = list(enumerate_elements(field))
    first = [d1 * x ** k1 for x in elems]
    second = [d2 * y ** k2 for y in elems]
    return sum(1 for a in first for b in second if a + b == gamma)


def _mul2(a, b, p):
    return ((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p)


def _pow2(a, k, p):
    out = (1, 0, 0, 1)
    for _ in range(k):
        out = _mul2(out, a, p)
    return out


def image_size_oracle(p: int, word) -> int:
    """Size of the image of ``word`` on M_2(F_p), from laws or enumeration."""
    if isinstance(word, CommutatorProduct):
        # trace-zero law for one commutator; surjective for m >= 4
        return p ** 3 if word.m == 2 else p ** 4
    (d1, k1), (d2, k2) = word.terms
    c1, c2 = d1.rep, d2.rep
    mats = list(itertools.product(range(p), repeat=4))
    first = {tuple(c1 * x % p for x in _pow2(m, k1, p)) for m in mats}
    second = {tuple(c2 * x % p for x in _pow2(m, k2, p)) for m in mats}
    return len({tuple((x + y) % p for x, y in zip(a, b)) for a in first for b in second})


class ImageMembership:
    """Reachability on tiny cases from ``image_enumerate``, computed once
    per (field, n, word) and only when an op there returns a negative."""

    def __init__(self):
        self._cache = {}

    def contains(self, word, n, target) -> bool:
        key = (target.field.key, n, word.spec_string())
        got = self._cache.get(key)
        if got is None:
            summary = counting.image_enumerate(word, n, target.field)
            complete = summary.size + len(summary.missing) == summary.total
            got = (summary.surjective, complete, set(summary.missing))
            self._cache[key] = got
        surjective, complete, missing = got
        return surjective or (complete and target not in missing)


def tiny(field, n) -> bool:
    """Cases small enough for image_enumerate to decide reachability."""
    q = field.cardinality
    return (n == 2 and q is not None and q <= 5) or (n == 3 and q == 2)


# ----------------------------------------------------------------------
# op builders
# ----------------------------------------------------------------------

def nilpotent_target(field, n, rng, entry):
    """S J_{0,n} S^-1 for a random invertible S: one nilpotent Jordan block."""
    while True:
        S = random_matrix(field, n, rng, entry)
        try:
            S_inv = S.inverse()
        except SingularMatrix:
            continue
        return S * Matrix.jordan_block(field.zero(), n) * S_inv


def diag_op(field, n, k1, k2, beta, kind, rng, entry, membership=None,
            uniform=None) -> Op:
    """kind: "uniform", "planted" (X^k1 + beta Y^k2 of random X, Y) or
    "nilpotent". ``uniform(rng)``, when given, draws the uniform target."""
    word = DiagonalWord(((field.one(), k1), (beta, k2)))
    reachable = _never
    if kind == "planted":
        A = eval_word(word, [random_matrix(field, n, rng, entry),
                             random_matrix(field, n, rng, entry)])
        reachable = _always
    elif kind == "nilpotent":
        A = nilpotent_target(field, n, rng, entry)
    else:
        A = uniform(rng) if uniform else random_matrix(field, n, rng, entry)
        if membership is not None and tiny(field, n):
            reachable = lambda: membership.contains(word, n, A)
    return Op(f"{field} n={n} diag({k1},{k2}) {kind}",
              lambda: diagonal.solve_diagonal_word(A, word, seed=SOLVE_SEED),
              lambda w: classify_witness(word, A, w), reachable)


def comm_op(field, n, m, rng, entry, traceless=False, uniform=None) -> Op:
    word = CommutatorProduct(m)
    A = uniform(rng) if uniform else random_matrix(field, n, rng, entry)
    if traceless:
        A = trace_zero(A)
    # m >= 4 reaches every n >= 2 matrix; m = 2 reaches exactly trace zero
    reachable = _always if (m >= 4 and n >= 2) or A.trace().is_zero() else _never
    return Op(f"{field} n={n} comm:m={m}{' trace-zero' if traceless else ''}",
              lambda: commutators.solve_commutator_product(A, m, seed=SOLVE_SEED),
              lambda w: classify_witness(word, A, w), reachable)


def trace_zero_pair_op(field, n, rng, entry) -> Op:
    A = random_matrix(field, n, rng, entry)

    def judge(pair):
        t1, t2 = pair
        return classify_value(t1.trace().is_zero() and t2.trace().is_zero()
                              and matches(t1 * t2, A))
    return Op(f"{field} n={n} factor_two_trace_zero",
              lambda: commutators.factor_two_trace_zero(A, seed=SOLVE_SEED),
              judge, _never)


def count_op(field, k1, k2, rng, entry) -> Op:
    gamma = entry(rng)
    one = field.one()

    def judge(report):
        want = count_oracle(field, (one, one), (k1, k2), gamma)
        return classify_value(report.count == want
                              and report.expected == field.cardinality)
    return Op(f"{field} count({k1},{k2})",
              lambda: counting.count_solutions(field, [one, one], [k1, k2], gamma),
              judge, _never)


def image_op(field, word) -> Op:
    p = field.p
    want = image_size_oracle(p, word)

    def judge(summary):
        total = p ** 4
        return classify_value(summary.size == want and summary.total == total
                              and len(summary.missing) == min(10, total - want))
    return Op(f"{field} image {word.spec_string()}",
              lambda: counting.image_enumerate(word, 2, field),
              judge, _never)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_solve_op(spec, wspec, n, rng, membership) -> Op:
    field = parse_field_spec(spec)
    word = parse_word(wspec, field)
    A = random_matrix(field, n, rng, entry_sampler(field))
    matrix_arg = json.dumps(cli.matrix_to_json(A))

    def call():
        code, out = run_cli(["solve", "--field", spec, "--word", wspec,
                             "--matrix", matrix_arg, "--seed", str(SOLVE_SEED)])
        if code != 0:
            return code, out, None
        return code, out, run_cli(["verify", "--witness", out])[0]

    if isinstance(word, CommutatorProduct):
        reachable = _always if word.m >= 4 or A.trace().is_zero() else _never
    elif tiny(field, n):
        reachable = lambda: membership.contains(word, n, A)
    else:
        reachable = _never

    def judge(result):
        code, out, verify_code = result
        if code == 2:  # the CLI's exit code for a negative answer
            return Outcome("failed", "false_negative") if reachable() else TRUE_NEGATIVE
        if code != 0 or verify_code != 0:
            return Outcome("failed", f"cli_exit:{code}/{verify_code}")
        try:
            mats = [cli.matrix_from_json(obj, field) for obj in json.loads(out)["witnesses"]]
        except (ValueError, KeyError, WordmapError):  # unreadable output is wrong
            return classify_value(False)
        return classify_value(witness_checks(word, A, mats))
    return Op(f"cli solve {spec} n={n} {wspec}", call, judge, reachable)


def cli_count_op(spec, k1, k2, rng) -> Op:
    field = parse_field_spec(spec)
    gamma_arg = str(rng.randrange(field.p))  # the CLI reads gamma as an integer
    gamma = field(int(gamma_arg))
    wspec = f"diag:d=1,k={k1};d=1,k={k2}"

    def judge(result):
        code, out = result
        lines = out.splitlines()
        if code != 0 or len(lines) != 2 or lines[0] != counting.CSV_HEADER:
            return Outcome("failed", f"cli_exit:{code}")
        want = count_oracle(field, (field.one(), field.one()), (k1, k2), gamma)
        # S is fourth from the end: tower elements print as "[a,b]", so the
        # delta and gamma columns may themselves contain commas
        return classify_value(lines[1].split(",")[-4] == str(want))
    return Op(f"cli count {spec} {wspec}",
              lambda: run_cli(["count", "--field", spec, "--word", wspec,
                               "--gamma", gamma_arg, "--out", "csv"]),
              judge, _never)


def cli_image_op(spec, wspec) -> Op:
    field = parse_field_spec(spec)
    want = image_size_oracle(field.p, parse_word(wspec, field))

    def judge(result):
        code, out = result
        if code != 0:
            return Outcome("failed", f"cli_exit:{code}")
        try:
            size = json.loads(out)["image_size"]
        except (ValueError, KeyError):  # unreadable output is wrong
            size = None
        return classify_value(size == want)
    return Op(f"cli enumerate-image {spec} {wspec}",
              lambda: run_cli(["enumerate-image", "--field", spec, "--word", wspec,
                               "--n", "2"]),
              judge, _never)


# ----------------------------------------------------------------------
# the four workloads
# ----------------------------------------------------------------------

class Workload:
    def __init__(self, name: str):
        self.name = name
        self.spec = WORKLOADS[name]
        self.fields = [parse_field_spec(s) for s in self.spec["fields"]]
        self.membership = ImageMembership()
        self.strata = getattr(self, "_strata_" + name.replace("-", "_"))()

    def stream(self, label: str):
        """Endless stream of ops; the same label gives the same ops."""
        rng = StreamRandom(f"{self.name}/{label}")
        while True:
            order = list(self.strata)
            rng.shuffle(order)
            for make in order:
                yield make(rng)
            rng.cycle += 1

    def _strata_diag_f101(self):
        F = self.fields[0]
        entry = finite_entry(F)

        def make(k1, k2, n, kind):
            return lambda rng: diag_op(F, n, k1, k2, nonzero_element(F, rng, entry),
                                       kind, rng, entry)
        # Uniform and planted targets almost never have a nilpotent Jordan
        # block, so nilpotent targets are added to reach the large (n >=
        # 2*k1) and small (bordered) nilpotent constructions.
        return [make(k1, k2, n, kind)
                for k1, k2 in ((2, 2), (2, 3), (3, 3))
                for n in range(2, 9) for kind in ("uniform", "planted", "nilpotent")]

    def _strata_comm_f101(self):
        F = self.fields[0]
        entry = finite_entry(F)

        def make(m, n):
            return lambda rng: comm_op(F, n, m, rng, entry, traceless=(m == 2))
        strata = [make(m, n) for m in (2, 4, 6) for n in range(4, 13)]
        # the public two-factor step, which the solver itself bypasses
        strata += [lambda rng, n=n: trace_zero_pair_op(F, n, rng, entry)
                   for n in range(4, 13)]
        return strata

    def _strata_small_fields(self):
        mem = self.membership
        strata = []
        for F in self.fields:
            entry = finite_entry(F)
            one = F.one()
            for n in (2, 3):
                def uniform(key, F=F, n=n):
                    return ClassSampler(F, n, key) if ClassSampler.applies(F, n) else None
                for k2 in (2, 3):
                    u = uniform(f"{F} n={n} diag(2,{k2})")
                    strata.append(lambda rng, F=F, n=n, k2=k2, e=entry, one=one, u=u:
                                  diag_op(F, n, 2, k2, one, "uniform", rng, e, mem, u))
                for m in (2, 4):
                    u = uniform(f"{F} n={n} comm:m={m}")
                    strata.append(lambda rng, F=F, n=n, m=m, e=entry, u=u:
                                  comm_op(F, n, m, rng, e, uniform=u))
            for k2 in (2, 3):
                strata.append(lambda rng, F=F, k2=k2, e=entry: count_op(F, 2, k2, rng, e))
        F2, F3 = self.fields[0], self.fields[1]
        for word in (CommutatorProduct(2), CommutatorProduct(4)):
            strata.append(lambda rng, w=word: image_op(F2, w))
        for F in (F2, F3):
            for k2 in (2, 3):
                word = DiagonalWord(((F.one(), 2), (F.one(), k2)))
                strata.append(lambda rng, F=F, w=word: image_op(F, w))
        f4, f9 = self.spec["fields"][4], self.spec["fields"][5]
        for spec, wspec, n in (("Fp:5", "diag:d=1,k=2;d=1,k=2", 2),
                               ("Fp:7", "diag:d=1,k=2;d=1,k=3", 3),
                               (f9, "comm:m=4", 2),
                               (f4, "comm:m=4", 3)):
            strata.append(lambda rng, s=spec, w=wspec, n=n: cli_solve_op(s, w, n, rng, mem))
        for spec in ("Fp:7", f9):
            strata.append(lambda rng, s=spec: cli_count_op(s, 2, 3, rng))
        strata.append(lambda rng: cli_image_op("Fp:2", "comm:m=2"))
        return strata

    def _strata_char0(self):
        Q, R, C = self.fields
        strata = []
        for n in range(2, 9):
            qe = rational_entry(Q)
            strata.append(lambda rng, n=n: comm_op(Q, n, 4, rng, qe))
            strata.append(lambda rng, n=n: diag_op(
                Q, n, 2, 2, Q(rng.choice((1, 2, 3, -1, -2, -3))), "planted", rng,
                lambda r: Q(r.randint(-3, 3))))
            # R and C strata appear twice per cycle: their outcome depends on
            # the drawn magnitudes, which span six decades. This also keeps
            # the slowest Q strata (n = 7, 8) under 5% of the ops, so that p95
            # falls among many strata rather than on the edge of one.
            for F in (R, C, R, C):
                e = entry_sampler(F)
                strata.append(lambda rng, F=F, n=n, e=e: diag_op(F, n, 2, 3, F.one(),
                                                                 "uniform", rng, e))
                strata.append(lambda rng, F=F, n=n, e=e: comm_op(F, n, 4, rng, e))
        return strata
