import dataclasses
import random

import pytest

import wordmap.commutators as commutators_mod
import wordmap.diagonal as diagonal_mod
import wordmap.fields as fields_mod
import wordmap.reduction as reduction_mod
from wordmap.commutators import (
    factor_two_trace_zero,
    solve_commutator_product,
    trace_zero_to_commutator,
)
from wordmap.diagonal import solve_diagonal_word
from wordmap.errors import UsageError, VerificationFailed
from wordmap.fields import Field
from wordmap.matrices import Matrix
from wordmap.polynomials import Poly
from wordmap.reduction import assemble, plan, solve_blockwise
from wordmap.words import DiagonalWord, eval_word

from oracles import random_invertible, random_matrix

F2 = Field("prime", p=2)
F5 = Field("prime", p=5)
F101 = Field("prime", p=101)
R = Field("real", tolerance=1e-9)


def test_plan_diagonal_no_extensions():
    A = Matrix.diagonal(F5, [1, 2])
    rp = plan(A)
    assert len(rp.blocks) == 2
    assert all(bp.field.key == F5.key for bp in rp.blocks)
    assert sorted(bp.alpha.rep for bp in rp.blocks) == [1, 2]


def test_plan_real_quadratic_goes_complex():
    A = Matrix.from_rows(R, [[0, -1, 1, 0], [1, 0, 0, 1],
                             [0, 0, 0, -1], [0, 0, 1, 0]])
    rp = plan(A)
    assert len(rp.blocks) == 1
    bp = rp.blocks[0]
    assert bp.field.kind == "complex"
    assert bp.size == 2
    assert abs(bp.alpha.rep - 1j) < 1e-6


def test_plan_f2_companion_goes_f4():
    A = Matrix.companion(Poly(F2, [1, 1, 1]))
    rp = plan(A)
    assert len(rp.blocks) == 1
    bp = rp.blocks[0]
    assert bp.field.cardinality == 4
    assert bp.size == 1
    alpha = bp.alpha
    assert (alpha * alpha + alpha + bp.field.one()).is_zero()


def test_assemble_returns_block_solutions_unverified():
    A = Matrix.diagonal(F5, [2])
    rp = plan(A)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rp.blocks[0].alpha = F5(3)
    # a wrong block solution comes back as it is: the public solve's gate
    # is the only check
    wrong = (Matrix.diagonal(F5, [0]), Matrix.diagonal(F5, [3]))
    mats, P = assemble(rp, [wrong])
    assert mats == wrong and P == rp.jordan.conjugator
    mats, _ = assemble(rp, [(Matrix.diagonal(F5, [1]), Matrix.diagonal(F5, [1]))])
    assert eval_word(DiagonalWord(((F5(1), 2), (F5(1), 2))), mats) == A
    with pytest.raises(UsageError):
        assemble(rp, [])
    with pytest.raises(UsageError):
        assemble(plan(Matrix.diagonal(F5, [1, 2])), [wrong, wrong[:1]])


def test_solve_blockwise_lifts_and_conjugates_back():
    # each block solved by its own Jordan block gives back the target: the
    # F_4 block of an F_2 target, an F_101 target with the quadratic factor
    # x^2 + 2 (an F_{101^2} block) next to J_{7,2}, and a random F_101 target
    rng = random.Random(8)
    for A, extension_blocks in (
            (Matrix.companion(Poly(F2, [1, 1, 1])), 1),
            (Matrix.block_diag(F101, [Matrix.companion(Poly(F101, [2, 0, 1])),
                                      Matrix.jordan_block(F101(7), 2)]), 1),
            (random_matrix(F101, 5, rng), None)):
        seen = []

        def block_solver(bp):
            seen.append(bp)
            return (Matrix.jordan_block(bp.alpha, bp.size),)
        (X,), P = solve_blockwise(A, block_solver)
        assert X == A
        rp = plan(A)
        assert P == rp.jordan.conjugator
        assert [(bp.poly, bp.size, bp.alpha) for bp in seen] == \
            [(bp.poly, bp.size, bp.alpha) for bp in rp.blocks]
        if extension_blocks is not None:
            assert sum(bp.field.key != A.field.key for bp in seen) == extension_blocks


def test_each_extension_factor_builds_its_field_once(monkeypatch):
    # S (J_{x^2+1,2} + J_{x^2+1,2} + C(x^2+1) + C(x^2+1)) S^-1 over F_3: four
    # blocks of one extension factor, so each solve builds F_9 once
    F3 = Field("prime", p=3)
    p = Poly(F3, [1, 0, 1])
    J = Matrix.block_diag(F3, [Matrix.generalized_jordan_block(p, l) for l in (2, 2, 1, 1)])
    S = random_invertible(F3, 12, random.Random(5))
    A = S * J * S.inverse()
    calls = []
    extend = fields_mod.extend

    def counting(base, modulus):
        calls.append(modulus)
        return extend(base, modulus)
    for module in (fields_mod, reduction_mod):
        monkeypatch.setattr(module, "extend", counting)
    pair = factor_two_trace_zero(A)
    assert pair.t1 * pair.t2 == A
    assert calls == [p]
    calls.clear()
    rp = plan(A)
    assert [bp.size for bp in rp.blocks] == [2, 2, 1, 1]
    assert calls == [p]


def test_single_gate_refuses_corrupted_block(monkeypatch):
    A = random_matrix(F101, 3, random.Random(4))
    word = DiagonalWord(((F101(1), 2), (F101(3), 3)))
    assert eval_word(word, solve_diagonal_word(A, word).matrices) == A
    calls = []

    def corrupted(bp, k1, beta, k2, seed):
        calls.append(bp)
        one = Matrix.identity(bp.field, bp.size)
        return one, one
    monkeypatch.setattr(diagonal_mod, "_solve_block", corrupted)
    with pytest.raises(VerificationFailed):
        solve_diagonal_word(A, word)
    assert calls


def test_single_gate_refuses_corrupted_commutator(monkeypatch):
    T = Matrix.from_rows(F101, [[1, 2, 3], [4, 5, 6], [7, 8, -6]])
    X, Y = trace_zero_to_commutator(T)
    assert X * Y - Y * X == T

    calls = []

    def corrupted(T):
        calls.append(T)
        n = T.nrows
        return Matrix.identity(T.field, n), Matrix.unit(T.field, n, 0, 1)
    monkeypatch.setattr(commutators_mod, "_zero_diag_commutator", corrupted)
    with pytest.raises(VerificationFailed):
        trace_zero_to_commutator(T)
    assert calls == [T]
    with pytest.raises(VerificationFailed):
        solve_commutator_product(T, 2)
    assert len(calls) == 2


def test_round_trip_property_f101():
    rng = random.Random(55)
    word = DiagonalWord(((F101(1), 2), (F101(3), 3)))
    solved = 0
    for _ in range(100):
        n = rng.randrange(2, 7)
        A = random_matrix(F101, n, rng)
        w = solve_diagonal_word(A, word, seed=1)
        assert eval_word(word, w.matrices) == A
        solved += 1
    assert solved == 100


def test_two_diagonal_blocks_f5():
    word = DiagonalWord(((F5(1), 2), (F5(1), 2)))
    A = Matrix.diagonal(F5, [1, 4])
    w = solve_diagonal_word(A, word)
    assert eval_word(word, w.matrices) == A
