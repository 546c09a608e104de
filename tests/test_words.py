import random
import sys

import pytest

import wordmap.words as words_mod
from wordmap.commutators import (
    factor_two_trace_zero,
    solve_commutator_product,
    trace_zero_to_commutator,
)
from wordmap.counting import count_solutions, image_enumerate, threshold
from wordmap.diagonal import solve_diagonal_word
from wordmap.errors import UsageError, VerificationFailed
from wordmap.fields import Field
from wordmap.matrices import Matrix, charpoly, nilpotent_partition
from wordmap.words import (
    CommutatorProduct,
    DiagonalWord,
    eval_word,
    make_witness,
    parse_word,
)

from oracles import random_matrix

F2 = Field("prime", p=2)
F5 = Field("prime", p=5)
F101 = Field("prime", p=101)
Q = Field("rationals")
R = Field("real", tolerance=1e-9)


def test_parse_comm():
    w = parse_word("comm:m=4", F5)
    assert isinstance(w, CommutatorProduct) and w.m == 4
    with pytest.raises(UsageError):
        parse_word("comm:m=3", F5)
    with pytest.raises(UsageError):
        parse_word("comm:m=0", F5)
    with pytest.raises(UsageError, match="bad commutator word spec 'comm:x=4'"):
        parse_word("comm:x=4", F5)
    with pytest.raises(UsageError, match="bad m in 'comm:m=abc'"):
        parse_word("comm:m=abc", F5)


def test_parse_diag():
    w = parse_word("diag:d=1,k=2;d=3,k=5", F5)
    assert isinstance(w, DiagonalWord)
    assert [(d.rep, k) for d, k in w.terms] == [(1, 2), (3, 5)]
    wq = parse_word("diag:d=1/2,k=2", Q)
    assert str(wq.terms[0][0].rep) == "1/2"
    with pytest.raises(UsageError):
        parse_word("diag:d=0,k=2", F5)
    with pytest.raises(UsageError):
        parse_word("diag:k=2", F5)
    with pytest.raises(UsageError):
        parse_word("nonsense", F5)


F4 = Field("ext", modulus=(1, 1, 1), base=F2)


def _operands():
    rng = random.Random(5)
    return {"A": random_matrix(F5, 2, rng), "B": random_matrix(F5, 2, rng),
            "C3": random_matrix(F5, 3, rng), "W23": Matrix.zeros(F5, 2, 3),
            "W32": Matrix.zeros(F5, 3, 2), "G": random_matrix(F101, 2, rng), "s": "s"}


@pytest.mark.parametrize("names,error", [
    ("A s", "UsageError: expected a Matrix operand, got str"),
    ("A C3", "UsageError: matrix dimensions do not match"),
    ("W23 W32", "UsageError: matrix dimensions do not match"),
    ("A G", "DescriptorMismatch: matrices over different fields"),
    ("A B G G", "DescriptorMismatch: matrices over different fields"),
    ("A B C3 C3", "UsageError: matrix dimensions do not match"),
    ("A B C3 G", "DescriptorMismatch: matrices over different fields"),
    ("A B s A", "UsageError: expected a Matrix operand, got str"),
])
def test_commutator_words_refuse_operands_as_products_do(names, error):
    """The commutator chain refuses its operands with the error that
    evaluating X*Y - Y*X and the running product one by one raises first."""
    mats = [_operands()[name] for name in names.split()]
    with pytest.raises(Exception) as info:
        eval_word(CommutatorProduct(len(mats)), mats)
    assert f"{type(info.value).__name__}: {info.value}" == error


@pytest.mark.parametrize("spec,field", [
    ("diag:d=x,k=2", F5), ("diag:d=abc,k=2", R), ("diag:d=[1|x],k=2", F4),
    ("diag:d=[1,x],k=2", F4), ("diag:d=[1|1,k=2", F4), ("diag:d=1,k=2,z=5", F5),
    ("diag:d=1,d=2,k=2", F5), ("diag:d=,k=2", F5), ("diag:d=1,k", F5),
    ("diag:d=1.5,k=2", F5), ("diag:d=1,k=2.0", F5), ("diag:d=x,k=2", Q),
    ("diag:d=1,k=0", F5),
], ids=lambda v: v if isinstance(v, str) else repr(v))
def test_parse_diag_refuses_every_malformed_term(spec, field):
    with pytest.raises(UsageError):
        parse_word(spec, field)


def test_parse_diag_reads_coefficient_lists_and_spaces():
    w = parse_word("diag: d = [1|1] , k = 2 ; d=1,k=3", F4)
    assert [(d.rep, k) for d, k in w.terms] == [((1, 1), 2), ((1, 0), 3)]


def test_parse_diag_reads_the_literals_the_field_reads():
    """A coefficient over Q, R and C is what ``field(text)`` reads, as
    ``--gamma`` is: over C a complex literal among them."""
    C = Field("complex", tolerance=1e-9)
    w = parse_word("diag:d=1+2j,k=2;d= 2j ,k=3", C)
    assert [(d.rep, k) for d, k in w.terms] == [(1 + 2j, 2), (2j, 3)]
    assert parse_word("diag:d=1e3,k=2", R).terms[0][0].rep == 1000.0
    with pytest.raises(UsageError, match="not a real number: '1/2'"):
        parse_word("diag:d=1/2,k=2", R)


def test_wrong_typed_arguments_raise_usage_errors():
    A = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    calls = [
        lambda: CommutatorProduct("4"), lambda: CommutatorProduct(True),
        lambda: solve_commutator_product(A, 4.0), lambda: solve_commutator_product(A, True),
        lambda: solve_diagonal_word(A, "diag:d=1,k=2;d=1,k=3"),
        lambda: solve_diagonal_word(A, CommutatorProduct(4)),
        lambda: DiagonalWord(((F5(1), 2.0),)), lambda: DiagonalWord(((F5(1), True),)),
        lambda: DiagonalWord(((1, 2),)), lambda: DiagonalWord("ab"),
        lambda: DiagonalWord([(F5(1), 2)]),
        lambda: image_enumerate("comm:m=2", 2, F5),
        lambda: count_solutions(F5, [1], [2.0], 1), lambda: threshold("2", 3),
        lambda: threshold(2, False),
    ]
    for call in calls:
        with pytest.raises(UsageError):
            call()


WRONG_TYPED = {
    "diag-target-list": lambda: solve_diagonal_word(
        [[1, 2], [3, 4]], DiagonalWord(((F5(1), 2), (F5(1), 3)))),
    "comm-target-str": lambda: solve_commutator_product("A", 4),
    "two-trace-zero-None": lambda: factor_two_trace_zero(None),
    "commutator-target-int": lambda: trace_zero_to_commutator(3),
    "count-cap-str": lambda: count_solutions(F5, [1], [2], 1, cap="x"),
    "image-cap-float": lambda: image_enumerate(CommutatorProduct(2), 2, F5, cap=1e8),
    "charpoly-rows": lambda: charpoly([[1, 2], [3, 4]]),
    "partition-tuple": lambda: nilpotent_partition(((0, 1), (0, 0))),
}


@pytest.mark.parametrize("call", list(WRONG_TYPED.values()), ids=list(WRONG_TYPED))
def test_wrong_typed_targets_and_caps_raise_usage_errors(call):
    """A target that is not a Matrix, given to a public solver or to a
    public matrix function, and a cap that is not an int are usage errors,
    not AttributeError or TypeError from deep inside."""
    with pytest.raises(UsageError):
        call()


def test_eval_comm_product():
    X = Matrix.from_rows(F5, [[0, 1], [0, 0]])
    Y = Matrix.from_rows(F5, [[0, 0], [1, 0]])
    got = eval_word(CommutatorProduct(2), [X, Y])
    assert got == X * Y - Y * X


def test_eval_diag():
    word = DiagonalWord(((F5(2), 2), (F5(3), 1)))
    X = Matrix.diagonal(F5, [1, 2])
    Y = Matrix.diagonal(F5, [3, 4])
    got = eval_word(word, [X, Y])
    assert got == (X * X).scale(F5(2)) + Y.scale(F5(3))
    with pytest.raises(UsageError):
        eval_word(word, [X])


def test_make_witness_refuses_mismatch():
    word = DiagonalWord(((F5(1), 2),))
    X = Matrix.diagonal(F5, [2])
    with pytest.raises(VerificationFailed):
        make_witness(word, Matrix.diagonal(F5, [3]), [X])
    w = make_witness(word, Matrix.diagonal(F5, [4]), [X])
    assert w.matrices == (X,) and w.target == Matrix.diagonal(F5, [4])


def test_word_spec_round_trip():
    for spec in ("comm:m=2", "comm:m=6"):
        assert parse_word(spec, F5).spec_string() == spec


def _diag_case(field, spec, rows):
    return lambda: solve_diagonal_word(Matrix.from_rows(field, rows),
                                       parse_word(spec, field), seed=0)


def _comm_case(m, n, seed):
    A = random_matrix(F101, n, random.Random(seed))
    if m == 2:  # the image of one commutator is trace zero
        A = A - Matrix.unit(F101, n, n - 1, n - 1).scale(A.trace())
    return lambda: solve_commutator_product(A, m, seed=0)


# route -> solve: each public solve must evaluate its word exactly once
ONE_EVALUATION = {
    "jordan": lambda: solve_diagonal_word(
        random_matrix(F101, 4, random.Random(3)),
        parse_word("diag:d=1,k=2;d=3,k=3", F101), seed=0),
    "exhaustive-F2": _diag_case(F2, "diag:d=1,k=3;d=1,k=3", [[0, 1], [1, 1]]),
    "m=1-root": _diag_case(F101, "diag:d=1,k=2", [[4, 1], [0, 4]]),
    "k=1-absorb": _diag_case(F5, "diag:d=1,k=2;d=2,k=1", [[1, 2], [3, 4]]),
    "R-even-even": _diag_case(R, "diag:d=1,k=2;d=1,k=2",
                              [[1, 1, 0], [0, 2, 1], [0, 0, 3]]),
    "comm:m=2": _comm_case(2, 4, 5),
    "comm:m=4": _comm_case(4, 4, 6),
    "comm:m=6": _comm_case(6, 3, 7),
}


@pytest.mark.parametrize("solve", list(ONE_EVALUATION.values()), ids=list(ONE_EVALUATION))
def test_each_public_solve_evaluates_its_word_once(monkeypatch, solve):
    calls = {"make_witness": 0, "eval_word": 0}

    def counted(name):
        inner = getattr(words_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    # solvers import these by name, so rebind every module-level reference
    for name in calls:
        original, wrapper = getattr(words_mod, name), counted(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("wordmap") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    w = solve()
    assert eval_word(w.word, w.matrices).allclose(w.target)
    assert calls == {"make_witness": 1, "eval_word": 1}


@pytest.mark.parametrize("seed", ["x", 1.5, True])
@pytest.mark.parametrize("solve", [
    lambda A, seed: solve_diagonal_word(A, DiagonalWord(((F5(1), 2), (F5(1), 3))), seed=seed),
    lambda A, seed: solve_commutator_product(A, 4, seed=seed),
    lambda A, seed: trace_zero_to_commutator(A, seed=seed),
    lambda A, seed: factor_two_trace_zero(A, seed=seed),
], ids=["solve_diagonal_word", "solve_commutator_product", "trace_zero_to_commutator",
        "factor_two_trace_zero"])
def test_public_solves_refuse_a_seed_that_is_not_an_int(solve, seed):
    A = Matrix.from_rows(F5, [[1, 2], [3, 4]])  # trace 0 over F_5
    solve(A, 0)
    with pytest.raises(UsageError, match="seed must be an integer"):
        solve(A, seed)
