"""Outcome classification on hand-built witnesses and negatives."""

from wmbench.outcome import (
    DeadlineExceeded,
    classify_error,
    classify_value,
    classify_witness,
    matches,
)

from wordmap import Field, Matrix
from wordmap.errors import NonzeroTrace, NotFound, UsageError, VerificationFailed
from wordmap.words import CommutatorProduct, Witness

F5 = Field("prime", p=5)


def _good_witness():
    # [X, Y] = XY - YX with X = E12, Y = E21 gives diag(1, -1)
    X = Matrix.from_rows(F5, [[0, 1], [0, 0]])
    Y = Matrix.from_rows(F5, [[0, 0], [1, 0]])
    target = Matrix.from_rows(F5, [[1, 0], [0, 4]])
    word = CommutatorProduct(2)
    return word, target, Witness(word, target, (X, Y))


def yes():
    return True


def no():
    return False


def test_good_witness_is_answered():
    word, target, witness = _good_witness()
    out = classify_witness(word, target, witness)
    assert (out.status, out.reason) == ("answered", "ok")
    assert not out.wrong_output


def test_bad_witness_is_a_wrong_output():
    word, target, witness = _good_witness()
    X, Y = witness.matrices
    bad = Witness(word, target, (X, X))
    out = classify_witness(word, target, bad)
    assert (out.status, out.reason) == ("failed", "bad_witness")
    assert out.wrong_output
    short = Witness(word, target, (X,))
    assert classify_witness(word, target, short).reason == "bad_witness"


def test_true_negative_counts_as_negative():
    out = classify_error(NonzeroTrace("trace 1"), no)
    assert (out.status, out.reason) == ("negative", "negative")


def test_false_negative_on_a_reachable_target_fails():
    out = classify_error(NotFound("search exhausted"), yes)
    assert (out.status, out.reason) == ("failed", "false_negative")
    assert not out.wrong_output


def test_reachability_is_only_asked_for_negatives():
    def boom():
        raise AssertionError("reachable() must not be called")

    assert classify_error(VerificationFailed("x"), boom).reason == "verification_failed"
    assert classify_error(DeadlineExceeded(), boom).reason == "deadline"
    assert classify_error(IndexError("ns[0]"), boom).reason == "crash:IndexError"
    assert classify_error(UsageError("bad"), boom).reason == "error:UsageError"


def test_value_checks():
    assert classify_value(True).status == "answered"
    out = classify_value(False)
    assert out.reason == "wrong_result" and out.wrong_output


def test_approximate_fields_compare_within_tolerance():
    R = Field("real", tolerance=1e-9)
    A = Matrix.from_rows(R, [[1.0, 2.0], [3.0, 4.0]])
    close = Matrix.from_rows(R, [[1.0 + 5e-10, 2.0], [3.0, 4.0]])
    far = Matrix.from_rows(R, [[1.0 + 5e-9, 2.0], [3.0, 4.0]])
    assert matches(close, A)
    assert not matches(far, A)
    assert not matches(Matrix.from_rows(F5, [[1]]), Matrix.from_rows(F5, [[1, 0], [0, 1]]))
