"""Classification of one op's outcome.

Every op ends in exactly one of three statuses:

* ``answered``: the library returned a result and the benchmark checked it
  (a witness that re-evaluates to the target, or a count or image that
  matches the benchmark's own oracle);
* ``negative``: the library answered ``NotFound``, ``Unsupported`` or
  ``NonzeroTrace`` on a target the benchmark cannot show reachable;
* ``failed``: anything else. The reason says which: ``bad_witness``
  (returned, but does not check), ``wrong_result`` (count or image differs
  from the oracle), ``verification_failed`` (the library's own gate
  refused), ``false_negative`` (a negative on a target known reachable),
  ``deadline`` (the op overran its deadline), ``crash:<type>`` (an
  exception outside ``WordmapError``) or ``error:<type>`` (any other
  ``WordmapError``).

Only ``bad_witness`` and ``wrong_result`` are wrong outputs; the other
failures are ops the library did not complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from wordmap.errors import (
    NonzeroTrace,
    NotFound,
    Unsupported,
    VerificationFailed,
    WordmapError,
)
from wordmap.words import eval_word

NEGATIVES = (NotFound, Unsupported, NonzeroTrace)
WRONG_OUTPUT = ("bad_witness", "wrong_result")


class DeadlineExceeded(BaseException):
    """Raised into an op that overran its deadline.

    It derives from BaseException so that no ``except Exception`` inside
    the library can swallow it."""


@dataclass(frozen=True)
class Outcome:
    status: str   # "answered" | "negative" | "failed"
    reason: str

    @property
    def wrong_output(self) -> bool:
        return self.reason in WRONG_OUTPUT


ANSWERED = Outcome("answered", "ok")
TRUE_NEGATIVE = Outcome("negative", "negative")


def matches(got, target) -> bool:
    """Exact equality on exact fields, entrywise within the field tolerance
    on R and C."""
    if got.nrows != target.nrows or got.ncols != target.ncols:
        return False
    field = target.field
    if field.is_exact:
        return got.field.key == field.key and got.rows == target.rows
    tol = field.tolerance
    return all(abs(a.rep - b.rep) <= tol
               for ra, rb in zip(got.rows, target.rows) for a, b in zip(ra, rb))


def witness_checks(word, target, matrices) -> bool:
    """Re-evaluate the word on the returned matrices and compare."""
    matrices = list(matrices)
    if len(matrices) != word.arity:
        return False
    try:
        got = eval_word(word, matrices)
    except Exception:  # a witness that cannot be evaluated does not check
        return False
    return matches(got, target)


def classify_error(error: BaseException, reachable) -> Outcome:
    """Outcome of an op that raised ``error``. ``reachable()`` says whether
    the benchmark can show the target reachable; it is only called for a
    negative answer, because on tiny cases it enumerates an image."""
    if isinstance(error, DeadlineExceeded):
        return Outcome("failed", "deadline")
    if isinstance(error, VerificationFailed):
        return Outcome("failed", "verification_failed")
    if isinstance(error, NEGATIVES):
        return Outcome("failed", "false_negative") if reachable() else TRUE_NEGATIVE
    if isinstance(error, WordmapError):
        return Outcome("failed", f"error:{type(error).__name__}")
    return Outcome("failed", f"crash:{type(error).__name__}")


def classify_witness(word, target, witness) -> Outcome:
    """Outcome of a solve that returned ``witness``."""
    if witness_checks(word, target, witness.matrices):
        return ANSWERED
    return Outcome("failed", "bad_witness")


def classify_value(ok: bool) -> Outcome:
    """Outcome of a count or image request compared with the oracle."""
    return ANSWERED if ok else Outcome("failed", "wrong_result")
