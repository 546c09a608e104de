"""Word specifications, evaluation, and the witness record.

Grammar used by the CLI and JSON formats:

  comm:m=4                      product of m/2 commutators (m even)
  diag:d=1,k=2;d=3,k=5          diagonal word sum(d_i * X_i^{k_i})

Deltas are parsed as field literals: integers, a/b fractions, floats, or
pipe-separated coefficient lists for extension fields (d=[1|0|1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import UsageError, VerificationFailed
from .fields import Field, FieldElement
from .matrices import Matrix


def require_int(value, name: str) -> None:
    """Refuse a word size or exponent that is not an int (bools included)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CommutatorProduct:
    """[X1,X2][X3,X4]...[X_{m-1},X_m]."""

    m: int

    def __post_init__(self):
        require_int(self.m, "m")
        if self.m < 2 or self.m % 2:
            raise UsageError("commutator products need an even m >= 2")

    @property
    def arity(self) -> int:
        return self.m

    def spec_string(self) -> str:
        return f"comm:m={self.m}"


@dataclass(frozen=True)
class DiagonalWord:
    """delta_1 X_1^{k_1} + ... + delta_m X_m^{k_m} with all deltas nonzero."""

    terms: Tuple[Tuple[FieldElement, int], ...]

    def __post_init__(self):
        if not isinstance(self.terms, tuple) or not self.terms:
            raise UsageError("diagonal words need a nonempty tuple of terms")
        for term in self.terms:
            if not (isinstance(term, tuple) and len(term) == 2
                    and isinstance(term[0], FieldElement)):
                raise UsageError(f"a diagonal term is a (field element, k) pair, got {term!r}")
            delta, k = term
            require_int(k, "k")
            if delta.is_zero():
                raise UsageError("diagonal word coefficients must be nonzero")
            if k < 1:
                raise UsageError("diagonal word exponents must be >= 1")

    @property
    def arity(self) -> int:
        return len(self.terms)

    def spec_string(self) -> str:
        return "diag:" + ";".join(f"d={delta!r},k={k}" for delta, k in self.terms)


def _require_operand(x) -> None:
    """Refuse a word argument that is not a Matrix, in the words of
    ``Matrix._check``."""
    if not isinstance(x, Matrix):
        raise UsageError(f"expected a Matrix operand, got {type(x).__name__}")


def eval_word(word, mats) -> Matrix:
    """The word's value at the matrices ``mats``.  A commutator product
    is one ``commutator_chain`` of the kernel; its operands are refused
    with the error the product-by-product evaluation raises first."""
    if not isinstance(word, (CommutatorProduct, DiagonalWord)):
        raise UsageError(f"unknown word {word!r}")
    if not isinstance(mats, (list, tuple)):
        raise UsageError(f"the matrices are a list or tuple, got {mats!r}")
    if len(mats) != word.arity:
        raise UsageError(f"word takes {word.arity} matrices, got {len(mats)}")
    if isinstance(word, CommutatorProduct):
        pairs = list(zip(mats[::2], mats[1::2]))
        first = mats[0]
        for i, (x, y) in enumerate(pairs):
            _require_operand(x)
            x._check_square_pair(y)
            if i:  # the running product times this commutator
                first._check_same_shape(x)
        return Matrix._from_raw(first.field, first.field.kernel.commutator_chain(
            [(x.reps, y.reps) for x, y in pairs]))
    out = None
    for (delta, k), x in zip(word.terms, mats):
        _require_operand(x)
        term = (x ** k).scale(delta)
        out = term if out is None else out + term
    return out


def parse_word(spec: str, field: Field):
    if not isinstance(spec, str):
        raise UsageError(f"word spec must be a string, got {spec!r}")
    spec = spec.strip()
    if spec.startswith("comm:"):
        body = spec[5:]
        if not body.startswith("m="):
            raise UsageError(f"bad commutator word spec {spec!r}")
        try:
            m = int(body[2:])
        except ValueError as exc:
            raise UsageError(f"bad m in {spec!r}") from exc
        return CommutatorProduct(m)
    if spec.startswith("diag:"):
        terms = []
        for item in spec[5:].split(";"):
            item = item.strip()
            if not item:
                continue
            parts = dict()
            for kv in item.split(","):
                key, eq, val = kv.partition("=")
                key = key.strip()
                if not eq or key not in ("d", "k") or key in parts:
                    raise UsageError(f"diagonal term {item!r} takes one d= and one k=")
                parts[key] = val.strip()
            if len(parts) != 2:
                raise UsageError(f"diagonal term {item!r} needs d= and k=")
            try:
                delta = _parse_literal(parts["d"], field)
            except ValueError as exc:
                raise UsageError(f"bad coefficient in {item!r}") from exc
            try:
                k = int(parts["k"])
            except ValueError as exc:
                raise UsageError(f"bad exponent in {item!r}") from exc
            terms.append((delta, k))
        return DiagonalWord(tuple(terms))
    raise UsageError(f"cannot parse word spec {spec!r}")


def _parse_literal(text: str, field: Field) -> FieldElement:
    """A field literal: over a finite field an integer, or over an
    extension a coefficient list [c_0|c_1|...], low degree first; over Q,
    R and C whatever ``field(text)`` takes (over C, 1+2j among them)."""
    text = text.strip()
    if not field.is_finite:
        return field(text)
    if field.kind == "ext" and text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated coefficient list {text!r}")
        return field([int(v) for v in text[1:-1].split("|")])
    return field(int(text))


@dataclass(frozen=True)
class Witness:
    """A verified solution tuple for ``word`` evaluated against ``target``."""

    word: object
    target: Matrix
    matrices: Tuple[Matrix, ...]
    conjugators: Tuple[Matrix, ...] = ()


def satisfies(word, target: Matrix, mats) -> bool:
    """Whether the word at ``mats`` is ``target``, within the tolerance over
    R and C: the one witness test, which ``make_witness`` raises on and
    ``wordmap verify`` reports."""
    return eval_word(word, mats).allclose(target)


def make_witness(word, target: Matrix, mats, conjugators=()) -> Witness:
    """The single gate every solver returns through: re-evaluate and compare."""
    if not satisfies(word, target, mats):
        raise VerificationFailed(
            f"witness evaluation mismatch for {getattr(word, 'spec_string', lambda: word)()}")
    return Witness(word, target, tuple(mats), tuple(conjugators))
