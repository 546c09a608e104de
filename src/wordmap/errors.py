"""Exception types shared across the library.

Errors split in two families: usage/precondition violations (bad inputs,
unsupported field kinds) and *mathematically meaningful* negatives such as
``NotFound`` (a search over a small field was exhausted) or ``NonzeroTrace``
(the target is provably outside the image of the word map).  The CLI maps the
second family to exit code 2.

``first_route`` runs a solver's fallback chain, and the error it raises when
every route declines lists the routes and their reasons as ``.routes``.
"""


class WordmapError(Exception):
    """Base class for all library errors."""


class UsageError(WordmapError):
    """Malformed CLI or parser input."""


class DescriptorMismatch(UsageError):
    """Operands belong to different fields: a usage error."""


class DivisionByZero(WordmapError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class InfiniteField(WordmapError):
    """Enumeration requested over an infinite field."""


class ReduciblePolynomial(WordmapError):
    """A modulus that must be irreducible factors over the base field."""


class UnsupportedBase(WordmapError):
    """Field extension over an approximate base field."""


class UnsupportedField(WordmapError):
    """Operation not defined for this field kind."""


class Unsupported(WordmapError):
    """Case the underlying theory leaves open (e.g. even/even powers over R)."""


class NotFound(WordmapError):
    """A search-based construction exhausted its space; legitimate over small fields."""


class NonSquare(WordmapError):
    """Square matrix required."""


class SingularMatrix(WordmapError):
    """Inverse of a singular matrix requested."""


class NotSimilar(WordmapError):
    """No invertible solution of X*A = B*X exists."""


class NotNilpotent(WordmapError):
    """Nilpotent matrix required."""


class ZeroPolynomial(WordmapError):
    """The zero polynomial was passed where nonzero is required."""


class UnhandledShape(WordmapError):
    """2x2 factorization formulas need one of the canonical shapes."""


class NonzeroTrace(WordmapError):
    """Target of a single commutator must have trace zero."""


class WitnessNotFound(WordmapError):
    """Fallback search for a commutator witness failed."""


class PartitionTooSmall(WordmapError):
    """Partition does not leave room for the required power construction."""


class SizeTooSmall(WordmapError):
    """Matrix too small for a construction: a nilpotent block for the
    large-index junction, a 1x1 target for the whole-space join."""


class ZeroLeadingCoordinate(WordmapError):
    """Bordered solve needs y_1 (resp. x_{n-1}) nonzero."""


class CharPolyMismatch(WordmapError):
    """Internal consistency failure in the bordered linear system."""


class VerificationFailed(WordmapError):
    """Internal guard: an emitted witness failed re-verification."""


class TooLarge(WordmapError):
    """Enumeration would exceed the configured cap."""


def first_route(routes, exhausted):
    """The first result that is not None of ``routes``, (name, call,
    declines) triples run in order: every fallback chain of the solvers.

    A route declines by returning None or by raising one of its
    ``declines``.  When every route declines, the error ``exhausted(declined)``
    is raised with the (name, reason) pairs attached as ``.routes``, the
    reason being the raised error or None."""
    declined = []
    for name, call, declines in routes:
        try:
            got = call()
            if got is not None:
                return got
            declined.append((name, None))
        except declines as exc:
            declined.append((name, exc))
    error = exhausted(declined)
    error.routes = tuple(declined)
    raise error
