"""R and C at every input magnitude: each solver returns a verified witness
or raises a WordmapError that does not blame the caller, from subnormal
entries to the edge of float overflow.  Termination rests on the solvers'
own bounds (a kernel chain stops after n + 1 powers); the input that once
ran without end also runs under a generous wall-clock bound."""

import contextlib
import json
import signal
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordmap.cli import main, matrix_to_json
from wordmap.commutators import solve_commutator_product
from wordmap.diagonal import solve_diagonal_word
from wordmap.errors import UsageError, VerificationFailed, WordmapError
from wordmap.fields import Field
from wordmap.matrices import GeneralizedJordanForm, Matrix, generalized_jordan_form
from wordmap.words import eval_word, parse_word

SPECIAL = (0.0, 5e-324, 1e-320, 1e-300, 1e-30, 1.0, 1e30, 1e154, 1e200, 1e300, 1.7e308)
# the unstable kernel chain past this many seconds is a solve that does
# not end (it takes milliseconds)
WORK_BOUND_S = 10.0

magnitudes = st.one_of(st.sampled_from(SPECIAL), st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e))
reals = st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from((1.0, -1.0)))
fields = st.builds(Field, st.sampled_from(("real", "complex")),
                   tolerance=st.sampled_from((1e-12, 1e-9, 1e-3)))
# the diagonal words with their CLI specs
WORDS = {"X^2+Y^3": "diag:d=1,k=2;d=1,k=3", "X^2-Y^2": "diag:d=1,k=2;d=-1,k=2",
         "X^2+Y^2": "diag:d=1,k=2;d=1,k=2", "X^3": "diag:d=1,k=3"}
CALLS = ("comm:m=2", "comm:m=4", "comm:m=6", *WORDS, "jordan")


@st.composite
def targets(draw):
    field = draw(fields)
    n = draw(st.integers(1, 4))
    entry = reals if field.kind == "real" else st.builds(complex, reals, reals)
    return Matrix.from_rows(field, [[draw(entry) for _ in range(n)] for _ in range(n)])


class WorkBoundExceeded(Exception):
    pass


def _interrupt(signum, frame):
    raise WorkBoundExceeded()


@contextlib.contextmanager
def work_bound():
    """Interrupt the block with WorkBoundExceeded after WORK_BOUND_S of
    wall time, where interval timers exist (POSIX, the main thread)."""
    if not hasattr(signal, "setitimer") or threading.current_thread() != threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, WORK_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def solve(A, call):
    """The call on A: a Witness or a GeneralizedJordanForm, or the
    WordmapError it raised."""
    try:
        if call == "jordan":
            return generalized_jordan_form(A)
        if call.startswith("comm"):
            return solve_commutator_product(A, int(call[7:]))
        return solve_diagonal_word(A, parse_word(WORDS[call], A.field))
    except WordmapError as exc:
        return exc


R12, R9, R3 = (Field("real", tolerance=t) for t in (1e-12, 1e-9, 1e-3))
C9 = Field("complex", tolerance=1e-9)
# the inputs that escaped WordmapError or never ended before the guards
REPRODUCERS = {
    "unstable-kernel-chain": (
        R12, [[1, 1e-300, -1e-320], [-1e30, -1, 5.3e-45], [-1.9e-69, -1e-30, -0.0]], "X^2-Y^2"),
    "overflowing-sweep-cube": (R3, [[1.7e308]], "X^3"),
    "overflowing-sweep-cube-tol-1e-9": (R9, [[1.7e308]], "X^3"),
    "overflowing-sweep-two-terms": (R3, [[1.7e308]], "X^2+Y^3"),
    "overflowing-complex-modulus": (C9, [[complex(1.5e308, 1.5e308), 0], [0, 0.5]], "comm:m=4"),
    "overflowing-two-squares-determinant": (
        R9, [[1e-30, 3.5e290], [-4.6e273, 6.1e92]], "X^2+Y^2"),
    "overflowing-two-squares-discriminant": (R9, [[-1.7e308, 1e-30], [-1.0, 0.0]], "X^2+Y^2"),
    "two-squares-nilpotent-part-below-scaled-tolerance": (
        R3, [[3.1840990329194206e130, -4.1124711736807236e127], [0.0, 3.199031256205045e130]],
        "X^2+Y^2"),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=targets(), call=st.sampled_from(CALLS))
@example(A=Matrix.from_rows(R3, [[1.7e308]]), call="X^3")
@example(A=Matrix.from_rows(R9, [[-1.7e308, 1e-30], [-1.0, 0.0]]), call="X^2+Y^2")
def test_every_magnitude_gives_a_verified_answer_or_a_library_error(A, call):
    got = solve(A, call)
    if isinstance(got, WordmapError):
        assert not isinstance(got, UsageError), got
    elif call == "jordan":
        assert isinstance(got, GeneralizedJordanForm)
    else:
        assert eval_word(got.word, got.matrices).allclose(A)


@pytest.mark.parametrize("name", list(REPRODUCERS))
def test_each_former_escape_ends_in_a_library_error(name):
    field, rows, call = REPRODUCERS[name]
    with work_bound() if name == "unstable-kernel-chain" else contextlib.nullcontext():
        got = solve(Matrix.from_rows(field, rows), call)
    assert isinstance(got, VerificationFailed), got


@pytest.mark.parametrize("name", list(REPRODUCERS))
def test_each_former_escape_is_one_line_at_the_cli(capsys, name):
    field, rows, call = REPRODUCERS[name]
    matrix = json.dumps(matrix_to_json(Matrix.from_rows(field, rows)))
    with work_bound() if name == "unstable-kernel-chain" else contextlib.nullcontext():
        code = main(["solve", "--field", field.spec_string(), "--word", WORDS.get(call, call),
                     "--matrix", matrix])
    err = capsys.readouterr().err
    assert code in (1, 2) and err.count("\n") == 1 and err.startswith("error: "), err


def test_the_clustering_error_lists_the_radii_tried():
    """The R/C cluster radii grow by 8 from max(1e-8, tol/10) * scale up to
    0.05 * scale, scale = 1 + the largest eigenvalue modulus; each is one
    route of the exhausted error's ``.routes``, the first with the chain
    failure, the rest with the same clusters declined at once."""
    field, rows, _ = REPRODUCERS["unstable-kernel-chain"]
    with pytest.raises(VerificationFailed, match="radius escalation exhausted") as info, \
            work_bound():
        generalized_jordan_form(Matrix.from_rows(field, rows))
    names = [name for name, _ in info.value.routes]
    radii = [float(name.split()[-1]) for name in names]
    assert names == [f"radius {r!r}" for r in radii]
    assert len(radii) == 8 and all(b == a * 8.0 for a, b in zip(radii, radii[1:]))
    first = info.value.routes[0][1]
    assert isinstance(first, VerificationFailed) and "did not stabilise" in str(first)
    assert all(reason is None for _, reason in info.value.routes[1:])
