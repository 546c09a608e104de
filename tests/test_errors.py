import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordmap
from wordmap.errors import NotFound, SizeTooSmall, TooLarge, UsageError, WordmapError, first_route


def _route(name, got, declines=(NotFound,), ran=None):
    """A route that records its run, then returns ``got`` or raises it."""
    def call():
        if ran is not None:
            ran.append(name)
        if isinstance(got, Exception):
            raise got
        return got
    return name, call, declines


def test_first_route_returns_the_first_answer_and_runs_nothing_after_it():
    ran = []
    routes = [_route("a", None, ran=ran), _route("b", 0, ran=ran), _route("c", 1, ran=ran)]
    assert first_route(routes, NotFound) == 0  # an answer that is falsy but not None
    assert ran == ["a", "b"]


def test_first_route_collects_every_decline_in_order():
    small = SizeTooSmall("no room")
    with pytest.raises(NotFound, match="^none of 2$") as info:
        first_route([_route("a", None, ()), _route("b", small, (SizeTooSmall,))],
                    lambda declined: NotFound(f"none of {len(declined)}"))
    assert info.value.routes == (("a", None), ("b", small))


def test_first_route_lets_an_error_outside_the_declines_through():
    with pytest.raises(TooLarge):
        first_route([_route("a", TooLarge("cap")), _route("b", 1)], NotFound)


def _wrong_typed_calls():
    from wordmap import CommutatorProduct, Matrix, Poly, eval_word, factor, parse_field_spec
    from wordmap.counting import count_solutions, image_enumerate
    from wordmap.fields import enumerate_elements, extend, kth_roots, regular_solution_search
    from wordmap.matrices import companion_lift

    F = parse_field_spec("Fp:5")
    word = CommutatorProduct(2)
    p = Poly(F, [2, 0, 1])
    W = Matrix.identity(extend(F, p)[0], 1)
    mats = [Matrix.identity(F, 2)] * 2
    return {
        "eval_word": lambda: eval_word(word, "AB"),
        "kth_roots": lambda: kth_roots(2, 2),
        "factor": lambda: factor([1, 2]),
        "enumerate_elements": lambda: list(enumerate_elements(3)),
        "extend": lambda: extend(F, None),
        "Matrix": lambda: Matrix(F, 5),
        "image_enumerate": lambda: image_enumerate(word, F, 2),
        "count_solutions": lambda: count_solutions("F", [1], [2], 1),
        "regular_solution_search": lambda: regular_solution_search(2, 2, 2, F(1)),
        "Poly-field": lambda: Poly(5, [1, 2]),
        "Poly-coefficients": lambda: Poly(F, 5),
        "companion_lift-matrix": lambda: companion_lift(5, p),
        "companion_lift-poly": lambda: companion_lift(W, 5),
        "eval_word-word": lambda: eval_word("comm:m=4", mats),
        "eval_word-matrices": lambda: eval_word(word, 5),
        "count_solutions-coefficients": lambda: count_solutions(F, 2, [2, 3], F(1)),
        "count_solutions-exponents": lambda: count_solutions(F, [1, 1], None, F(1)),
    }


@pytest.mark.parametrize("name", list(_wrong_typed_calls()))
def test_wrong_typed_arguments_raise_usage_error(name):
    with pytest.raises(UsageError):
        _wrong_typed_calls()[name]()


def _valid_calls():
    """Valid calls (function, args, kwargs) by name, at least one for each
    callable that ``wordmap`` exports, each cheap."""
    from wordmap import (
        GF, CommutatorProduct, DiagonalWord, Field, FieldElement, Matrix, NonzeroTrace,
        Partition, Poly, Unsupported, Witness, charpoly, companion_lift, count_solutions,
        enumerate_elements, eval_word, extend, factor, factor_two_trace_zero,
        generalized_jordan_form, image_enumerate, kth_roots, minpoly, nilpotent_partition,
        nilpotent_power_partition, parse_field_spec, parse_word, regular_solution_search,
        solve_commutator_product, solve_diagonal_word, threshold, trace_zero_to_commutator)

    F = GF(5)
    A = Matrix.from_rows(F, [[1, 2], [3, 4]])
    p = Poly(F, [2, 0, 1])
    L, alpha, _ = extend(F, p)
    word = DiagonalWord(((F(1), 2), (F(1), 3)))
    calls = [
        (CommutatorProduct, (4,), {}),
        (DiagonalWord, (((F(1), 2), (F(1), 3)),), {}),
        (Field, ("ext",), {"modulus": (2, 0, 1), "base": F}),
        (Field, ("real",), {"tolerance": 1e-9}),
        (FieldElement, (F, 1), {}),
        (GF, (25,), {"modulus": [2, 0, 1]}),
        (Matrix, (F, [[F(1), F(2)], [F(3), F(4)]]), {}),
        (Partition, ((1, 2),), {}),
        (Poly, (F, [1, 2]), {}),
        (Witness, (CommutatorProduct(2), A, (A, A)), {}),
        (WordmapError, ("message",), {}),
        (NotFound, ("message",), {}),
        (Unsupported, ("message",), {}),
        (NonzeroTrace, ("message",), {}),
        (charpoly, (A,), {}),
        (companion_lift, (Matrix.from_rows(L, [[alpha]]), p), {}),
        (count_solutions, (F, [1, 1], [2, 3], F(1)), {"cap": 1000}),
        (enumerate_elements, (F,), {}),
        (eval_word, (word, [A, A]), {}),
        (extend, (F, [2, 0, 1]), {}),
        (factor, (p,), {}),
        (factor_two_trace_zero, (A,), {"seed": 0}),
        (generalized_jordan_form, (A,), {}),
        (image_enumerate, (CommutatorProduct(2), 2, GF(2)), {"cap": 1000}),
        (kth_roots, (F(4), 2), {}),
        (minpoly, (A,), {}),
        (nilpotent_partition, (Matrix.from_rows(F, [[0, 1], [0, 0]]),), {}),
        (nilpotent_power_partition, (4, 2), {}),
        (parse_field_spec, ("Fp:5",), {}),
        (parse_word, ("comm:m=4", F), {}),
        (regular_solution_search, (F, 2, 2, F(1)), {"require_nonzero": False}),
        (solve_commutator_product, (A, 4), {"seed": 0}),
        (solve_diagonal_word, (A, word), {"seed": 0}),
        (threshold, (2, 3), {}),
        (trace_zero_to_commutator, (Matrix.from_rows(F, [[1, 2], [3, -1]]),), {"seed": 0}),
    ]
    by_name = {}
    for call in calls:
        by_name.setdefault(call[0].__name__, []).append(call)
    return by_name


EXPORTED_CALLABLES = sorted(name for name in wordmap.__all__
                            if callable(getattr(wordmap, name)))


def _other_field_values():
    from wordmap import GF, Matrix

    G = GF(7)
    return [G(3), Matrix.from_rows(G, [[1, 2], [3, 4]]), Matrix.from_rows(G, [[5]])]


WRONG_TYPED = st.one_of(
    st.integers(-3, 7), st.floats(), st.text(max_size=6), st.none(), st.booleans(),
    st.lists(st.one_of(st.integers(-3, 7), st.floats(), st.text(max_size=2), st.none()),
             max_size=4),
    st.integers(0, 2).map(lambda i: _other_field_values()[i]))


def _run(fn, args, kwargs):
    """Call fn and read what it returns, so a lazy result fails here."""
    out = fn(*args, **kwargs)
    if hasattr(out, "__next__"):
        list(itertools.islice(out, 64))
    return out


@pytest.mark.parametrize("name", EXPORTED_CALLABLES)
def test_every_export_is_covered_by_a_valid_call(name):
    for fn, args, kwargs in _valid_calls()[name]:
        assert fn is getattr(wordmap, name)
        _run(fn, args, kwargs)


@pytest.mark.parametrize("name", EXPORTED_CALLABLES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_wrong_typed_argument_returns_or_raises_a_wordmap_error(name, data):
    """A valid call with one argument swapped for an int, float, str, None,
    bool, list, or an element or matrix of another field either returns or
    raises a WordmapError, whatever the callable."""
    fn, args, kwargs = data.draw(st.sampled_from(_valid_calls()[name]), label="call")
    slot = data.draw(st.sampled_from(list(range(len(args))) + sorted(kwargs)), label="slot")
    value = data.draw(WRONG_TYPED, label="value")
    args, kwargs = list(args), dict(kwargs)
    if isinstance(slot, int):
        args[slot] = value
    else:
        kwargs[slot] = value
    try:
        _run(fn, args, kwargs)
    except WordmapError:
        pass
