import pytest

from wordmap.errors import NotFound, SizeTooSmall, TooLarge, UsageError, first_route


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
    from wordmap import CommutatorProduct, Matrix, eval_word, factor, parse_field_spec
    from wordmap.counting import count_solutions, image_enumerate
    from wordmap.fields import enumerate_elements, extend, kth_roots

    F = parse_field_spec("Fp:5")
    word = CommutatorProduct(2)
    return {
        "eval_word": lambda: eval_word(word, "AB"),
        "kth_roots": lambda: kth_roots(2, 2),
        "factor": lambda: factor([1, 2]),
        "enumerate_elements": lambda: list(enumerate_elements(3)),
        "extend": lambda: extend(F, None),
        "Matrix": lambda: Matrix(F, 5),
        "image_enumerate": lambda: image_enumerate(word, F, 2),
        "count_solutions": lambda: count_solutions("F", [1], [2], 1),
    }


@pytest.mark.parametrize("name", list(_wrong_typed_calls()))
def test_wrong_typed_arguments_raise_usage_error(name):
    with pytest.raises(UsageError):
        _wrong_typed_calls()[name]()
