import hashlib
import itertools

import pytest

from wordmap.counting import (
    CSV_HEADER,
    DEFAULT_CAP,
    _products,
    _sumset,
    count_solutions,
    image_enumerate,
    lang_weil_bound,
    threshold,
)
from wordmap.errors import TooLarge, UsageError
from wordmap.fields import Field, enumerate_elements, parse_field_spec
from wordmap.matrices import Matrix, MatrixSpace
from wordmap.words import CommutatorProduct, DiagonalWord, parse_word

from oracles import all_matrices, brute_solution_count

F2 = Field("prime", p=2)
F3 = Field("prime", p=3)
F5 = Field("prime", p=5)
F7 = Field("prime", p=7)


def test_count_x2_plus_y2_eq_1_f5():
    rep = count_solutions(F5, [F5(1), F5(1)], [2, 2], F5(1))
    assert rep.count == 4
    assert rep.expected == 5
    assert rep.passes
    assert abs(rep.bound - 4 * 5 ** 0.5 * (5 / 4) ** 1) < 1e-9


def test_count_linear_exact():
    rep = count_solutions(F7, [F7(1), F7(1)], [1, 1], F7(3))
    assert rep.count == 7 == rep.expected


def test_count_single_variable():
    rep = count_solutions(F3, [F3(1)], [2], F3(0))
    assert rep.count == 1


def test_count_matches_brute_force():
    for field in (F3, F5):
        for ks in ((2, 2), (2, 3), (3, 3)):
            deltas = [field(1), field(2)]
            gamma = field(1)
            rep = count_solutions(field, deltas, list(ks), gamma)
            assert rep.count == brute_solution_count(field, deltas, list(ks), gamma)


def test_count_cap_guard():
    with pytest.raises(TooLarge):
        count_solutions(F7, [F7(1)] * 12, [2] * 12, F7(1), cap=10 ** 6)


def test_csv_row_shape():
    rep = count_solutions(F5, [F5(1), F5(1)], [2, 2], F5(1))
    row = rep.csv_row()
    assert row.startswith("5,2,2;2,")
    assert row.endswith(",true")
    assert len(CSV_HEADER.split(",")) == len(row.split(","))


def test_threshold_formula():
    assert threshold(2, 2).threshold == 256
    assert threshold(3, 2).threshold == 1296
    assert threshold(1, 1).threshold == 1


def test_image_commutator_f2_is_trace_zero_set():
    summary = image_enumerate(CommutatorProduct(2), 2, F2)
    assert summary.size == 8
    trace_zero = {M for M in all_matrices(F2, 2) if M.trace().is_zero()}
    assert summary.size == len(trace_zero)
    assert all(M.trace().is_zero() for M in trace_zero)
    assert not summary.surjective
    assert all(not M.trace().is_zero() for M in summary.missing)


def test_image_commutator_product_f2_full():
    summary = image_enumerate(CommutatorProduct(4), 2, F2)
    assert summary.size == 16 == summary.total
    assert summary.surjective and summary.missing == ()


def test_image_identity_word_f3():
    word = DiagonalWord(((F3(1), 1),))
    summary = image_enumerate(word, 2, F3)
    assert summary.size == 81 == summary.total


def test_image_monotone_under_zero_padding():
    word2 = DiagonalWord(((F3(1), 2), (F3(1), 2)))
    word3 = DiagonalWord(((F3(1), 2), (F3(1), 2), (F3(1), 3)))
    s2 = image_enumerate(word2, 2, F3)
    s3 = image_enumerate(word3, 2, F3)
    assert s3.size >= s2.size


def test_sumset_and_products_stop_once_they_hold_every_matrix():
    space = MatrixSpace(F2, 2)
    codes, calls = space.codes, []
    space.codes = lambda P: calls.append(P) or codes(P)
    every = set(range(space.size))
    # codes 9 and 6 are I and the swap: either one times M_2(F_2), or any
    # matrix plus it, is already all of M_2(F_2)
    assert space.matrix_at(9) == Matrix.identity(F2, 2)
    assert _products(space, {9, 6}, every) == every
    assert _sumset(space, {0, 5}, every) == every
    assert len(calls) == 2


def test_image_cap_guard():
    with pytest.raises(TooLarge):
        image_enumerate(CommutatorProduct(2), 3, F7, cap=10 ** 4)


@pytest.mark.parametrize("n", [0, -2, -5, 1.5, "2"])
def test_image_needs_a_positive_int_size(n):
    with pytest.raises(UsageError):
        image_enumerate(CommutatorProduct(2), n, F2)


F4_SPEC = "Fq:p=2,d=2,mod=[1,1,1]"
# SHA-256 of repr(()): the image is everything
NOTHING_MISSING = "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"

# (field, word, n, image size, total, SHA-256 of repr(missing)), recorded
# when the image was enumerated over Matrix objects; ``missing`` is the first
# ten non-values in enumeration order, so the digest pins that order too
IMAGE_GOLDEN = [
    ("Fp:2", "comm:m=2", 2, 8, 16, "f672b1545423add746512781caf51345158120461ac7565044a845e62766c253"),
    ("Fp:2", "comm:m=4", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=1", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=2", 2, 10, 16, "02da609a315d1538b63ba42384047caf5de03a17c6634f5f5ccc8c8b7c5f554f"),
    ("Fp:2", "diag:d=1,k=3", 2, 11, 16, "4639475895f84fdf6f6c8265e48b534392517114ec4262d91599788b521ac800"),
    ("Fp:2", "diag:d=1,k=1;d=1,k=3", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=2;d=1,k=2", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=2;d=1,k=3", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=3;d=1,k=2", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=3;d=1,k=3", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=2;d=1,k=2;d=1,k=3", 2, 16, 16, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=3;d=1,k=3;d=1,k=3", 2, 16, 16, NOTHING_MISSING),
    ("Fp:3", "comm:m=2", 2, 27, 81, "4e0ae782f5b7553e18a17828bb6787420e79e40bd3adecae6217eba11f3163b7"),
    ("Fp:3", "comm:m=4", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=2,k=1", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=2,k=2", 2, 29, 81, "928f8b62d75f39d4117b61e90911f0aa71b29f0f8b559474f64c1308f0580b3f"),
    ("Fp:3", "diag:d=2,k=3", 2, 57, 81, "255247a761051c04c0ceee0f006f6c0d6f6a8aa953caa4b93592ebaeda17bc2d"),
    ("Fp:3", "diag:d=1,k=1;d=2,k=3", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=1,k=2;d=2,k=2", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=1,k=2;d=2,k=3", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=1,k=3;d=2,k=2", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=1,k=3;d=2,k=3", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=1,k=2;d=2,k=2;d=1,k=3", 2, 81, 81, NOTHING_MISSING),
    ("Fp:3", "diag:d=2,k=3;d=1,k=3;d=1,k=3", 2, 81, 81, NOTHING_MISSING),
    (F4_SPEC, "comm:m=2", 2, 64, 256, "4ae0f7a162cd137fdad6c9b1ca78c50e3efe250ee54efb1776b50fba2d1c3ffb"),
    (F4_SPEC, "diag:d=[1|1],k=1", 2, 256, 256, NOTHING_MISSING),
    (F4_SPEC, "diag:d=[1|1],k=2", 2, 196, 256, "ba9ba447ece1645db32fe4497b4c3eea297d6745052405d2338b28de9bfe06b6"),
    (F4_SPEC, "diag:d=[1|1],k=3", 2, 61, 256, "f62dbe3f51d178eb6788faa8fac952541742351e8724343838bff49108deb4a5"),
    (F4_SPEC, "diag:d=1,k=1;d=[1|1],k=3", 2, 256, 256, NOTHING_MISSING),
    (F4_SPEC, "diag:d=1,k=2;d=[1|1],k=2", 2, 256, 256, NOTHING_MISSING),
    (F4_SPEC, "diag:d=1,k=3;d=[1|1],k=3", 2, 256, 256, NOTHING_MISSING),
    (F4_SPEC, "diag:d=1,k=2;d=[1|1],k=2;d=1,k=3", 2, 256, 256, NOTHING_MISSING),
    (F4_SPEC, "diag:d=[1|1],k=3;d=1,k=3;d=1,k=3", 2, 256, 256, NOTHING_MISSING),
    ("Fp:5", "diag:d=4,k=1", 2, 625, 625, NOTHING_MISSING),
    ("Fp:5", "diag:d=4,k=2", 2, 223, 625, "f004dc4d6f24ceeee2d4aa62eb17196572b7e8afd1b182a155d7444d0e42d94f"),
    ("Fp:5", "diag:d=4,k=3", 2, 441, 625, "d5087eeb7c217a47aaccc0ba0b0ff63d28b70e59f243bc3fd94e38649e9faced"),
    ("Fp:5", "diag:d=1,k=2;d=4,k=2", 2, 625, 625, NOTHING_MISSING),
    ("Fp:5", "diag:d=1,k=2;d=4,k=3", 2, 625, 625, NOTHING_MISSING),
    ("Fp:5", "diag:d=1,k=3;d=4,k=3", 2, 625, 625, NOTHING_MISSING),
    ("Fp:5", "diag:d=1,k=2;d=4,k=2;d=1,k=3", 2, 625, 625, NOTHING_MISSING),
    ("Fp:2", "comm:m=2", 3, 256, 512, "3626598e493a1aa913ebcca112360a65cab8352070c2b3708cbd20da4ee88e5a"),
    ("Fp:2", "diag:d=1,k=1", 3, 512, 512, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=2", 3, 260, 512, "585083191ad7b13abd840746c941f1c77251eef83e81e685b28f1b6ca5ee19cc"),
    ("Fp:2", "diag:d=1,k=3", 3, 253, 512, "253d1f28f4044184cca12978d19901c8a863d70246400c94b61f6bb2b91bfc95"),
    ("Fp:2", "diag:d=1,k=2;d=1,k=2", 3, 512, 512, NOTHING_MISSING),
    ("Fp:2", "diag:d=1,k=3;d=1,k=3", 3, 512, 512, NOTHING_MISSING),
]


@pytest.mark.parametrize("spec,wspec,n,size,total,digest", IMAGE_GOLDEN,
                         ids=[f"{s}-{w}-n={n}" for s, w, n, *_ in IMAGE_GOLDEN])
def test_image_enumerate_is_pinned(spec, wspec, n, size, total, digest):
    field = parse_field_spec(spec)
    summary = image_enumerate(parse_word(wspec, field), n, field)
    assert (summary.size, summary.total) == (size, total)
    assert hashlib.sha256(repr(summary.missing).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", ["Fp:7", "Fq:p=3,d=2,mod=[2,2,1]"])
def test_image_of_commutators_is_the_trace_zero_law(spec):
    """On M_2(F_q) one commutator reaches exactly the q^3 trace-zero
    matrices, and ``missing`` is the first ten of the others in code order;
    a product of two commutators reaches everything."""
    field = parse_field_spec(spec)
    q = field.cardinality
    one = image_enumerate(CommutatorProduct(2), 2, field)
    assert (one.size, one.total) == (q ** 3, q ** 4)
    nonzero_trace = (M for M in all_matrices(field, 2) if not M.trace().is_zero())
    assert one.missing == tuple(itertools.islice(nonzero_trace, 10))
    two = image_enumerate(CommutatorProduct(4), 2, field)
    assert (two.size, two.total, two.missing) == (q ** 4, q ** 4, ())


def test_image_just_over_the_default_cap_is_refused():
    """comm:m=2 on M_2(F_11) needs 11^8 = 214,358,881 evaluations, just
    over DEFAULT_CAP."""
    F11 = Field("prime", p=11)
    assert 11 ** 8 > DEFAULT_CAP > 7 ** 8
    with pytest.raises(TooLarge) as err:
        image_enumerate(CommutatorProduct(2), 2, F11)
    assert str(err.value) == ("enumeration needs about 214358881 evaluations, "
                              "over the cap 200000000")


def test_image_over_a_field_above_one_byte():
    """F_257 at n = 1, a scalar image: the squares are 0 and the 128
    quadratic residues."""
    F257 = Field("prime", p=257)
    summary = image_enumerate(DiagonalWord(((F257(1), 2),)), 1, F257)
    residues = {x * x % 257 for x in range(257)}
    assert (summary.size, summary.total) == (129, 257)
    assert [M.rows[0][0].rep for M in summary.missing] == \
        [x for x in range(257) if x not in residues][:10]
    both = image_enumerate(DiagonalWord(((F257(1), 2), (F257(3), 2))), 1, F257)
    assert both.surjective


N1_FIELDS = ["Fp:2", "Fq:p=3,d=2,mod=[2,2,1]", "Fp:257"]
N1_WORDS = ["comm:m=2", "diag:d={a},k=2", "diag:d={a},k=3", "diag:d=1,k=4;d={a},k=6",
            "diag:d={a},k=2;d=1,k=2"]


def _brute_scalar_image(field, word):
    """Every value of the word on F_q^m by direct scalar arithmetic."""
    elems = list(enumerate_elements(field))
    values = set()
    for xs in itertools.product(elems, repeat=word.arity):
        if isinstance(word, CommutatorProduct):
            v = field.zero()
            for x, y in zip(xs[::2], xs[1::2]):
                v = v + (x * y - y * x)
        else:
            v = field.zero()
            for (delta, k), x in zip(word.terms, xs):
                v = v + delta * x ** k
        values.add(v.rep)
    return values


@pytest.mark.parametrize("spec", N1_FIELDS)
@pytest.mark.parametrize("wspec", N1_WORDS)
def test_n1_image_is_the_scalar_image(spec, wspec, monkeypatch):
    """At n = 1 the image is read off scalar value sets and builds no
    MatrixSpace; size, total and ``missing`` (the first ten non-values in
    ``enumerate_elements`` order) equal a brute force over F_q^m."""
    field = parse_field_spec(spec)
    last = repr(list(enumerate_elements(field))[-1]).replace(",", "|")
    word = parse_word(wspec.format(a=last), field)

    def refuse(*args):
        raise AssertionError("an n = 1 image built a MatrixSpace")
    monkeypatch.setattr(MatrixSpace, "__init__", refuse)
    summary = image_enumerate(word, 1, field)
    values = _brute_scalar_image(field, word)
    outside = [x for x in enumerate_elements(field) if x.rep not in values]
    assert (summary.size, summary.total) == (len(values), field.cardinality)
    assert summary.missing == tuple(Matrix.from_rows(field, [[x]]) for x in outside[:10])


def test_csv_row_quotes_tower_elements():
    import csv

    from wordmap.fields import parse_field_spec

    F9 = parse_field_spec("Fq:p=3,d=2,mod=[2,2,1]")
    rep = count_solutions(F9, [F9(1), F9([0, 1])], [2, 2], F9([1, 2]))
    (fields,) = list(csv.reader([rep.csv_row()]))
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[3] == "[1,0];[0,1]"
    assert fields[4] == "[1,2]"
    assert fields[5] == str(rep.count)


def test_csv_row_prime_field_is_unquoted():
    rep = count_solutions(F5, [F5(1), F5(2)], [2, 3], F5(4))
    assert rep.csv_row() == (f"5,2,2;3,1;2,4,{rep.count},{rep.expected},"
                             f"{rep.bound:.6f},{str(rep.passes).lower()}")
