import pytest

from wordmap.counting import (
    CSV_HEADER,
    count_solutions,
    image_enumerate,
    lang_weil_bound,
    threshold,
)
from wordmap.errors import TooLarge, UsageError
from wordmap.fields import Field
from wordmap.matrices import Matrix
from wordmap.words import CommutatorProduct, DiagonalWord

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


def test_image_cap_guard():
    with pytest.raises(TooLarge):
        image_enumerate(CommutatorProduct(2), 3, F7, cap=10 ** 4)


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
