"""Self time from nested spans, without double counting."""

import importlib
from array import array

from wmbench.tracer import (
    COLUMNS,
    RAISED_FLAG,
    Tracer,
    layer_metrics,
    load_spans,
    totals_from_columns,
)

from wordmap import Field, Matrix
from wordmap.words import DiagonalWord


def columns(rows):
    """rows: (name_id, start, end, parent, flags)."""
    cols = {c: array("q") for c in COLUMNS}
    for name, start, end, parent, flags in rows:
        for col, value in zip(COLUMNS, (name, start, end, parent, 0, flags)):
            cols[col].append(value)
    return cols


def test_self_time_subtracts_only_direct_children():
    # f [0,100] -> f [10,60] -> g [20,30];  f -> g [70,80]
    cols = columns([(0, 0, 100, -1, 0), (0, 10, 60, 0, 0), (1, 20, 30, 1, 0),
                    (1, 70, 80, 0, 2)])
    totals = totals_from_columns(["f", "g"], cols)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["self_ns"] == (100 - 50 - 10) + (50 - 10)
    assert totals["g"]["self_ns"] == 20
    assert totals["g"]["hits"] == 1
    # self times add up to the root span: nothing counted twice
    assert sum(t["self_ns"] for t in totals.values()) == 100


def test_traced_function_nested_in_itself():
    tracer = Tracer(names=["fake.countdown"])

    def countdown(n):
        return [] if n == 0 else traced(n - 1) + [n]

    traced = tracer.wrap(0, countdown)
    tracer.begin_op(0)
    assert traced(3) == [1, 2, 3]
    tracer.end_op()
    totals = tracer.totals()["fake.countdown"]
    assert totals["calls"] == 4
    assert totals["hits"] == 3  # the innermost call returned an empty list
    root = tracer.cols["end_ns"][0] - tracer.cols["start_ns"][0]
    assert totals["self_ns"] == root
    assert list(tracer.cols["parent"]) == [-1, 0, 1, 2]


def test_pow_to_mul_chain_counts_each_product_once():
    words = importlib.import_module("wordmap.words")
    tracer = Tracer(names=["matrices.Matrix.__mul__", "words.eval_word"])
    tracer.install()
    try:
        F = Field("prime", p=7)
        X = Matrix.from_rows(F, [[1, 2], [3, 4]])
        word = DiagonalWord(((F.one(), 3), (F(2), 2)))
        tracer.begin_op(0)
        words.eval_word(word, [X, X])
        tracer.end_op()
        words.eval_word(word, [X, X])  # outside an op: not recorded
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    names, parents = tracer.cols["name"], tracer.cols["parent"]
    # X**3 and X**2 by square-and-multiply: 4 + 3 products, all inside eval_word
    assert totals["matrices.Matrix.__mul__"]["calls"] == 7
    assert totals["words.eval_word"]["calls"] == 1
    assert all(parents[i] == 0 for i in range(len(names)) if names[i] == 0)
    root = tracer.cols["end_ns"][0] - tracer.cols["start_ns"][0]
    assert sum(t["self_ns"] for t in totals.values()) == root
    metrics = layer_metrics(totals, 1)
    assert metrics["matrices.self_ms"] == metrics["matrices.Matrix.__mul__.self_ms"]
    assert metrics["matrices.Matrix.__mul__.calls"] == 7


def test_install_rebinds_every_alias_and_uninstall_restores():
    fields = importlib.import_module("wordmap.fields")
    diagonal = importlib.import_module("wordmap.diagonal")
    factor_mod = importlib.import_module("wordmap.factor")
    import wordmap

    original = fields.kth_roots
    assert diagonal.kth_roots is original
    tracer = Tracer()
    tracer.install()
    try:
        assert fields.kth_roots is not original
        assert diagonal.kth_roots is fields.kth_roots
        assert wordmap.kth_roots is fields.kth_roots
        assert factor_mod.factor.__wrapped__ is not None
        assert Matrix.__mul__.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert fields.kth_roots is original and diagonal.kth_roots is original
    assert not hasattr(Matrix.__mul__, "__wrapped__")


def test_interrupted_spans_are_closed_inside_their_parent():
    tracer = Tracer(names=["fake.f"])
    tracer.begin_op(0)
    cols = tracer.cols
    # a closed parent [100, 200] with a child that was never closed, as when
    # a deadline lands between two statements of the child's wrapper and the
    # parent's handler pops the child's stack entry instead of its own
    for name, start, end, parent in ((0, 100, 200, -1), (0, 150, 0, 0)):
        for col, value in zip(COLUMNS, (name, start, end, parent, 0, RAISED_FLAG)):
            cols[col].append(value)
    cols["name"].append(0)  # and a third span only half written
    tracer.end_op()
    assert len({len(c) for c in cols.values()}) == 1
    assert len(tracer) == 2
    assert cols["end_ns"][1] == 200
    totals = tracer.totals()["fake.f"]
    assert totals["raised"] == 2
    assert totals["self_ns"] == 100


def test_spans_round_trip_through_the_file(tmp_path):
    tracer = Tracer(names=["fake.f"])
    traced = tracer.wrap(0, lambda: None)
    tracer.begin_op(5)
    traced()
    tracer.end_op()
    path = str(tmp_path / "spans.bin.gz")
    tracer.write(path)
    names, cols = load_spans(path)
    assert names == ["fake.f"]
    assert {c: list(v) for c, v in cols.items()} == \
        {c: list(v) for c, v in tracer.cols.items()}
    assert cols["op"][0] == 5
