"""Command line front end.

Subcommands: solve, verify, enumerate-image, count, threshold.  Matrices are
JSON objects {"field": spec, "rows": n, "cols": n, "entries": [[...], ...]}
with entries encoded per field kind: integers (prime fields), coefficient
arrays (extensions), "a/b" strings (Q), floats (R), [re, im] pairs (C).

Exit codes: 0 success; 2 for mathematically meaningful negatives (NotFound,
Unsupported, nonzero trace, failed verification of a supplied witness);
1 for malformed input or internal errors.

A command imports the solver or counting function it runs when it runs, so
a process compiles only the modules its command calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    NonzeroTrace,
    NotFound,
    Unsupported,
    UsageError,
    WitnessNotFound,
    WordmapError,
)
from .fields import Field, parse_field_spec
from .matrices import Matrix
from .words import CommutatorProduct, DiagonalWord, eval_word, parse_word, require_int

SCHEMA = "wordmap/1"
NEGATIVE = (NotFound, Unsupported, NonzeroTrace, WitnessNotFound)


def _load_json_arg(text: str) -> dict:
    """Inline JSON when the text opens an object or an array, else a path."""
    text = text.strip()
    if text.startswith(("{", "[")):
        data = json.loads(text)
    else:
        with open(text, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("expected a JSON object")
    return data


def matrix_from_json(obj: dict, field: Field) -> Matrix:
    if not isinstance(obj, dict):
        raise UsageError("a matrix must be a JSON object")
    if "field" in obj and obj["field"] != field.spec_string():
        other = parse_field_spec(obj["field"])
        if other.key != field.key:
            raise UsageError(
                f"matrix field {obj['field']!r} does not match {field.spec_string()!r}")
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise UsageError("matrix entries must be a list of rows")
    if _holds_bool(entries):
        raise UsageError("matrix entries must be numbers, not true or false")
    rows = obj.get("rows", len(entries))
    cols = obj.get("cols", len(entries[0]) if entries else 0)
    require_int(rows, "matrix rows")
    require_int(cols, "matrix cols")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise UsageError("matrix entries do not match the declared shape")
    if not rows or not cols:
        raise UsageError("a matrix needs at least one row and one column")
    return Matrix(field, [[field.entry_from_json(v) for v in row] for row in entries])


def _holds_bool(value) -> bool:
    """JSON true or false anywhere in a nest of lists."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def matrix_to_json(M: Matrix) -> dict:
    field = M.field
    return {
        "field": field.spec_string(),
        "rows": M.nrows,
        "cols": M.ncols,
        "entries": [[field.entry_to_json(field.element(v)) for v in row] for row in M.reps],
    }


def _emit(payload: dict, out: str) -> None:
    if out == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return
    for key, value in payload.items():
        if key == "schema":
            continue
        sys.stdout.write(f"{key}: {value}\n")


def _cmd_solve(args) -> int:
    field = parse_field_spec(args.field)
    word = parse_word(args.word, field)
    target = matrix_from_json(_load_json_arg(args.matrix), field)
    if isinstance(word, CommutatorProduct):
        from .commutators import solve_commutator_product
        witness = solve_commutator_product(target, word.m, seed=args.seed)
    else:
        from .diagonal import solve_diagonal_word
        witness = solve_diagonal_word(target, word, seed=args.seed)
    payload = {
        "schema": SCHEMA,
        "command": "solve",
        "field": field.spec_string(),
        "word": args.word,
        "seed": args.seed,
        "target": matrix_to_json(target),
        "witnesses": [matrix_to_json(M) for M in witness.matrices],
        "conjugators": [matrix_to_json(M) for M in witness.conjugators],
        "verified": True,
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    data = _load_json_arg(args.witness)
    field = parse_field_spec(data["field"])
    word = parse_word(data["word"], field)
    if args.matrix is not None:
        target = matrix_from_json(_load_json_arg(args.matrix), field)
    else:
        target = matrix_from_json(data["target"], field)
    if not isinstance(data["witnesses"], list):
        raise UsageError("witnesses must be a list of matrices")
    mats = [matrix_from_json(obj, field) for obj in data["witnesses"]]
    got = eval_word(word, mats)
    ok = got.allclose(target)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "field": field.spec_string(),
        "word": data["word"],
        "verified": ok,
    }
    _emit(payload, args.out)
    return 0 if ok else 2


def _cap(args) -> dict:
    """``cap=`` for a counting call when --cap was given; without it the
    function's own default, counting.DEFAULT_CAP, applies."""
    return {} if args.cap is None else {"cap": args.cap}


def _cmd_enumerate_image(args) -> int:
    from .counting import image_enumerate
    field = parse_field_spec(args.field)
    word = parse_word(args.word, field)
    summary = image_enumerate(word, args.n, field, **_cap(args))
    payload = {
        "schema": SCHEMA,
        "command": "enumerate-image",
        "field": field.spec_string(),
        "word": args.word,
        "n": args.n,
        "image_size": summary.size,
        "total": summary.total,
        "surjective": summary.surjective,
        "missing": [matrix_to_json(M) for M in summary.missing],
    }
    _emit(payload, args.out)
    return 0


def _cmd_count(args) -> int:
    from .counting import CSV_HEADER, count_solutions
    field = parse_field_spec(args.field)
    word = parse_word(args.word, field)
    if not isinstance(word, DiagonalWord):
        raise UsageError("count takes a diagonal word")
    gamma = field(int(args.gamma)) if field.kind in ("prime", "ext") \
        else field(args.gamma)
    report = count_solutions(field, [d for d, _ in word.terms],
                             [k for _, k in word.terms], gamma, **_cap(args))
    if args.out == "csv":
        sys.stdout.write(CSV_HEADER + "\n" + report.csv_row() + "\n")
        return 0
    payload = {
        "schema": SCHEMA,
        "command": "count",
        "field": field.spec_string(),
        "word": args.word,
        "gamma": repr(report.gamma),
        "count": report.count,
        "expected": report.expected,
        "bound": report.bound,
        "passes": report.passes,
    }
    _emit(payload, args.out)
    return 0


def _cmd_threshold(args) -> int:
    from .counting import threshold
    report = threshold(args.k1, args.k2)
    payload = {
        "schema": SCHEMA,
        "command": "threshold",
        "k1": report.k1,
        "k2": report.k2,
        "threshold": report.threshold,
        "note": report.note,
    }
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordmap",
        description="Solve and verify word equations on matrix algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=True, outs=("json", "text")):
        if field:
            p.add_argument("--field", required=True, help="Fp:7 | Fq:p=2,d=2,mod=[1,1,1] | Q | R:tol=1e-9 | C:tol=1e-9")
        p.add_argument("--out", choices=outs, default="json")

    p = sub.add_parser("solve", help="solve a word equation and emit a verified witness")
    common(p)
    p.add_argument("--word", required=True, help="comm:m=4 | diag:d=1,k=2;d=3,k=5")
    p.add_argument("--matrix", required=True, help="target matrix: JSON file path or inline JSON")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="re-evaluate a solve output against its target")
    common(p, field=False)
    p.add_argument("--witness", required=True, help="witness JSON (path or inline)")
    p.add_argument("--matrix", default=None, help="optional target override")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate-image", help="exact image of a word map on M_n(F_q)")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_enumerate_image)

    p = sub.add_parser("count", help="count scalar solutions and check the bound")
    common(p, outs=("json", "text", "csv"))
    p.add_argument("--word", required=True, help="diagonal word giving deltas and exponents")
    p.add_argument("--gamma", default="1", help="target value (field literal)")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("threshold", help="scalar two-solution threshold k1^4*k2^4")
    common(p, field=False)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.set_defaults(func=_cmd_threshold)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing keeps no
    state in it, and building it costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NEGATIVE as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (WordmapError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        missing = "missing key " if isinstance(exc, KeyError) else ""
        sys.stderr.write(f"error: {missing}{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
