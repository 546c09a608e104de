import json
import os
import subprocess
import sys

import pytest

import wordmap

import wordmap.matrices as matrices
from wordmap.cli import main
from wordmap.commutators import solve_commutator_product
from wordmap.errors import VerificationFailed
from wordmap.fields import Field
from wordmap.matrices import Matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_threshold_command(capsys):
    code, out, _ = run(capsys, "threshold", "--k1", "2", "--k2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["threshold"] == 256
    assert data["schema"] == "wordmap/1"


def test_solve_comm_m4_f2(capsys):
    code, out, _ = run(
        capsys, "solve", "--field", "Fp:2", "--word", "comm:m=4",
        "--matrix", '{"rows":2,"cols":2,"entries":[[1,0],[0,1]]}')
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert len(data["witnesses"]) == 4


def test_solve_then_verify_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "solve", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2",
        "--matrix", '{"rows":2,"cols":2,"entries":[[0,1],[0,0]]}')
    assert code == 0
    wit = tmp_path / "wit.json"
    wit.write_text(out)
    code, out2, _ = run(capsys, "verify", "--witness", str(wit))
    assert code == 0
    assert json.loads(out2)["verified"] is True


def test_verify_detects_bad_witness(tmp_path, capsys):
    code, out, _ = run(
        capsys, "solve", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2",
        "--matrix", '{"rows":2,"cols":2,"entries":[[0,1],[0,0]]}')
    data = json.loads(out)
    data["witnesses"][0]["entries"][0][0] = 3  # corrupt
    wit = tmp_path / "bad.json"
    wit.write_text(json.dumps(data))
    code, out2, _ = run(capsys, "verify", "--witness", str(wit))
    assert code == 2
    assert json.loads(out2)["verified"] is False


def test_solve_nonzero_trace_exits_2(capsys):
    code, _, err = run(
        capsys, "solve", "--field", "Q", "--word", "comm:m=2",
        "--matrix", '{"rows":2,"cols":2,"entries":[[1,0],[0,1]]}')
    assert code == 2
    assert "nonzero trace" in err


def test_solve_seed_determinism(capsys):
    argv = ["solve", "--field", "Fp:101", "--word", "diag:d=1,k=2;d=1,k=2",
            "--matrix", '{"rows":3,"cols":3,"entries":[[1,2,3],[4,5,6],[7,8,10]]}',
            "--seed", "7"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical


def test_count_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2",
        "--gamma", "1", "--out", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("q,m,")
    assert row.split(",")[5] == "4"  # S = 4 exactly


def test_enumerate_image(capsys):
    code, out, _ = run(
        capsys, "enumerate-image", "--field", "Fp:2", "--word", "comm:m=2",
        "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["image_size"] == 8 and data["total"] == 16
    assert data["surjective"] is False
    assert len(data["missing"]) == 8


def test_malformed_input_exits_1(capsys):
    code, _, err = run(capsys, "solve", "--field", "Fp:6", "--word", "comm:m=4",
                       "--matrix", '{"entries":[[1]]}')
    assert code == 1
    code, _, err = run(capsys, "solve", "--field", "Fp:5", "--word", "bogus",
                       "--matrix", '{"entries":[[1]]}')
    assert code == 1
    code, _, _ = run(capsys, "count", "--field", "Fp:5", "--word", "comm:m=2")
    assert code == 1


@pytest.mark.parametrize("word,entry", [("comm:m=4", '"1/0"'), ("comm:m=4", "null"),
                                        ("diag:d=1/0,k=2;d=1,k=2", '"1"')])
def test_bad_rational_input_exits_1_without_traceback(capsys, word, entry):
    code, out, err = run(capsys, "solve", "--field", "Q", "--word", word, "--matrix",
                         '{"rows":1,"cols":1,"entries":[[%s]]}' % entry)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("field,entry", [("Fp:5", "1.5"), ("Fp:5", '"abc"'), ("Fp:5", "null"),
                                         ("Fq:p=3,d=2,mod=[2,2,1]", "[0.5, 1]"),
                                         ("R:tol=1e-9", '"nan"'), ("C:tol=1e-9", '"inf"')])
def test_bad_entries_exit_1_without_traceback(capsys, field, entry):
    code, out, err = run(capsys, "solve", "--field", field, "--word", "comm:m=4",
                         "--matrix", '{"entries": [[%s, 0], [0, 1]]}' % entry)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("field,matrix,message", [
    ("Fp:7", '{"rows": 2, "cols": 2, "entries": [[true, false], [false, true]]}',
     "error: matrix entries must be numbers, not true or false"),
    ("Fq:p=2,d=2,mod=[1,1,1]", '{"entries": [[[1, true], [0]], [[0], [1]]]}',
     "error: matrix entries must be numbers, not true or false"),
    ("Fp:7", '{"rows": 2.7, "cols": 2, "entries": [[1, 0], [0, 1]]}',
     "error: matrix rows must be an integer, got 2.7"),
    ("Fp:7", '{"rows": 2, "cols": "2", "entries": [[1, 0], [0, 1]]}',
     "error: matrix cols must be an integer, got '2'"),
    ("Fp:7", '{"rows": true, "cols": 1, "entries": [[1]]}',
     "error: matrix rows must be an integer, got True"),
    ("Fp:7", "[[1, 2], [3, 4]]", "error: expected a JSON object"),
], ids=["bool-entries", "bool-coefficient", "float-rows", "string-cols", "bool-rows",
        "inline-array"])
def test_cli_refuses_booleans_non_integer_shapes_and_inline_arrays(capsys, field, matrix,
                                                                   message):
    code, out, err = run(capsys, "solve", "--field", field, "--word", "comm:m=4",
                         "--matrix", matrix)
    assert (code, out, err) == (1, "", message + "\n")
    code, out, err = run(capsys, "verify", "--witness", " [1, 2]")
    assert (code, out, err) == (1, "", "error: expected a JSON object\n")


def _solve_argv(matrix):
    return ["solve", "--field", "Fp:5", "--word", "comm:m=4", "--matrix", matrix]


def _verify_argv(**fields):
    data = {"field": "Fp:5", "word": "comm:m=2",
            "target": {"entries": [[0, 1], [0, 0]]}, "witnesses": []}
    data.update(fields)
    return ["verify", "--witness", json.dumps(data)]


@pytest.mark.parametrize("argv,file_text", [
    (_solve_argv("{path}"), "[[1, 0], [0, 1]]"),
    (_solve_argv("{path}"), '"abc"'),
    (_solve_argv('{"entries": 5}'), None),
    (_solve_argv('{"entries": [1, 2]}'), None),
    (_solve_argv('{"field": 5, "entries": [[1, 0], [0, 1]]}'), None),
    (_solve_argv('{"rows": null, "entries": [[1, 0], [0, 1]]}'), None),
    (_verify_argv(witnesses=5), None),
    (_verify_argv(witnesses=[5]), None),
    (_verify_argv(word=5), None),
    (_verify_argv(field=5), None),
], ids=["array-file", "string-file", "entries-int", "entries-flat", "field-int",
        "rows-null", "witnesses-int", "witness-int", "word-int", "verify-field-int"])
def test_malformed_json_exits_1_without_traceback(tmp_path, capsys, argv, file_text):
    if file_text is not None:
        path = tmp_path / "matrix.json"
        path.write_text(file_text)
        argv = [str(path) if a == "{path}" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["solve", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2",
      "--matrix", '{"entries": []}'], "at least one row and one column"),
    (["solve", "--field", "Fp:5", "--word", "comm:m=4", "--matrix", '{"entries": []}'],
     "at least one row and one column"),
    (["solve", "--field", "Fp:5", "--word", "comm:m=4", "--matrix", '{"entries": [[]]}'],
     "at least one row and one column"),
    (["solve", "--field", "Fp:5", "--word", "comm:m=4", "--matrix", '{"entries": [[1]]}',
      "--out", "csv"], "invalid choice: 'csv'"),
    (["enumerate-image", "--field", "Fp:2", "--word", "comm:m=2", "--n", "1",
      "--out", "csv"], "invalid choice: 'csv'"),
    (["verify", "--witness", '{"field": "Fp:5", "word": "comm:m=2", "witnesses": []}'],
     "missing key 'target'"),
], ids=["diag-empty", "comm-empty", "comm-no-columns", "solve-csv", "image-csv",
        "verify-no-target"])
def test_boundary_inputs_exit_1_without_traceback(capsys, argv, message):
    # only count writes CSV; an empty matrix has no Jordan form
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_real_field_solve(capsys):
    code, out, _ = run(
        capsys, "solve", "--field", "R:tol=1e-9", "--word", "diag:d=1,k=2;d=1,k=2",
        "--matrix", '{"rows":2,"cols":2,"entries":[[0.0,1.0],[0.0,0.0]]}')
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_extension_field_cli(capsys):
    code, out, _ = run(
        capsys, "solve", "--field", "Fq:p=2,d=2,mod=[1,1,1]", "--word", "comm:m=4",
        "--matrix", '{"rows":2,"cols":2,"entries":[[[0,1],[0,0]],[[1,1],[1,0]]]}')
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_with_target_override(tmp_path, capsys):
    code, out, _ = run(
        capsys, "solve", "--field", "Fp:7", "--word", "comm:m=4",
        "--matrix", '{"rows":2,"cols":2,"entries":[[1,2],[3,4]]}')
    assert code == 0
    wit = tmp_path / "w.json"
    wit.write_text(out)
    code, out2, _ = run(capsys, "verify", "--witness", str(wit),
                        "--matrix", '{"rows":2,"cols":2,"entries":[[1,2],[3,4]]}')
    assert code == 0
    code, out3, _ = run(capsys, "verify", "--witness", str(wit),
                        "--matrix", '{"rows":2,"cols":2,"entries":[[0,2],[3,4]]}')
    assert code == 2


def test_enumerate_image_cap_exit(capsys):
    code, _, err = run(capsys, "enumerate-image", "--field", "Fp:7",
                       "--word", "comm:m=2", "--n", "3", "--cap", "1000")
    assert code == 1  # cap violations are usage-level, not math negatives


@pytest.mark.parametrize("n", ["0", "-2"])
def test_enumerate_image_needs_a_positive_size(capsys, n):
    code, out, err = run(capsys, "enumerate-image", "--field", "Fp:2",
                         "--word", "comm:m=2", "--n", n)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_count_extension_field(capsys):
    code, out, _ = run(
        capsys, "count", "--field", "Fq:p=2,d=2,mod=[1,1,1]",
        "--word", "diag:d=1,k=2;d=1,k=2", "--gamma", "1")
    assert code == 0
    data = json.loads(out)
    assert data["expected"] == 4


def test_solve_text_output(capsys):
    code, out, _ = run(
        capsys, "solve", "--field", "Fp:5", "--word", "diag:d=1,k=2;d=1,k=2",
        "--matrix", '{"rows":2,"cols":2,"entries":[[0,1],[0,0]]}', "--out", "text")
    assert code == 0
    assert "verified: True" in out


def test_solve_failed_verification_exits_1_without_traceback(capsys):
    matrix = json.dumps({"rows": 2, "cols": 2,
                         "entries": [[-5279.038, -7936.679], [-2078.835, -6900.555]]})
    code, out, err = run(capsys, "solve", "--field", "R:tol=1e-9", "--word", "comm:m=4",
                         "--matrix", matrix)
    assert code == 1
    assert out == ""
    assert "no eigenvector" in err
    assert "Traceback" not in err


def test_failed_chain_check_exits_1_without_traceback(capsys, monkeypatch):
    # a kernel chain that contradicts a certified factor is an internal
    # consistency failure: the library raises VerificationFailed, and the
    # CLI prints one error line. Passing the chain-tops step, which both
    # kernel sources (Krylov basis and nullspaces) reach, one more than the
    # factor degree makes its own dimension check fail.
    chain_tops = matrices._chain_tops
    monkeypatch.setattr(matrices, "_chain_tops",
                        lambda kern, kers, d, apply_a, apply_b:
                        chain_tops(kern, kers, d + 1, apply_a, apply_b))
    F5 = Field("prime", p=5)
    with pytest.raises(VerificationFailed, match="incompatible with factor degree"):
        solve_commutator_product(Matrix.from_rows(F5, [[1, 2], [3, 4]]), 4)
    code, out, err = run(capsys, "solve", "--field", "Fp:5", "--word", "comm:m=4",
                         "--matrix", '{"rows":2,"cols":2,"entries":[[1,2],[3,4]]}')
    assert code == 1
    assert out == ""
    assert err == "error: kernel dimensions incompatible with factor degree\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # parsing keeps no state in the parser, so one serves every call
    import wordmap.cli as cli

    cli._parser.cache_clear()
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    argv = ("threshold", "--k1", "2", "--k2", "3")
    first = run(capsys, *argv)
    code, out, err = run(capsys, "threshold", "--k1", "2")
    assert (code, out) == (1, "")
    assert "the following arguments are required: --k2" in err
    assert run(capsys, *argv) == first
    assert built == [1]


def test_tolerance_option_is_refused(capsys):
    # R/C tolerances are set by the field spec (R:tol=...) alone
    code, out, err = run(capsys, "solve", "--field", "R:tol=1e-9", "--tolerance", "1e-6",
                         "--word", "comm:m=4", "--matrix", '{"entries":[[1.0]]}')
    assert code == 1
    assert out == ""
    assert err.startswith("usage: wordmap")
    assert "unrecognized arguments: --tolerance 1e-6" in err
    assert "Traceback" not in err


HUGE_K = str(10 ** 30)


@pytest.mark.parametrize("argv,code", [
    (["--field", "Q", "--word", f"diag:d=1,k={HUGE_K}", "--matrix", '{"entries":[["2"]]}'], 2),
    (["--field", "Fp:7", "--word", f"diag:d=1,k={HUGE_K};d=1,k={HUGE_K}",
      "--matrix", '{"entries":[[2,1],[0,2]]}'], 0),
], ids=["Q-not-a-power", "Fp7-jordan-block"])
def test_huge_exponents_answer_at_once(argv, code):
    """A k-th root over Q and the power sum of an invertible Jordan block
    once took time linear in k; a subprocess with a timeout keeps a
    regression from hanging the suite."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordmap.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "wordmap.cli", "solve", *argv],
                          capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["verified"] is True
    else:
        assert proc.stderr.startswith("NotFound: ")
