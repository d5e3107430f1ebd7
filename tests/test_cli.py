"""Command-line entry points."""

import json

import pytest

from tzcode.cli import EXIT_BAD_PARAMS, main


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_gen_rejects_an_empty_basis(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["gen", "--q", "3", "--n", "2", "--k", "1", "--lam", "[]", "--out", str(out)]
    assert main(argv) == EXIT_BAD_PARAMS
    assert "basis" in capsys.readouterr().err
    assert not out.exists()


def _params(tmp_path, **fields):
    path = tmp_path / "p.json"
    assert main(["gen", "--q", "3", "--n", "2", "--k", "1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data.update(fields)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("fields", [{"q": None}, {"gamma": 5}])
def test_a_parameter_of_the_wrong_type_is_a_bad_parameter(tmp_path, capsys, fields):
    path = _params(tmp_path, **fields)
    capsys.readouterr()
    assert main(["mindist", "--params", str(path)]) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err.startswith("error: ")


def test_a_vector_of_the_wrong_type_is_a_bad_parameter(tmp_path, capsys):
    words = tmp_path / "in.txt"
    words.write_text("5\n")
    out = tmp_path / "out.txt"
    argv = ["decode", "--params", str(_params(tmp_path)), "--in", str(words), "--out", str(out)]
    assert main(argv) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_mindist_over_budget_is_a_bad_parameter(tmp_path, capsys):
    path = _params(tmp_path)
    capsys.readouterr()
    assert main(["mindist", "--params", str(path), "--budget", "1"]) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err == "error: 81 codewords exceed the budget of 1\n"
