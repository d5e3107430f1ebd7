"""Command-line entry points."""

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
