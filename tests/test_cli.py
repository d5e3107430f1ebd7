"""Command-line entry points."""

from tzcode.cli import main


def test_bench_prints_one_row_per_size(capsys):
    assert main(["bench", "--q", "3", "--sizes", "2,3", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q=3  decode wall time"
    assert [line.split()[:3] for line in lines[2:4]] == [["2", "1", "1"], ["3", "1", "2"]]
    assert lines[4].startswith("log-log slope:")


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out
