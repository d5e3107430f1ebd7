"""The scripts under tools/, run on small inputs."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_paired_decode_compares_one_tree_with_itself(capsys, monkeypatch):
    src = str(ROOT / "src")
    tool = _tool("paired_decode")
    for var in tool.THREAD_VARS:  # restored after the test, whatever main sets
        monkeypatch.setenv(var, "1")
    for args in (["--q", "3", "--n", "2", "--k", "1", "--t", "1"],
                 ["--q", "3", "--n", "2", "--k", "2", "--t", "1", "--subfield"]):
        assert tool.main([src, src, *args, "--words", "6"]) == 0
        out = capsys.readouterr().out
        assert "every outcome equal" in out
        assert [line.split()[0] for line in out.splitlines()[2:]] == list(tool.STAGES)


def test_paired_decode_compares_only_the_tables_both_trees_hold(capsys, monkeypatch, tmp_path):
    # a tree that holds a table the other does not: the table is named, not
    # compared, and the run goes on
    tool = _tool("paired_decode")
    for var in tool.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(tool, "SETUP_PAIRS", 2)
    monkeypatch.setattr(tool, "TABLES", (*tool.TABLES, "_extra_table"))
    shutil.copytree(ROOT / "src" / "tzcode", tmp_path / "tzcode")
    with open(tmp_path / "tzcode" / "construct.py", "a") as fh:
        fh.write("\nTZCode._extra_table = property(lambda self: self._enc_mat.T)\n")
    args = ["--q", "3", "--n", "2", "--k", "1", "--t", "1", "--words", "4"]
    assert tool.main([str(tmp_path), str(ROOT / "src"), *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tables held by the parent tree only: _extra_table"
    assert "every shared table and every outcome equal" in lines[1]


@pytest.mark.parametrize("patch, differs", [
    ("np.asarray(self._enc_mat, np.float64)", False),
    ("self._enc_mat[::-1].copy()", True),
], ids=["dtype-only", "values"])
def test_paired_decode_compares_table_values_not_dtypes(capsys, monkeypatch, tmp_path, patch,
                                                        differs):
    # a tree that holds a table in another dtype passes and names both
    # dtypes; one whose table holds other values stops at set-up
    tool = _tool("paired_decode")
    for var in tool.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(tool, "SETUP_PAIRS", 2)
    shutil.copytree(ROOT / "src" / "tzcode", tmp_path / "tzcode")
    with open(tmp_path / "tzcode" / "construct.py", "a") as fh:
        fh.write("\n_built = TZCode.__init__\n\n\n"
                 "def _rebuilt(self, *args):\n"
                 "    _built(self, *args)\n"
                 f"    self._enc_mat = {patch}\n\n\n"
                 "TZCode.__init__ = _rebuilt\n")
    args = ["--q", "3", "--n", "2", "--k", "1", "--t", "1", "--words", "4"]
    code = tool.main([str(tmp_path), str(ROOT / "src"), *args])
    out, err = capsys.readouterr()
    if differs:
        assert code == 1 and err == "setup: the codes differ in _enc_mat\n"
    else:
        lines = out.splitlines()
        assert code == 0 and lines[0] == "_enc_mat: parent dtype float64, change dtype float32"
        assert "every shared table and every outcome equal" in lines[1]
