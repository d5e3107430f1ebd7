"""The scripts under tools/, run on small inputs."""

import importlib.util
import shutil
from pathlib import Path

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
