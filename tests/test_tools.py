"""The scripts under tools/, run on small inputs."""

import importlib.util
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
