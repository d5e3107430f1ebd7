"""Command-line entry points."""

import json

import pytest

from tzcode.channel import ChannelSpec, random_error, random_message, simulate, trial_rng
from tzcode.cli import EXIT_BAD_PARAMS, main
from tzcode.paramfile import load_params, read_vectors, write_vectors


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


@pytest.mark.parametrize("fields", [
    {"q": None}, {"gamma": 5},
    # only JSON integers, and coefficients in [0, q): nothing is coerced
    {"q": 3.7}, {"q": True}, {"n": "2"}, {"k": 1.0},
    {"gamma": [1.5, 0, 0, 0]}, {"gamma": [1e30, 0, 0, 0]}, {"xi": [3, 0, 0, 0]},
    {"modulus": [1.0, 0, 0, 0, 1]},
    {"lambda": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, "1"]]},
])
def test_a_parameter_of_the_wrong_type_is_a_bad_parameter(tmp_path, capsys, fields):
    path = _params(tmp_path, **fields)
    capsys.readouterr()
    assert main(["mindist", "--params", str(path)]) == EXIT_BAD_PARAMS
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(fields))} ")  # names the key
    assert "integer" in err or "list" in err


@pytest.mark.parametrize("q", [-3, 1, 2, 9])
def test_a_bad_q_is_named_before_the_modulus(tmp_path, capsys, q):
    # q is checked as FieldCtx checks it before it bounds the modulus's
    # coefficients, so a q of 2 or less is not reported as a modulus fault
    path = _params(tmp_path, q=q)
    capsys.readouterr()
    assert main(["mindist", "--params", str(path)]) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err == f"error: q must be an odd prime, got {q}\n"


def test_a_vector_of_the_wrong_type_is_a_bad_parameter(tmp_path, capsys):
    # an entry that is not a list of JSON integers in [0, q) is named with its
    # line, and is neither coerced nor a crash
    params = str(_params(tmp_path))
    for line in ("5", "[1.5,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]",
                 "[true,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]",
                 '["2",0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]',
                 "[1e30,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]",
                 "[3,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]"):
        words = tmp_path / "in.txt"
        words.write_text(line + "\n")
        out = tmp_path / "out.txt"
        argv = ["decode", "--params", params, "--in", str(words), "--out", str(out)]
        assert main(argv) == EXIT_BAD_PARAMS, line
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(line) in err
        assert not out.exists()


def test_mindist_over_budget_is_a_bad_parameter(tmp_path, capsys):
    path = _params(tmp_path)
    capsys.readouterr()
    assert main(["mindist", "--params", str(path), "--budget", "1"]) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err == "error: 81 codewords exceed the budget of 1\n"


def test_gen_encode_decode_simulate_end_to_end(tmp_path, capsys):
    # messages encoded by the CLI, hit by rank-1 errors and decoded by it come
    # back as the encoded words; simulate prints the library's report
    path = tmp_path / "p.json"
    assert main(["gen", "--q", "3", "--n", "2", "--k", "1", "--out", str(path)]) == 0
    code = load_params(path)
    rng = trial_rng(7, 0)
    write_vectors(tmp_path / "msg.txt", [random_message(code, rng) for _ in range(5)])
    files = {name: str(tmp_path / f"{name}.txt") for name in ("msg", "cw", "rx", "dec")}
    assert main(["encode", "--params", str(path), "--msg", files["msg"], "--out", files["cw"]]) == 0
    codewords = read_vectors(files["cw"], code.ctx)
    spec = ChannelSpec(1, False, 7)
    write_vectors(files["rx"], [tuple(x + y for x, y in zip(cw, random_error(code, spec, rng)[0]))
                                for cw in codewords])
    assert main(["decode", "--params", str(path), "--in", files["rx"], "--out", files["dec"]]) == 0
    assert read_vectors(files["dec"], code.ctx) == codewords
    capsys.readouterr()
    argv = ["simulate", "--params", str(path), "--t", "1", "--seed", "7", "--trials", "5"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing"]
    assert report == simulate(code, spec, 5).canonical()


def test_simulate_rejects_a_negative_trial_count(tmp_path, capsys):
    path = _params(tmp_path)
    capsys.readouterr()
    argv = ["simulate", "--params", str(path), "--t", "1", "--trials", "-1"]
    assert main(argv) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err == "error: trials must be at least 0, got -1\n"


def test_simulate_rejects_a_seed_that_is_no_philox_key(tmp_path, capsys):
    path = _params(tmp_path)
    capsys.readouterr()
    argv = ["simulate", "--params", str(path), "--t", "1", "--seed", "-1"]
    assert main(argv) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err == "error: seed must lie in [0, 2^128), got -1\n"


def test_a_truncated_parameter_file_is_a_bad_parameter(tmp_path, capsys):
    path = _params(tmp_path)
    path.write_text(path.read_text()[:-10])
    capsys.readouterr()
    assert main(["mindist", "--params", str(path)]) == EXIT_BAD_PARAMS
    assert capsys.readouterr().err.startswith("error: ")
