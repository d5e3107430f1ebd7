"""Brute-force enumeration oracles and their agreement with the decoder."""

import numpy as np
import pytest

from tzcode import build_code, oracle, rank_weight
from tzcode.channel import ChannelSpec, random_error, random_message, trial_rng
from tzcode.decoder import decode
from tzcode.errors import OracleBudgetExceeded
from tzcode.linalg import fq_rref, fq_solve
from tzcode.oracle import brute_force_decode, min_distance_bruteforce

from conftest import ext, ext_inv, plant


def test_codeword_decodes_to_itself(code321):
    rng = trial_rng(90, 0)
    cw = code321.encode(random_message(code321, rng))
    res = brute_force_decode(code321, cw)
    assert res.codeword == cw and res.distance == 0 and res.ties == 1


def test_min_distance_tiny_codes(code321, code322):
    assert min_distance_bruteforce(code321) == 4
    assert min_distance_bruteforce(code322) == 3


def test_budget_guard(code5):
    with pytest.raises(OracleBudgetExceeded):
        min_distance_bruteforce(code5, budget=1000)


def test_oracle_agrees_with_decoder_within_radius(code321):
    for trial in range(30):
        rng = trial_rng(91, trial)
        msg = random_message(code321, rng)
        cw = code321.encode(msg)
        e, _ = random_error(code321, ChannelSpec(t=1), rng)
        r = tuple(x + y for x, y in zip(cw, e))
        out = decode(code321, r)
        res = brute_force_decode(code321, r)
        assert out.success
        assert res.codeword == out.codeword == cw
        assert res.distance == 1 and res.ties == 1


def _midpoint(code321):
    """A word at rank distance 2 from two codewords of the (3,2,1) code.

    A minimum-weight difference split into two rank-2 halves: the midpoint
    sits at distance 2 from both codewords.
    """
    ctx = code321.ctx
    rng = trial_rng(92, 0)
    c1 = code321.encode(random_message(code321, rng))
    while True:
        m2 = random_message(code321, rng)
        c2 = code321.encode(m2)
        diff = tuple(x - y for x, y in zip(c2, c1))
        if rank_weight(diff) == 4:
            break
    basis = ctx.power_basis
    mat = ext(diff, basis)
    # rank factorization over F_q, then keep only the first two components
    rref, pivots = fq_rref(mat, 3)
    rows = rref[: len(pivots)]
    coef = fq_solve(rows.T, mat.T, 3).T  # mat = coef @ rows
    half = (coef[:, :2] @ rows[:2]) % 3
    e = ext_inv(half, basis)
    assert rank_weight(e) == 2
    assert rank_weight(tuple(x - y for x, y in zip(diff, e))) == 2
    return tuple(x + y for x, y in zip(c1, e))


def test_oracle_reports_ties_at_midpoints(code321):
    res = brute_force_decode(code321, _midpoint(code321))
    assert res.distance == 2
    assert res.ties >= 2


def test_oracle_leaves_the_code_unchanged(ctx3):
    code = build_code(ctx3, 1)
    before = dict(vars(code))
    msg, cw, _, _, r = plant(code, 1, trial_rng(94, 0))
    assert brute_force_decode(code, r).message == msg
    assert min_distance_bruteforce(code) == 4
    after = vars(code)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


@pytest.mark.parametrize("fixture", ["code321", "code322"])
def test_small_chunks_give_the_same_answers(fixture, request, monkeypatch):
    # with 7 codewords a chunk, the minimum, its first index and the ties
    # are all carried from chunk to chunk; the midpoint's two nearest
    # codewords, at indices 11 and 61, fall in different chunks
    code = request.getfixturevalue(fixture)
    rng = trial_rng(95, 0)
    words = [code.encode(random_message(code, rng))]
    words += [plant(code, t, rng)[-1] for t in (1, 1, 2, 2, 2)]
    if fixture == "code321":
        words.append(_midpoint(code))
    expected = [brute_force_decode(code, w) for w in words]
    distance = min_distance_bruteforce(code)
    assert max(res.ties for res in expected) >= 2
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    assert [brute_force_decode(code, w) for w in words] == expected
    assert min_distance_bruteforce(code) == distance


def test_oracle_on_limit_code_agrees(code5):
    # a couple of full 390k enumerations to pin the agreement on the larger code
    for trial in range(3):
        rng = trial_rng(93, trial)
        msg = random_message(code5, rng)
        cw = code5.encode(msg)
        e, _ = random_error(code5, ChannelSpec(t=1, subfield_only=True), rng)
        r = tuple(x + y for x, y in zip(cw, e))
        out = decode(code5, r)
        res = brute_force_decode(code5, r)
        assert out.success and res.codeword == out.codeword == cw
        assert res.ties == 1
