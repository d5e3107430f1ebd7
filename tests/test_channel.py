"""Error sampling, seeded campaigns, and report determinism."""

import re

import numpy as np
import pytest

from tzcode import FieldCtx, build_code, rank_weight
from tzcode.channel import (
    MISCORRECTION,
    ChannelSpec,
    random_error,
    random_message,
    simulate,
    trial_rng,
)
from tzcode.decoder import FAILURE_REASONS
from tzcode.errors import InvalidParameter
from tzcode.linalg import fq_rank

from conftest import in_subfield, locators, ref_random_error, ref_random_message


def test_zero_rank_error_is_zero_vector(code5):
    rng = trial_rng(0, 0)
    e, decomp = random_error(code5, ChannelSpec(t=0), rng)
    assert all(x.is_zero() for x in e)
    assert decomp.a.shape == (0, 4) and decomp.B.shape == (0, 4)


def test_decompositions_compare_by_value(code5):
    spec = ChannelSpec(t=2)
    first, again, other = (random_error(code5, spec, trial_rng(seed, 0))[1] for seed in (7, 7, 8))
    assert first is not again and first == again and not first != again
    assert first != other
    assert first != (first.a, first.B)


def test_error_rank_matches_target(code5, code332):
    for code in (code5, code332):
        for t in range(0, code.ctx.m + 1):
            rng = trial_rng(1, t)
            for _ in range(25):
                e, _ = random_error(code, ChannelSpec(t=t), rng)
                assert rank_weight(e) == t


def test_subfield_errors_fixed_by_half_power(code5):
    rng = trial_rng(2, 0)
    for _ in range(25):
        e, decomp = random_error(code5, ChannelSpec(t=2, subfield_only=True), rng)
        assert all(x.frobenius(code5.ctx.n) == x for x in e)
        assert all(in_subfield(a) for a in code5.ctx.unpack(decomp.a))


def test_planted_locators_match_definition(code5):
    # the locators helper against d^T = B mu^(q^k)^T, entry by entry
    rng = trial_rng(3, 0)
    for _ in range(10):
        _, decomp = random_error(code5, ChannelSpec(t=2), rng)
        d = code5.ctx.unpack(locators(code5, decomp.B))
        mu_k = [x.frobenius(code5.k) for x in code5.mu]
        for l in range(2):
            acc = code5.ctx.zero
            for j in range(4):
                acc = acc + mu_k[j].scale(int(decomp.B[l, j]))
            assert d[l] == acc


def test_spec_validation(code5):
    with pytest.raises(InvalidParameter):
        ChannelSpec(t=5).validate(code5)
    with pytest.raises(InvalidParameter):
        ChannelSpec(t=3, subfield_only=True).validate(code5)
    ChannelSpec(t=2, subfield_only=True).validate(code5)


@pytest.mark.parametrize("spec, trials, message", [
    (ChannelSpec(1, seed=1.5), 1, "seed must be an integer, got 1.5"),
    (ChannelSpec(t=1.5), 1, "t must be an integer, got 1.5"),
    (ChannelSpec(t=True), 1, "t must be an integer, got True"),
    (ChannelSpec(1), 2.5, "trials must be an integer, got 2.5"),
    (ChannelSpec(1, seed=-1), 1, "seed must lie in [0, 2^128), got -1"),
    (ChannelSpec(1, seed=2**128), 1, f"seed must lie in [0, 2^128), got {2**128}"),
])
def test_simulate_rejects_a_parameter_that_is_no_integer_in_range(code321, spec, trials, message):
    # a Python int, not a bool, and a seed that is a Philox key: nothing is
    # coerced, and nothing reaches the draw
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        simulate(code321, spec, trials)
    if trials == 1:
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            random_error(code321, spec, trial_rng(0, 0))


def test_the_largest_seed_is_a_philox_key(code321):
    report = simulate(code321, ChannelSpec(1, seed=2**128 - 1), 2)
    assert report.params["seed"] == 2**128 - 1 and report.trials == 2


def test_error_draw_is_reproducible(code5):
    spec = ChannelSpec(t=2, seed=7)
    e1, d1 = random_error(code5, spec, trial_rng(7, 5))
    e2, d2 = random_error(code5, spec, trial_rng(7, 5))
    assert e1 == e2
    assert np.array_equal(d1.a, d2.a) and np.array_equal(d1.B, d2.B)


def test_simulate_rejects_a_negative_trial_count(code321):
    with pytest.raises(InvalidParameter, match="trials"):
        simulate(code321, ChannelSpec(t=1, seed=3), -1)
    assert simulate(code321, ChannelSpec(t=1, seed=3), 0).trials == 0


def test_simulate_error_free_channel(code321):
    report = simulate(code321, ChannelSpec(t=0, seed=3), 50)
    assert report.successes == 50
    assert report.failures_by_reason == {}


def test_simulate_reports_are_byte_identical(code321):
    spec = ChannelSpec(t=1, seed=11)
    r1 = simulate(code321, spec, 60)
    r2 = simulate(code321, spec, 60)
    assert r1.canonical_json() == r2.canonical_json()
    assert r1.successes == 60


def test_simulate_accounting_beyond_radius(code321):
    # rank 2 exceeds the radius: trials split between failures, miscorrections,
    # and nothing else, and the tallies always add up
    spec = ChannelSpec(t=2, seed=13)
    report = simulate(code321, spec, 80)
    assert report.successes + sum(report.failures_by_reason.values()) == 80
    assert report.successes == 0  # a within-radius decode can never equal the plant
    assert report.failures_by_reason  # something must have been tallied
    for reason in report.failures_by_reason:
        assert reason == MISCORRECTION or reason in FAILURE_REASONS


def test_simulate_within_radius_all_parameter_sets(code321, code332):
    for code, t, sub in ((code321, 1, False), (code332, 1, False), (code332, 2, True)):
        report = simulate(code, ChannelSpec(t=t, subfield_only=sub, seed=17), 50)
        assert report.successes == 50, report.failures_by_reason


def test_report_params_echo(code5):
    report = simulate(code5, ChannelSpec(t=1, subfield_only=True, seed=23), 5)
    assert report.params["q"] == 5 and report.params["n"] == 2
    assert report.params["rng"] == "philox4x64"
    assert report.params["seed"] == 23
    assert set(report.timing) == {"mean_ms", "p50_ms", "p95_ms", "max_ms"}


class CountingRng:
    """A Generator stand-in that logs the size of every integers draw."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def integers(self, low, high, size, **kwargs):
        self.sizes.append(size)
        return self.rng.integers(low, high, size, **kwargs)


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_one_draw_per_word_keeps_the_stream(q, n):
    # random_message and random_error draw a word's digits in one call; a
    # bounded Philox draw takes its values from the stream one after the
    # other however the calls split it, so the element-by-element reference
    # gives the same words, decompositions and following draws, at every t
    # and through the rejected rank-deficient draws (frequent at q=3, n=2)
    code = build_code(FieldCtx(q, n), 1)
    rejected = 0
    for subfield in (False, True):
        for t in range(n + 1 if subfield else 2 * n + 1):
            spec = ChannelSpec(t=t, subfield_only=subfield)
            for seed in range(20 if (q, n) == (3, 2) else 3):
                new, ref = CountingRng(trial_rng(seed, t)), trial_rng(seed, t)
                assert random_message(code, new) == ref_random_message(code, ref)
                new.sizes.clear()
                (e, decomp), (e_ref, decomp_ref) = (
                    random_error(code, spec, new), ref_random_error(code, spec, ref))
                assert e == e_ref and np.array_equal(decomp.a, decomp_ref.a)
                assert np.array_equal(decomp.B, decomp_ref.B)
                assert np.array_equal(new.rng.integers(0, q, 5), ref.integers(0, q, 5))
                assert np.array_equal(new.rng.integers(0, 2**62, 3), ref.integers(0, 2**62, 3))
                rejected += len(new.sizes) > 2
    if (q, n) == (3, 2):
        assert rejected >= 20


def test_error_draw_builds_only_the_error(monkeypatch):
    # random_error unpacks the error and nothing else: it hands a back packed
    # and plants no locators, so it never reads the code's locator tables
    code = build_code(FieldCtx(3, 3), 2)
    unpacked = []
    monkeypatch.setattr(FieldCtx, "unpack", lambda self, arr, _orig=FieldCtx.unpack:
                        unpacked.append(1) or _orig(self, arr))

    class Reads:
        """The code, logging the name of every attribute read off it."""

        def __init__(self):
            self.names = []

        def __getattr__(self, name):
            self.names.append(name)
            return getattr(code, name)

    for t, subfield in ((0, False), (2, False), (3, True), (6, False)):
        reads = Reads()
        unpacked.clear()
        e, decomp = random_error(reads, ChannelSpec(t=t, subfield_only=subfield), trial_rng(4, t))
        assert unpacked == [1] and "mu_k" not in reads.names
        assert decomp.a.dtype == np.int64 and decomp.a.shape == (t, code.ctx.m)
        assert rank_weight(e) == t


def test_each_word_is_one_draw(monkeypatch):
    # random_message draws once; each random_error attempt draws a once (t
    # subfield digits rows or t coefficient rows) or B once, and ranks that
    # draw once, as drawn: a subfield attempt ranks its digits, not the
    # elements they map to.  q=3, n=2 rejects often, so attempts repeat
    import tzcode.channel as channel

    code = build_code(FieldCtx(3, 2), 1)
    ctx = code.ctx
    ranked = []
    monkeypatch.setattr(channel, "fq_rank", lambda a, q: ranked.append(a.shape) or fq_rank(a, q))
    repeated = 0
    for t in range(1, ctx.m + 1):
        for subfield in (False, True) if t <= ctx.n else (False,):
            for seed in range(10):
                rng = CountingRng(trial_rng(seed, t))
                random_message(code, rng)
                assert rng.sizes == [(2 * code.k, ctx.n)]
                rng.sizes.clear()
                ranked.clear()
                random_error(code, ChannelSpec(t=t, subfield_only=subfield), rng)
                assert ranked == rng.sizes
                tries_a = rng.sizes.count((t, ctx.n)) if subfield else 0
                assert rng.sizes == [(t, ctx.n)] * tries_a + [(t, ctx.m)] * (len(ranked) - tries_a)
                repeated += len(ranked) > 2
    assert repeated
