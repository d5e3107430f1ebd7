"""Error sampling, seeded campaigns, and report determinism."""

import numpy as np
import pytest

from tzcode import rank_weight
from tzcode.channel import (
    MISCORRECTION,
    ChannelSpec,
    random_error,
    random_message,
    simulate,
    trial_rng,
)
from tzcode.errors import InvalidParameter

from conftest import in_subfield


def test_zero_rank_error_is_zero_vector(code5):
    rng = trial_rng(0, 0)
    e, decomp = random_error(code5, ChannelSpec(t=0), rng)
    assert all(x.is_zero() for x in e)
    assert decomp.a == () and decomp.B.shape == (0, 4)


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
        assert all(in_subfield(a) for a in decomp.a)


def test_planted_locators_match_definition(code5):
    # d^T = B mu^(q^k)^T, entry by entry
    rng = trial_rng(3, 0)
    for _ in range(10):
        _, decomp = random_error(code5, ChannelSpec(t=2), rng)
        mu_k = [x.frobenius(code5.k) for x in code5.mu]
        for l in range(2):
            acc = code5.ctx.zero
            for j in range(4):
                acc = acc + mu_k[j].scale(int(decomp.B[l, j]))
            assert decomp.d[l] == acc


def test_spec_validation(code5):
    with pytest.raises(InvalidParameter):
        ChannelSpec(t=5).validate(code5)
    with pytest.raises(InvalidParameter):
        ChannelSpec(t=3, subfield_only=True).validate(code5)
    ChannelSpec(t=2, subfield_only=True).validate(code5)


def test_error_draw_is_reproducible(code5):
    spec = ChannelSpec(t=2, seed=7)
    e1, d1 = random_error(code5, spec, trial_rng(7, 5))
    e2, d2 = random_error(code5, spec, trial_rng(7, 5))
    assert e1 == e2
    assert d1.a == d2.a and np.array_equal(d1.B, d2.B)


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
        assert reason == MISCORRECTION or reason in (
            "SpanDimMismatch",
            "RootCountMismatch",
            "LambdaNotInSubfield",
            "NoRankFound",
            "LocatorSystemInconsistent",
        )


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
