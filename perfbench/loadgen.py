"""Closed-loop load: one client replays simulate()'s trial loop through the public API.

A trial is trial_rng, random_message, TZCode.encode, random_error, decode
and the check of the outcome against the plant; the next trial starts when
the previous one has finished.  encode and decode are timed from outside.
Every name is looked up on the package at call time, so the same loop runs
through the tracer's wrappers when they are installed.
"""

from __future__ import annotations

import gc
import importlib
import time
from dataclasses import dataclass

from speed import Timed, at_full_speed

OK = "ok"
MISCORRECTION = "Miscorrection"  # the tally name simulate() uses


class CheckFailed(Exception):
    """A correctness gate failed; the run reports no result."""


@dataclass
class Trial:
    outcome: str          # OK, MISCORRECTION or the decoder's failure reason
    encode_s: float
    decode_s: float


def build(tz, w):
    """FieldCtx plus build_code from scratch: the workload's set-up."""
    return tz.build_code(tz.FieldCtx(w.q, w.n), w.k)


def run_trial(tz, code, spec, index: int) -> Trial:
    """One trial, checked against its plant."""
    rng = tz.trial_rng(spec.seed, index)
    msg = tz.random_message(code, rng)
    t0 = time.perf_counter()
    cw = code.encode(msg)
    t1 = time.perf_counter()
    e, _ = tz.random_error(code, spec, rng)
    r = tuple(x + y for x, y in zip(cw, e))
    t2 = time.perf_counter()
    out = tz.decode(code, r)
    t3 = time.perf_counter()
    if out.success and out.codeword == cw and out.message == msg and out.error == e:
        outcome = OK
    elif out.success:
        outcome = MISCORRECTION
    else:
        outcome = out.failure_reason
    return Trial(outcome, t1 - t0, t3 - t2)


def closed_loop(run, probe, seconds: float, min_full: int) -> list:
    """Call run(0), run(1), ... until `seconds` passed and min_full of the
    calls ran at full speed (speed.py), or for 1.2 times `seconds` at most.

    The speed probe's kernel runs between consecutive trials, so each trial
    is bracketed by the kernel readings just before and just after it.
    """
    out = []
    start = time.perf_counter()
    before = probe.kernel()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= 1.2 * seconds or (
                elapsed >= seconds
                and sum(at_full_speed(c, probe.fastest) for c in out) >= min_full):
            return out
        t0 = time.perf_counter()
        result = run(len(out))
        raw = time.perf_counter() - t0
        after = probe.kernel()
        out.append(Timed(result, raw, (before, after)))
        before = after


def timed_setups(setup, probe, min_reps: int, seconds: float):
    """Call setup() until min_reps ran and `seconds` went into them, each
    call bracketed by the kernel; return the last result and the Timed calls."""
    calls = []
    spent = 0.0
    while len(calls) < min_reps or spent < seconds:
        # field contexts hold reference cycles: free the previous set-up now,
        # so that repeating it does not raise the peak RSS
        if calls:
            calls[-1].result = None
        gc.collect()
        calls.append(probe.timed(setup))
        spent += calls[-1].seconds
    return calls[-1].result, calls


def tally(outcomes) -> tuple:
    """(successes, failures by reason) in simulate()'s canonical form."""
    failures = {}
    for o in outcomes:
        if o != OK:
            failures[o] = failures.get(o, 0) + 1
    return sum(o == OK for o in outcomes), dict(sorted(failures.items()))


def check_selftest(tz):
    selftest = importlib.import_module(tz.__name__ + ".selftest")
    failed = [name for name, passed in selftest.run_selftest() if not passed]
    if failed:
        raise CheckFailed(f"selftest failed on {failed}")


def check_against_simulate(tz, code, spec, outcomes):
    """The benchmark's tallies over its first trials equal simulate()'s."""
    canon = tz.simulate(code, spec, len(outcomes)).canonical()
    successes, failures = tally(outcomes)
    if (canon["successes"], canon["failures_by_reason"]) != (successes, failures):
        raise CheckFailed(
            f"prefix of {len(outcomes)} trials: simulate gives {canon['successes']} "
            f"successes and {canon['failures_by_reason']}, the benchmark {successes} and {failures}"
        )
