"""One run of one workload: the correctness gates, the timed phases, the metrics.

Imported by run.py only after the numpy thread variables are set.
"""

from __future__ import annotations

import resource
from collections import namedtuple

import numpy as np

import layers
from loadgen import OK, CheckFailed, build, check_against_simulate, check_selftest, \
    closed_loop, run_trial, timed_setups
from micro import microtimings
from speed import SpeedProbe, full_speed_calls
from tracer import Tracer, wrappers_present
from workloads import ROUTES

SETUP_REPS = 5         # set-ups per run: at least this many,
SETUP_SECONDS = 3.0    # and more until this much time went into them
PREFIX_TRIALS = 3
MIN_DECODES = 100      # at full speed, so decode_p90_ms has 10 samples beyond it
MIN_TRACE_TRIALS = 20  # at full speed, per half of a traced run
# the fewest calls a figure is taken from, when fewer ran at full speed
MIN_KEPT_TRIALS = 10
MIN_KEPT_SETUPS = 3
MIN_KEPT_BATCHES = 3

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "decode_p50_ms": "ms",
    "decode_p90_ms": "ms",
    "encode_p50_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

TIME_UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}

Traced = namedtuple("Traced", "trial route decode_s values")


def percentile(q, unit=1.0):
    return lambda t: float(np.percentile(t, q)) * unit


def rate(t):
    return len(t) / float(np.sum(t))


class Results:
    """Metric values with their sample counts, how many of the timed calls
    ran at full speed, and how many trials the closed loops ran."""

    def __init__(self, probe):
        self.probe = probe
        self.values, self.samples, self.full_speed = {}, {}, {}
        self.trials = 0

    def put(self, name, value, samples):
        self.values[name] = value
        self.samples[name] = samples

    def timing(self, name, calls, minimum, sample, stat):
        """stat of sample(call) over the calls made at full speed, or over the
        `minimum` nearest to it when fewer were (speed.full_speed_calls)."""
        kept, self.full_speed[name] = full_speed_calls(calls, self.probe.fastest, minimum)
        self.put(name, stat([sample(c) for c in kept]), len(kept))


def measure(tz, w, seed: int, seconds: float, trace: bool):
    """Run the gates and the timed phases; return (results, attempted, failures, tracer, probe)."""
    check_selftest(tz)
    spec = tz.ChannelSpec(w.t, w.subfield_only, seed)
    probe = SpeedProbe()
    tracer = Tracer(tz)
    res = Results(probe)
    failures = {}
    attempted = 0

    if trace:
        ranges = []

        def traced_build():
            code, span_range = tracer.run(-1 - len(ranges), lambda: build(tz, w))
            ranges.append(span_range)
            return code

        with tracer.installed():
            code, setups = timed_setups(traced_build, probe, SETUP_REPS, SETUP_SECONDS)
        for call, span_range in zip(setups, ranges):
            call.result = layers.setup_values(tracer, *span_range)
    else:
        code, setups = timed_setups(lambda: build(tz, w), probe, SETUP_REPS, SETUP_SECONDS)

    def checked(trial, route=None):
        nonlocal attempted
        attempted += 1
        reason = trial.outcome if trial.outcome != OK else None
        if reason is None and route is not None and route != w.route:
            reason = f"route {route}, expected {w.route}"
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1
        return trial

    def untraced(i):
        return checked(run_trial(tz, code, spec, i))

    def traced(i):
        trial, (lo, hi) = tracer.run(i, lambda: run_trial(tz, code, spec, i))
        route, decode_s, vals = layers.trial_values(tracer, lo, hi)
        return Traced(checked(trial, route), route, decode_s, vals)

    # the prefix runs traced so that the route of each decode is visible
    with tracer.installed():
        prefix = [traced(i) for i in range(PREFIX_TRIALS)]
    check_against_simulate(tz, code, spec, [p.trial.outcome for p in prefix])
    if wrappers_present(tz):
        raise CheckFailed("a tracing wrapper is still installed before the untraced loop")

    if not trace:
        loop = closed_loop(untraced, probe, seconds, MIN_DECODES)
        # every figure is taken once the run's fastest kernel reading is known
        res.trials = len(loop)
        res.timing("setup_s", setups, MIN_KEPT_SETUPS, lambda c: c.seconds, percentile(50))
        res.timing("trials_per_s", loop, MIN_KEPT_TRIALS, lambda c: c.seconds, rate)
        res.timing("decode_p50_ms", loop, MIN_KEPT_TRIALS, lambda c: c.result.decode_s,
                   percentile(50, 1e3))
        res.timing("decode_p90_ms", loop, MIN_KEPT_TRIALS, lambda c: c.result.decode_s,
                   percentile(90, 1e3))
        res.timing("encode_p50_ms", loop, MIN_KEPT_TRIALS, lambda c: c.result.encode_s,
                   percentile(50, 1e3))
        res.put("success_ratio", 1.0 - sum(failures.values()) / attempted, attempted)
        res.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        return res, attempted, failures, tracer, probe

    bare = closed_loop(untraced, probe, seconds / 2, MIN_TRACE_TRIALS)
    with tracer.installed():
        rows = closed_loop(traced, probe, seconds / 2, MIN_TRACE_TRIALS)
    if wrappers_present(tz):
        raise CheckFailed("a tracing wrapper survived the traced loop")
    micro = microtimings(tz, code.ctx, np.random.default_rng(seed), probe)
    res.trials = len(bare) + len(rows)
    for name in setups[0].result:
        res.timing(name, setups, MIN_KEPT_SETUPS, lambda c: c.result[name], percentile(50))
    for route in ROUTES:
        res.put(f"decoder.route.{route}", sum(x.result.route == route for x in rows), len(rows))
    for name in rows[0].result.values:
        unit = layers.LAYER_METRICS[name][0]
        if unit in TIME_UNITS:
            # per-trial values are in ms
            res.timing(name, rows, MIN_KEPT_TRIALS, lambda c: c.result.values[name] / 1e3,
                       percentile(50, TIME_UNITS[unit]))
        else:
            res.put(name, float(np.median([x.result.values[name] for x in rows])), len(rows))
    p50 = [np.median([c.result.decode_s
                      for c in full_speed_calls(calls, probe.fastest, MIN_KEPT_TRIALS)[0]])
           for calls in (rows, bare)]
    res.put("trace.overhead_ratio", float(p50[0] / p50[1]), len(rows))
    for name, batches in micro.items():
        unit = layers.LAYER_METRICS[name][0]
        res.timing(name, batches, MIN_KEPT_BATCHES, lambda c: c.result,
                   percentile(50, TIME_UNITS[unit]))
    return res, attempted, failures, tracer, probe
