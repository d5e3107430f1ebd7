"""Rank-error channel simulation with counter-based seeding.

Every trial derives its own Philox stream from the master seed and the
trial index, so campaigns are reproducible, order-independent, and safe to
parallelize.  Wall-clock timings are collected alongside but kept out of
the canonical report form, which must be byte-identical across runs with
the same seed.

Each word is drawn in one call: a (2k, n) draw of subfield digits for the
message, and per attempt one (t, n) or (t, 2n) draw for the column elements
a and one (t, 2n) draw for B.  Philox hands a bounded draw its values in
stream order however the calls split it, so the words are those of one draw
per element (tests/conftest.py keeps that form as the reference).  A
subfield attempt ranks its (t, n) digits rather than the elements they
map to: the map from digits to elements is F_q-linear and injective, so the
two ranks agree, every draw is accepted or rejected as before, and the
stream is unchanged.

simulate accepts a decode only when it returns the plant; the decoder has
by then run the corrected word through the code's single membership test.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .construct import TZCode
from .decoder import FAILURE_REASONS, decode, error_from_decomposition
from .errors import InvalidParameter, _check_integers
from .linalg import fq_rank

__all__ = [
    "RNG_NAME",
    "ChannelSpec",
    "ErrorDecomposition",
    "trial_rng",
    "random_message",
    "random_error",
    "TrialReport",
    "simulate",
]

RNG_NAME = "philox4x64"
MISCORRECTION = "Miscorrection"


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial: same key, disjoint counter block."""
    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 128))


@dataclass(frozen=True)
class ChannelSpec:
    """Target error rank, an optional subfield restriction, and the seed."""

    t: int
    subfield_only: bool = False
    seed: int = 0

    def validate(self, code: TZCode):
        _check_integers(t=self.t, seed=self.seed)
        if not 0 <= self.seed < 2**128:  # a Philox key
            raise InvalidParameter(f"seed must lie in [0, 2^128), got {self.seed}")
        if not 0 <= self.t <= code.ctx.m:
            raise InvalidParameter(f"t must lie in [0, {code.ctx.m}], got {self.t}")
        if self.subfield_only and self.t > code.ctx.n:
            raise InvalidParameter("subfield-only errors exist only for t <= n")


@dataclass(frozen=True, eq=False)
class ErrorDecomposition:
    """A planted decomposition e = a . B: a packs the t column elements, (t, 2n),
    and B is the (t, 2n) F_q row-space matrix.  Two are equal when both arrays are."""

    a: np.ndarray
    B: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, ErrorDecomposition)
                and np.array_equal(self.a, other.a) and np.array_equal(self.B, other.B))


def random_message(code: TZCode, rng) -> tuple:
    """2k uniform elements of F_{q^n}, from one (2k, n) draw of subfield digits."""
    ctx = code.ctx
    return ctx.subfield_elements(rng.integers(0, ctx.q, (2 * code.k, ctx.n)))


def random_error(code: TZCode, spec: ChannelSpec, rng):
    """A uniform rank-t error vector together with the planted decomposition.

    The packed column-side elements a, t of them, are drawn in one call per
    attempt (subfield digits or all 2n coefficients) until F_q-independent,
    and subfield digits are ranked before they are mapped to elements;
    the row-space matrix B is rejection-sampled until full rank (expected
    under two draws for q >= 3).
    """
    spec.validate(code)
    ctx = code.ctx
    t = spec.t
    width = ctx.n if spec.subfield_only else ctx.m
    while True:
        a = rng.integers(0, ctx.q, (t, width), dtype=np.int64)
        if fq_rank(a, ctx.q) == t:
            break
    if spec.subfield_only:
        a = ctx._from_digits(a)
    while True:
        B = rng.integers(0, ctx.q, (t, ctx.m), dtype=np.int64)
        if fq_rank(B, ctx.q) == t:
            break
    return ctx.unpack(error_from_decomposition(a, B, ctx)), ErrorDecomposition(a, B)


@dataclass
class TrialReport:
    """Aggregate of one simulation campaign."""

    params: dict
    trials: int
    successes: int
    failures_by_reason: dict
    timing: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        """Deterministic portion of the report (timings excluded)."""
        return {
            "params": self.params,
            "trials": self.trials,
            "successes": self.successes,
            "failures_by_reason": dict(sorted(self.failures_by_reason.items())),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def as_dict(self) -> dict:
        out = self.canonical()
        out["timing"] = self.timing
        return out


def simulate(code: TZCode, spec: ChannelSpec, trials: int) -> TrialReport:
    """Seeded campaign: encode, corrupt, decode, compare against the plant.

    A trial counts as a success only when the decoder returns the planted
    codeword, message, and error vector; a decoder success that recovers a
    different codeword is tallied as a miscorrection.
    """
    _check_integers(trials=trials)
    if trials < 0:
        raise InvalidParameter(f"trials must be at least 0, got {trials}")
    spec.validate(code)
    counts = {reason: 0 for reason in FAILURE_REASONS}
    counts[MISCORRECTION] = 0
    successes = 0
    times = []
    for trial in range(trials):
        rng = trial_rng(spec.seed, trial)
        msg = random_message(code, rng)
        cw = code.encode(msg)
        e, _ = random_error(code, spec, rng)
        r = tuple(x + y for x, y in zip(cw, e))
        t0 = time.perf_counter()
        out = decode(code, r)
        times.append(time.perf_counter() - t0)
        if out.success and out.codeword == cw and out.message == msg and out.error == e:
            successes += 1
        elif out.success:
            counts[MISCORRECTION] += 1
        else:
            counts[out.failure_reason] += 1
    arr = np.array(times) * 1000.0
    timing = {
        "mean_ms": float(arr.mean()) if trials else 0.0,
        "p50_ms": float(np.percentile(arr, 50)) if trials else 0.0,
        "p95_ms": float(np.percentile(arr, 95)) if trials else 0.0,
        "max_ms": float(arr.max()) if trials else 0.0,
    }
    params = {
        "q": code.ctx.q,
        "n": code.ctx.n,
        "k": code.k,
        "t": spec.t,
        "subfield_only": spec.subfield_only,
        "seed": spec.seed,
        "rng": RNG_NAME,
    }
    failures = {k: v for k, v in counts.items() if v}
    return TrialReport(params, trials, successes, failures, timing)
