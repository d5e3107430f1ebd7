"""Decode timing across code sizes and the fitted growth exponent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, simulate
from .construct import build_code
from .field import FieldCtx

__all__ = ["BenchRow", "BenchReport", "bench"]


@dataclass(frozen=True)
class BenchRow:
    n: int
    k: int
    t: int
    median_ms: float
    trials: int


@dataclass(frozen=True)
class BenchReport:
    q: int
    rows: tuple
    slope: float | None

    def table(self) -> str:
        lines = [f"q={self.q}  decode wall time"]
        lines.append(f"{'n':>4} {'k':>3} {'t':>3} {'median_ms':>12} {'trials':>7}")
        for row in self.rows:
            lines.append(
                f"{row.n:>4} {row.k:>3} {row.t:>3} {row.median_ms:>12.3f} {row.trials:>7}"
            )
        if self.slope is not None:
            lines.append(f"log-log slope: {self.slope:.2f}")
        return "\n".join(lines)


def bench(q: int, sizes, k: int = 1, trials: int = 5, seed: int = 0) -> BenchReport:
    """Median decode time per half-length n, with log-log slope across sizes.

    Errors are planted at the largest rank the plain branch accepts, so the
    rank scan succeeds on its first probe and the measurement reflects the
    dominant elimination costs rather than the scan depth.
    """
    rows = []
    for n in sizes:
        code = build_code(FieldCtx(q, n), k)
        t = max((code.length - (k + 1)) // 2, 1)
        report = simulate(code, ChannelSpec(t=t, seed=seed), trials)
        rows.append(BenchRow(n, k, t, report.timing["p50_ms"], trials))
    slope = None
    if len(rows) >= 2:
        xs = np.log([row.n for row in rows])
        ys = np.log([row.median_ms for row in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return BenchReport(q, tuple(rows), slope)
