"""Speed probe: a fixed kernel run around each timed call, to keep only the
calls made while the host ran at full speed.

On a shared host the speed a single thread gets can swing by 2x within
seconds, and CPU time swings with it.  Each timed call is therefore
bracketed by this kernel, and the figures are taken from the calls made at
full speed: those whose two readings are both within FULL_SPEED of the
run's fastest reading.  Times are raw wall times: the readings select
calls, they never rescale them.  A slow spell inside a call between two
fast readings goes unseen, and when the host is busy for a whole run few
calls qualify and a figure comes from the calls with the lowest readings
instead; the record gives the number of each.  So the figures still move
with the host's load, most for the longest calls.  The kernel does not use
tzcode, so no change to the package moves it.  It does what the package's
hot loops do, small-array numpy multiply, reduce and add under Python
bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# On a 2-vCPU shared VM the kernel readings fall into a fast band, within
# about 1.25x of the fastest, and a slow band from about 1.6x up, while other
# load on the host slows this thread.
FULL_SPEED = 1.3


@dataclass
class Timed:
    result: object
    seconds: float        # raw wall time of the call
    kernels: tuple        # kernel readings just before and just after it


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20251128)
        self._elems = [rng.integers(0, 3, 24) for _ in range(16)]
        self._fold = rng.integers(0, 3, (47, 24))
        self.readings = []
        self.fastest = float("inf")

    def kernel(self) -> float:
        """Seconds one pass of the fixed kernel takes now; kept in `readings`."""
        fold = self._fold
        t0 = time.perf_counter()
        for _ in range(6):
            acc = self._elems[0]
            for x in self._elems:
                prod = np.convolve(acc, x)
                acc = (prod @ fold[: prod.shape[0]]) % 3
                acc = (acc + x) % 3
                acc.setflags(write=False)
        k = time.perf_counter() - t0
        self.readings.append(k)
        self.fastest = min(self.fastest, k)
        return k

    def timed(self, fn) -> Timed:
        """One call of fn, bracketed by the kernel."""
        before = self.kernel()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return Timed(result, raw, (before, self.kernel()))


def at_full_speed(call: Timed, fastest: float) -> bool:
    """Both kernel readings around the call within FULL_SPEED of `fastest`."""
    return max(call.kernels) <= FULL_SPEED * fastest


def full_speed_calls(calls: list, fastest: float, minimum: int):
    """(kept calls, how many ran at full speed).

    The calls at full speed are kept; when fewer than `minimum` are, the
    `minimum` calls whose slower reading is the lowest.
    """
    ranked = sorted(calls, key=lambda c: max(c.kernels))
    n_full = sum(at_full_speed(c, fastest) for c in calls)
    return ranked[:max(n_full, minimum)], n_full
