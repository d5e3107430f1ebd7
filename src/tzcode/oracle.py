"""Exhaustive oracles: nearest-codeword search and true minimum distance.

Both oracles fold over one streamed enumeration of the code: chunk by chunk,
in message-index order, the base-q digits of each index go through the
F_q-expansion of the encoding map, and batched base-field elimination
measures the rank distance from a word to each codeword.  Nothing outlives a
call, so the code stays unchanged and a q^(2nk)-word codebook never sits in
memory whole.  These paths share nothing with the syndrome decoder beyond
the field context and the encoding map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import TZCode
from .errors import OracleBudgetExceeded
from .linalg import fq_rank_batch

__all__ = ["DEFAULT_BUDGET", "OracleResult", "brute_force_decode", "min_distance_bruteforce"]

DEFAULT_BUDGET = 10**6
_CHUNK = 1 << 15


def _digits(code: TZCode, idx: np.ndarray) -> np.ndarray:
    """(len idx, 2kn) message digits: the base-q digits of each index, least significant first.

    Exact in int64, since every index stays below q^(2kn) <= the budget.
    """
    q = code.ctx.q
    return (idx[:, None] // q ** np.arange(2 * code.k * code.ctx.n, dtype=np.int64)) % q


def _rank_distances(code: TZCode, packed: np.ndarray, budget: int):
    """(start, ranks) per chunk: ranks[i] is the rank distance from packed to codeword start + i."""
    ctx = code.ctx
    total = ctx.q ** (2 * code.k * ctx.n)
    if total > budget:
        raise OracleBudgetExceeded(f"{total} codewords exceed the budget of {budget}")
    flat = packed.reshape(-1)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        book = (_digits(code, idx) @ code._enc_mat) % ctx.q
        # fq_rank_batch reduces the differences mod q itself
        yield start, fq_rank_batch((flat - book).reshape(-1, ctx.m, ctx.m), ctx.q)


@dataclass(frozen=True)
class OracleResult:
    codeword: tuple
    message: tuple
    distance: int
    ties: int


def brute_force_decode(code: TZCode, r, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Nearest codeword to r in rank distance, by full enumeration.

    More than one codeword at the minimum distance is reported through the
    tie count; a tie means r sits beyond the unique decoding radius.
    """
    best = code.ctx.m + 1
    best_idx = -1
    ties = 0
    for start, ranks in _rank_distances(code, code.pack_word(r), budget):
        lo = int(ranks.min())
        if lo < best:
            best = lo
            hits = np.nonzero(ranks == lo)[0]
            best_idx = start + int(hits[0])
            ties = int(hits.size)
        elif lo == best:
            ties += int((ranks == lo).sum())
    msg = code.ctx.subfield_elements(_digits(code, np.array([best_idx], dtype=np.int64)))
    return OracleResult(code.encode(msg), msg, best, ties)


def min_distance_bruteforce(code: TZCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum rank weight over all nonzero codewords."""
    best = code.ctx.m + 1
    zero = np.zeros((code.length, code.ctx.m), dtype=np.int64)
    for start, ranks in _rank_distances(code, zero, budget):
        if start == 0:
            ranks = ranks[1:]  # drop the zero codeword
        if ranks.size:
            best = min(best, int(ranks.min()))
    return best
