"""Exhaustive oracles: nearest-codeword search and true minimum distance.

Enumeration walks every message through the F_q-expansion of the encoding
map and measures rank weights with batched base-field elimination, so the
q^(2nk)-word codebooks that fit the budget stay fast.  These paths share
nothing with the syndrome decoder beyond the field context.
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


def _codebook(code: TZCode, budget: int) -> np.ndarray:
    """(q^(2nk), 2n, 2n) stack of codeword expansions, cached on the code."""
    ctx = code.ctx
    total = ctx.q ** (2 * code.k * ctx.n)
    if total > budget:
        raise OracleBudgetExceeded(f"{total} codewords exceed the budget of {budget}")
    cached = getattr(code, "_codebook_cache", None)
    if cached is not None:
        return cached
    dim = 2 * code.k * ctx.n
    weights = ctx.q ** np.arange(dim, dtype=np.int64)
    out = np.empty((total, ctx.m, ctx.m), dtype=np.int16)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % ctx.q
        flat = (digits @ code._enc_mat) % ctx.q
        out[start : start + idx.size] = flat.reshape(-1, ctx.m, ctx.m).astype(np.int16)
    code._codebook_cache = out
    return out


def _message_from_index(code: TZCode, idx: int) -> tuple:
    """The message whose 2kn subfield digits are the base-q digits of idx."""
    ctx = code.ctx
    digits = [(idx // ctx.q**p) % ctx.q for p in range(2 * code.k * ctx.n)]
    return ctx.subfield_elements(digits)


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
    book = _codebook(code, budget)
    # book rows follow the [entry, coefficient] layout, match it here
    r_ext = np.stack([x.coeffs for x in r]).astype(np.int16)
    total = book.shape[0]
    best = code.ctx.m + 1
    best_idx = -1
    ties = 0
    for start in range(0, total, _CHUNK):
        block = (r_ext[None, :, :] - book[start : start + _CHUNK]) % code.ctx.q
        ranks = fq_rank_batch(block, code.ctx.q)
        lo = int(ranks.min())
        if lo < best:
            best = lo
            hits = np.nonzero(ranks == lo)[0]
            best_idx = start + int(hits[0])
            ties = int(hits.size)
        elif lo == best:
            ties += int((ranks == lo).sum())
    msg = _message_from_index(code, best_idx)
    return OracleResult(code.encode(msg), msg, best, ties)


def min_distance_bruteforce(code: TZCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum rank weight over all nonzero codewords."""
    book = _codebook(code, budget)
    best = code.ctx.m + 1
    total = book.shape[0]
    for start in range(0, total, _CHUNK):
        block = book[start : start + _CHUNK]
        ranks = fq_rank_batch(block, code.ctx.q)
        if start == 0:
            ranks = ranks[1:]  # drop the zero codeword
        if ranks.size:
            best = min(best, int(ranks.min()))
    return best
