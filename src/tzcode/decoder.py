"""Syndrome-based bounded-minimum-distance decoding.

The pipeline: compute the syndrome s = r H^T; eliminate one syndrome
matrix (S^(u_max) at odd k, S_exp at even k) once and read both the error
rank t and the error span polynomial Lambda off it; recover the error in
the transform domain (error_from_span).  One finishing step (_finish)
then makes the two residual checks in order, and a failure is named after
the first that fails: the error must have rank t (else ErrorRankMismatch),
and the packed corrected word must pass the code's single membership test,
which also reads its message digits off (TZCode._message_digits; else
NotACodeword).

The odd syndrome entries are the error's transform sigma_1..sigma_(2n-k-1);
error_from_span extends them by Lambda's q-recurrence and inverts the
transform with the code's table N, as Gabidulin decoders do (Silva and
Kschischang, ISIT 2009), so no second elimination runs.  The t x t locator
system (solve_locators), recover_B and error_from_decomposition stay as the
reference that tests compare against, and the outcome is the same.  An error
the locator path accepts follows the recurrence, so the extension reproduces
it.  An error this path accepts follows the recurrence on at least t
consecutive windows (the rows of S^(u_max), or the plain rows of S_exp and
the k+1 extension windows), so the Moore matrix of its locators forces
Lambda to vanish on its column elements, and the locator system gives the
same error.  A monic Lambda of q-degree t has at most t independent roots,
so every span decode accepts has exactly t.

Two regimes exist.  While 2t + k < 2n the plain windows of the transform
decide everything, so every error of rank t <= (2n-k-1)//2 decodes.  At the
boundary 2t + k = 2n (k even) the t-1 plain rows of S_exp leave a pencil of
spans, and its trace rows pin one member when the error lies over F_(q^n),
so such errors of rank n - k/2 decode as well.  solve_span eliminates S_exp
once, pivots from its plain rows only, and reads that member, tried first,
and the plain span, which serves below the boundary as S^(u_max) does at odd k.

decode packs the received word once, and every stage from there on works
on packed arrays (field.py): the syndrome is a (4n-2k, 2n) array, the
syndrome matrices are (rows, cols, 2n) arrays gathered from every power
s_j^(q^c) of the odd syndrome entries, which one product with the field's
Frobenius-power table gives, and linalg eliminates them one numpy step per
pivot.  The span polynomial is a packed (t+1, 2n) array, row i its
coefficient of x^(q^i); each recurrence step is one F_q product, and the
syndrome and the inverse transform are one ff_mat_vec each.  FF2n appears
only where decode hands results back: the corrected word, the error and
the message in DecodeOutcome.

Decoding failures are returned as values, never raised.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .construct import TZCode
from .errors import LimitCaseInapplicable, LocatorSystemInconsistent, NoSolution
from .linalg import _eliminate, _packed, ff_mat_vec, ff_solve, fq_rank
from .linpoly import _term_matrices

__all__ = [
    "SPAN_DIM_MISMATCH",
    "ERROR_RANK_MISMATCH",
    "NO_RANK_FOUND",
    "NOT_A_CODEWORD",
    "FAILURE_REASONS",
    "DecodeOutcome",
    "syndrome",
    "build_S",
    "estimate_rank",
    "build_S_exp",
    "solve_span",
    "solve_locators",
    "recover_B",
    "error_from_decomposition",
    "error_from_span",
    "decode",
]

SPAN_DIM_MISMATCH = "SpanDimMismatch"
ERROR_RANK_MISMATCH = "ErrorRankMismatch"
NO_RANK_FOUND = "NoRankFound"
NOT_A_CODEWORD = "NotACodeword"

# What each reason means in decode
FAILURE_REASONS = (
    SPAN_DIM_MISMATCH,  # rank t, but the pivots are not the columns 0..t-1
    ERROR_RANK_MISMATCH,  # the error read off the span has rank other than t
    NO_RANK_FOUND,  # S^(u_max) or the block of S_exp has rank 0, or u_max is 0
    NOT_A_CODEWORD,  # that error has rank t, but the word minus it is not a codeword
)


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a decoded (codeword, error, message, t) or a failure reason."""

    success: bool
    codeword: tuple | None = None
    error: tuple | None = None
    message: tuple | None = None
    t: int | None = None
    failure_reason: str | None = None

    @classmethod
    def ok(cls, codeword, error, message, t):
        return cls(True, tuple(codeword), tuple(error), tuple(message), t)

    @classmethod
    def fail(cls, reason: str):
        return cls(False, failure_reason=reason)


def syndrome(code: TZCode, r) -> np.ndarray:
    """s = r H^T, packed; entrywise relative trace vanishes exactly on codewords."""
    return ff_mat_vec(code._H_work, r, code.ctx)


def _odd_powers(ctx, s) -> np.ndarray:
    """[x, c] = s_(2x+1)^(q^c), c < 2n, in the work dtype: the odd entries under every power map."""
    return ctx.frob_powers(np.asarray(s[1::2], ctx._work))


def _shifted(pw, top: int, rows, cols: int) -> np.ndarray:
    """Rows j of s_(2 (top + j - c) - 1)^(q^c), c < cols, gathered from _odd_powers.

    The q-Toeplitz shape of S^(u).  Index -1 wraps to the final entry.
    """
    c = np.arange(cols)
    return pw[top + np.asarray(rows, dtype=np.int64)[:, None] - c - 1, c]


def build_S(code: TZCode, s, u: int) -> np.ndarray:
    """The packed u x (u+1) shifted syndrome matrix over the odd-index entries."""
    m, k = code.ctx.m, code.k
    if not 1 <= u <= (m - (k + 1)) // 2:
        raise IndexError(f"u must satisfy 1 <= u <= {(m - (k + 1)) // 2}, got {u}")
    return _shifted(_odd_powers(code.ctx, s), u + 1, range(u), u + 1).astype(np.int64)


def estimate_rank(code: TZCode, s):
    """(t, span) read off S^(u_max), u_max = (2n-k-1)//2, by solve_span's plain read, at odd k.

    For an error of rank t <= u_max, S^(u_max) is the u_max x t Moore matrix
    of the locators' q-powers times the t x (u_max+1) Moore matrix of the
    error's column elements, whose first t columns are independent.  So t is
    the rank, the pivots are the columns 0..t-1, and solve_span's kernel line
    is the span polynomial, packed (t+1, 2n): it annihilates every window of
    the q-Toeplitz array the rows are cut from.  Other pivots (an error beyond
    the radius) give span None; t is None if u_max or the rank is 0.
    """
    u_max = (code.ctx.m - (code.k + 1)) // 2
    if not u_max:
        return None, None
    t, span, _ = solve_span(build_S(code, s, u_max), code.ctx)
    return (t, span) if t else (None, None)


def build_S_exp(code: TZCode, s) -> np.ndarray:
    """Packed trace-augmented 2t x (t+1) span system for the boundary rank t = n - k/2.

    Rows: the t-1 plain shifted rows, then the trace rows.  The trace row at
    shift 0 borrows the final syndrome entry (whose message part dies under
    the trace), and the closing row twists by gamma^(q^2t) so that the whole
    matrix factors through the locator q-powers with exponent 2t.
    """
    ctx = code.ctx
    k = code.k
    if k % 2 != 0:
        raise LimitCaseInapplicable("trace-augmented system needs even k")
    t = ctx.n - k // 2
    ps = _odd_powers(ctx, s)
    # (s + s^(q^n))^(q^c) = s^(q^c) + s^(q^(c+n)): the trace's powers are the
    # powers of s rolled by n.  At shift 0 the trace row's last index is -1,
    # which wraps to the final entry s_(4t-1)
    trace_rows = _shifted(ctx._mod(ps + np.roll(ps, ctx.n, axis=1)), t, range(t), t + 1)
    g2t = ctx.frob(np.asarray(code.gamma.coeffs, ctx._work), 2 * t)
    twisted = ctx._dot(_shifted(ps, 2 * t, [0], t + 1)[0, 1:], ctx.mul_matrix(g2t))
    last = np.concatenate([ctx.trace(s[:1]), ctx.trace(twisted)])
    plain_rows = _shifted(ps, t, range(1, t), t + 1)
    return np.concatenate([plain_rows, trace_rows, last[None]]).astype(np.int64)


def solve_span(S, ctx, rows=None):
    """(rank, plain, boundary): the spans of the packed S from one elimination.

    Pivots come from the first rows rows only (all by default); a span that
    cannot be read is None.  If the pivots are the columns 0..rank-1 and a
    column is free, plain is the first reduced kernel line cut to rank+1
    entries, the monic span of q-degree rank.  Fraction-free pivot row i is
    a_ii times its reduced row, so the line is -a_i,rank / a_ii at each
    pivot: one batched inverse, and no row is normalised.  With t = cols-1,
    at rank t-1 with column t free the pivot rows' kernel is the pencil
    L_t + lam L_f (f the first free column); boundary is the member that
    the rows below the bound fix: the first reduced one that is (x, y) at
    (f, t) with x != 0 gives lam = -y/x, and all of them must vanish on it.
    """
    ctx, S = _packed(S, ctx)
    a, pivots = _eliminate(ctx, S, rows)
    rank, t = len(pivots), a.shape[1] - 1
    free = next((c for c, p in enumerate(pivots) if p != c), rank)
    hit = []
    if rows is not None and rank == t - 1 and t not in pivots:  # rows is 0 at (3,2,2)
        hit = (rows + np.flatnonzero(a[rows:, free].any(axis=1))[:1]).tolist()
    if not hit:  # the plain read alone: one inverse of the diagonal, one product
        if rank > t or free < rank:
            return rank, None, None
        diag = np.arange(rank)
        return rank, _monic(ctx, ctx.mul(a[:rank, rank], ctx.inv(a[diag, diag]))), None
    piv = a[[*range(rank), *hit]]  # the pivot rows, then the row that fixes lam
    inv = ctx.inv(piv[np.arange(rank + 1), pivots + [free]])
    ratio = ctx.mul(np.concatenate([piv[:, free], piv[:, t]]), np.concatenate([inv, inv]))
    fr, tr = ratio.reshape(2, rank + 1, ctx.m)  # columns f, t over each pivot; tr[rank] = -lam
    plain = _monic(ctx, fr[:rank]) if free == rank else None
    scaled = ctx._dot(np.concatenate([fr[:rank], a[rows:, free]]), ctx.mul_matrix(tr[rank]))
    if not np.array_equal(a[rows:, t], scaled[rank:]):
        return rank, plain, None
    return rank, plain, _monic(ctx, np.insert(tr[:rank] - scaled[:rank], free, tr[rank], 0))


def _monic(ctx, neg) -> np.ndarray:
    """The packed monic span polynomial whose coefficients below the top are -neg, |neg| < q."""
    return np.concatenate([-neg, ctx.one.coeffs[None]]).astype(np.int64) % ctx.q


def solve_locators(code: TZCode, a, s) -> np.ndarray:
    """The packed locator vector d solving the t x t inverse-Frobenius Moore system.

    The reference for error_from_span, which decode uses instead: the error
    a B, B = recover_B(d), equals error_from_span's whenever either passes
    the residual checks.  a is the packed (t, 2n) root basis.  Row i = 1..t
    pairs a^(q^-i) against s_(2i-1)^(q^-i); with independent a the matrix is
    invertible and the solution unique.  Dependent a with no solution raises
    LocatorSystemInconsistent.
    """
    ctx = code.ctx
    powers = -np.arange(1, len(a) + 1)[:, None]
    rows = ctx.frob(a[None], powers)
    rhs = ctx.frob(s[1 : 2 * len(a) : 2], powers[:, 0])
    try:
        return ff_solve(rows, rhs, ctx)
    except NoSolution:
        raise LocatorSystemInconsistent("locator system has no solution") from None


def recover_B(code: TZCode, d) -> np.ndarray:
    """Row l holds the coordinates of the packed locator d_l in the basis mu^(q^k)."""
    return (d @ code.mu_k_coords.T) % code.ctx.q


def error_from_decomposition(a, B, ctx) -> np.ndarray:
    """The packed error a . B from packed column elements a (t, 2n) and B (t, length).

    Entry j is sum_l B[l, j] a_l, an F_q combination, so the whole vector is
    the F_q product B^T a.
    """
    return (B.T @ a) % ctx.q


def error_from_span(code: TZCode, s, span) -> np.ndarray:
    """The packed error whose transform extends the syndrome by the span's recurrence.

    The transform of an error e is sigma_i = sum_j e_j mu_j^(q^(k+i)) over
    i in Z_2n; the odd syndrome entries s_(2i-1), i < 2n-k, are
    sigma_1..sigma_(2n-k-1).  With e = sum_l B_l a_l, sigma_i =
    sum_l a_l d_l^(q^i), and the monic span Lambda of q-degree t, packed
    (t+1, 2n), kills every a_l, so sum_c Lambda_c sigma_(j-c)^(q^c) = 0 for every j.
    Stepping j down from t, each step reads sigma_(j-t) off the window
    sigma_j..sigma_(j-t+1): one F_q product of its t 2n digits with
    W = stack_c(-F^c M(Lambda_c) F^-t).  k+1 steps fill sigma_0,
    sigma_(2n-1), ..., sigma_(2n-k), and the error is the inverse transform
    N sigma (TZCode.N).  The steps run on sigma in descending order,
    sigma_(2n-k-1) first, so that every window is one contiguous row block;
    a step sums t 2n <= 2n^2 products of reduced entries, inside FieldCtx's
    bound for the work dtype.
    """
    ctx, k, m = code.ctx, code.k, code.ctx.m
    t = len(span) - 1
    W = ctx._dot(_term_matrices(ctx, span)[:t].reshape(t * m, m), -ctx._frob_rows[-t % m])
    down = np.empty((m, m), dtype=ctx._work)  # down[p] = sigma_(2n-k-1-p)
    down[: m - k - 1] = s[-3::-2]
    for p in range(m - k - 1, m):
        down[p] = ctx._dot(down[p - t : p].reshape(-1), W)
    return ff_mat_vec(code._N_work, down[(m - k - 1 - np.arange(m)) % m], ctx)


def _finish(code: TZCode, r, err, t: int) -> DecodeOutcome:
    """The corrected outcome on the packed word r, or the failure of the first check err fails.

    The residual check keeps the bounded-distance promise: the error must
    have rank t, and the corrected word r - err must be a codeword.
    """
    ctx = code.ctx
    if fq_rank(err, ctx.q) != t:
        return DecodeOutcome.fail(ERROR_RANK_MISMATCH)
    cw = (r - err) % ctx.q
    digits = code._message_digits(cw)
    if digits is None:
        return DecodeOutcome.fail(NOT_A_CODEWORD)
    return DecodeOutcome.ok(ctx.unpack(cw), ctx.unpack(err), ctx.subfield_elements(digits), t)


def decode(code: TZCode, r) -> DecodeOutcome:
    """Bounded-minimum-distance decoding of a received word.

    Every generic error of rank t <= (2n-k-1)//2 decodes, and at even k so
    does one of rank n - k/2 over F_(q^n), from the boundary span tried first.
    Whatever passes _finish is within rank distance t <= (d-1)/2 of r, so it
    is the unique such codeword, and the plain span only turns failures into decodes.
    """
    ctx = code.ctx
    packed = code.pack_word(r)
    s = syndrome(code, packed)
    if not ctx.trace(s).any():
        return _finish(code, packed, np.zeros_like(packed), 0)

    if code.k % 2 == 0:
        t_b = ctx.n - code.k // 2
        t, span, boundary = solve_span(build_S_exp(code, s), ctx, t_b - 1)
        if boundary is not None:
            out = _finish(code, packed, error_from_span(code, s, boundary), t_b)
            if out.success:
                return out
    else:
        t, span = estimate_rank(code, s)
    if not t:
        return DecodeOutcome.fail(NO_RANK_FOUND)
    if span is None:
        return DecodeOutcome.fail(SPAN_DIM_MISMATCH)
    return _finish(code, packed, error_from_span(code, s, span), t)
