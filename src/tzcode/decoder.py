"""Syndrome-based bounded-minimum-distance decoding, read off the transform.

The pipeline: read the received word's transform
sigma_i = sum_j r_j (mu_j^(q^k))^(q^i), i in Z_2n, with one product
(TZCode._read), of which every syndrome entry is a value or a gamma
multiple (construct.py); eliminate one syndrome matrix over it (S^(u_max)
at odd k, S_exp at even k) once and read both the error rank t and the
error span polynomial Lambda off it.  One finishing step (_finish) then
recovers the error in the transform domain (error_from_span) and makes the
two residual checks in order, and a failure is named after the first that
fails: the error must have rank t (else ErrorRankMismatch), and r - err
must be a codeword (else NotACodeword), by the code's membership test
(TZCode._message) on r's transform less the error's, which also gives the
message.  A word that passes that test as read takes the zero route, whose
outcome that one test gives.

The span's roots decide the rank check exactly, with no F_q elimination.
With beta = mu^(q^k), an F_q-basis, a window of the error's transform is
sum_c Lambda_c sigma_err,(j-c)^(q^c) = sum_l Lambda(e_l) beta_l^(q^j); if
it vanishes at rank(err) consecutive j, the Moore matrix of F_q-independent
combinations of beta forces every Lambda(e_l) to vanish.  The span meets
that many windows on every route: at odd k the u_max >= t rows of
S^(u_max); at even k below the boundary the t_b-1 >= t plain rows of S_exp
(t_b = n - k/2); at the boundary its t-1 plain rows and the k+1 windows
error_from_span extends by, of consecutive tops t-k .. 2t-1.  So the span
kills an error of rank t.  The pivot rows are windows of
sigma_1..sigma_(2n-k-1), which the error's transform shares, so they factor
through its column elements and its rank is at least theirs; a monic span
of q-degree t has at most t independent roots, so one that kills the error
bounds its rank by t.

A codeword's sigma_1..sigma_(2n-k-1) vanish, so those of r are the error's;
error_from_span extends them by Lambda's q-recurrence and inverts the
transform with the code's table N, as Gabidulin decoders do (Silva and
Kschischang, ISIT 2009), so no second elimination runs.  The t x t locator
system (solve_locators), recover_B and error_from_decomposition stay as the
reference that tests compare against, and the outcome is the same: an error
the locator path accepts follows the recurrence, so the extension
reproduces it, and one this path accepts is killed by Lambda, so the
locator system gives it too.

Two regimes exist.  While 2t + k < 2n the plain windows of the transform
decide everything, so every error of rank t <= (2n-k-1)//2 decodes.  At the
boundary 2t + k = 2n (k even) the t-1 plain rows of S_exp leave a pencil of
spans, and its trace rows pin one member when the error lies over F_(q^n),
so such errors of rank n - k/2 decode as well.  solve_span eliminates the
plain rows with the first trace row, which pins that member, and checks the
other t rows on it with one product (where the first pins none, it
eliminates every row).  It reads that member, tried first, and the plain
span L_f, which serves below the boundary as S^(u_max) does at odd k.  The
plain rows there bound the error's rank from below by t-1 only.  An error
of rank t-1 has its subspace polynomial in their kernel with no x^(q^t)
term, a multiple of L_f, so L_f kills it; L_f, of q-degree t-1, kills none
of rank t.  Where L_f cannot be read the pivots do not lead, which no
error of rank t-1 gives, so the kill test alone decides.

Every stage works on packed arrays (field.py): the transform is (2n, 2n),
the syndrome matrices (rows, cols, 2n) gathered from the powers
sigma_i^(q^c), i <= 2n-k, that one product with the field's Frobenius-power
table gives, and the span polynomial (t+1, 2n), row i its coefficient of
x^(q^i).  The transform and its inverse are one ff_mat_vec each, each
recurrence step one F_q product, and FF2n appears only where decode hands
results back.  Decoding failures are returned as values, never raised.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .construct import TZCode, _trace_form
from .errors import LimitCaseInapplicable, LocatorSystemInconsistent, NoSolution
from .linalg import _eliminate, _packed, ff_mat_vec, ff_solve
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
    return ff_mat_vec(code.H, r, code.ctx)


def _shifted(pw, top: int, rows, cols: int) -> np.ndarray:
    """Rows j of sigma_(top+j-c)^(q^c), c < cols, from pw[i, c] = sigma_i^(q^c): S^(u)'s shape."""
    c = np.arange(cols)
    return pw[top + np.asarray(rows, dtype=np.int64)[:, None] - c, c]


def build_S(code: TZCode, sigma, u: int) -> np.ndarray:
    """The packed u x (u+1) shifted syndrome matrix [j, c] = sigma_(u+1+j-c)^(q^c)."""
    m, k = code.ctx.m, code.k
    if not 1 <= u <= (m - (k + 1)) // 2:
        raise IndexError(f"u must satisfy 1 <= u <= {(m - (k + 1)) // 2}, got {u}")
    pw = code.ctx.frob_powers(np.asarray(sigma[: 2 * u + 1], code.ctx._work), u + 1)
    return _shifted(pw, u + 1, range(u), u + 1).astype(np.int64)


def estimate_rank(code: TZCode, sigma):
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
    t, span, _ = solve_span(build_S(code, sigma, u_max), code.ctx)
    return (t, span) if t else (None, None)


def build_S_exp(code: TZCode, sigma) -> np.ndarray:
    """Packed trace-augmented 2t x (t+1) span system for the boundary rank t = n - k/2.

    Rows: the t-1 plain shifted rows, then the trace rows Tr(sigma_(t+j-c)^(q^c)),
    j < t, which reach sigma_0, and the closing row Tr(gamma^(q^2t) sigma_(2t-c)^(q^c)).
    The message part of sigma_0 and sigma_2t dies under the trace, and the twist
    makes the whole matrix factor through the locator q-powers with exponent 2t.
    """
    ctx, k = code.ctx, code.k
    if k % 2 != 0:
        raise LimitCaseInapplicable("trace-augmented system needs even k")
    t = ctx.n - k // 2
    ps = ctx.frob_powers(np.asarray(sigma[: 2 * t + 1], ctx._work), ctx.n + t + 1)
    # Tr(x)^(q^c) = x^(q^c) + x^(q^(c+n)), c <= t < n: two gathers of the powers
    trace_rows = ctx._mod(_shifted(ps, t, range(t), t + 1)
                          + _shifted(ps[:, ctx.n :], t, range(t), t + 1))
    g2t = ctx.frob(np.asarray(code.gamma.coeffs, ctx._work), 2 * t)
    twisted = ctx._dot(_shifted(ps, 2 * t, [0], t + 1)[0], ctx._mul_factor(g2t))
    plain_rows = _shifted(ps, t, range(1, t), t + 1)
    return np.concatenate([plain_rows, trace_rows, ctx.trace(twisted)[None]]).astype(np.int64)


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
    the rows below the bound fix.  Only the first of them is eliminated
    with the pivot rows: if it is (x, y) at (f, t) with x != 0, it gives
    lam = -y/x, and every later row is checked on that member by one
    product.  A reduced row is a nonzero multiple of its own row less pivot
    rows, which the member kills, so it vanishes on the member exactly when
    its row does.  If x = 0, every row is eliminated: the first reduced one
    with x != 0 fixes lam, and all of them must vanish on the member.
    """
    ctx, S = _packed(S, ctx)
    a, pivots = _eliminate(ctx, S[: None if rows is None else rows + 1], rows)
    rank, t = len(pivots), a.shape[1] - 1
    free = next((c for c, p in enumerate(pivots) if p != c), rank)
    hit = []
    if rows is not None and rank == t - 1 and t not in pivots:  # rows is 0 at (3,2,2)
        if not a[rows:, free].any() and len(a) < len(S):  # the first row below fixes no member
            a = _eliminate(ctx, S, rows)[0]
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
    scaled = ctx._dot(np.concatenate([fr[:rank], a[rows:, free]]), ctx._mul_factor(tr[rank]))
    if not np.array_equal(a[rows:, t], scaled[rank:]):
        return rank, plain, None
    low = tr[:rank] - scaled[:rank]
    boundary = _monic(ctx, np.concatenate([low[:free], tr[rank:], low[free:]]))
    if len(a) < len(S) and ff_mat_vec(S[len(a) :], boundary, ctx).any():
        return rank, plain, None
    return rank, plain, boundary


def _monic(ctx, neg) -> np.ndarray:
    """The packed monic span polynomial whose coefficients below the top are -neg, |neg| < q."""
    return np.concatenate([-neg, ctx.one.coeffs[None]]).astype(np.int64) % ctx.q


def solve_locators(code: TZCode, a, sigma) -> np.ndarray:
    """The packed locator vector d solving the t x t inverse-Frobenius Moore system.

    The reference for error_from_span, which decode uses instead: the error
    a B, B = recover_B(d), equals error_from_span's whenever either passes
    the residual checks.  a is the packed (t, 2n) root basis.  Row i = 1..t
    pairs a^(q^-i) against sigma_i^(q^-i); with independent a the matrix is
    invertible and the solution unique.  Dependent a with no solution raises
    LocatorSystemInconsistent.
    """
    ctx = code.ctx
    powers = -np.arange(1, len(a) + 1)[:, None]
    rows = ctx.frob(a[None], powers)
    rhs = ctx.frob(sigma[1 : len(a) + 1], powers[:, 0])
    try:
        return ff_solve(rows, rhs, ctx)
    except NoSolution:
        raise LocatorSystemInconsistent("locator system has no solution") from None


def recover_B(code: TZCode, d) -> np.ndarray:
    """Row l holds the coordinates of the packed locator d_l in the basis mu^(q^k).

    nu, read off the code's table N[j, i] = nu_j^(q^i), is the trace-dual
    basis of mu^(q^k), so the coordinates of x are Tr(x nu_j), with no
    inversion.
    """
    ctx = code.ctx
    coords = code.N[:, 0] @ _trace_form(ctx) % ctx.q
    return (d @ coords.T) % ctx.q


def error_from_decomposition(a, B, ctx) -> np.ndarray:
    """The packed error a . B from packed column elements a (t, 2n) and B (t, length).

    Entry j is sum_l B[l, j] a_l, an F_q combination, so the whole vector is
    the F_q product B^T a.
    """
    return (B.T @ a) % ctx.q


def error_from_span(code: TZCode, sigma, terms):
    """(err, its transform): the packed error whose transform extends sigma by Lambda's recurrence.

    Lambda, the monic span of q-degree t, is given by its (t+1, 2n, 2n) term
    matrices F^c M(Lambda_c) (linpoly._term_matrices).  A received word's
    sigma_1..sigma_(2n-k-1) are its error's.  With e = sum_l B_l a_l,
    sigma_i = sum_l a_l d_l^(q^i), and Lambda kills every a_l, so
    sum_c Lambda_c sigma_(j-c)^(q^c) = 0 for every j.  Stepping j down from
    t, each step reads sigma_(j-t) off the window sigma_j..sigma_(j-t+1):
    one F_q product of its t 2n digits with W = stack_c(-F^c M(Lambda_c) F^-t).
    k+1 steps fill sigma_0, sigma_(2n-1), ..., sigma_(2n-k), and the error is
    the inverse transform N sigma.  The steps run in descending order, so
    that every window is one contiguous row block; a step sums t 2n <= 2n^2
    products of reduced entries, inside FieldCtx's bound for the work dtype.
    """
    ctx, k, m = code.ctx, code.k, code.ctx.m
    t = len(terms) - 1
    W = ctx._dot(terms[:t].reshape(t * m, m), -ctx._frob_rows[-t % m])
    down = np.empty((m, m), dtype=ctx._work)  # down[p] = sigma_(2n-k-1-p)
    down[: m - k - 1] = sigma[m - k - 1 : 0 : -1]
    for p in range(m - k - 1, m):
        down[p] = ctx._dot(down[p - t : p].reshape(-1), W)
    sigma_e = down[(m - k - 1 - np.arange(m)) % m]
    return ff_mat_vec(code._N_work, sigma_e, ctx), sigma_e


def _finish(code: TZCode, r, sigma, span, plain=None) -> DecodeOutcome:
    """The corrected outcome on the packed word r, or the failure of the first residual check.

    span, of q-degree t, and plain, the plain read L_f on the boundary
    route, are read as decode reads them.  One _term_matrices call builds
    the term matrices F^c M(f_c) of both; error_from_span runs the
    recurrence off span's, and a polynomial acts on coefficient rows as the
    sum of its own.  The residual check keeps the bounded-distance promise:
    err must have rank t, and r - err must be a codeword.  The rank is t
    exactly when span kills err and L_f does not, which one product with err
    decides.  span meets at least t consecutive windows of err's transform,
    so by the Moore matrix it kills an err of rank t; the pivot rows bound
    the rank below by t, or by t-1 at the boundary, where L_f kills an err
    of rank t-1 and, of q-degree t-1, none of rank t; where plain is None,
    no err of rank t-1 exists (the module docstring has the proof).  The
    product sums (t+1) 2n <= 4n^2 products of reduced entries, inside
    FieldCtx's bound.
    """
    ctx, t = code.ctx, len(span) - 1
    polys = span[None] if plain is None else np.stack([span, np.concatenate([plain, 0 * span[:1]])])
    terms = _term_matrices(ctx, polys)
    err, sigma_err = error_from_span(code, sigma, terms[0])
    kills = ~ctx._dot(err.astype(ctx._work), terms.sum(axis=1)).any(axis=(1, 2))
    if not kills[0] or kills[1:].any():
        return DecodeOutcome.fail(ERROR_RANK_MISMATCH)
    msg = code._message(sigma - sigma_err)
    if msg is None:
        return DecodeOutcome.fail(NOT_A_CODEWORD)
    return DecodeOutcome.ok(ctx.unpack((r - err) % ctx.q), ctx.unpack(err), ctx.unpack(msg), t)


def decode(code: TZCode, r) -> DecodeOutcome:
    """Bounded-minimum-distance decoding of a received word.

    Every generic error of rank t <= (2n-k-1)//2 decodes, and at even k so
    does one of rank n - k/2 over F_(q^n), from the boundary span tried first.
    Whatever passes _finish is within rank distance t <= (d-1)/2 of r, so it
    is the unique such codeword, and the plain span only turns failures into decodes.
    """
    ctx = code.ctx
    packed = code.pack_word(r)
    sigma = code._read(packed)
    msg = code._message(sigma)
    if msg is not None:  # r is a codeword: the zero route
        zero = np.zeros_like(packed)
        return DecodeOutcome.ok(ctx.unpack(packed), ctx.unpack(zero), ctx.unpack(msg), 0)

    if code.k % 2 == 0:
        t, span, boundary = solve_span(build_S_exp(code, sigma), ctx, ctx.n - code.k // 2 - 1)
        if boundary is not None:
            out = _finish(code, packed, sigma, boundary, span)
            if out.success:
                return out
    else:
        t, span = estimate_rank(code, sigma)
    if not t:
        return DecodeOutcome.fail(NO_RANK_FOUND)
    if span is None:
        return DecodeOutcome.fail(SPAN_DIM_MISMATCH)
    return _finish(code, packed, sigma, span)
