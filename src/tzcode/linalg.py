"""Dense exact linear algebra over F_{q^2n} and over F_q.

A matrix over F_{q^2n} is a packed int64 array of shape (rows, cols, 2n)
(field.py); the F_{q^2n} entry points also take nested lists of FF2n and
then read the field off the entries.  A matrix over F_q is an int64 array
reduced mod q.

Both fields share one convention: columns are scanned left to right, the
pivot is the first nonzero entry scanning rows top-down, and the result is
the unique reduced row echelon form with pivots 1, so kernels come back as
the standard reduced-echelon basis ordered by ascending free column.  One
reader takes the kernel off a reduced form and another the particular
solution, for both fields: the kernel line of free column f holds the
field's one at f and zeros after it.

Over F_q each pivot is one numpy step: the pivot row is scaled by the
pivot's inverse p^(q-2), then the pivot column is cleared from column c
onward.  Over F_{q^2n} elimination is fraction-free Gauss-Jordan, one
numpy step per pivot: every row becomes p row - f pivot_row, with p the
pivot and f the row's entry in the pivot column.  p row goes through p's
multiplication matrix, built once for the whole matrix, and f pivot_row is
one batched product.  No inverse is taken per pivot; one batched inverse
of the pivots normalises the rows at the end, which gives the same unique
reduced form.  All of it runs in the field's work dtype (field.py), and
ff_rref hands the rows back as int64.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution, SingularMatrix
from .field import FF2n, _toeplitz

__all__ = [
    "ff_mat_vec",
    "ff_rref",
    "ff_rank",
    "ff_solve",
    "fq_reciprocal",
    "fq_rref",
    "fq_rank",
    "fq_kernel",
    "fq_solve",
    "fq_inv",
    "fq_rank_batch",
]


# ---------------------------------------------------------------------------
# matrices over F_{q^2n}, packed (rows, cols, 2n)
# ---------------------------------------------------------------------------

def _packed(a, ctx):
    """(ctx, packed array) from a packed array and its field, or from nested FF2n."""
    if ctx is None:
        if isinstance(a, np.ndarray):
            raise TypeError("a packed matrix needs its FieldCtx")
        first = a
        while not isinstance(first, FF2n):
            first = first[0]
        ctx = first.ctx
    return ctx, ctx.pack(a)


def ff_mat_vec(a, v, ctx=None) -> np.ndarray:
    """The packed vector a v.

    Each block of 2n columns of a meets the stacked Toeplitz blocks of its
    entries of v in one matmul, and the raw products are folded once at the
    end.  A block adds at most (2n)^2 products of reduced entries, inside
    FieldCtx's bound, so the running sum is reduced after every block.
    """
    ctx, a = _packed(a, ctx)
    v = ctx.pack(v)
    w, m = ctx._work, ctx.m
    rows = a.shape[0]
    conv = np.zeros((rows, 2 * m - 1), dtype=w)
    for i in range(0, a.shape[1], m):
        blocks = _toeplitz(v[i : i + m].astype(w)).reshape(-1, 2 * m - 1)
        conv = ctx._mod(conv + a[:, i : i + m].astype(w).reshape(rows, -1) @ blocks)
    return ctx.fold(conv).astype(np.int64)


def _eliminate(ctx, a):
    """Fraction-free Gauss-Jordan on a copy of a packed matrix.

    Returns the eliminated matrix in ctx._work, whose pivot rows still carry
    their pivots rather than ones, and the pivot columns.
    """
    a = a.astype(ctx._work)  # a copy, exact in the work dtype (FieldCtx)
    rows, cols = a.shape[:2]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c].any(axis=1))
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        f = a[:, c].copy()
        f[r] = 0
        pivot_row = a[r, c:].copy()
        # every row becomes p row - f pivot_row; the pivot row is zero left of c
        a = ctx._dot(a, ctx.mul_matrix(pivot_row[0]), reduce=False)
        a[:, c:] -= ctx.outer(f, pivot_row)
        a = ctx._mod(a)
        pivots.append(c)
    return a, pivots


def ff_rref(a, ctx=None):
    """Reduced row echelon form; returns (packed int64 rows, pivot column indices).

    The batched pivot inverse and the row normalisation run in the work
    dtype of the elimination; the rows are cast back to int64 once.
    """
    ctx, a = _packed(a, ctx)
    a, pivots = _eliminate(ctx, a)
    if pivots:
        r = len(pivots)
        a[:r] = ctx.mul(a[:r], ctx.inv(a[np.arange(r), pivots])[:, None])
    return np.asarray(a, np.int64), pivots


def ff_rank(a, ctx=None) -> int:
    ctx, a = _packed(a, ctx)
    return len(_eliminate(ctx, a)[1])


def ff_solve(a, rhs, ctx=None) -> np.ndarray:
    """One packed solution of a x = rhs with free variables set to zero.

    Raises NoSolution when the system is inconsistent.
    """
    ctx, a = _packed(a, ctx)
    aug = np.concatenate([a, ctx.pack(rhs)[:, None]], axis=1)
    return _solution_of_rref(*ff_rref(aug, ctx), a.shape[1])[:, 0]


def _kernel_of_rref(rref, pivots, cols: int, one, q: int) -> np.ndarray:
    """The reduced-echelon kernel basis over either field, one line per free column f.

    Line f is one at f, -rref[:, f] at the pivots and zero elsewhere; an F_q
    entry is a scalar, a packed F_{q^2n} entry has one more trailing axis.
    """
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols) + rref.shape[2:], dtype=np.int64)
    basis[np.arange(len(free)), free] = one
    basis[:, pivots] = (-rref[: len(pivots), free].swapaxes(0, 1)) % q
    return basis


def _solution_of_rref(rref, pivots, ncols: int) -> np.ndarray:
    """(ncols, rhs columns, ...) solution of an augmented system, free variables zero.

    Raises NoSolution when a pivot lies among the right-hand-side columns.
    """
    if pivots and pivots[-1] >= ncols:
        raise NoSolution("inconsistent linear system")
    tail = rref[: len(pivots), ncols:]
    sol = np.zeros((ncols,) + tail.shape[1:], dtype=np.int64)
    sol[pivots] = tail
    return sol


# ---------------------------------------------------------------------------
# matrices over F_q (numpy, entries in [0, q))
# ---------------------------------------------------------------------------

def fq_reciprocal(x, q: int) -> np.ndarray:
    """x^(q-2) entrywise by square-and-multiply: the inverse of nonzero x, and 0 at 0."""
    base = np.asarray(x, dtype=np.int64) % q
    out, e = np.ones_like(base), q - 2
    while e:
        if e & 1:
            out = (out * base) % q
        base = (base * base) % q
        e >>= 1
    return out


def fq_rref(a, q):
    a = np.array(a, dtype=np.int64) % q
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        # the pivot row is zero left of c, so only columns c onward change
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), q - 2, q)) % q
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % q
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def fq_rank(a, q) -> int:
    _, pivots = fq_rref(a, q)
    return len(pivots)


def fq_kernel(a, q) -> np.ndarray:
    """Rows of the result are a reduced-echelon basis of the right null space."""
    a = np.asarray(a)
    return _kernel_of_rref(*fq_rref(a, q), a.shape[1], 1, q)


def fq_solve(a, b, q) -> np.ndarray:
    """Solve a x = b (b one or many right-hand sides), free variables zero."""
    b = np.asarray(b)
    x = _solution_of_rref(*fq_rref(np.column_stack([a, b]), q), np.shape(a)[1])
    return x[:, 0] if b.ndim == 1 else x


def fq_inv(a, q) -> np.ndarray:
    try:
        return fq_solve(a, np.eye(len(a), dtype=np.int64), q)
    except NoSolution:
        raise SingularMatrix("matrix is singular over F_q") from None


def fq_rank_batch(mats, q) -> np.ndarray:
    """Ranks of a stack of matrices, eliminated in lockstep across the batch.

    mats has shape (N, rows, cols).  Each column is one fraction-free step over
    the stack: every matrix swaps its pivot row into row rank, then each row
    below becomes p row - f pivot_row, one row of the stack at a time and in
    place, so memory stays one copy of the stack.
    """
    a = np.asarray(mats, dtype=np.int64) % q
    n, rows, cols = a.shape
    rank = np.zeros(n, dtype=np.int64)
    every = np.arange(n)
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & (np.arange(rows) >= rank[:, None])
        has = candidates.any(axis=1)
        # a matrix without a pivot here, or already of full rank, swaps a row with itself
        dst = np.minimum(rank, rows - 1)
        src = np.where(has, candidates.argmax(axis=1), dst)
        pivot_row = a[every, src]
        a[every, src] = a[every, dst]
        a[every, dst] = pivot_row
        for i in range(1, rows):
            f = np.where(has & (i > rank), a[:, i, c], 0)[:, None]
            a[:, i] = (np.where(f, pivot_row[:, c, None], 1) * a[:, i] - f * pivot_row) % q
        rank += has
        if (rank == rows).all():
            break
    return rank
