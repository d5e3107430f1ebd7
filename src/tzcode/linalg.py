"""Dense exact linear algebra over F_{q^2n} and over F_q.

A matrix over F_{q^2n} is a packed array of shape (rows, cols, 2n) in the
field's work dtype (field.py); the F_{q^2n} entry points also take packed
arrays of any integer dtype, which they read through FieldCtx.pack, or
nested lists of FF2n, and then read the field off the entries.  A matrix
over F_q is an int64 array reduced mod q.

Both fields share one convention: columns are scanned left to right, the
pivot is the first nonzero entry scanning rows top-down, and the result is
the unique reduced row echelon form with pivots 1, so kernels come back as
the standard reduced-echelon basis ordered by ascending free column.  One
reader takes the kernel off a reduced form and another the particular
solution, for both fields: the kernel line of free column f holds the
field's one at f and zeros after it.

Over F_q one forward pass, _fq_echelon, serves both rank and reduced form.
It is fraction-free, one numpy step per pivot: every row below the pivot
becomes p row - f pivot_row mod q, with p the pivot and f the row's entry
in the pivot column.  It neither scales the pivot row nor clears the rows
above it, and it stops once every row holds a pivot or the rows below the
last pivot are zero from the scanned column on.  Each product of reduced
entries stays below q^2, so int64 holds it for any q below 2^31.  fq_rank
counts the pivots of this pass and takes no inverse.  fq_rref adds one back
sweep: one batched fq_reciprocal scales every pivot to 1, then the column
of each pivot is cleared above it, from the last pivot to the first; the
reduced form is unique, so this is the same form a Gauss-Jordan loop gives.

Over F_{q^2n} elimination is fraction-free Gauss-Jordan, one numpy step per
pivot: every row becomes p row - f pivot_row, with p the pivot and f the
row's entry in the pivot column.  One product with the field's
multiplication table gives the multiplication matrix of every entry of
the pivot row (FieldCtx.mul_matrix), unreduced where FieldCtx._lazy
allows.  The first, p's, scales the whole matrix in one product; laid side
by side, they give every f pivot_row in one more; and the one reduction
mod q follows (a second reduces the matrices first where they may not
stay unreduced).  The scan stops as over F_q.  No inverse is taken per
pivot; one batched inverse of the pivots normalises the rows at the end,
which gives the same unique reduced form.
All of it runs in the field's work dtype (field.py), as does ff_mat_vec;
ff_rref and ff_solve hand their results back as int64, as their callers
outside the library expect.  _eliminate can seek pivots in the leading rows only.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution, SingularMatrix

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
    """(ctx, work-dtype packed array) from a packed array and its field, or from nested FF2n.

    The field is read off the first item, descending until one has a ctx.
    """
    if ctx is None:
        if isinstance(a, np.ndarray):
            raise TypeError("a packed matrix needs its FieldCtx")
        first = a
        while not hasattr(first, "ctx"):
            first = first[0]
        ctx = first.ctx
    return ctx, ctx.pack(a)


def ff_mat_vec(a, v, ctx=None) -> np.ndarray:
    """The packed vector a v.

    Entry j of v meets column j of a through its multiplication matrix
    (FieldCtx.mul_matrix), so a v is one F_q product of a's coefficient rows
    with those matrices stacked, unreduced where FieldCtx._lazy allows.  It
    runs in blocks of 2n columns, whose sums FieldCtx keeps exact, and the
    running sum is reduced after every block.
    """
    ctx, a = _packed(a, ctx)
    m = ctx.m
    a = a.reshape(len(a), -1)
    by = ctx._mul_factor(ctx.pack(v)).reshape(-1, m)  # row j 2n + u: v_j x^u
    out = np.zeros((len(a), m), dtype=ctx._work)
    for i in range(0, a.shape[1], m * m):
        out = ctx._mod(out + ctx._dot(a[:, i : i + m * m], by[i : i + m * m], reduce=False))
    return out


def _eliminate(ctx, a, rows=None):
    """Fraction-free Gauss-Jordan on a copy of a packed matrix, pivots from its first rows rows.

    a is in the work dtype, as _packed gives it.  Returns the eliminated
    matrix, whose pivot rows still carry their pivots rather than ones, and
    the pivot columns.  Every row is reduced.
    """
    a = a.copy()
    rows = len(a) if rows is None else rows
    m = ctx.m
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:rows, c].any(axis=1))
        if nz.size == 0:
            if not a[r:rows, c:].any():
                break
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        f = a[:, c].copy()
        f[r] = 0
        # every row becomes p row - f pivot_row; the pivot row is zero left of c.
        # by[j] multiplies by the pivot row's entry j, by[0] by the pivot p;
        # side by side, f @ by gives f times every entry of the pivot row
        by = ctx._mul_factor(a[r, c:])
        side_by_side = by.transpose(1, 0, 2).reshape(m, -1)
        a = ctx._dot(a, by[0], reduce=False)
        a[:, c:] -= ctx._dot(f, side_by_side, reduce=False).reshape(a[:, c:].shape)
        a = ctx._mod(a)
        pivots.append(c)
    return a, pivots


def ff_rref(a, ctx=None):
    """Reduced row echelon form; returns (packed int64 rows, pivot column indices).

    The batched pivot inverse and the row normalisation run in the work
    dtype; the rows leave as int64.
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


def _fq_echelon(a, q):
    """Fraction-free forward elimination of a copy of a mod q: (rows, pivot columns).

    The pivot rows keep their pivots rather than ones, and the rows above
    a pivot are left as they are.
    """
    a = np.array(a, dtype=np.int64) % q
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if not len(nz):
            if not a[r:, c:].any():
                break
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        # the pivot row is zero left of c, so only columns c onward change
        pivot_row = a[r, c:]
        below = a[r + 1 :, c:]
        below[...] = (pivot_row[0] * below - below[:, :1] * pivot_row) % q
        pivots.append(c)
    return a, pivots


def fq_rref(a, q):
    """Reduced row echelon form mod q; returns (int64 rows, pivot column indices)."""
    a, pivots = _fq_echelon(a, q)
    r = len(pivots)
    if r:
        a[:r] = a[:r] * fq_reciprocal(a[np.arange(r), pivots], q)[:, None] % q
        for i in range(r - 1, 0, -1):
            above = a[:i, pivots[i]:]
            above[...] = (above - above[:, :1] * a[i, pivots[i]:]) % q
    return a, pivots


def fq_rank(a, q) -> int:
    return len(_fq_echelon(a, q)[1])


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
