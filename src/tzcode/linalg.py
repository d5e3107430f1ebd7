"""Dense exact linear algebra over F_{q^2n} and over F_q.

Extension-field matrices are plain lists of lists of FF2n; base-field
matrices are numpy int64 arrays reduced mod q.  Elimination is plain
Gaussian with deterministic pivoting: columns scanned left to right, the
pivot is the first nonzero entry scanning rows top-down, pivots are
normalized to 1.  Kernels come back in reduced-echelon order so callers
get reproducible bases.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution, SingularMatrix

__all__ = [
    "ff_mat_mul",
    "ff_mat_vec",
    "ff_transpose",
    "ff_rref",
    "ff_rank",
    "ff_kernel",
    "ff_solve",
    "fq_rref",
    "fq_rank",
    "fq_kernel",
    "fq_solve",
    "fq_inv",
    "fq_rank_batch",
]


# ---------------------------------------------------------------------------
# matrices over F_{q^2n}
# ---------------------------------------------------------------------------

def ff_transpose(mat):
    return [list(col) for col in zip(*mat)]


def ff_mat_mul(a, b):
    bt = ff_transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def ff_mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def ff_rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in mat]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ff_rank(mat) -> int:
    _, pivots = ff_rref(mat)
    return len(pivots)


def ff_kernel(mat):
    """Basis of the right null space, one list per basis vector.

    Vectors are the standard reduced-echelon kernel basis, ordered by
    ascending free column.
    """
    rows = [list(r) for r in mat]
    if not rows:
        return []
    ctx = rows[0][0].ctx
    ncols = len(rows[0])
    rref, pivots = ff_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ctx.zero] * ncols
        vec[f] = ctx.one
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis


def ff_solve(mat, rhs):
    """One solution of mat x = rhs with free variables set to zero.

    Raises NoSolution when the system is inconsistent.
    """
    rows = [list(r) + [b] for r, b in zip(mat, rhs)]
    ncols = len(mat[0])
    rref, pivots = ff_rref(rows)
    ctx = mat[0][0].ctx
    for r in range(len(rref)):
        if all(rref[r][c].is_zero() for c in range(ncols)) and not rref[r][ncols].is_zero():
            raise NoSolution("inconsistent linear system")
    sol = [ctx.zero] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            raise NoSolution("inconsistent linear system")
        sol[p] = rref[r][ncols]
    return sol


# ---------------------------------------------------------------------------
# matrices over F_q (numpy, entries in [0, q))
# ---------------------------------------------------------------------------

_inv_tables: dict[int, np.ndarray] = {}


def _inv_table(q: int) -> np.ndarray:
    tab = _inv_tables.get(q)
    if tab is None:
        # i^(q-2) for every i at once, by square-and-multiply; 0 maps to 0
        base, tab, e = np.arange(q, dtype=np.int64), np.ones(q, dtype=np.int64), q - 2
        while e:
            if e & 1:
                tab = (tab * base) % q
            base = (base * base) % q
            e >>= 1
        _inv_tables[q] = tab
    return tab


def fq_rref(a, q):
    a = np.array(a, dtype=np.int64) % q
    inv = _inv_table(q)
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
        a[r] = (a[r] * inv[a[r, c]]) % q
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % q
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
    rref, pivots = fq_rref(a, q)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, p in enumerate(pivots):
            basis[k, p] = (-rref[r, f]) % q
    return basis


def fq_solve(a, b, q) -> np.ndarray:
    """Solve a x = b (b one or many right-hand sides), free variables zero."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    single = b.ndim == 1
    rhs = b.reshape(-1, 1) if single else b
    ncols = a.shape[1]
    aug = np.concatenate([a % q, rhs % q], axis=1)
    rref, pivots = fq_rref(aug, q)
    if pivots and pivots[-1] >= ncols:
        raise NoSolution("inconsistent linear system")
    x = np.zeros((ncols, rhs.shape[1]), dtype=np.int64)
    for i, p in enumerate(pivots):
        x[p] = rref[i, ncols:]
    return x[:, 0] if single else x


def fq_inv(a, q) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    aug = np.concatenate([a % q, np.eye(n, dtype=np.int64)], axis=1)
    rref, pivots = fq_rref(aug, q)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular over F_q")
    return rref[:, n:]


def fq_rank_batch(mats, q) -> np.ndarray:
    """Ranks of a stack of matrices, eliminated in lockstep across the batch.

    mats has shape (N, rows, cols); the batch is consumed column by column
    with per-matrix pivot selection, so memory stays O(N * rows * cols).
    """
    a = np.ascontiguousarray(np.asarray(mats, dtype=np.int64) % q)
    n, rows, cols = a.shape
    inv = _inv_table(q)
    rank = np.zeros(n, dtype=np.int64)
    row_idx = np.arange(rows)
    for c in range(cols):
        col = a[:, :, c]
        candidates = (col != 0) & (row_idx[None, :] >= rank[:, None])
        has = candidates.any(axis=1)
        if not has.any():
            continue
        idx = np.nonzero(has)[0]
        src = candidates[idx].argmax(axis=1)
        dst = rank[idx]
        # swap the pivot row into position dst
        tmp = a[idx, src, :].copy()
        a[idx, src, :] = a[idx, dst, :]
        a[idx, dst, :] = tmp
        piv = (tmp * inv[tmp[:, c]][:, None]) % q
        a[idx, dst, :] = piv
        colv = a[idx, :, c]
        below = row_idx[None, :] > dst[:, None]
        fac = np.where(below, colv, 0)
        a[idx] = (a[idx] - fac[:, :, None] * piv[:, None, :]) % q
        rank[idx] += 1
        if (rank == rows).all():
            break
    return rank
