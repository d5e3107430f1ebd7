import numpy as np
import pytest

from tzcode import FieldCtx, LinPoly, build_code, rank_weight
from tzcode.errors import NoSolution, TZError
from tzcode.channel import (
    ChannelSpec,
    ErrorDecomposition,
    random_error,
    random_message,
    trial_rng,
)
from tzcode.decoder import build_S, error_from_decomposition
from tzcode.field import _toeplitz
from tzcode.linalg import _kernel_of_rref, _packed, ff_rank, ff_rref, fq_inv, fq_rank, fq_solve
from tzcode.selftest import GAMMA, MODULUS, XI


@pytest.fixture(scope="session")
def ctx5():
    return FieldCtx(5, 2, MODULUS)


@pytest.fixture(scope="session")
def code5(ctx5):
    """The published q=5, n=2, k=2 instance with its explicit gamma and xi."""
    return build_code(ctx5, 2, gamma=ctx5.elem(GAMMA), xi=ctx5.elem(XI))


@pytest.fixture(scope="session")
def ctx3():
    return FieldCtx(3, 2)


@pytest.fixture(scope="session")
def code321(ctx3):
    return build_code(ctx3, 1)


@pytest.fixture(scope="session")
def code322(ctx3):
    return build_code(ctx3, 2)


@pytest.fixture(scope="session")
def ctx33():
    return FieldCtx(3, 3)


@pytest.fixture(scope="session")
def code332(ctx33):
    return build_code(ctx33, 2)


def plant(code, t, rng, subfield=False):
    """One corrupted transmission: (message, codeword, error, decomposition, received)."""
    msg = random_message(code, rng)
    cw = code.encode(msg)
    e, decomp = random_error(code, ChannelSpec(t=t, subfield_only=subfield), rng)
    r = tuple(x + y for x, y in zip(cw, e))
    return msg, cw, e, decomp, r


def rng_for(seed, trial=0):
    return trial_rng(seed, trial)


# ---------------------------------------------------------------------------
# reference channel draws: one call per element, the form src/ replaced with
# one call per word; tests require the same words and the same stream
# ---------------------------------------------------------------------------

def random_subfield_element(ctx, rng):
    return ctx.subfield_elements(rng.integers(0, ctx.q, ctx.n))[0]


def ref_random_message(code, rng) -> tuple:
    return tuple(random_subfield_element(code.ctx, rng) for _ in range(2 * code.k))


def ref_random_error(code, spec, rng):
    spec.validate(code)
    ctx = code.ctx
    t = spec.t
    while True:
        if spec.subfield_only:
            a = [random_subfield_element(ctx, rng) for _ in range(t)]
        else:
            a = [ctx.random_element(rng) for _ in range(t)]
        if rank_weight(a) == t:
            break
    while True:
        B = rng.integers(0, ctx.q, (t, ctx.m), dtype=np.int64)
        if fq_rank(B, ctx.q) == t:
            break
    e = ctx.unpack(error_from_decomposition(ctx.pack(a), B, ctx))
    d = ctx.unpack((B @ code.mu_k.T) % ctx.q)
    return e, ErrorDecomposition(tuple(a), B, d)


# ---------------------------------------------------------------------------
# reference implementations: the element-by-element forms that src/ replaced
# with F_q matrix forms, kept here so tests can compare the two, and the
# Moore matrix and coordinate maps that only tests use
# ---------------------------------------------------------------------------

def ref_rank_scan(code, s):
    """Largest u with S^(u) of full rank, scanning u_max, u_max - 1, ..., 1; None if none."""
    u_max = (code.ctx.m - (code.k + 1)) // 2
    for u in range(u_max, 0, -1):
        if ff_rank(build_S(code, s, u), code.ctx) == u:
            return u
    return None


def ff_kernel(a, ctx=None) -> np.ndarray:
    """Packed (dim, cols) basis of the right null space.

    Rows are the standard reduced-echelon kernel basis, ordered by
    ascending free column.
    """
    ctx, a = _packed(a, ctx)
    return _kernel_of_rref(*ff_rref(a, ctx), a.shape[1], ctx.one.coeffs, ctx.q)


def same_span(a, b) -> bool:
    """Both None, or equal packed span polynomials."""
    return a is b is None or a is not None and b is not None and np.array_equal(a, b)


def elements(ctx):
    """All q^2n elements in index order.  Only sensible for tiny fields."""
    return (ctx.element_from_index(idx) for idx in range(ctx.q**ctx.m))


def index_of(ctx, a) -> int:
    """Inverse of FieldCtx.element_from_index: coefficients as base-q digits."""
    idx = 0
    for i in range(ctx.m - 1, -1, -1):
        idx = idx * ctx.q + int(a.coeffs[i])
    return idx


def in_base(a) -> bool:
    return not a.coeffs[1:].any()


def in_subfield(a) -> bool:
    """Membership in F_{q^n}, tested as a^(q^n) == a."""
    return np.array_equal(a.ctx.frob(a.coeffs, a.ctx.n), a.coeffs)


def trace_abs(ctx, a):
    """Absolute trace onto F_q: sum of all 2n Frobenius images."""
    acc = ctx.zero
    for i in range(ctx.m):
        acc = acc + a.frobenius(i)
    return acc


class DependentSpan(TZError):
    """Span polynomial requested for linearly dependent generators."""


def span_poly(ctx, vecs):
    """Monic subspace polynomial whose roots are exactly the F_q-span of vecs.

    Built degree by degree: when L kills the span of the first j inputs and
    v is the next one, L'(x) = L(x)^q - L(v)^(q-1) L(x) kills the enlarged
    span and has q-degree j+1.  Dependent inputs make L(v) vanish, which is
    rejected.  The top coefficient is normalized to 1.
    """
    coeffs = [ctx.one]  # the identity polynomial x
    for v in vecs:
        val = LinPoly(ctx, coeffs)(v)
        if val.is_zero():
            raise DependentSpan("generators are linearly dependent over F_q")
        factor = val.frobenius(1) / val  # val^(q-1)
        raised = [ctx.zero] + [c.frobenius(1) for c in coeffs]
        coeffs = [r - factor * c for r, c in zip(raised, coeffs + [ctx.zero])]
    inv = coeffs[-1].inverse()
    return LinPoly(ctx, [c * inv for c in coeffs])


def qvan(a, s: int) -> np.ndarray:
    """The packed s x len(a) Moore matrix: row i is the entrywise q^i power of a."""
    ctx = a[0].ctx
    return ctx.frob(ctx.pack(list(a)), np.arange(s)[:, None])


def ext(x, basis) -> np.ndarray:
    """Matrix expansion by columns: column j holds the basis coordinates of x[j]."""
    ctx = basis.ctx
    cols = ctx.pack(list(x)).T
    return (fq_inv(basis.expansion, ctx.q) @ cols) % ctx.q


def ext_inv(mat, basis):
    """Inverse of ext: rebuild the field vector from a coordinate matrix."""
    return basis.ctx.unpack(((basis.expansion @ mat) % basis.ctx.q).T)


def moore_mu(ctx, lam, xi, k):
    """mu from the square Moore system qvan(lam) mu = (xi^(q^(2n-k)), 0, ..., 0)."""
    rhs = [xi.frobenius(ctx.m - k)] + [ctx.zero] * (ctx.m - 1)
    return ref_solve(ctx.unpack(qvan(list(lam), ctx.m)), rhs)


def encode_by_rows(code, msg) -> tuple:
    """msg . G as a sum of generator rows, entry by entry."""
    out = []
    for col in range(code.length):
        G = code.ctx.unpack(code.G)
        acc = msg[0] * G[0][col]
        for i in range(1, 2 * code.k):
            acc = acc + msg[i] * G[i][col]
        out.append(acc)
    return tuple(out)


def ref_msg_left_inverse(code) -> np.ndarray:
    """A left inverse of the code map found by F_q elimination, the form src/ replaced."""
    return fq_solve(code._enc_mat, np.eye(code._enc_mat.shape[0], dtype=np.int64), code.ctx.q)


def is_codeword_by_trace(code, v) -> bool:
    """Zero relative trace of every entry of v H^T, row by row."""
    for row in code.ctx.unpack(code.H):
        acc = code.ctx.zero
        for x, y in zip(row, v):
            acc = acc + x * y
        if not code.ctx.trace_rel(acc).is_zero():
            return False
    return True


def ref_mul_matrix(ctx, a) -> np.ndarray:
    """(..., 2n, 2n) multiplication matrices by a Toeplitz fold: row u is the
    raw product a x^u reduced through the table, the form src/ replaced with
    one product of a with FieldCtx's multiplication table."""
    return ctx.fold(_toeplitz(a))


def outer(ctx, a, b) -> np.ndarray:
    """The (len a, len b, 2n) products a_i b_j of two packed vectors: one
    matmul against b's Toeplitz blocks, shared by every a_i, then the fold;
    src/ takes products of one element with many from its multiplication
    matrix instead."""
    blocks = _toeplitz(b).transpose(1, 0, 2).reshape(ctx.m, -1)
    return ctx.fold(ctx._dot(a, blocks, reduce=False).reshape(len(a), len(b), -1))


def ref_fq_rref(a, q):
    """Gauss-Jordan over F_q: each pivot row is scaled by the pivot's inverse
    and its column cleared above and below, the form src/ replaced with a
    fraction-free forward pass and one back sweep.  Returns (rows, pivots).
    """
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


# ---------------------------------------------------------------------------
# reference linear algebra over F_{q^2n}: lists of lists of FF2n, one field
# operation at a time, the form src/ replaced with packed arrays
# ---------------------------------------------------------------------------

def ref_mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def ref_mat_mul(a, b):
    cols = [list(col) for col in zip(*b)]
    return [ref_mat_vec(cols, row) for row in a]


def ref_rref(mat):
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


def ref_rank(mat) -> int:
    return len(ref_rref(mat)[1])


def ref_kernel(mat):
    """Reduced-echelon basis of the right null space, by ascending free column."""
    rows = [list(r) for r in mat]
    ctx = rows[0][0].ctx
    ncols = len(rows[0])
    rref, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [ctx.zero] * ncols
        vec[f] = ctx.one
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis


def ref_solve(mat, rhs):
    """One solution of mat x = rhs with free variables zero; NoSolution if none."""
    rows = [list(r) + [b] for r, b in zip(mat, rhs)]
    ncols = len(mat[0])
    rref, pivots = ref_rref(rows)
    if pivots and pivots[-1] == ncols:
        raise NoSolution("inconsistent linear system")
    sol = [mat[0][0].ctx.zero] * ncols
    for r, p in enumerate(pivots):
        sol[p] = rref[r][ncols]
    return sol
