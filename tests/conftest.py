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
from tzcode.decoder import (ERROR_RANK_MISMATCH, NO_RANK_FOUND, NOT_A_CODEWORD, SPAN_DIM_MISMATCH,
                            DecodeOutcome, _monic, build_S, build_S_exp, error_from_decomposition,
                            error_from_span, estimate_rank)
from tzcode.field import _toeplitz
from tzcode.linalg import (_eliminate, _kernel_of_rref, _packed, ff_rank, ff_rref, fq_inv, fq_rank,
                           fq_reciprocal, fq_solve)
from tzcode.linpoly import _term_matrices
from tzcode.selftest import GAMMA, MODULUS, XI


# the first monic irreducible of degree 8 over F_10007 (default_modulus),
# given so that tests do not rerun the search
MODULUS_10007_4 = [5, 1, 0, 0, 0, 0, 0, 0, 1]


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
    a = ctx.pack(a)
    return ctx.unpack(error_from_decomposition(a, B, ctx)), ErrorDecomposition(a, B)


# ---------------------------------------------------------------------------
# reference implementations: the element-by-element forms that src/ replaced
# with F_q matrix forms, kept here so tests can compare the two, and the
# Moore matrix and coordinate maps that only tests use
# ---------------------------------------------------------------------------

def locators(code, B) -> np.ndarray:
    """The packed locators d = B mu^(q^k)^T of a planted decomposition's B."""
    ctx = code.ctx
    return (B @ ctx.frob(ctx.pack(code.mu), code.k)) % ctx.q


def transform(code, r) -> np.ndarray:
    """The packed transform sigma_i = sum_j r_j (mu_j^(q^k))^(q^i), i in Z_2n, of a word r
    (packed or a sequence of elements), entry by entry from the basis mu: what
    TZCode._read gives, and what the syndrome builders and the span read take."""
    ctx = code.ctx
    rows = ctx.frob(ctx.pack(code.mu), (code.k + np.arange(ctx.m))[:, None])  # [i, j]
    return ctx.mul(rows, ctx.pack(r)[None]).sum(axis=1) % ctx.q


def ref_reduction_table(q, modulus) -> np.ndarray:
    """Row d is x^d mod modulus, d = 0 .. 2m-2, every row folded from the one
    before: the loop src/ replaced with unit rows below m."""
    m = len(modulus) - 1
    low = np.array(modulus[:m], dtype=np.int64)
    red = np.zeros((2 * m - 1, m), dtype=np.int64)
    red[0, 0] = 1
    for d in range(1, 2 * m - 1):
        carry = red[d - 1, m - 1]
        red[d, 1:] = red[d - 1, : m - 1]
        red[d] = (red[d] - carry * low) % q
    return red


def ref_inverse_and_norm(ctx, a):
    """(a^-1, N(a)), int64, of packed nonzero a, entry by entry, by the
    Itoh-Tsujii chain all the way down to F_q: the conorm
    b = a^(q + ... + q^(2n-1)) from the addition chain on the bits of 2n-1,
    the absolute norm N(a) = a b in F_q, and a^-1 = b N(a)^-1: the form src/
    replaced with a chain into a tabled subfield."""
    x, j = a, 1
    for bit in bin(ctx.m - 1)[3:]:
        x = ctx.mul(x, ctx.frob(x, j))
        j *= 2
        if bit == "1":
            x = ctx.mul(a, ctx.frob(x, 1))
            j += 1
    b = ctx.frob(x, 1).astype(np.int64)
    norm = ctx.mul(a, b).astype(np.int64)
    return b * fq_reciprocal(norm[..., :1], ctx.q) % ctx.q, norm


def ref_subfield_coords(ctx) -> np.ndarray:
    """A (2n, n) right inverse of the subfield basis found by F_q elimination:
    an element of F_{q^n} times it gives its digits, the form src/ replaced
    with a read of the basis's free columns."""
    return fq_solve(ctx._subfield_mat, np.eye(ctx.n, dtype=np.int64), ctx.q)


def ref_rank_scan(code, sigma):
    """Largest u with S^(u) of full rank, scanning u_max, u_max - 1, ..., 1; None if none."""
    u_max = (code.ctx.m - (code.k + 1)) // 2
    for u in range(u_max, 0, -1):
        if ff_rank(build_S(code, sigma, u), code.ctx) == u:
            return u
    return None


def ref_solve_span(S, ctx, rows=None):
    """solve_span with every row of S eliminated: the form that decode replaced
    with the pivot rows and the first row below the bound.  Below the bound,
    the first reduced row that is (x, y) at (f, t) with x != 0 fixes the
    pencil's member, and every reduced row must vanish on it."""
    ctx, S = _packed(S, ctx)
    a, pivots = _eliminate(ctx, S, rows)
    rank, t = len(pivots), a.shape[1] - 1
    free = next((c for c, p in enumerate(pivots) if p != c), rank)
    hit = []
    if rows is not None and rank == t - 1 and t not in pivots:
        hit = (rows + np.flatnonzero(a[rows:, free].any(axis=1))[:1]).tolist()
    if not hit:
        if rank > t or free < rank:
            return rank, None, None
        diag = np.arange(rank)
        return rank, _monic(ctx, ctx.mul(a[:rank, rank], ctx.inv(a[diag, diag]))), None
    piv = a[[*range(rank), *hit]]
    inv = ctx.inv(piv[np.arange(rank + 1), pivots + [free]])
    ratio = ctx.mul(np.concatenate([piv[:, free], piv[:, t]]), np.concatenate([inv, inv]))
    fr, tr = ratio.reshape(2, rank + 1, ctx.m)
    plain = _monic(ctx, fr[:rank]) if free == rank else None
    scaled = ctx._dot(np.concatenate([fr[:rank], a[rows:, free]]), ctx._mul_factor(tr[rank]))
    if not np.array_equal(a[rows:, t], scaled[rank:]):
        return rank, plain, None
    return rank, plain, _monic(ctx, np.insert(tr[:rank] - scaled[:rank], free, tr[rank], 0))


def ref_error(code, sigma, span):
    """(err, its transform) read off the packed span by error_from_span."""
    return error_from_span(code, sigma, _term_matrices(code.ctx, span))


def ref_finish(code, r, sigma, t, err, sigma_err) -> DecodeOutcome:
    """decode's finish with the error's rank found by F_q elimination: fq_rank
    must give t, and then r - err must pass the membership test."""
    ctx = code.ctx
    if fq_rank(err, ctx.q) != t:
        return DecodeOutcome.fail(ERROR_RANK_MISMATCH)
    msg = code._message(sigma - sigma_err)
    if msg is None:
        return DecodeOutcome.fail(NOT_A_CODEWORD)
    return DecodeOutcome.ok(ctx.unpack((r - err) % ctx.q), ctx.unpack(err), ctx.unpack(msg), t)


def ref_decode(code, r) -> DecodeOutcome:
    """decode as it ran before the span's roots decided the error's rank:
    S_exp's spans from ref_solve_span, every finish (the zero route's
    included) through ref_finish and so through fq_rank, and the same route
    order."""
    ctx = code.ctx
    packed = code.pack_word(r)
    sigma = code._read(packed)
    if code._message(sigma) is not None:
        return ref_finish(code, packed, sigma, 0, np.zeros_like(packed), 0)
    if code.k % 2 == 0:
        t_b = ctx.n - code.k // 2
        t, span, boundary = ref_solve_span(build_S_exp(code, sigma), ctx, t_b - 1)
        if boundary is not None:
            out = ref_finish(code, packed, sigma, t_b, *ref_error(code, sigma, boundary))
            if out.success:
                return out
    else:
        t, span = estimate_rank(code, sigma)
    if not t:
        return DecodeOutcome.fail(NO_RANK_FOUND)
    if span is None:
        return DecodeOutcome.fail(SPAN_DIM_MISMATCH)
    return ref_finish(code, packed, sigma, t, *ref_error(code, sigma, span))


def ff_kernel(a, ctx=None) -> np.ndarray:
    """Packed (dim, cols) basis of the right null space.

    Rows are the standard reduced-echelon kernel basis, ordered by
    ascending free column.
    """
    ctx, a = _packed(a, ctx)
    return _kernel_of_rref(*ff_rref(a, ctx), a.shape[1], ctx.one.coeffs, ctx.q)


def same_span(a, b) -> bool:
    """Both None, or equal arrays: packed span polynomials, or message digits."""
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


def message_left_inverse(code) -> np.ndarray:
    """The (4n^2, 2kn) F_q map from a word's coefficients to its message digits, in closed form.

    src/ once held it and read every membership and message through it; it
    now splits the k+1 transform entries F_i instead.  lam* = xi^(-q^(2n-k)) mu
    is the trace-dual basis of lam.  The unit word alpha^r at entry j has
    f_i = alpha^r (lam*_j)^(q^i), row r of the multiplication matrix of
    (lam*_j)^(q^i).  b = (f - f^(q^n)) / (gamma - gamma^(q^n)) and a = f - gamma b
    are F_q maps on coefficient rows, folded into the subfield digit map; the
    message is a_0, a_1, b_1, ..., a_(k-1), b_(k-1), b_k.
    """
    ctx, k, gamma = code.ctx, code.k, code.gamma
    q, n, m = ctx.q, ctx.n, ctx.m
    dual = ctx.mul(ctx.inv(code.xi.frobenius(m - k).coeffs), ctx.pack(code.mu))
    f = ctx.mul_matrix(ctx.frob(dual, np.arange(k + 1)[:, None]))  # [i, j, r]: row r of f_i
    eye = np.eye(m, dtype=np.int64)
    conj_gap = ctx.inv((gamma.coeffs - ctx.frob(gamma.coeffs, n)) % q)
    to_b = (eye - ctx._frob_rows[n]) @ ctx.mul_matrix(conj_gap) % q
    to_a = (eye - to_b @ ctx.mul_matrix(gamma.coeffs)) % q
    to_digits = ctx.subfield_digits(np.stack([to_a, to_b], axis=1))  # [row, (a, b), digit]
    ab = (f @ to_digits.reshape(m, 2 * n) % q).reshape(k + 1, m, m, 2, n)
    ab = ab.transpose(1, 2, 0, 3, 4).reshape(m * m, 2 * k + 2, n)  # [j r, i (a, b), digit]
    keep = np.r_[0, 2:2 * k, 2 * k + 1]  # drop b_0 and a_k
    return ab[:, keep].reshape(m * m, 2 * k * n)


def ref_message_digits(code, v, left_inverse=None):
    """The digits of the message encoding to the word v, or None when v is not a codeword.

    The membership test src/ replaced: v is the encoding of the digits a
    left inverse of the code map (message_left_inverse by default) reads off.
    """
    q = code.ctx.q
    inverse = message_left_inverse(code) if left_inverse is None else left_inverse
    enc = np.asarray(code._enc_mat, np.int64)
    flat = code.ctx.pack(v).reshape(-1)
    digits = flat @ inverse % q
    return digits if np.array_equal(digits @ enc % q, flat) else None


def is_codeword_by_trace(code, v) -> bool:
    """Zero relative trace of every entry of v H^T, row by row."""
    for row in code.ctx.unpack(code.H):
        acc = code.ctx.zero
        for x, y in zip(row, v):
            acc = acc + x * y
        if not code.ctx.trace_rel(acc).is_zero():
            return False
    return True


def fold(ctx, conv) -> np.ndarray:
    """Reduce (..., 4n-1) raw products, each no larger than one product's,
    mod the field's modulus through its reduction table: how FieldCtx.mul
    finished a product before it became a product with a multiplication
    matrix."""
    return ctx._dot(conv, ctx._red)


def ref_mul_matrix(ctx, a) -> np.ndarray:
    """(..., 2n, 2n) multiplication matrices by a Toeplitz fold: row u is the
    raw product a x^u reduced through the table, the form src/ replaced with
    one product of a with FieldCtx's multiplication table."""
    return fold(ctx, _toeplitz(a))


def outer(ctx, a, b) -> np.ndarray:
    """The (len a, len b, 2n) products a_i b_j of two packed vectors: one
    matmul against b's Toeplitz blocks, shared by every a_i, then the fold;
    src/ takes products of one element with many from its multiplication
    matrix instead."""
    blocks = _toeplitz(b).transpose(1, 0, 2).reshape(ctx.m, -1)
    return fold(ctx, ctx._dot(a, blocks, reduce=False).reshape(len(a), len(b), -1))


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
