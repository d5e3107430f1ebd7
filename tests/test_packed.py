"""Packed F_{q^2n} kernels and elimination against element-by-element references.

The batched kernels (FieldCtx.mul, mul_matrix, frob, frob_powers, inv, and
ff_mat_vec) are checked against the scalar FF2n operations and against
schoolbook products in Python ints, and mul_matrix against the Toeplitz
fold in conftest; the packed elimination (ff_rref, ff_rank, ff_solve, the
conftest ff_kernel and the decoder's span reader solve_span, whose spans
are packed (rank+1, 2n) arrays) against the list-of-FF2n reference in
conftest.  Each check runs in int64 and, where the field allows it, in the
float64 work dtype the decoder eliminates in.  At the largest q each dtype
admits, the code's F_q maps, the root space and decoding are checked for
exactness; and whatever runs in the work dtype inside, every array and
element the library hands back holds int64.  The numbers of table products
and reductions per elimination pivot are pinned, so that a change that adds
a fold back fails here and not only in a noisy timing.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tzcode import FieldCtx, LinPoly, build_code, decode, random_message
from tzcode.construct import is_valid_gamma
from tzcode.decoder import build_S, build_S_exp, solve_span, syndrome
from tzcode.errors import DivisionByZero, NoSolution
from tzcode.field import _is_prime
from tzcode.linalg import _eliminate, ff_mat_vec, ff_rank, ff_rref, ff_solve, fq_rref
from tzcode.linpoly import root_space

from conftest import (elements, encode_by_rows, ff_kernel, outer, plant, qvan, ref_kernel,
                      ref_mat_vec, ref_mul_matrix, ref_rref, ref_solve, rng_for, same_span)


def _fold_bound(q, n):
    return 2 * n * (q - 1) ** 2 + n * (2 * n - 1) * (q - 1) ** 3


def _largest_prime(ok):
    """Largest prime q = 1 mod 4 with ok(q) at n = 2; ok must be monotone."""
    lo, hi = 3, 2**21
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if ok(mid) else (lo, mid)
    # q = 1 mod 4 keeps the modulus search short (see test_field)
    return next(p for p in range(lo - 1, 0, -1) if _is_prime(p) and p % 4 == 1)


def _edge_q(edge):
    """int64: the largest q FieldCtx accepts at n = 2; float64: the largest q
    whose kernels still run in float64, where floor(x / q) must stay exact."""
    if edge == "int64":
        return _largest_prime(lambda v: _fold_bound(v, 2) < 2**63)
    return _largest_prime(lambda v: _fold_bound(v, 2) * v < 2**53)


def _code_with_random_gamma(ctx, k, rng):
    """A code whose gamma is drawn at random: at large q the default search
    would first scan all q scalars, whose norms are squares."""
    while True:
        gamma = ctx.random_element(rng)
        if is_valid_gamma(ctx, gamma):
            return build_code(ctx, k, gamma=gamma)


def int_mulmod(ctx, a, b):
    """Schoolbook a b mod the modulus, in Python ints."""
    q, m, f = ctx.q, ctx.m, ctx.modulus
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += int(x) * int(y)
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d] % q
        for i in range(m + 1):
            prod[d - m + i] -= c * f[i]
    return [x % q for x in prod[:m]]


def _dtypes(ctx):
    return sorted({np.dtype(np.int64), ctx._work}, key=str)


def _check_kernels(ctx, a, b):
    """mul, mul_matrix, outer, frob, frob_powers, inv and ff_mat_vec on packed a, b against
    the scalar ops."""
    ea, eb = ctx.unpack(a), ctx.unpack(b)
    products = tuple(x * y for x, y in zip(ea, eb))
    cols = min(len(b), 2 * ctx.m + 1)  # wider than 2n columns: ff_mat_vec sums two blocks or more
    rows = min(3, len(a) // cols)
    mat_vec = tuple(ref_mat_vec([ea[i * cols : (i + 1) * cols] for i in range(rows)], eb[:cols]))
    for dt in _dtypes(ctx):
        wa, wb = a.astype(dt), b.astype(dt)
        prod = ctx.mul(wa, wb)
        assert prod.dtype == dt
        assert ctx.unpack(prod) == products
        by = ctx.mul_matrix(wa)
        assert by.dtype == dt and np.array_equal(by, ref_mul_matrix(ctx, wa))
        assert ctx.unpack(ctx._dot(wb[:, None], by)[:, 0]) == products
        assert ctx.unpack(outer(ctx, wa[:5], wb[:7])) == tuple(
            tuple(x * y for y in eb[:7]) for x in ea[:5])
        for i in (1, ctx.n, -1):
            assert ctx.unpack(ctx.frob(wa, i)) == tuple(x.frobenius(i) for x in ea)
        powers = np.arange(len(a)) % ctx.m
        assert ctx.unpack(ctx.frob(wa, powers)) == tuple(
            x.frobenius(int(i)) for x, i in zip(ea, powers))
        every = ctx.frob_powers(wa[:7])
        assert every.dtype == dt and ctx.unpack(every) == tuple(
            tuple(x.frobenius(i) for i in range(ctx.m)) for x in ea[:7])
        nonzero = [i for i, x in enumerate(ea) if not x.is_zero()]
        assert ctx.unpack(ctx.inv(wa[nonzero])) == tuple(ea[i].inverse() for i in nonzero)
        mv = ff_mat_vec(wa[: rows * cols].reshape(rows, cols, ctx.m), wb[:cols], ctx)
        assert mv.dtype == np.int64 and ctx.unpack(mv) == mat_vec


def test_batched_kernels_match_scalar_ops_exhaustively():
    ctx = FieldCtx(3, 2)
    elems = ctx.pack(list(elements(ctx)))
    a = np.repeat(elems, len(elems), axis=0)
    b = np.tile(elems, (len(elems), 1))
    _check_kernels(ctx, a, b)


@pytest.mark.parametrize("q, n", [(3, 12), (7, 12)])
def test_batched_kernels_match_scalar_ops_at_decoder_size(q, n):
    ctx = FieldCtx(q, n)
    rng = rng_for(200 + q)
    a = rng.integers(0, q, (60, ctx.m))
    b = rng.integers(0, q, (60, ctx.m))
    a[3] = 0
    _check_kernels(ctx, a, b)
    for x, y, z in zip(a, b, ctx.mul(a, b)):
        assert z.tolist() == int_mulmod(ctx, x, y)


@pytest.mark.parametrize("edge", ["int64", "float64"])
def test_batched_products_at_the_largest_q_each_dtype_admits(edge):
    q = _edge_q(edge)
    ctx = FieldCtx(q, 2)
    assert ctx._work == np.dtype(edge)
    if edge == "float64":
        above = next(p for p in range(q + 1, 2 * q) if _is_prime(p) and p % 4 == 1)
        assert FieldCtx(above, 2)._work == np.dtype(np.int64)
    rng = rng_for(210)
    a = rng.integers(0, q, (40, ctx.m))
    b = rng.integers(0, q, (40, ctx.m))
    a[:4] = q - 1  # the largest raw products
    b[:4] = q - 1
    work = (a.astype(ctx._work), b.astype(ctx._work))
    for prod in (ctx.mul(a, b), ctx.mul(*work), outer(ctx, *work)[np.arange(40), np.arange(40)],
                 ctx._dot(b[:, None], ctx.mul_matrix(a))[:, 0],
                 ctx._dot(work[1][:, None], ctx.mul_matrix(work[0]))[:, 0]):
        for x, y, z in zip(a, b, prod):
            assert [int(v) for v in z] == int_mulmod(ctx, x, y)
    # every coefficient q-1, over more than one block of 2n columns
    full = np.full((2, 2 * ctx.m + 1, ctx.m), q - 1)
    entry = int_mulmod(ctx, full[0, 0], full[0, 0])
    for mat in (full, full.astype(ctx._work)):
        expected = [v * (2 * ctx.m + 1) % q for v in entry]
        assert ff_mat_vec(mat, full[0], ctx).tolist() == [expected] * 2
    one = ctx.mul(work[0], ctx.inv(work[0]))
    assert np.array_equal(one, np.broadcast_to(ctx.one.coeffs, one.shape))
    mat = rng.integers(0, q, (3, 4, ctx.m))
    _check_elimination(ctx, mat)


@pytest.mark.parametrize("edge", ["int64", "float64"])
def test_code_maps_and_decoding_at_the_largest_q_each_dtype_admits(edge):
    ctx = FieldCtx(_edge_q(edge), 2)
    assert ctx._work == np.dtype(edge)
    q = ctx.q
    rng = rng_for(240)
    for k in (1, 2):
        code = _code_with_random_gamma(ctx, k, rng)
        # the maps hold reduced integers, and their product is checked in Python ints
        enc, inv = (np.asarray(x, np.int64) for x in (code._enc_mat, code.msg_left_inverse))
        for exact, held in ((enc, code._enc_mat), (inv, code.msg_left_inverse)):
            assert np.array_equal(exact, held) and exact.min() >= 0 and exact.max() < q
        assert np.array_equal(enc.astype(object) @ inv.astype(object) % q,
                              np.eye(len(enc), dtype=np.int64))
        for _ in range(4):
            msg = random_message(code, rng)
            cw = code.encode(msg)
            assert cw == encode_by_rows(code, msg)
            assert code.is_codeword(cw) and code.unmap(cw) == msg
        for t in range(1, ctx.m):
            vecs = [ctx.random_element(rng) for _ in range(t)]
            plane, pivots = fq_rref([v.coeffs for v in vecs], q)
            assert len(pivots) == t  # random elements are independent at these q
            # the span polynomial is the one kernel line of the t x (t+1) Moore matrix
            kernel = ff_kernel(qvan(vecs, t + 1).swapaxes(0, 1), ctx)
            assert len(kernel) == 1
            roots = root_space(LinPoly(ctx, kernel[0]))
            assert len(roots) == t and np.array_equal(fq_rref(roots, q)[0], plane)
        # rank-1 errors; at even k only subfield errors are guaranteed
        for _ in range(4):
            msg, cw, e, _, r = plant(code, 1, rng, subfield=k % 2 == 0)
            out = decode(code, r)
            assert out.success and out.t == 1
            assert (out.codeword, out.error, out.message) == (cw, e, msg)


def _all_int64(elems):
    return all(e.coeffs.dtype == np.int64 for e in elems)


@pytest.mark.parametrize("q, n, k", [(3, 12, 1), (3, 12, 2), (3, 12, 19), (_edge_q("int64"), 2, 1)],
                         ids=["float64-k1", "float64-k2", "float64-k19", "int64-edge"])
def test_results_leave_as_int64(q, n, k):
    # FF2n hashes its coefficient bytes: a float coefficient would give two
    # equal elements different hashes
    ctx = FieldCtx(q, n)
    assert ctx._work == np.dtype(np.float64 if q == 3 else np.int64)
    rng = rng_for(250 + k)
    code = _code_with_random_gamma(ctx, k, rng)
    t = code.radius  # at even k the boundary rank, decoded from subfield errors
    msg, cw, e, _, r = plant(code, t, rng, subfield=k % 2 == 0)
    assert _all_int64(code.encode(msg)) and _all_int64(code.unmap(cw))
    assert _all_int64(ctx.subfield_elements(rng.integers(0, q, (3, n)).astype(ctx._work)))
    for word, err in ((cw, (ctx.zero,) * code.length), (r, e)):
        out = decode(code, word)
        assert out.success and (out.codeword, out.error, out.message) == (cw, err, msg)
        assert _all_int64(out.codeword) and _all_int64(out.error) and _all_int64(out.message)
        assert hash(out.codeword[0]) == hash(ctx.elem(cw[0].coeffs.tolist()))
    s = syndrome(code, ctx.pack(r))
    S = build_S_exp(code, s) if k % 2 == 0 else build_S(code, s, (ctx.m - k - 1) // 2)
    rank, span, _ = solve_span(S, ctx)
    assert rank == t
    for arr in (s, S, ff_rref(S, ctx)[0], span, root_space(LinPoly(ctx, span)),
                code._message_digits(ctx.pack(cw))):
        assert arr.dtype == np.int64


@pytest.mark.parametrize("k, t, subfield", [(2, 11, True), (1, 6, False)],
                         ids=["S_exp-bounded", "S_umax"])
def test_kernel_calls_per_pivot_and_per_syndrome(monkeypatch, k, t, subfield):
    """Each pivot: one table product for mul_matrix, two row products, and one
    reduction each; the syndrome: one table product and one block product."""
    ctx = FieldCtx(3, 12)
    code = build_code(ctx, k)
    r = ctx.pack(plant(code, t, rng_for(260 + k), subfield=subfield)[-1])
    calls = Counter()
    for name in ("_dot", "_mod"):
        def counted(self, *args, _name=name, _kernel=getattr(FieldCtx, name), **kwargs):
            calls[_name] += 1
            return _kernel(self, *args, **kwargs)
        monkeypatch.setattr(FieldCtx, name, counted)
    s = syndrome(code, r)
    assert calls == {"_dot": 2, "_mod": 2}
    # the boundary S_exp pivots from its t-1 plain rows, S^(u_max) has rank t
    S, rows, rank = ((build_S_exp(code, s), t - 1, t - 1) if k % 2 == 0
                     else (build_S(code, s, (ctx.m - k - 1) // 2), None, t))
    calls.clear()
    pivots = _eliminate(ctx, S, rows)[1]
    assert pivots == list(range(rank))
    assert calls == {"_dot": 3 * rank, "_mod": 2 * rank}


def test_inverse_of_zero_raises_in_a_batch(ctx5):
    with pytest.raises(DivisionByZero):
        ctx5.inv(np.stack([ctx5.one.coeffs, ctx5.zero.coeffs]))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _check_elimination(ctx, mat, rhs=None):
    """Packed rref, rank, kernel, span and solve equal the list-of-FF2n reference."""
    lists = [list(row) for row in ctx.unpack(mat)]
    rows, pivots = ref_rref(lists)
    packed, packed_pivots = ff_rref(mat, ctx)
    assert packed_pivots == pivots
    assert ctx.unpack(packed) == tuple(tuple(r) for r in rows)
    for dt in _dtypes(ctx):  # normalised in the work dtype, returned as int64
        rref = ff_rref(mat.astype(dt), ctx)[0]
        assert rref.dtype == np.int64 and np.array_equal(rref, packed)
    assert ff_rank(mat, ctx) == len(pivots)
    kernel = ff_kernel(mat, ctx)
    assert ctx.unpack(kernel) == tuple(tuple(v) for v in ref_kernel(lists))
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    for f, vec in zip(free, kernel, strict=True):
        assert not ff_mat_vec(mat, vec, ctx).any()
        # the field's one at the free column and zeros after it: cut after
        # its free column a line is monic, which solve_span relies on
        assert np.array_equal(vec[f], ctx.one.coeffs) and not vec[f + 1 :].any()
    rank, span, boundary = solve_span(mat, ctx)
    assert rank == len(pivots) and boundary is None
    # a bound at the full height leaves no row below it: the same read
    bounded = solve_span(mat, ctx, len(mat))
    assert bounded[::2] == (rank, None) and same_span(bounded[1], span)
    if pivots == list(range(rank)) and rank < mat.shape[1]:
        assert np.array_equal(span, kernel[0, : rank + 1])
        assert not kernel[0, rank + 1 :].any()
    else:
        assert span is None
    if rhs is None:
        return
    try:
        expected = tuple(ref_solve(lists, list(ctx.unpack(rhs))))
    except NoSolution:
        with pytest.raises(NoSolution):
            ff_solve(mat, rhs, ctx)
        return
    sol = ff_solve(mat, rhs, ctx)
    assert ctx.unpack(sol) == expected
    assert np.array_equal(ff_mat_vec(mat, sol, ctx), rhs)


def _low_rank(ctx, rng, rows, cols, rank):
    """A random rows x cols packed matrix of rank at most `rank`: a product of two."""
    left = ctx.unpack(rng.integers(0, ctx.q, (rows, rank, ctx.m)))
    right = ctx.unpack(rng.integers(0, ctx.q, (rank, cols, ctx.m)))
    return ctx.pack([ref_mat_vec([list(col) for col in zip(*right)], list(row))
                     for row in left]) if rank else np.zeros((rows, cols, ctx.m), np.int64)


@pytest.mark.parametrize("q, n", [(3, 2), (5, 2), (3, 4), (7, 3)])
def test_elimination_matches_reference(q, n):
    ctx = FieldCtx(q, n)
    rng = rng_for(220 + 10 * q + n)
    for _ in range(12):
        rows, cols = (int(v) for v in rng.integers(1, 7, 2))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        mat = _low_rank(ctx, rng, rows, cols, rank)
        assert ff_rank(mat, ctx) <= rank
        consistent = ff_mat_vec(mat, rng.integers(0, q, (cols, ctx.m)), ctx)
        _check_elimination(ctx, mat, consistent)
        _check_elimination(ctx, mat, rng.integers(0, q, (rows, ctx.m)))
        _check_elimination(ctx, rng.integers(0, q, (rows, cols, ctx.m)))


def test_elimination_takes_nested_elements_too(ctx5):
    rng = rng_for(230)
    mat = rng.integers(0, 5, (3, 4, ctx5.m))
    lists = [list(row) for row in ctx5.unpack(mat)]
    for packed, nested in ((ff_rref(mat, ctx5), ff_rref(lists)),
                           ((ff_kernel(mat, ctx5),), (ff_kernel(lists),))):
        for x, y in zip(packed, nested):
            assert np.array_equal(np.asarray(x), np.asarray(y))
    with pytest.raises(TypeError, match="FieldCtx"):
        ff_rank(mat)


_CTX32 = FieldCtx(3, 2)


@st.composite
def _matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(rows, cols)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    zero_rows = draw(st.lists(st.integers(0, rows - 1), max_size=2))
    mat = _low_rank(_CTX32, rng, rows, cols, rank)
    mat[zero_rows] = 0
    return mat, rng.integers(0, 3, (rows, _CTX32.m))


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_elimination_property(case):
    mat, rhs = case
    _check_elimination(_CTX32, mat, rhs)
