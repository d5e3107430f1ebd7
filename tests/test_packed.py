"""Packed F_{q^2n} kernels and elimination against element-by-element references.

The batched kernels (FieldCtx.mul, mul_matrix, frob, frob_powers, inv, and
ff_mat_vec) are checked against the scalar FF2n operations and against
schoolbook products in Python ints, and mul_matrix against the Toeplitz
fold in conftest; the packed elimination (ff_rref, ff_rank, ff_solve, the
conftest ff_kernel and the decoder's span reader solve_span, whose spans
are packed (rank+1, 2n) arrays) against the list-of-FF2n reference in
conftest.  Each check runs in int64 and, where the field allows it, in the
float32 or float64 work dtype the decoder eliminates in.  At the largest q
each dtype admits, the code's F_q maps, the root space and decoding are
checked for exactness; every product of a decode takes and gives the work
dtype, so none promotes to a wider one; and whatever runs in the work dtype
inside, every array and element the library hands back holds int64.  The numbers of table products
and reductions per elimination pivot and per decode, and of tzcode's own
function calls per decode, are pinned, so that a change that adds a fold or
a step back fails here and not only in a noisy timing.
"""

import cProfile
import os
import pstats
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tzcode
from tzcode import FieldCtx, LinPoly, build_code, decode, random_message
from tzcode.construct import is_valid_gamma
from tzcode.decoder import build_S, build_S_exp, solve_span, syndrome
from tzcode.errors import DivisionByZero, NoSolution
from tzcode.field import _is_prime
from tzcode import linalg
from tzcode.linalg import _eliminate, ff_mat_vec, ff_rank, ff_rref, ff_solve, fq_rref
from tzcode.linpoly import root_space

from conftest import (elements, encode_by_rows, ff_kernel, message_left_inverse, outer, plant, qvan,
                      ref_kernel, ref_mat_vec, ref_mul_matrix, ref_rref, ref_solve, rng_for,
                      same_span)


def _fold_bound(q, n):
    return 2 * n * (q - 1) ** 2 + n * (2 * n - 1) * (q - 1) ** 3


def _unreduced_bound(q, n):
    """The largest sum an unreduced multiplication matrix enters: ff_mat_vec's
    block of 2n columns, below 8n^3(q-1)^3, plus its reduced running sum."""
    return 8 * n**3 * (q - 1) ** 3 + q


def _largest_prime(ok, every=False):
    """Largest prime q with ok(q) at n = 2, q = 1 mod 4 unless every; ok must be monotone."""
    lo, hi = 3, 2**21
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if ok(mid) else (lo, mid)
    # at the large q of the float64 and int64 edges, q = 1 mod 4 keeps the
    # modulus search short (see test_field)
    return next(p for p in range(lo - 1, 0, -1) if _is_prime(p) and (every or p % 4 == 1))


def _float32_edge_q():
    """The largest q at n = 2 whose kernels run in float32: q times the
    unreduced sum stays below 2^24, so every product there is lazy."""
    return _largest_prime(lambda v: _unreduced_bound(v, 2) * v < 2**24, every=True)


def _edge_q(edge):
    """int64: the largest q FieldCtx accepts at n = 2; float64: the largest q
    whose kernels still run in float64, where floor(x / q) must stay exact;
    float32: the largest q whose kernels run in float32."""
    if edge == "int64":
        return _largest_prime(lambda v: _fold_bound(v, 2) < 2**63)
    if edge == "float32":
        return _float32_edge_q()
    return _largest_prime(lambda v: _fold_bound(v, 2) * v < 2**53)


def _unreduced_edge_q(edge):
    """The largest q at n = 2 whose multiplication matrices still enter their
    next product unreduced in the work dtype edge."""
    if edge == "int64":
        return _largest_prime(lambda v: _unreduced_bound(v, 2) < 2**63)
    if edge == "float32":
        return _float32_edge_q()
    return _largest_prime(lambda v: _unreduced_bound(v, 2) * v < 2**53)


# the work dtype of the next q above each float edge
_NEXT_TIER = {"float32": np.dtype(np.float64), "float64": np.dtype(np.int64)}


def _code_with_random_gamma(ctx, k, rng):
    """A code whose gamma is drawn at random rather than taken from the
    default search."""
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
            image = ctx.frob(wa, i)
            assert image.dtype == dt and ctx.unpack(image) == tuple(x.frobenius(i) for x in ea)
        assert ctx.unpack(ctx.trace(wa)) == tuple(ctx.trace_rel(x) for x in ea)
        powers = np.arange(len(a)) % ctx.m
        assert ctx.unpack(ctx.frob(wa, powers)) == tuple(
            x.frobenius(int(i)) for x, i in zip(ea, powers))
        every = ctx.frob_powers(wa[:7])
        assert every.dtype == dt and ctx.unpack(every) == tuple(
            tuple(x.frobenius(i) for i in range(ctx.m)) for x in ea[:7])
        nonzero = [i for i, x in enumerate(ea) if not x.is_zero()]
        inverse = ctx.inv(wa[nonzero])
        assert inverse.dtype == dt
        assert ctx.unpack(inverse) == tuple(ea[i].inverse() for i in nonzero)
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


@pytest.mark.parametrize("edge", ["int64", "float64", "float32"])
def test_batched_products_at_the_largest_q_each_dtype_admits(edge):
    q = _edge_q(edge)
    ctx = FieldCtx(q, 2)
    assert ctx._work == np.dtype(edge)
    if edge in _NEXT_TIER:
        above = next(p for p in range(q + 1, 2 * q) if _is_prime(p) and p % 4 == 1)
        assert FieldCtx(above, 2)._work == _NEXT_TIER[edge]
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


@pytest.mark.parametrize("above", [False, True], ids=["unreduced", "reduced"])
@pytest.mark.parametrize("edge", ["int64", "float64", "float32"])
def test_products_at_the_unreduced_budget_edge(edge, above):
    """At the largest q whose multiplication matrices enter their next product
    unreduced, and at the next q, where they are reduced first, every kernel
    that multiplies by one matches the Python-int products on operands whose
    coefficients are all q-1.  float32 holds only lazy products, so past its
    edge the next q leaves it for float64, where they stay unreduced."""
    q = _unreduced_edge_q(edge)
    if above:
        q = next(p for p in range(q + 1, 2 * q) if _is_prime(p) and p % 4 == 1)
    ctx = FieldCtx(q, 2)
    if edge == "float32" and above:
        assert (ctx._work, ctx._lazy) == (np.dtype(np.float64), True)
    else:
        assert (ctx._work, ctx._lazy) == (np.dtype(edge), not above)
    m = ctx.m
    full = np.full(m, q - 1)
    square = int_mulmod(ctx, full, full)
    for dt in _dtypes(ctx):
        x = full.astype(dt)
        batch = np.tile(x, (3, 1))
        for prod in (ctx.mul(x, x)[None], ctx.mul(batch, batch), ctx.mul(batch, x),
                     ctx.mul(x, batch)):
            assert prod.dtype == dt and prod.tolist() == [square] * len(prod)
        assert ctx.mul_matrix(x).tolist() == [int_mulmod(ctx, full, unit) for unit in np.eye(m)]
        assert all(int_mulmod(ctx, full, y) == ctx.one.coeffs.tolist() for y in ctx.inv(batch))
    # every row becomes p row - f pivot_row with p = f: the pivot row turns
    # into p row, the other row into zero, and the scan stops at column 1
    mat = np.full((2, 2 * m + 1, m), q - 1)
    rows, pivots = _eliminate(ctx, mat)
    assert pivots == [0]
    assert rows.tolist() == [[square] * (2 * m + 1), [[0] * m] * (2 * m + 1)]
    # over more than one block of 2n columns
    for a in (mat, mat.astype(ctx._work)):
        assert ff_mat_vec(a, mat[0], ctx).tolist() == [[v * (2 * m + 1) % q for v in square]] * 2


@pytest.mark.parametrize("edge", ["int64", "float64", "float32"])
def test_code_maps_and_decoding_at_the_largest_q_each_dtype_admits(edge):
    ctx = FieldCtx(_edge_q(edge), 2)
    assert ctx._work == np.dtype(edge)
    q = ctx.q
    rng = rng_for(240)
    for k in (1, 2):
        code = _code_with_random_gamma(ctx, k, rng)
        # the maps hold reduced integers, and the code map's product with the
        # closed-form left inverse is checked in Python ints
        for held in (code._enc_mat, code._split_work, code._transform_work):
            exact = np.asarray(held, np.int64)
            assert np.array_equal(exact, held) and exact.min() >= 0 and exact.max() < q
        enc = np.asarray(code._enc_mat, np.int64)
        assert np.array_equal(enc.astype(object) @ message_left_inverse(code).astype(object) % q,
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


@pytest.mark.parametrize("q, n, k", [(3, 12, 1), (3, 12, 2), (3, 12, 19), (7, 12, 19),
                                     (_edge_q("int64"), 2, 1)],
                         ids=["float32-k1", "float32-k2", "float32-k19", "float64-k19",
                              "int64-edge"])
def test_results_leave_as_int64(q, n, k):
    # FF2n hashes its coefficient bytes: a float coefficient would give two
    # equal elements different hashes
    ctx = FieldCtx(q, n)
    assert ctx._work == np.dtype({3: np.float32, 7: np.float64}.get(q, np.int64))
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
    sigma = code._read(ctx.pack(r))
    S = build_S_exp(code, sigma) if k % 2 == 0 else build_S(code, sigma, (ctx.m - k - 1) // 2)
    rank, span, _ = solve_span(S, ctx)
    assert rank == t
    for arr in (sigma, syndrome(code, ctx.pack(r)), S, ff_rref(S, ctx)[0], span,
                root_space(LinPoly(ctx, span)), code._message(code._read(ctx.pack(cw)))):
        assert arr.dtype == np.int64


def test_work_dtype_of_the_benchmark_fields():
    """(3,12), where plain-scan and boundary-sub run, works in float32: q times
    its unreduced sum, 331 785, stays below 2^24.  (7,12), high-rate's field,
    whose unreduced sum 20.9M alone passes 2^24, stays in float64, lazy."""
    small, wide = FieldCtx(3, 12), FieldCtx(7, 12)
    assert (small._work, small._lazy) == (np.dtype(np.float32), True)
    assert (wide._work, wide._lazy) == (np.dtype(np.float64), True)
    for ctx in (small, wide):
        assert {t.dtype for t in (ctx._mul_tensor, ctx._frob_tensor, ctx._frob_rows)} == {ctx._work}


def _count_kernels(monkeypatch) -> Counter:
    """Count the calls of FieldCtx._dot (one product each) and FieldCtx._mod
    (one reduction each) from here on."""
    calls = Counter()
    for name in ("_dot", "_mod"):
        def counted(self, *args, _name=name, _kernel=getattr(FieldCtx, name), **kwargs):
            calls[_name] += 1
            return _kernel(self, *args, **kwargs)
        monkeypatch.setattr(FieldCtx, name, counted)
    return calls


@pytest.mark.parametrize("k, t, subfield", [(2, 11, True), (1, 6, False)],
                         ids=["S_exp-bounded", "S_umax"])
def test_kernel_calls_per_pivot_and_per_syndrome(monkeypatch, k, t, subfield):
    """Each pivot: one table product for the unreduced multiplication matrices,
    two row products, and one reduction; the read of the transform: one table
    product and one block product, and one reduction."""
    ctx = FieldCtx(3, 12)
    assert ctx._lazy
    code = build_code(ctx, k)
    r = ctx.pack(plant(code, t, rng_for(260 + k), subfield=subfield)[-1])
    calls = _count_kernels(monkeypatch)
    sigma = code._read(r)
    assert calls == {"_dot": 2, "_mod": 1}
    # the boundary S_exp pivots from its t-1 plain rows, S^(u_max) has rank t
    S, rows, rank = ((build_S_exp(code, sigma), t - 1, t - 1) if k % 2 == 0
                     else (build_S(code, sigma, (ctx.m - k - 1) // 2), None, t))
    calls.clear()
    pivots = _eliminate(ctx, S, rows)[1]
    assert pivots == list(range(rank))
    assert calls == {"_dot": 3 * rank, "_mod": rank}


@pytest.mark.parametrize("q, k, t, subfield, expected", [
    (3, 1, 0, False, {"_dot": 3, "_mod": 2}),
    (3, 1, 6, False, {"_dot": 55, "_mod": 33}),
    (3, 2, 0, False, {"_dot": 3, "_mod": 2}),
    (3, 2, 11, True, {"_dot": 76, "_mod": 44}),
    (3, 2, 6, False, {"_dot": 60, "_mod": 38}),
    (7, 19, 0, False, {"_dot": 3, "_mod": 2}),
    (7, 19, 2, False, {"_dot": 61, "_mod": 47}),
], ids=["k1-zero", "k1-plain", "k2-zero", "k2-boundary", "k2-plain", "k19-zero", "k19-plain"])
def test_kernel_calls_per_decode(monkeypatch, q, k, t, subfield, expected):
    """One fixed word per route at the three benchmark codes: the products and
    reductions of the whole decode, and of its finishing step.  The zero
    route is the read of the transform (two products, one reduction) and the
    one membership test that finds r a codeword and gives its message (one
    product, one reduction), with no finish.  The finish takes k+7 products
    and k+6 reductions: one _term_matrices call (one product, one reduction)
    for the span's term matrices, and on the boundary for the plain span's
    too; the recurrence matrix W and the k+1 recurrence steps (one product
    and one reduction each); the inverse transform (two products, one
    reduction); the rank check, which applies the summed term matrices to
    err (one product, one reduction); and the membership test, which reads the
    message off k+1 transform entries (one product, one reduction).  The
    check of the boundary's trace rows below the first is one matrix-vector
    product (two products, one reduction).  No relative trace is taken but
    in the closing row of S_exp (one product, one reduction)."""
    import tzcode.decoder as dec

    code = build_code(FieldCtx(q, 12), k)
    _, cw, _, _, r = plant(code, max(t, 1), rng_for(270 + k), subfield=subfield)
    calls = _count_kernels(monkeypatch)
    finished = []

    def counted(*args, _finish=dec._finish):
        before = Counter(calls)
        out = _finish(*args)
        finished.append(dict(calls - before))
        return out

    monkeypatch.setattr(dec, "_finish", counted)
    out = decode(code, r if t else cw)
    assert out.success and out.t == t
    assert dict(calls) == expected
    assert finished == ([{"_dot": k + 7, "_mod": k + 6}] if t else [])


@pytest.mark.parametrize("k, t, subfield", [
    (1, 0, False), (1, 6, False), (2, 0, False), (2, 11, True), (2, 6, False),
], ids=["k1-zero", "k1-plain", "k2-zero", "k2-boundary", "k2-plain"])
def test_decode_products_stay_in_the_work_dtype(monkeypatch, k, t, subfield):
    """The words of test_kernel_calls_per_decode at (3,12): every product of the
    decode takes both operands in the float32 work dtype and gives it back, so
    no int64 table or operand promotes a product to float64."""
    ctx = FieldCtx(3, 12)
    code = build_code(ctx, k)
    _, cw, _, _, r = plant(code, max(t, 1), rng_for(270 + k), subfield=subfield)
    dtypes = Counter()

    def recorded(self, a, b, reduce=True, _dot=FieldCtx._dot):
        out = _dot(self, a, b, reduce)
        dtypes[a.dtype, b.dtype, out.dtype] += 1
        return out

    monkeypatch.setattr(FieldCtx, "_dot", recorded)
    out = decode(code, r if t else cw)
    assert out.success and out.t == t
    assert list(dtypes) == [(ctx._work,) * 3]


@pytest.mark.parametrize("q, k, t, subfield, expected", [
    (3, 1, 0, False, 74),
    (3, 1, 6, False, 229),
    (3, 2, 0, False, 76),
    (3, 2, 11, True, 286),
    (3, 2, 6, False, 247),
    (7, 19, 0, False, 110),
    (7, 19, 2, False, 277),
], ids=["k1-zero", "k1-plain", "k2-zero", "k2-boundary", "k2-plain", "k19-zero", "k19-plain"])
def test_function_calls_per_decode(q, k, t, subfield, expected):
    """The words of test_kernel_calls_per_decode: the calls, counted by
    cProfile, of the named functions defined in tzcode's files, so that the
    count does not move with numpy's internals or with how the interpreter
    runs comprehensions.  Most are FF2n's constructor, once per element
    handed back (2n + 2n + 2k), and the kernels pinned above."""
    code = build_code(FieldCtx(q, 12), k)
    _, cw, _, _, r = plant(code, max(t, 1), rng_for(270 + k), subfield=subfield)
    profile = cProfile.Profile()
    out = profile.runcall(decode, code, r if t else cw)
    assert out.success and out.t == t
    root = os.path.dirname(tzcode.__file__) + os.sep
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (primitive, calls, ...)
    assert sum(calls for (file, _, name), (_, calls, *_) in stats.items()
               if file.startswith(root) and not name.startswith("<")) == expected


def test_boundary_decode_eliminates_the_block_and_one_trace_row(monkeypatch):
    """The boundary word of test_kernel_calls_per_decode at (3,12,2), t_b = 11:
    of S_exp's 22 rows, decode eliminates the 10 plain rows and the first
    trace row, and checks the other 11 rows on the boundary span."""
    import tzcode.decoder as dec

    code = build_code(FieldCtx(3, 12), 2)
    *_, r = plant(code, 11, rng_for(272), subfield=True)
    eliminated = []
    monkeypatch.setattr(dec, "_eliminate", lambda ctx, a, rows=None:
                        eliminated.append((len(a), rows)) or _eliminate(ctx, a, rows))
    out = decode(code, r)
    assert out.success and out.t == 11
    assert eliminated == [(11, 10)]


def test_elimination_stops_below_the_last_pivot(monkeypatch):
    """The 11 x 12 S^(u_max) at (3,12,1) of a rank-6 error has its rows below
    the sixth pivot zero from column 6 on, so the scan ends at column 6 and
    never reaches columns 7..11.  Each scanned column seeks its pivot with one
    np.flatnonzero in linalg."""
    ctx = FieldCtx(3, 12)
    code = build_code(ctx, 1)
    S = build_S(code, code._read(ctx.pack(plant(code, 6, rng_for(265))[-1])), 11)
    assert S.shape[:2] == (11, 12)
    scans = []

    def flatnonzero(x):
        scans.append(len(x))
        return np.flatnonzero(x)

    monkeypatch.setattr(linalg, "np", SimpleNamespace(**{**vars(np), "flatnonzero": flatnonzero}))
    assert _eliminate(ctx, S)[1] == list(range(6))
    assert len(scans) == 7  # columns 0..6


def test_kernel_calls_per_inverse(monkeypatch):
    """ctx.inv at 2n = 24: the conorm's addition chain follows the bits 0111
    of 23 after the leading one, 4 doublings and 3 increments, each one
    Frobenius map (a product and a reduction) and one field product (a table
    product, a row product and one reduction); then the last Frobenius map,
    the norm product and the scaling by the norm's reciprocal."""
    ctx = FieldCtx(3, 12)
    a = rng_for(266).integers(0, 3, (6, ctx.m)).astype(ctx._work)
    a[:, 0] = 1
    calls = _count_kernels(monkeypatch)
    ctx.inv(a)
    assert calls == {"_dot": 7 * 3 + 1 + 2, "_mod": 7 * 2 + 1 + 1 + 1}


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
