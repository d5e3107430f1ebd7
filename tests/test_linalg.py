"""Exact solvers over both fields, checked against naive oracles."""

import tracemalloc

import numpy as np
import pytest

from tzcode import FieldCtx
from tzcode.errors import NoSolution, SingularMatrix
from tzcode.linalg import (
    ff_mat_vec,
    ff_rank,
    ff_solve,
    fq_inv,
    fq_kernel,
    fq_rank,
    fq_rank_batch,
    fq_reciprocal,
    fq_rref,
    fq_solve,
)

from conftest import ff_kernel, qvan, ref_fq_rref, ref_mat_mul, rng_for


def _identity(ctx, t):
    return [[ctx.one if i == j else ctx.zero for j in range(t)] for i in range(t)]


def test_rank_of_identity(ctx5):
    for t in (1, 2, 4):
        assert ff_rank(_identity(ctx5, t)) == t


def test_kernel_of_zero_matrix(ctx5):
    mat = [[ctx5.zero] * 3 for _ in range(2)]
    basis = ctx5.unpack(ff_kernel(mat))
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        assert vec[i] == ctx5.one


def test_published_dual_basis_system(ctx5):
    lam = [ctx5.one, ctx5.alpha, ctx5.alpha**2, ctx5.alpha**3]
    xi = ctx5.elem([4, 2, 4, 0])
    rhs = [xi.frobenius(2), ctx5.zero, ctx5.zero, ctx5.zero]
    assert rhs[0] == ctx5.elem([4, 3, 4, 0])
    mu = ctx5.unpack(ff_solve(qvan(lam, 4), rhs, ctx5))
    assert mu == (
        ctx5.elem([1, 2, 1, 0]),
        ctx5.elem([2, 1, 0, 2]),
        ctx5.elem([1, 0, 2, 4]),
        ctx5.elem([0, 2, 4, 2]),
    )


def _det3(m):
    # cofactor expansion along the first row
    def det2(a, b, c, d):
        return a * d - b * c

    return (
        m[0][0] * det2(m[1][1], m[1][2], m[2][1], m[2][2])
        - m[0][1] * det2(m[1][0], m[1][2], m[2][0], m[2][2])
        + m[0][2] * det2(m[1][0], m[1][1], m[2][0], m[2][1])
    )


def _adjugate3(m):
    def det2(a, b, c, d):
        return a * d - b * c

    cof = [[None] * 3 for _ in range(3)]
    idx = [(1, 2), (0, 2), (0, 1)]
    for i in range(3):
        for j in range(3):
            r = idx[i]
            c = idx[j]
            minor = det2(m[r[0]][c[0]], m[r[0]][c[1]], m[r[1]][c[0]], m[r[1]][c[1]])
            cof[j][i] = minor if (i + j) % 2 == 0 else -minor
    return cof


def test_solve_against_adjugate_oracle_on_subfield_systems():
    # random 3x3 systems with entries in F_27, sitting inside F_729
    ctx = FieldCtx(3, 3)
    rng = rng_for(30)

    def sub_elem():
        acc = ctx.zero
        for b in ctx.subfield_basis:
            acc = acc + b.scale(int(rng.integers(0, 3)))
        return acc

    solved = 0
    while solved < 10:
        m = [[sub_elem() for _ in range(3)] for _ in range(3)]
        det = _det3(m)
        if det.is_zero():
            assert ff_rank(m) < 3
            assert len(ff_kernel(m)) == 3 - ff_rank(m)
            continue
        rhs = [sub_elem() for _ in range(3)]
        inv_det = det.inverse()
        adj = _adjugate3(m)
        assert ref_mat_mul(m, adj) == [[det if i == j else ctx.zero for j in range(3)]
                                       for i in range(3)]
        expected = tuple(inv_det * acc for acc in ctx.unpack(ff_mat_vec(adj, rhs)))
        assert ctx.unpack(ff_solve(m, rhs)) == expected
        assert len(ff_kernel(m)) == 0
        solved += 1


def test_ff_solve_inconsistent_raises(ctx5):
    mat = [[ctx5.one, ctx5.one], [ctx5.one, ctx5.one]]
    with pytest.raises(NoSolution):
        ff_solve(mat, [ctx5.zero, ctx5.one])


def test_ff_kernel_vectors_annihilate(ctx5):
    rng = rng_for(32)
    for _ in range(10):
        m = [[ctx5.random_element(rng) for _ in range(4)] for _ in range(2)]
        basis = ff_kernel(m)
        assert len(basis) == 4 - ff_rank(m)
        for vec in basis:
            assert not ff_mat_vec(m, vec).any()


# ---------------------------------------------------------------------------
# base-field suite
# ---------------------------------------------------------------------------

def test_fq_solve_and_kernel_random():
    rng = rng_for(33)
    q = 5
    for _ in range(20):
        a = rng.integers(0, q, (4, 6), dtype=np.int64)
        x = rng.integers(0, q, 6, dtype=np.int64)
        b = (a @ x) % q
        sol = fq_solve(a, b, q)
        assert np.array_equal((a @ sol) % q, b)
        for row in fq_kernel(a, q):
            assert not ((a @ row) % q).any()


def _fq_cases(q, rng):
    """F_q matrices for every exit of the forward pass: full rank, products of
    rank below min(rows, cols) with and without zero columns, zero, one row
    or one column, more rows than columns, and entries outside [0, q)."""
    for rows, cols in ((6, 9), (9, 6), (7, 7), (1, 8), (5, 1), (12, 4)):
        yield rng.integers(0, q, (rows, cols))
        for r in range(1, min(rows, cols)):
            a = (rng.integers(0, q, (rows, r)) @ rng.integers(0, q, (r, cols))) % q
            yield a
            a = a.copy()
            a[:, rng.integers(0, cols, 2)] = 0
            yield a
        yield np.zeros((rows, cols), dtype=np.int64)
        yield rng.integers(-3 * q, 3 * q, (rows, cols))


@pytest.mark.parametrize("q", [3, 5, 7, 11, 10007])
def test_fq_rref_matches_gauss_jordan(q):
    # the forward pass and back sweep give the unique reduced form that
    # Gauss-Jordan gives, and the pass alone gives its rank
    rng = rng_for(38, q)
    for a in _fq_cases(q, rng):
        ref_rows, ref_pivots = ref_fq_rref(a, q)
        for arg in (a, a.tolist()):
            rows, pivots = fq_rref(arg, q)
            assert rows.dtype == np.int64
            assert np.array_equal(rows, ref_rows) and pivots == ref_pivots
            assert fq_rank(arg, q) == len(ref_pivots)


@pytest.mark.parametrize("q, n", [(3, 2), (3, 3), (5, 2), (7, 4)])
def test_digits_and_their_elements_have_one_rank(q, n):
    # random_error ranks a subfield draw by its digits: the map from digits
    # to elements is F_q-linear and injective, so every draw keeps its rank
    # and its accept or reject.  t = n + 1 is always deficient; at t <= n
    # small q rejects draws too, as random_error does
    ctx = FieldCtx(q, n)
    rng = rng_for(39, q * n)
    rejected = 0
    for t in range(1, n + 2):
        for _ in range(30):
            d = rng.integers(0, q, (t, n))
            rank = fq_rank(d, q)
            assert rank == fq_rank(ctx._from_digits(d), q)
            rejected += rank < t <= n
    assert rejected


def test_fq_solve_inconsistent():
    with pytest.raises(NoSolution):
        fq_solve(np.array([[1, 1], [2, 2]]), np.array([0, 1]), 5)


def test_fq_inv_and_singular():
    rng = rng_for(34)
    q = 3
    while True:
        a = rng.integers(0, q, (4, 4), dtype=np.int64)
        if fq_rank(a, q) == 4:
            break
    assert np.array_equal((fq_inv(a, q) @ a) % q, np.eye(4, dtype=np.int64))
    with pytest.raises(SingularMatrix):
        fq_inv(np.zeros((3, 3), dtype=np.int64), q)


def test_fq_rank_batch_matches_scalar_path():
    # the second half are products through rank <= 2, with dependent rows
    # and columns that have no pivot
    rng = rng_for(35)
    for q in (3, 5, 7, 10007):
        mats = rng.integers(0, q, (200, 4, 5), dtype=np.int64)
        mats[100:] = (mats[100:, :, :2] @ mats[100:, :2, :]) % q
        mats[150:, 2] = 0
        ranks = fq_rank_batch(mats, q)
        for i in range(200):
            assert ranks[i] == fq_rank(mats[i], q)


def test_fq_rank_batch_keeps_one_copy_of_the_stack():
    # the elimination works in place on one reduced copy, a row of the stack
    # at a time, with no per-pivot copies of the whole stack
    mats = rng_for(37).integers(0, 3, (32768, 6, 6), dtype=np.int64)
    tracemalloc.start()
    try:
        ranks = fq_rank_batch(mats, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * mats.nbytes
    assert ranks[:50].tolist() == [fq_rank(m, 3) for m in mats[:50]]


def test_fq_kernel_reduced_echelon_order():
    # free columns 1 and 3 produce unit entries there, in ascending order
    q = 3
    a = np.array([[1, 2, 0, 1], [0, 0, 1, 2]])
    basis = fq_kernel(a, q)
    assert basis.shape == (2, 4)
    assert basis[0][1] == 1 and basis[1][3] == 1


def test_elimination_at_large_primes():
    # pivots are inverted by fq_reciprocal, with no per-q state, at any q FieldCtx admits
    primes = [p for p in range(100_003, 101_000, 2) if all(p % d for d in range(3, 400, 2))]
    rng = rng_for(36)
    for p in primes:
        assert fq_rank(np.array([[1, 2], [3, 4]]), p) == 2
    for p in primes[-3:]:
        a = rng.integers(0, p, (4, 4))
        assert fq_rank(a, p) == 4
        assert np.array_equal((fq_inv(a, p) @ a) % p, np.eye(4, dtype=np.int64))
    q = primes[-1]
    x = np.arange(1, q, 997)
    assert np.array_equal((x * fq_reciprocal(x, q)) % q, np.ones_like(x))
