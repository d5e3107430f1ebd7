"""Syndrome machinery and the full decoding pipeline."""

import itertools
from collections import Counter

import numpy as np
import pytest

from tzcode import FieldCtx, build_code, rank_weight
from tzcode.channel import ChannelSpec, random_error, random_message, trial_rng
from tzcode.decoder import (
    ERROR_RANK_MISMATCH,
    NO_RANK_FOUND,
    NOT_A_CODEWORD,
    SPAN_DIM_MISMATCH,
    _finish,
    build_S,
    build_S_exp,
    decode,
    error_from_decomposition,
    error_from_span,
    estimate_rank,
    recover_B,
    solve_locators,
    solve_span,
    syndrome,
)
from tzcode.errors import LimitCaseInapplicable, LocatorSystemInconsistent, NotACodeword
from tzcode.linalg import _eliminate, ff_mat_vec, ff_rank, ff_rref, fq_inv, fq_rank
from tzcode.linpoly import LinPoly, root_space
from tzcode.oracle import brute_force_decode

from conftest import (ff_kernel, locators, message_left_inverse, plant, ref_decode, ref_error,
                      ref_message_digits, ref_rank_scan, rng_for, same_span, transform)


@pytest.fixture(scope="module")
def code341():
    return build_code(FieldCtx(3, 4), 1)


@pytest.fixture(scope="module")
def code342():
    return build_code(FieldCtx(3, 4), 2)


# ---------------------------------------------------------------------------
# syndromes
# ---------------------------------------------------------------------------

def test_syndrome_of_zero(code5):
    zeros = [code5.ctx.zero] * 4
    s = syndrome(code5, zeros)
    assert s.shape == (len(code5.H), code5.ctx.m) and not s.any()


def test_syndrome_zero_trace_iff_codeword(code321):
    rng = rng_for(60)
    ctx = code321.ctx
    for _ in range(50):
        cw = code321.encode(random_message(code321, rng))
        assert all(ctx.trace_rel(s).is_zero() for s in ctx.unpack(syndrome(code321, cw)))
        r = [ctx.random_element(rng) for _ in range(4)]
        zero_trace = all(ctx.trace_rel(s).is_zero() for s in ctx.unpack(syndrome(code321, r)))
        assert zero_trace == code321.is_codeword(r)


def test_syndrome_gamma_pairing_for_pure_errors(code332):
    # s_2i = gamma s_(2i-1) for 1 <= i <= 2n-k-1
    rng = rng_for(61)
    ctx = code332.ctx
    for _ in range(30):
        e, _ = random_error(code332, ChannelSpec(t=2), rng)
        s = ctx.unpack(syndrome(code332, e))
        for i in range(1, ctx.m - code332.k):
            assert s[2 * i] == code332.gamma * s[2 * i - 1]


def test_syndrome_entries_match_locator_form(code332):
    # s_(2i-1) = sum_l a_l d_l^(q^i) for pure errors, from the planted parts
    rng = rng_for(62)
    ctx = code332.ctx
    for _ in range(20):
        e, decomp = random_error(code332, ChannelSpec(t=2), rng)
        s = ctx.unpack(syndrome(code332, e))
        for i in range(1, ctx.m - code332.k):
            acc = ctx.zero
            for a_l, d_l in zip(ctx.unpack(decomp.a), ctx.unpack(locators(code332, decomp.B))):
                acc = acc + a_l * d_l.frobenius(i)
            assert s[2 * i - 1] == acc


@pytest.mark.parametrize("q, n, k", [(3, 4, 1), (3, 4, 2), (5, 3, 2), (3, 6, 4), (7, 3, 5),
                                     (5, 2, 1), (7, 2, 2)])
def test_parity_check_rows_are_transform_rows(q, n, k):
    # row i of the code's read table is (mu^(q^k))^(q^i), and H's rows are
    # its rows 1..2n-k-1 and their gamma multiples, then gamma^(q^(2n-k))
    # times row 2n-k, then row 0: every syndrome entry is a transform value
    # or a gamma multiple of one, so decode needs the transform alone
    code = build_code(FieldCtx(q, n), k)
    ctx, m = code.ctx, code.ctx.m
    rows = np.asarray(code._transform_work, np.int64)
    assert np.array_equal(rows, ctx.frob(ctx.pack(code.mu), (k + np.arange(m))[:, None]))
    mid = rows[1 : m - k]
    twisted = np.stack([mid, ctx.mul(code.gamma.coeffs, mid)], axis=1).reshape(-1, m, m)
    first = ctx.mul(code.gamma.frobenius(m - k).coeffs, rows[m - k])
    assert np.array_equal(code.H, np.concatenate([first[None], twisted, rows[:1]]))


# ---------------------------------------------------------------------------
# rank estimation
# ---------------------------------------------------------------------------

def test_build_S_smallest_case(code321):
    rng = rng_for(63)
    _, _, _, _, r = plant(code321, 1, rng)
    sigma = transform(code321, r)
    entries = code321.ctx.unpack(sigma)
    expected = ((entries[2], entries[1].frobenius(1)),)  # [0, c] = sigma_(2-c)^(q^c)
    assert code321.ctx.unpack(build_S(code321, sigma, 1)) == expected


def test_build_S_index_bounds(code321):
    rng = rng_for(64)
    sigma = transform(code321, [code321.ctx.random_element(rng) for _ in range(4)])
    with pytest.raises(IndexError):
        build_S(code321, sigma, 0)
    with pytest.raises(IndexError):
        build_S(code321, sigma, 2)


def test_rank_of_syndrome_matrix_lemma(code341):
    # strict plants at every admissible t: S^(u) factors through two rank-t
    # Moore matrices, so it has rank exactly t for every u in t..u_max, and
    # full rank iff u = t
    rng = rng_for(65)
    u_max = (code341.ctx.m - 2) // 2
    for t in (1, 2, 3):
        for _ in range(40):
            _, _, _, _, r = plant(code341, t, rng)
            sigma = transform(code341, r)
            for u in range(t, u_max + 1):
                rank = ff_rank(build_S(code341, sigma, u), code341.ctx)
                assert (rank == u) == (u == t)
                assert rank == t


def test_estimate_rank_returns_planted_rank(code332, code341):
    rng = rng_for(66)
    for _ in range(25):
        _, _, _, _, r = plant(code332, 1, rng)
        assert estimate_rank(code332, transform(code332, r))[0] == 1
    # rank-2 strict errors need k=1 at n=3, where u_max = 2
    code331 = build_code(FieldCtx(3, 3), 1)
    for _ in range(25):
        _, _, _, _, r = plant(code331, 2, rng)
        assert estimate_rank(code331, transform(code331, r))[0] == 2
    for t in (1, 2, 3):
        _, _, _, _, r = plant(code341, t, rng)
        assert estimate_rank(code341, transform(code341, r))[0] == t


def _words_of_every_rank(code, rng, per_rank):
    """(rank, syndrome) of per_rank words B^T a for every rank 1..2n, a and B of full rank."""
    ctx, q = code.ctx, code.ctx.q
    for rank in range(1, ctx.m + 1):
        for _ in range(per_rank):
            while True:
                a = rng.integers(0, q, (rank, ctx.m), dtype=np.int64)
                B = rng.integers(0, q, (rank, ctx.m), dtype=np.int64)
                if fq_rank(a, q) == rank == fq_rank(B, q):
                    break
            yield rank, transform(code, error_from_decomposition(a, B, ctx))


@pytest.mark.parametrize("q, n, k", [(3, 3, 1), (3, 4, 1), (3, 4, 2), (5, 3, 1), (3, 5, 2)])
def test_estimate_rank_matches_the_scan(q, n, k):
    # words B^T a of every rank 1..2n, inside and beyond the decoding radius:
    # beyond it the Moore factorization does not apply, and only agreement
    # with the top-down scan pins the rank read off S^(u_max)
    code = build_code(FieldCtx(q, n), k)
    for _, sigma in _words_of_every_rank(code, rng_for(69), 50):
        assert estimate_rank(code, sigma)[0] == ref_rank_scan(code, sigma)


@pytest.mark.parametrize("q, n, k", [(3, 3, 1), (3, 4, 1), (3, 4, 2), (5, 3, 1), (3, 5, 2)])
def test_estimate_rank_span_is_the_kernel_of_S_t(q, n, k):
    # the first kernel line of S^(u_max) is the span polynomial that the
    # kernel of S^(t) gives, on words of every rank, inside and beyond the
    # radius; leading pivots are guaranteed only inside it
    code = build_code(FieldCtx(q, n), k)
    u_max = (code.ctx.m - (k + 1)) // 2
    for rank, sigma in _words_of_every_rank(code, rng_for(90), 50):
        t, span = estimate_rank(code, sigma)
        assert t == ref_rank_scan(code, sigma)
        if rank <= u_max:
            assert span is not None
        if span is not None:
            kernel = ff_kernel(build_S(code, sigma, t), code.ctx)
            assert len(kernel) == 1 and np.array_equal(span, kernel[0])
            assert np.array_equal(span[t], code.ctx.one.coeffs)


def test_estimate_rank_no_span_off_the_leading_pivots():
    # a rank-5 word at (3,3,1), far beyond the radius 2: S^(2) has rank 2 but
    # its pivots are columns 0 and 2, so no span is read and decode reports
    # SpanDimMismatch, as the kernel of S^(2) made it report before
    code = build_code(FieldCtx(3, 3), 1)
    ctx = code.ctx
    e = np.array([[0, 0, 2, 2, 1, 0], [1, 1, 1, 2, 0, 0], [0, 0, 0, 1, 0, 0],
                  [2, 0, 0, 1, 2, 0], [1, 2, 0, 1, 2, 1], [2, 2, 0, 1, 0, 1]])
    assert fq_rank(e, 3) == 5
    sigma = transform(code, e)
    assert ff_rref(build_S(code, sigma, 2), ctx)[1] == [0, 2]
    assert estimate_rank(code, sigma) == (2, None)
    assert decode(code, ctx.unpack(e)).failure_reason == SPAN_DIM_MISMATCH


# ---------------------------------------------------------------------------
# the trace-augmented boundary system
# ---------------------------------------------------------------------------

def test_S_exp_shape_two_by_two(code5):
    rng = rng_for(67)
    _, _, _, _, r = plant(code5, 1, rng, subfield=True)
    s_exp = build_S_exp(code5, transform(code5, r))
    assert len(s_exp) == 2 and len(s_exp[0]) == 2


def test_S_exp_needs_even_k(code321):
    rng = rng_for(68)
    _, _, _, _, r = plant(code321, 1, rng)
    with pytest.raises(LimitCaseInapplicable):
        build_S_exp(code321, transform(code321, r))


def test_S_exp_rank_and_kernel_dimension(code5, code332):
    # boundary plants: rank reaches t and the solution space is a line
    for code, seed in ((code5, 69), (code332, 70)):
        rng = rng_for(seed)
        t = code.ctx.n - code.k // 2
        for _ in range(50):
            _, _, _, _, r = plant(code, t, rng, subfield=True)
            s_exp = build_S_exp(code, transform(code, r))
            assert ff_rank(s_exp, code.ctx) == t
            assert len(ff_kernel(s_exp, code.ctx)) == 1


def test_S_exp_top_block_rank_deficient(code332):
    # the plain rows alone stop one short of full rank at the boundary
    rng = rng_for(71)
    t = code332.ctx.n - code332.k // 2
    for _ in range(30):
        _, _, _, _, r = plant(code332, t, rng, subfield=True)
        top = build_S_exp(code332, transform(code332, r))[: t - 1]
        assert ff_rank(top, code332.ctx) == t - 1


def test_trace_identities_for_boundary_plants(code5, code332):
    # the traced syndrome entries factor through the traced locators
    for code, seed in ((code5, 72), (code332, 73)):
        ctx = code.ctx
        rng = rng_for(seed)
        t = ctx.n - code.k // 2
        for _ in range(20):
            e, decomp = random_error(code, ChannelSpec(t=t, subfield_only=True), rng)
            st = ctx.unpack(ctx.trace(syndrome(code, e)))
            a, d = ctx.unpack(decomp.a), ctx.unpack(locators(code, decomp.B))
            for i in range(1, 2 * t):
                acc = ctx.zero
                for a_l, d_l in zip(a, d):
                    acc = acc + a_l * ctx.trace_rel(d_l.frobenius(i))
                assert st[2 * i - 1] == acc
            g2t = code.gamma.frobenius(2 * t)
            acc = ctx.zero
            for a_l, d_l in zip(a, d):
                acc = acc + a_l * ctx.trace_rel(g2t * d_l.frobenius(2 * t))
            assert st[0] == acc
            acc = ctx.zero
            for a_l, d_l in zip(a, d):
                acc = acc + a_l * ctx.trace_rel(d_l)
            assert st[4 * t - 1] == acc


# ---------------------------------------------------------------------------
# span polynomial extraction
# ---------------------------------------------------------------------------

def test_solve_span_recovers_planted_span(code341):
    rng = rng_for(74)
    for t in (1, 2, 3):
        for _ in range(20):
            _, _, _, decomp, r = plant(code341, t, rng)
            sigma = transform(code341, r)
            rank, span, boundary = solve_span(build_S(code341, sigma, t), code341.ctx)
            assert rank == t and boundary is None
            roots = root_space(LinPoly(code341.ctx, span))
            assert roots.shape == (t, code341.ctx.m)
            assert rank_weight(code341.ctx.unpack(np.concatenate([roots, decomp.a]))) == t


def test_solve_span_boundary_coefficients_in_subfield(code5):
    rng = rng_for(75)
    ctx = code5.ctx
    for _ in range(30):
        _, _, _, _, r = plant(code5, 1, rng, subfield=True)
        rank, span, _ = solve_span(build_S_exp(code5, transform(code5, r)), ctx)
        assert rank == 1
        assert np.array_equal(ctx.frob(span, ctx.n), span)
        assert ctx.unpack(span[-1]) == ctx.one


def test_solve_span_inverts_only_the_rank_pivots(code5, code341, monkeypatch):
    # the span line reads column rank of the fraction-free rows, so its one
    # inverse is a single batched call on the rank pivots; no row is
    # normalised, and the line is monic and equal to the reduced-echelon one
    from tzcode.field import FieldCtx as Ctx

    calls = []

    def inv(self, a, _orig=Ctx.inv):
        calls.append(a.shape)
        return _orig(self, a)

    monkeypatch.setattr(Ctx, "inv", inv)
    rng = rng_for(76)
    for code, t, subfield in ((code341, 3, False), (code5, 1, True)):
        _, _, _, _, r = plant(code, t, rng, subfield=subfield)
        sigma = transform(code, r)
        S = build_S_exp(code, sigma) if subfield else build_S(code, sigma, t)
        calls.clear()
        rank, span, _ = solve_span(S, code.ctx)
        assert calls == [(t, code.ctx.m)] and rank == t
        assert np.array_equal(span[-1], code.ctx.one.coeffs)
        assert np.array_equal(span, ff_kernel(S, code.ctx)[0, : t + 1])


def test_solve_span_rejects_fat_kernel(ctx5):
    # a kernel wider than a line shows up as a rank below the expected t
    degenerate = [[ctx5.zero, ctx5.zero, ctx5.zero], [ctx5.zero, ctx5.zero, ctx5.zero]]
    assert solve_span(degenerate, ctx5)[0] == 0  # kernel dimension 3
    # a line with a zero top coefficient, spanned by (1, 0), gives no span
    assert solve_span([[ctx5.zero, ctx5.one]], ctx5) == (1, None, None)
    # and full column rank leaves no span at all
    assert solve_span([[ctx5.one, ctx5.zero], [ctx5.zero, ctx5.one]], ctx5) == (2, None, None)


# ---------------------------------------------------------------------------
# locators and the row-space matrix
# ---------------------------------------------------------------------------

def test_solve_locators_matches_planted_locators(code332):
    # solving with the planted column basis must return B mu^(q^k) exactly
    rng = rng_for(76)
    for t in (1, 2):
        for _ in range(20):
            _, _, _, decomp, r = plant(code332, t, rng, subfield=(t == 2))
            sigma = transform(code332, r)
            d = solve_locators(code332, decomp.a, sigma)
            assert np.array_equal(d, locators(code332, decomp.B))
            assert rank_weight(code332.ctx.unpack(d)) == t  # locators are always independent


def test_solve_locators_single_equation_case(code321):
    # a = (1): the only equation reads d^(1/q) = sigma_1^(1/q)
    ctx = code321.ctx
    rng = rng_for(77)
    while True:
        B = rng.integers(0, 3, (1, 4), dtype=np.int64)
        if B.any():
            break
    e = ctx.unpack(error_from_decomposition(ctx.pack([ctx.one]), B, ctx))
    msg = random_message(code321, rng)
    r = tuple(x + y for x, y in zip(code321.encode(msg), e))
    sigma = ctx.unpack(transform(code321, r))
    d = ctx.unpack(solve_locators(code321, ctx.pack([ctx.one]), ctx.pack(sigma)))
    assert d[0] == sigma[1].frobenius(-1)
    assert d[0].frobenius(1) == sigma[1]


def test_solve_locators_inconsistent_for_wrong_span(code341):
    # the t-row system always has a solution, so a deliberately wrong
    # one-dimensional span is caught after it: the error read off it fails
    # decode's first residual check, its rank
    ctx = code341.ctx
    rng = rng_for(78)
    one = ctx.pack([ctx.one])
    wrong = np.stack([(-one[0]) % 3, one[0]])  # x^q - x, roots F_q
    assert np.array_equal(root_space(LinPoly(ctx, wrong)), one)
    for _ in range(200):
        _, _, _, _, r = plant(code341, 2, rng)  # rank-1 guess against a rank-2 error
        sigma = transform(code341, r)
        assert solve_locators(code341, one, sigma).shape == (1, ctx.m)
        out = _finish(code341, code341.pack_word(r), sigma, wrong)
        assert out.failure_reason == ERROR_RANK_MISMATCH


def test_solve_locators_rejects_dependent_roots(code341):
    # equal roots make the square system singular; an unsolvable one raises
    ctx = code341.ctx
    rng = rng_for(91)
    twice = ctx.pack([ctx.one, ctx.one])
    raised = 0
    for _ in range(20):
        _, _, _, _, r = plant(code341, 2, rng)
        try:
            solve_locators(code341, twice, transform(code341, r))
        except LocatorSystemInconsistent:
            raised += 1
    assert raised == 20


def test_recover_B_on_basis_locators(code5):
    ctx = code5.ctx
    mu_k = ctx.pack([e.frobenius(code5.k) for e in code5.mu])
    B = recover_B(code5, mu_k[:2])
    expected = np.zeros((2, 4), dtype=np.int64)
    expected[0, 0] = 1
    expected[1, 1] = 1
    assert np.array_equal(B, expected)


def test_recover_B_round_trip(code332):
    rng = rng_for(79)
    for t in (1, 2):
        _, _, e, decomp, r = plant(code332, t, rng, subfield=(t == 2))
        sigma = transform(code332, r)
        a = decomp.a
        d = solve_locators(code332, a, sigma)
        B = recover_B(code332, d)
        assert np.array_equal(B, decomp.B)
        assert code332.ctx.unpack(error_from_decomposition(a, B, code332.ctx)) == e


def test_error_invariant_under_redecomposition(code332):
    # a -> a M, B -> M^-1 B leaves the rebuilt error vector unchanged
    rng = rng_for(80)
    ctx = code332.ctx
    for _ in range(20):
        _, _, e, decomp, r = plant(code332, 2, rng)
        sigma = transform(code332, r)
        while True:
            M = rng.integers(0, 3, (2, 2), dtype=np.int64)
            if fq_rank(M, 3) == 2:
                break
        a_prime = (M.T @ decomp.a) % 3  # a'_j = sum_l M[l, j] a_l
        d_prime = solve_locators(code332, a_prime, sigma)
        B_prime = recover_B(code332, d_prime)
        minv = fq_inv(M, 3)
        assert np.array_equal(B_prime, (minv @ decomp.B) % 3)
        assert ctx.unpack(error_from_decomposition(a_prime, B_prime, ctx)) == e


# ---------------------------------------------------------------------------
# the error from the transform domain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, n, k", [(5, 2, 2), (3, 4, 1), (3, 4, 2), (3, 6, 4)])
def test_transform_round_trip(q, n, k):
    # N inverts the transform, TZCode._read is the transform, and a codeword
    # adds nothing to sigma_1..sigma_(2n-k-1), so those of a received word
    # c + e are the error's
    code = build_code(FieldCtx(q, n), k)
    ctx = code.ctx
    rng = rng_for(92)
    for _ in range(10):
        e = rng.integers(0, q, (ctx.m, ctx.m), dtype=np.int64)
        sigma = transform(code, e)
        assert np.array_equal(code._read(e), sigma)
        assert np.array_equal(ff_mat_vec(code.N, sigma, ctx), e)
        c = ctx.pack(code.encode(random_message(code, rng)))
        assert np.array_equal(code._read((c + e) % q)[1 : ctx.m - k], sigma[1 : ctx.m - k])


def _spans(code, sigma):
    """(t, span) from the plain branch and, at even k, from S_exp."""
    yield estimate_rank(code, sigma)
    if code.k % 2 == 0:
        yield solve_span(build_S_exp(code, sigma), code.ctx)[:2]


def _passes_residual_check(code, r, err, t):
    ctx = code.ctx
    return fq_rank(err, ctx.q) == t and code.is_codeword(ctx.unpack((r - err) % ctx.q))


@pytest.mark.parametrize("q, n, k", [(5, 2, 2), (3, 3, 2), (3, 4, 1), (3, 4, 2)])
def test_transform_error_matches_the_locator_system(q, n, k):
    # every span either branch reads that splits into t roots, on seeded words
    # of rank 1 to radius+2, generic and subfield: the error the recurrence
    # and the inverse transform give equals the t x t locator system's bit for
    # bit.  They may differ only where the rows the span was read from leave a
    # transform entry unchecked, beyond the radius (at (q,3,2) the plain
    # branch's S^(1) never meets sigma_3), and then neither error passes the
    # residual check
    code = build_code(FieldCtx(q, n), k)
    ctx = code.ctx
    equal = 0
    for t in range(1, code.radius + 3):
        for subfield in (False, True) if t <= n else (False,):
            rng = rng_for(93, t)
            for _ in range(15):
                *_, r = plant(code, t, rng, subfield=subfield)
                r = ctx.pack(r)
                sigma = transform(code, r)
                for rank, span in _spans(code, sigma):
                    roots = None if span is None else root_space(LinPoly(ctx, span))
                    if roots is None or len(roots) != rank:
                        continue
                    d = solve_locators(code, roots, sigma)
                    ref = error_from_decomposition(roots, recover_B(code, d), ctx)
                    err = ref_error(code, sigma, span)[0]
                    if np.array_equal(err, ref):
                        equal += 1
                    else:
                        assert not _passes_residual_check(code, r, ref, rank)
                        assert not _passes_residual_check(code, r, err, rank)
    assert equal > 0


# ---------------------------------------------------------------------------
# end-to-end decoding
# ---------------------------------------------------------------------------

def test_decode_error_free_word(code5):
    rng = rng_for(81)
    msg = random_message(code5, rng)
    cw = code5.encode(msg)
    out = decode(code5, cw)
    assert out.success and out.t == 0
    assert out.codeword == cw and out.message == msg
    assert all(e.is_zero() for e in out.error)


def _lines(q, dim):
    """Digit vectors of F_q^dim whose first nonzero digit is 1: one per F_q-line."""
    vecs = np.array(list(itertools.product(range(q), repeat=dim)))[1:]
    return vecs[vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)] == 1]


@pytest.mark.parametrize("q, k, subfield, count", [(3, 1, False, 3200), (5, 2, True, 3744)])
def test_every_rank_one_error_decodes_to_its_plant(q, k, subfield, count):
    # e_j = b_j a for every F_q-line a (of F_{q^2n}, or of the subfield at the
    # boundary rank of (5,2,2)) and every nonzero b in F_q^2n: every rank-one
    # error, once each, on the plain branch and on the boundary branch
    code = build_code(FieldCtx(q, 2), k)
    ctx = code.ctx
    msg = random_message(code, rng_for(87))
    cw = code.encode(msg)
    packed_cw = ctx.pack(cw)
    columns = (ctx.pack(ctx.subfield_elements(_lines(q, ctx.n))) if subfield
               else _lines(q, ctx.m))
    rows = np.array(list(itertools.product(range(q), repeat=ctx.m)))[1:]
    assert len(columns) * len(rows) == count
    for a in columns:
        for b in rows:
            e = (b[:, None] * a) % q
            out = decode(code, ctx.unpack((packed_cw + e) % q))
            assert out.success and out.t == 1, (a, b)
            assert out.codeword == cw and out.message == msg
            assert np.array_equal(ctx.pack(out.error), e)


def test_decode_round_trips_all_regimes():
    cases = [
        (3, 2, 1, 1, False),
        (5, 2, 2, 1, True),
        (3, 3, 2, 1, False),
        (3, 3, 2, 2, True),
        (3, 4, 1, 3, False),
        (3, 4, 2, 3, True),
        (3, 4, 3, 2, False),
    ]
    for q, n, k, t, subfield in cases:
        code = build_code(FieldCtx(q, n), k)
        rng = rng_for(82)
        for _ in range(25):
            msg, cw, e, _, r = plant(code, t, rng, subfield=subfield)
            out = decode(code, r)
            assert out.success, (q, n, k, t, out.failure_reason)
            assert out.codeword == cw and out.message == msg and out.error == e
            assert out.t == t


@pytest.mark.parametrize("q, n, k, t", [(3, 3, 2, 1), (5, 3, 2, 1), (3, 4, 4, 1), (3, 4, 2, 2)])
def test_decode_falls_through_a_failed_boundary_attempt(q, n, k, t):
    # generic errors of rank t = n - k/2 - 1 at even k: S_exp, whose trace
    # rows factor only for errors over F_(q^n), often reads a span of
    # q-degree n - k/2 whose error fails the residual check.  decode then
    # finishes on the plain span of the same elimination, and every plant
    # inside the generic guarantee decodes
    code = build_code(FieldCtx(q, n), k)
    ctx = code.ctx
    assert t <= (ctx.m - k - 1) // 2
    rng = rng_for(83, t)
    failed_attempts = 0
    for _ in range(30):
        msg, cw, e, _, r = plant(code, t, rng)
        sigma = transform(code, r)
        rank, span, _ = solve_span(build_S_exp(code, sigma), ctx)
        if rank == ctx.n - k // 2 and span is not None:
            failed_attempts += 1
        out = decode(code, r)
        assert out.success and out.t == t
        assert out.codeword == cw and out.error == e and out.message == msg
    assert failed_attempts > 0  # the case the fall-through exists for


def test_decode_beyond_guarantee_fails_identically(code5):
    # rank-1 errors outside the subfield at (5,2,2) are beyond the decoder's
    # promise whenever the augmented matrix keeps full column rank; decode
    # then runs out of material and reports NoRankFound every time
    ctx = code5.ctx
    t_lim = ctx.n - code5.k // 2
    rng = rng_for(87)
    blocked = recovered = 0
    for _ in range(40):
        msg, cw, e, _, r = plant(code5, 1, rng, subfield=False)
        sigma = transform(code5, r)
        out = decode(code5, r)
        if ff_rank(build_S_exp(code5, sigma), ctx) != t_lim:
            blocked += 1
            assert not out.success and out.failure_reason == NO_RANK_FOUND
        elif out.success:
            # all-trace rows make the span subfield-rational, so the pipeline
            # can legitimately finish even off the guaranteed error model
            recovered += 1
            assert out.codeword == cw and out.error == e
    assert blocked > 0


def test_boundary_rank_t_off_the_leading_pivots(code322):
    # S_exp of this word has rank t = 1 with its pivot in column 1: the kernel
    # line (1, 0) has a zero top coefficient, so no span is read.  The plain
    # block is empty, and no trace row is nonzero in column 0 to fix lam
    ctx = code322.ctx
    r = np.array([[0, 0, 1, 1], [2, 1, 2, 0], [1, 2, 0, 2], [1, 1, 0, 0]])
    S = build_S_exp(code322, transform(code322, r))
    assert ff_rref(S, ctx)[1] == [1]
    assert solve_span(S, ctx) == (1, None, None)
    rank, _, boundary = solve_span(S, ctx, 0)  # t_b - 1 = 0 plain rows
    assert (rank, boundary) == (0, None)
    assert decode(code322, ctx.unpack(r)).failure_reason == NO_RANK_FOUND


def test_boundary_pencil_off_the_leading_pivots():
    # the plain block of this subfield rank-2 plant at (3,3,2) is one row
    # whose first entry is zero, so its pivot is column 1 and its free columns
    # are 0 and t = 2.  The pencil L_2 + lam L_0 still holds S_exp's span
    # (pivots 0, 1), and decode reads the boundary span there
    code = build_code(FieldCtx(3, 3), 2)
    ctx = code.ctx
    r = np.array([[0, 1, 2, 1, 2, 1], [1, 0, 2, 1, 2, 0], [0, 1, 0, 2, 1, 1],
                  [1, 1, 1, 0, 2, 1], [2, 1, 1, 2, 0, 2], [0, 1, 1, 1, 1, 2]])
    S = build_S_exp(code, transform(code, r))
    assert _eliminate(ctx, S, rows=1)[1] == [1]
    rank, plain, boundary = solve_span(S, ctx, 1)
    assert (rank, plain) == (1, None) and np.array_equal(boundary, solve_span(S, ctx)[1])
    out = decode(code, ctx.unpack(r))
    assert out.success and out.t == 2 and rank_weight(out.error) == 2
    assert code.is_codeword(out.codeword)
    # a block with its pivot at column t leaves no member of q-degree t
    one, zero = ctx.one.coeffs, np.zeros(ctx.m, dtype=np.int64)
    S = np.array([[zero, zero, one], [one, zero, zero], [zero, one, zero], [one, one, one]])
    assert solve_span(S, ctx, 1) == (1, None, None)


def test_decode_boundary_subfield_plants(code5):
    rng = rng_for(84)
    for _ in range(25):
        _, cw, _, _, r = plant(code5, 1, rng, subfield=True)
        assert decode(code5, r).codeword == cw


def _count_decode_steps(monkeypatch):
    """Record the rank, span and elimination steps decode itself calls."""
    import tzcode.decoder as dec

    calls = []
    for name in ("estimate_rank", "build_S", "solve_span", "_eliminate"):
        monkeypatch.setattr(dec, name, lambda *a, _orig=getattr(dec, name), _name=name, **kw:
                            calls.append(_name) or _orig(*a, **kw))
    return calls


def test_boundary_decode_eliminates_s_exp_once(code5, monkeypatch):
    # one elimination of S_exp, made by solve_span, tells the rank and the
    # span polynomial, for subfield errors at the boundary and for generic
    # errors below it; no other elimination runs in decode itself, and even
    # k never reaches S^(u_max)
    calls = _count_decode_steps(monkeypatch)
    rng = rng_for(85)
    plants = [(code5, 1, True)] * 5
    for q, n, k in ((3, 4, 2), (5, 3, 2), (3, 6, 4)):
        code = build_code(FieldCtx(q, n), k)
        plants += [(code, t, False) for t in range(1, n - k // 2) for _ in range(3)]
    for code, t, subfield in plants:
        _, cw, _, _, r = plant(code, t, rng, subfield=subfield)
        calls.clear()
        out = decode(code, r)
        assert out.codeword == cw and out.t == t
        assert calls == ["solve_span", "_eliminate"]


def test_plain_decode_ranks_one_syndrome_matrix(code341, monkeypatch):
    # u_max = 3: one elimination of S^(3), made by solve_span, tells t and
    # the span polynomial, at every t; no other elimination runs in decode
    # itself
    calls = _count_decode_steps(monkeypatch)
    rng = rng_for(89)
    for t in (1, 2, 3):
        for _ in range(3):
            _, cw, _, _, r = plant(code341, t, rng)
            calls.clear()
            out = decode(code341, r)
            assert out.codeword == cw and out.t == t
            assert calls == ["estimate_rank", "build_S", "solve_span", "_eliminate"]


def test_a_decode_builds_one_element_per_entry(code5, code341, monkeypatch):
    # every word becomes its FF2n tuple in one pass from one array: a
    # successful decode builds the 2n entries of the codeword and of the
    # error and the 2k of the message, and nothing else, on every route
    from tzcode.field import FF2n

    built = []
    monkeypatch.setattr(FF2n, "__init__",
                        lambda self, *a, _orig=FF2n.__init__: built.append(1) or _orig(self, *a))
    rng = rng_for(98)
    for code, t, subfield in ((code341, 0, False), (code341, 3, False), (code5, 1, True)):
        for _ in range(3):
            *_, r = plant(code, t, rng, subfield=subfield)
            built.clear()
            assert decode(code, r).success
            assert len(built) == 2 * code.ctx.m + 2 * code.k


def test_hot_stages_make_no_scalar_field_ops(code5, code341, monkeypatch):
    # from the syndrome to the outcome every stage works on packed arrays: not
    # one FF2n addition, subtraction, negation, multiply, division or inverse
    # inside decode, on the plain and on the boundary branch
    import tzcode.decoder as dec
    from tzcode.field import FF2n

    # and the error comes from the transform domain: no locator system and no
    # second elimination over F_{q^2n}
    import tzcode.linalg as linalg

    # decode reads the word's transform (TZCode._read), and never forms
    # the syndrome
    stages = ("estimate_rank", "solve_span", "error_from_span")
    inside, entered, calls = [], set(), []
    for holder, name in ((dec, "solve_locators"), (dec, "ff_solve"), (linalg, "ff_solve")):
        def refused(*args, _name=name):
            calls.append(("decode", _name))

        monkeypatch.setattr(holder, name, refused)
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse"):
        def counted(*args, _orig=vars(FF2n)[name], _name=name):
            if inside:
                calls.append((inside[-1], _name))
            return _orig(*args)

        monkeypatch.setattr(FF2n, name, counted)
    for stage in stages:
        def staged(*args, _orig=getattr(dec, stage), _stage=stage):
            entered.add(_stage)
            inside.append(_stage)
            try:
                return _orig(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(dec, stage, staged)
    rng = rng_for(88)
    for code, t, subfield in ((code341, 3, False), (code5, 1, True)):
        _, cw, e, _, r = plant(code, t, rng, subfield=subfield)
        inside.append("decode")
        try:
            out = decode(code, r)
        finally:
            inside.pop()
        assert out.codeword == cw and out.error == e
    assert entered == set(stages)
    assert calls == []


def test_rank_tests_build_no_reduced_form(code5, code341, monkeypatch):
    # fq_rank is the forward pass alone and takes no inverse, so drawing an
    # error and a successful decode, on the plain and on the boundary route,
    # never reach fq_rref: every F_q test on their path is a rank test
    import tzcode.linalg as linalg

    inverted = []
    monkeypatch.setattr(linalg, "fq_reciprocal",
                        lambda x, q, _orig=linalg.fq_reciprocal: inverted.append(q) or _orig(x, q))

    def refused(*args):
        raise AssertionError("fq_rref reached")

    monkeypatch.setattr(linalg, "fq_rref", refused)
    rng = rng_for(99)
    for a in (rng.integers(0, 3, (11, 24)), rng.integers(0, 7, (24, 24)), np.zeros((4, 6))):
        fq_rank(a, 7)
    assert inverted == []
    for code, t, subfield in ((code341, 3, False), (code5, 1, True)):
        for _ in range(3):
            _, cw, e, _, r = plant(code, t, rng, subfield=subfield)
            out = decode(code, r)
            assert out.codeword == cw and out.error == e


@pytest.mark.parametrize("q, n, k", [(3, 4, 1), (3, 4, 2), (5, 2, 2), (3, 6, 4), (3, 2, 1)])
def test_failure_reason_names_the_failed_check(q, n, k, monkeypatch):
    # decode names a failure after the first residual check that the error
    # read off the last span fails: ErrorRankMismatch when its rank is not
    # the span's q-degree t, NotACodeword when it is but the word minus the
    # error is not a codeword.  Decode counts no roots: root_space raises.
    # The theorem the residual check rests on still holds: the span of an
    # error that passes vanishes on its t column elements, and a monic span
    # of q-degree t has at most t independent roots, so the span that decoded
    # splits into exactly t.  At (3,6,4) generic rank-2 errors often give
    # S_exp a span, but their plain block has rank 2 < t - 1, so decode makes
    # no boundary attempt; generic rank-3 errors at (3,4,2) read
    # ErrorRankMismatch, as in the golden reports, and (3,2,1) reaches
    # NotACodeword at t = 2.  At (5,2,2) the plain block is empty,
    # so a failed boundary attempt ends in NoRankFound and ErrorRankMismatch
    # is never reported there
    import tzcode.decoder as dec
    import tzcode.linpoly as linpoly

    code = build_code(FieldCtx(q, n), k)
    ctx = code.ctx
    read = []  # [span, err, its transform] of each finish
    monkeypatch.setattr(dec, "_finish", lambda *a, f=dec._finish: read.append([a[3]]) or f(*a))
    monkeypatch.setattr(dec, "error_from_span",
                        lambda *a: read[-1].extend(error_from_span(*a)) or tuple(read[-1][1:]))

    def refused(f):
        raise AssertionError("decode counted roots")

    for mod in (dec, linpoly):
        monkeypatch.setattr(mod, "root_space", refused, raising=False)
    successes = 0
    named = set()
    for t in range(1, code.radius + 2):
        for subfield in (False, True) if t <= n else (False,):
            rng = rng_for(94, t)
            for _ in range(10):
                *_, r = plant(code, t, rng, subfield=subfield)
                read.clear()
                out = decode(code, r)
                if (q, n, k, t, subfield) == (3, 4, 2, 3, False):
                    assert out.failure_reason == ERROR_RANK_MISMATCH
                if out.success:
                    successes += 1
                    assert len(root_space(LinPoly(ctx, read[-1][0]))) == out.t
                elif out.failure_reason in (ERROR_RANK_MISMATCH, NOT_A_CODEWORD):
                    named.add(out.failure_reason)
                    span, err, _ = read[-1]
                    rank_t = fq_rank(err, ctx.q) == len(span) - 1
                    assert rank_t == (out.failure_reason == NOT_A_CODEWORD)
                    if rank_t:
                        assert not code.is_codeword(ctx.unpack((ctx.pack(r) - err) % ctx.q))
    assert successes > 0
    assert ERROR_RANK_MISMATCH in named or (q, n, k) == (5, 2, 2)
    assert NOT_A_CODEWORD in named or (q, n, k) != (3, 2, 1)


def test_boundary_span_outside_the_subfield(code342, monkeypatch):
    # a boundary span with a coefficient outside F_(q^n): its error fails the
    # residual check, and decode finishes on the plain span of the same
    # elimination, which decodes the generic rank-2 plant with no second
    # elimination and no S^(u_max).  The block of a rank-2 plant has rank
    # t - 1 = 2, and the planted boundary span has q-degree t = 3
    import tzcode.decoder as dec

    ctx = code342.ctx
    t = ctx.n - code342.k // 2
    rng = rng_for(95)
    line = rng.integers(0, ctx.q, (t + 1, ctx.m), dtype=np.int64)
    line[t] = ctx.one.coeffs
    assert not np.array_equal(ctx.frob(line, ctx.n), line)
    eliminated, scanned, finished = [], [], []

    def planted(S, c, rows=None):
        rank, plain, _ = solve_span(S, c, rows)
        return rank, plain, line

    monkeypatch.setattr(dec, "solve_span", planted)
    monkeypatch.setattr(dec, "_eliminate",
                        lambda *a, **kw: eliminated.append(1) or _eliminate(*a, **kw))
    monkeypatch.setattr(dec, "_finish",
                        lambda *a, f=dec._finish: finished.append(f(*a)) or finished[-1])
    monkeypatch.setattr(dec, "estimate_rank", lambda *a: scanned.append(1))
    for _ in range(10):
        _, cw, e, _, r = plant(code342, 2, rng)
        eliminated.clear()
        finished.clear()
        out = decode(code342, r)
        assert [f.t for f in finished] == [None, 2] and not finished[0].success
        assert eliminated == [1] and out.codeword == cw and out.error == e
    assert scanned == []


@pytest.mark.parametrize("q, n, k", [(3, 2, 2), (3, 4, 2), (5, 3, 2), (3, 6, 4)])
def test_block_spans_match_the_reference(q, n, k):
    # the spans solve_span reads off S_exp with pivots from its t_b - 1 plain
    # rows (the block) against the full eliminations they replace, at the
    # boundary rank t_b = n - k/2 (subfield), below it and one past it
    # (generic).  Below the boundary the block's pivots lead and its plain
    # span is S^(u_max)'s.  From the boundary on, the block and S^(u_max)
    # hold different windows and their spans may differ, but no plain span
    # can pass the residual check there: its codeword would lie within t - 1
    # of r and so within 2t < d of the plant.  Whenever S_exp has rank t_b
    # with a span, the pencil's boundary member is that span, unless the
    # block's rank is below t_b - 1; then that span fails the residual
    # check, since the block of an error of rank t_b has rank t_b - 1.
    # decode never finishes such a span, whose rows are not all windows, so
    # its check ranks the error by fq_rank, not by _finish's kill test
    code = build_code(FieldCtx(q, n), k)
    ctx = code.ctx
    tb = n - k // 2
    ones = np.ones((ctx.m, ctx.m), dtype=np.int64)
    assert _eliminate(ctx, build_S_exp(code, ones), rows=0)[1] == []
    pencils = 0
    for t, subfield in [(tb, True), *((t, False) for t in range(1, tb)), (tb + 1, False)]:
        rng = rng_for(101, t)
        for _ in range(10):
            *_, r = plant(code, t, rng, subfield=subfield)
            sigma = transform(code, r)
            S = build_S_exp(code, sigma)
            rank, plain, boundary = solve_span(S, ctx, tb - 1)
            if t < tb:
                e_rank, e_span = estimate_rank(code, sigma)
                assert rank == e_rank and same_span(plain, e_span)
            elif rank and plain is not None:
                assert len(plain) == rank + 1
                assert not _finish(code, ctx.pack(r), sigma, plain).success
            s_rank, s_span, s_boundary = solve_span(S, ctx)
            assert s_boundary is None  # no rows below the default bound
            if rank < tb - 1 and s_rank == tb and s_span is not None:
                err = ref_error(code, sigma, s_span)[0]
                assert not _passes_residual_check(code, ctx.pack(r), err, tb)
            elif s_rank == tb:
                assert same_span(boundary, s_span)
            else:
                assert boundary is None
            pencils += boundary is not None
    assert pencils > 0


def test_finish_matches_the_left_inverse_reference_beyond_the_radius(monkeypatch):
    # every finish decode makes on words one to three ranks past the radius,
    # the failed boundary attempts at even k included: the verdict, the
    # failure reason and the message equal those of the reference finish,
    # which tests the rank of the error and then reads r - err through the
    # closed-form left inverse; at least 500 words are not codewords
    import tzcode.decoder as dec

    errs, finished = [], []

    def recorded(code, r, sigma, span, *plain, _finish=dec._finish):
        out = _finish(code, r, sigma, span, *plain)
        finished.append((r, errs[-1][0], len(span) - 1, out))
        return out

    monkeypatch.setattr(dec, "error_from_span",
                        lambda *a: errs.append(error_from_span(*a)) or errs[-1])
    monkeypatch.setattr(dec, "_finish", recorded)
    reasons = Counter()
    for q, n, k in [(3, 2, 1), (5, 2, 1), (7, 2, 1), (3, 2, 2), (5, 3, 3), (3, 4, 2), (3, 4, 5)]:
        code = build_code(FieldCtx(q, n), k)
        ctx = code.ctx
        inverse = message_left_inverse(code)
        for t in range(code.radius + 1, min(code.radius + 3, ctx.m) + 1):
            rng = rng_for(96, t)
            for _ in range(120):
                finished.clear()
                out = decode(code, plant(code, t, rng)[-1])
                if out.failure_reason in (None, ERROR_RANK_MISMATCH, NOT_A_CODEWORD):
                    assert finished[-1][-1] == out
                for r, err, rank, got in finished:
                    digits = ref_message_digits(code, (r - err) % q, inverse)
                    if fq_rank(err, q) != rank:
                        expected = (False, ERROR_RANK_MISMATCH, None)
                    elif digits is None:
                        expected = (False, NOT_A_CODEWORD, None)
                    else:
                        expected = (True, None, ctx.subfield_elements(digits))
                    assert (got.success, got.failure_reason, got.message) == expected
                    reasons[got.failure_reason] += 1
    assert reasons[NOT_A_CODEWORD] >= 500 and reasons[ERROR_RANK_MISMATCH] and reasons[None]


@pytest.mark.parametrize("q, n, k", [(3, 4, 1), (3, 4, 2), (5, 3, 2), (3, 6, 4), (7, 3, 5),
                                     (5, 2, 1), (3, 3, 2), (5, 3, 3), (3, 4, 5), (3, 2, 2)])
def test_words_off_the_code_by_b0_or_ak_go_to_the_rank_read(q, n, k):
    # c + w, where w interpolates gamma b x (b_0 = b) or b x^(q^k) (a_k = b)
    # on lam, b in F_(q^n)^*: its sigma_1..sigma_(2n-k-1) vanish as a
    # codeword's do, yet it is not one.  The membership test says so, unmap
    # refuses it, and decode takes no zero route but reads no rank off the
    # zero windows: NoRankFound at either parity
    code = build_code(FieldCtx(q, n), k)
    ctx = code.ctx
    lam = ctx.pack(code.lam)
    rng = rng_for(102)
    for _ in range(3):
        while True:
            b = ctx.pack(ctx.subfield_elements(rng.integers(0, q, n)))
            if b.any():
                break
        c = ctx.pack(code.encode(random_message(code, rng)))
        for w in (ctx.mul(ctx.mul(code.gamma.coeffs, b), lam), ctx.mul(b, ctx.frob(lam, k))):
            v = ctx.unpack((c + w) % q)
            assert not transform(code, v)[1 : ctx.m - k].any()
            assert not code.is_codeword(v)
            with pytest.raises(NotACodeword):
                code.unmap(v)
            assert decode(code, v).failure_reason == NO_RANK_FOUND


# ---------------------------------------------------------------------------
# one trace row eliminated, and the error's rank decided by the span's roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, n, k", [(3, 2, 2), (5, 2, 2), (3, 3, 2), (5, 3, 2), (3, 4, 2),
                                     (3, 6, 4), (3, 2, 1), (3, 4, 1), (5, 3, 3), (3, 4, 5)])
def test_a_certified_rank_is_the_rank(q, n, k, monkeypatch):
    # every finish decode makes at t = 1 .. radius + 2, generic and over
    # F_(q^n): the rank check, which asks only whether the span's roots kill
    # the error (and at the boundary whether the plain span's do not),
    # passes exactly where fq_rank finds the error's rank to be the span's
    # q-degree t, and every outcome equals the reference decode's, which
    # eliminates every row of S_exp and runs fq_rank on every finish.  The
    # check must pass on the route the guarantee covers: at the plain
    # route's t and at the boundary rank t_b = n - k/2 over F_(q^n)
    import tzcode.decoder as dec

    errs, finished = [], []
    monkeypatch.setattr(dec, "error_from_span",
                        lambda *a: errs.append(error_from_span(*a)) or errs[-1])
    monkeypatch.setattr(dec, "_finish", lambda *a, f=dec._finish:
                        finished.append((len(a[3]) - 1, f(*a))) or finished[-1][1])
    code = build_code(FieldCtx(q, n), k)
    passed_at = Counter()
    for t in range(1, min(code.radius + 2, 2 * n) + 1):
        for subfield in (False, True) if t <= n else (False,):
            rng = rng_for(110, 2 * t + subfield)
            for _ in range(15):
                *_, r = plant(code, t, rng, subfield=subfield)
                errs.clear()
                finished.clear()
                assert decode(code, r) == ref_decode(code, r)
                assert len(errs) == len(finished)
                for (err, _), (rank, out) in zip(errs, finished):
                    passes = out.failure_reason != ERROR_RANK_MISMATCH
                    assert passes == (fq_rank(err, q) == rank)
                    passed_at[rank] += passes
    guaranteed = [(2 * n - k - 1) // 2] + ([] if k % 2 else [n - k // 2])
    assert all(passed_at[t] for t in guaranteed if t)


def test_decode_ranks_no_error_by_elimination(monkeypatch):
    # with fq_rank raising in the decoder's namespace and in linalg's, words
    # on every route (no finish, the boundary finish alone, the boundary then
    # the plain span, the plain span alone) and of every outcome decode as
    # the reference decode, which runs fq_rank on every finish, did before
    # the patch.  The routes are read off _finish's calls: the boundary
    # finish also takes the plain span
    import tzcode.decoder as dec
    import tzcode.linalg as linalg

    cases = []
    for q, n, k in [(3, 4, 1), (3, 2, 1), (3, 4, 2), (5, 2, 2), (3, 3, 2)]:
        code = build_code(FieldCtx(q, n), k)
        for t in range(min(code.radius + 2, 2 * n) + 1):
            for subfield in (False, True) if 1 <= t <= n else (False,):
                rng = rng_for(112, 2 * t + subfield)
                for _ in range(6):
                    _, cw, _, _, r = plant(code, max(t, 1), rng, subfield=subfield)
                    word = r if t else cw
                    cases.append((code, word, ref_decode(code, word)))

    def refused(*args):
        raise AssertionError("decode ran fq_rank")

    for mod in (dec, linalg):
        monkeypatch.setattr(mod, "fq_rank", refused, raising=False)
    finishes = []
    monkeypatch.setattr(dec, "_finish", lambda *a, f=dec._finish: finishes.append(len(a)) or f(*a))
    routes, reasons = set(), set()
    for code, word, expected in cases:
        finishes.clear()
        out = decode(code, word)
        assert out == expected
        routes.add(tuple(finishes))
        reasons.add(out.failure_reason)
    assert routes == {(), (5,), (5, 4), (4,)}
    assert reasons == {None, ERROR_RANK_MISMATCH, NO_RANK_FOUND, NOT_A_CODEWORD, SPAN_DIM_MISMATCH}


@pytest.mark.parametrize("q, n, k", [(3, 2, 2), (5, 2, 2)])
def test_a_first_trace_row_that_fixes_no_member_eliminates_every_row(q, n, k, monkeypatch):
    # at t_b = 1 the block is empty and the first row below it is S_exp's one
    # trace row; where its entry in column 0 is zero it fixes no member of the
    # pencil, and solve_span eliminates every row, as the reference does, so
    # that the closing row may fix it.  Such words decode as the reference
    # decodes them
    import tzcode.decoder as dec

    eliminated = []
    monkeypatch.setattr(dec, "_eliminate", lambda ctx, a, rows=None:
                        eliminated.append(len(a)) or _eliminate(ctx, a, rows))
    code = build_code(FieldCtx(q, n), k)
    fallbacks = Counter()
    for subfield in (True, False):
        rng = rng_for(111, subfield)
        for _ in range(150):
            *_, r = plant(code, 1, rng, subfield=subfield)
            eliminated.clear()
            out = decode(code, r)
            assert out == ref_decode(code, r)
            first_row = build_S_exp(code, transform(code, r))[0, 0]
            assert eliminated == ([1] if first_row.any() else [1, 2])
            if not first_row.any():
                fallbacks[out.success] += 1
    assert fallbacks[True] > 0


def test_the_trace_rows_below_the_first_are_checked(code332):
    # this generic rank-2 word at (3,3,2) has its first trace row fix a member
    # of the pencil, but a later trace row does not vanish on it, so solve_span
    # reads no boundary span, and the plain span's error fails the rank check
    ctx = code332.ctx
    rng = trial_rng(11, 432)
    cw = code332.encode(random_message(code332, rng))
    e, _ = random_error(code332, ChannelSpec(2, False, 11), rng)
    r = tuple(x + y for x, y in zip(cw, e))
    S = build_S_exp(code332, transform(code332, r))
    rank, _, boundary = solve_span(S, ctx, 1)
    assert rank == 1 and boundary is None
    a, pivots = _eliminate(ctx, S[:2], 1)
    free = next(c for c in range(2) if c not in pivots)
    assert a[1, free].any()  # the first trace row fixes a member
    assert decode(code332, r).failure_reason == ERROR_RANK_MISMATCH


def test_s_exp_trace_rows_are_the_traced_powers():
    # row t - 1 + j of S_exp, j < t, is Tr(sigma_(t+j-c))^(q^c): each entry
    # against the relative trace and the Frobenius map of one element
    for q, n, k in [(3, 2, 2), (3, 3, 2), (5, 3, 2), (3, 6, 4)]:
        code = build_code(FieldCtx(q, n), k)
        ctx = code.ctx
        t = n - k // 2
        rng = rng_for(112, n)
        for subfield in (False, True):
            sigma = transform(code, plant(code, t, rng, subfield=subfield)[-1])
            S = build_S_exp(code, sigma)
            for j, c in itertools.product(range(t), range(t + 1)):
                assert np.array_equal(S[t - 1 + j, c], ctx.frob(ctx.trace(sigma[t + j - c]), c))


def test_decode_beyond_radius_keeps_contract(code321):
    # rank 2 exceeds the unique radius 1: outcomes may vary, but a reported
    # success must satisfy the bounded-distance promise
    rng = rng_for(86)
    ctx = code321.ctx
    failures = 0
    for _ in range(60):
        _, cw, e, _, r = plant(code321, 2, rng)
        out = decode(code321, r)
        if out.success:
            assert rank_weight(out.error) <= code321.radius
            assert code321.is_codeword(out.codeword)
            assert out.codeword != cw  # within-radius codeword cannot be the plant
        else:
            failures += 1
    assert failures > 0


@pytest.mark.parametrize("n", [2, 3])
def test_decode_beyond_radius_agrees_with_the_oracle(n):
    # errors of rank radius+1 and radius+2 at odd k, where the radius is the
    # generic guarantee: decode succeeds exactly when the word lies within the
    # radius of some codeword, and then returns that (unique) nearest codeword.
    # Such a word is rare at these sizes, so the sweep mostly pins that decode
    # reports failure rather than a codeword beyond the radius.
    code = build_code(FieldCtx(3, n), 1)
    rng = rng_for(92)
    for t in (code.radius + 1, code.radius + 2):
        for _ in range(75):
            _, _, _, _, r = plant(code, t, rng)
            nearest = brute_force_decode(code, r)
            out = decode(code, r)
            assert out.success == (nearest.distance <= code.radius), (t, nearest.distance)
            if out.success:
                assert out.codeword == nearest.codeword and out.t == nearest.distance


def test_decode_rejects_wrong_length(code5):
    with pytest.raises(ValueError):
        decode(code5, [code5.ctx.zero] * 3)
