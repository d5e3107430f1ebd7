"""Twist search, trace almost dual basis, generator and parity-check matrices."""

import numpy as np
import pytest

from tzcode import (
    FieldCtx,
    LinPoly,
    build_code,
    find_gamma,
    find_xi,
    is_valid_gamma,
    rank_weight,
    trace_almost_dual,
)
from tzcode.decoder import syndrome
from tzcode.errors import (
    InvalidParameter,
    MessageNotInSubfield,
    NotACodeword,
)
from tzcode.channel import random_message
from tzcode.decoder import decode, recover_B
from tzcode.construct import TZCode
from tzcode.field import Basis
from tzcode.paramfile import params_from_dict
from tzcode.linalg import fq_kernel
from tzcode.oracle import brute_force_decode
from tzcode.selftest import G, GHT_CORNER_00, GHT_CORNER_33, H, MU, run_selftest

from conftest import (
    elements,
    encode_by_rows,
    in_subfield,
    index_of,
    is_codeword_by_trace,
    moore_mu,
    plant,
    random_subfield_element,
    message_left_inverse,
    ref_code_tables,
    ref_message_digits,
    ref_msg_left_inverse,
    rng_for,
    same_span,
)


# ---------------------------------------------------------------------------
# gamma and xi
# ---------------------------------------------------------------------------

def test_published_gamma_is_accepted(ctx5):
    gamma = ctx5.elem([3, 2, 1, 1])
    assert is_valid_gamma(ctx5, gamma)
    norm = ctx5.norm_abs(gamma).as_base_int()
    assert norm == 2 and pow(norm, 2, 5) == 4  # non-square: 2^((q-1)/2) = -1


def test_subfield_elements_are_rejected(ctx5):
    # the norm of a subfield element is a square, so no subfield gamma exists
    rng = rng_for(50)
    for _ in range(20):
        g = random_subfield_element(ctx5, rng)
        assert not is_valid_gamma(ctx5, g)
    assert not is_valid_gamma(ctx5, ctx5.zero)


def test_find_gamma_default_field():
    ctx = FieldCtx(3, 2)
    gamma = find_gamma(ctx)
    assert is_valid_gamma(ctx, gamma)
    assert not in_subfield(gamma)
    # norm checked against the plain exponentiation oracle; 2 is the only
    # non-square of F_3
    e = (3**4 - 1) // 2
    assert gamma**e == ctx.scalar(2)


def test_find_gamma_is_first_in_enumeration_order():
    ctx = FieldCtx(5, 2)
    gamma = find_gamma(ctx)
    idx = index_of(ctx, gamma)
    for i in range(idx):
        assert not is_valid_gamma(ctx, ctx.element_from_index(i))


def test_find_xi_trace_property(ctx5):
    gamma = ctx5.elem([3, 2, 1, 1])
    xi = find_xi(ctx5, gamma)
    assert not xi.is_zero()
    assert ctx5.trace_rel(gamma * xi).is_zero()


def test_valid_xi_unique_up_to_subfield_factor():
    # exhaust the trace kernel at q=3, n=2: every valid xi is a subfield
    # multiple of every other
    ctx = FieldCtx(3, 2)
    gamma = find_gamma(ctx)
    valid = [
        x for x in elements(ctx) if not x.is_zero() and ctx.trace_rel(gamma * x).is_zero()
    ]
    assert len(valid) == 3**2 - 1  # the kernel is an F_{q^n}-line
    base = valid[0]
    for x in valid:
        assert in_subfield(x / base)


# ---------------------------------------------------------------------------
# trace almost dual basis
# ---------------------------------------------------------------------------

def test_published_mu(ctx5):
    lam = ctx5.power_basis
    xi = ctx5.elem([4, 2, 4, 0])
    mu = trace_almost_dual(ctx5, lam, xi, 2)
    assert [list(map(int, e.coeffs)) for e in mu] == MU


def test_dual_system_right_hand_side(ctx5):
    xi = ctx5.elem([4, 2, 4, 0])
    assert xi.frobenius(ctx5.m - 2) == ctx5.elem([4, 3, 4, 0])


def test_biorthogonality_full_grid(code5):
    ctx = code5.ctx
    lam, mu, xi, k = list(code5.lam), list(code5.mu), code5.xi, code5.k
    for i in range(ctx.m):
        lam_i = [e.frobenius(i) for e in lam]
        for j in range(ctx.m):
            acc = ctx.zero
            for x, y in zip(lam_i, [e.frobenius(j) for e in mu]):
                acc = acc + x * y
            if i == j:
                assert not acc.is_zero()
                if i == k:
                    assert acc == xi
            else:
                assert acc.is_zero()


def test_mu_is_unique_perturbation_breaks_pairing(code5):
    ctx = code5.ctx
    mu = list(code5.mu)
    mu[1] = mu[1] + ctx.one
    ok = True
    for i in range(ctx.m):
        for j in range(ctx.m):
            acc = ctx.zero
            for x, y in zip(
                [e.frobenius(i) for e in code5.lam], [e.frobenius(j) for e in mu]
            ):
                acc = acc + x * y
            if (i != j and not acc.is_zero()) or (i == j and acc.is_zero()):
                ok = False
    assert not ok


def _random_basis(ctx, rng):
    while True:
        try:
            return Basis([ctx.random_element(rng) for _ in range(ctx.m)])
        except InvalidParameter:
            continue


@pytest.mark.parametrize("q, n, k", [(5, 2, 2), (3, 2, 1), (3, 3, 2), (3, 4, 3), (7, 2, 3)])
def test_closed_form_mu_matches_moore_solve(q, n, k):
    ctx = FieldCtx(q, n)
    xi = find_xi(ctx, find_gamma(ctx))
    rng = rng_for(54)
    for lam in [ctx.power_basis] + [_random_basis(ctx, rng) for _ in range(3)]:
        assert list(trace_almost_dual(ctx, lam, xi, k)) == moore_mu(ctx, lam, xi, k)


@pytest.mark.parametrize("q, n, k", [(5, 2, 2), (3, 4, 1), (3, 4, 3), (3, 12, 1), (7, 12, 19)])
def test_tables_are_rows_of_the_moore_matrices(q, n, k):
    code = build_code(FieldCtx(q, n), k)
    G, H, read = ref_code_tables(code)
    assert np.array_equal(code.G, G) and np.array_equal(code.H, H)
    assert np.array_equal(code._transform_work, read)
    assert code._transform_work.flags.c_contiguous  # a strided table slows every _read


@pytest.mark.parametrize("q, n, k", [(3, 2, 1), (3, 4, 3)])
def test_code_takes_one_moore_matrix_of_lam_and_one_of_mu(q, n, k, monkeypatch):
    # every Frobenius map of lam or mu that TZCode takes, by kernel: one
    # frob_powers call each, k+1 rows of lam's Moore matrix and all of mu's
    ctx = FieldCtx(q, n)
    code = build_code(ctx, k)
    bases = {"lam": ctx.pack(code.lam), "mu": ctx.pack(code.mu)}
    seen = []
    for kernel in ("frob", "frob_powers"):
        def traced(a, *args, _kernel=kernel, _built=getattr(ctx, kernel)):
            seen.extend((_kernel, name, args) for name, b in bases.items()
                        if np.shape(a) == b.shape and np.array_equal(a, b))
            return _built(a, *args)
        monkeypatch.setattr(ctx, kernel, traced)
    TZCode(ctx, k, code.lam, code.gamma, code.xi, code.mu)
    assert seen == [("frob_powers", "lam", (k + 1,)), ("frob_powers", "mu", ())]


# parameter files written when mu still came from the Moore solve; loading
# recomputes mu and insists that it equals the stored one
PARAM_FILES = [
    {"q": 3, "n": 2, "k": 1, "modulus": [2, 1, 0, 0, 1], "gamma": [0, 1, 0, 0],
     "xi": [2, 1, 0, 0],
     "lambda": [[2, 2, 0, 2], [1, 1, 1, 0], [2, 0, 0, 1], [1, 1, 0, 0]],
     "mu": [[1, 2, 2, 1], [2, 2, 1, 1], [2, 0, 0, 0], [0, 1, 0, 1]], "rng": "philox4x64"},
    {"q": 5, "n": 2, "k": 2, "modulus": [2, 0, 0, 0, 1], "gamma": [0, 1, 0, 0],
     "xi": [1, 0, 0, 0],
     "lambda": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     "mu": [[4, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0], [0, 3, 0, 0]], "rng": "philox4x64"},
]


@pytest.mark.parametrize("data", PARAM_FILES, ids=["q3-random-lambda", "q5-default"])
def test_earlier_param_files_still_load(data):
    code = params_from_dict(data)
    assert [list(map(int, e.coeffs)) for e in code.mu] == data["mu"]


# ---------------------------------------------------------------------------
# G, H, and the code map
# ---------------------------------------------------------------------------

def test_selftest_artifacts_all_pass():
    assert all(ok for _, ok in run_selftest())


def test_generator_and_parity_check_golden(code5):
    ctx = code5.ctx
    assert code5.G.tolist() == G
    assert code5.H.tolist() == H


def test_gh_product_corners_and_trace(code5):
    ctx = code5.ctx
    for i in range(4):
        for j in range(4):
            acc = ctx.zero
            for a, b in zip(ctx.unpack(code5.G[i]), ctx.unpack(code5.H[j])):
                acc = acc + a * b
            assert ctx.trace_rel(acc).is_zero()
            if (i, j) == (0, 0):
                assert acc == ctx.elem(GHT_CORNER_00)
            elif (i, j) == (3, 3):
                assert acc == ctx.elem(GHT_CORNER_33)
            else:
                assert acc.is_zero()


def test_build_code_rejects_bad_parameters(ctx5):
    with pytest.raises(InvalidParameter):
        build_code(ctx5, 0)
    with pytest.raises(InvalidParameter):
        build_code(ctx5, 4)
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(InvalidParameter, match=f"^k must be an integer, got {k!r}$"):
            build_code(ctx5, k)
    with pytest.raises(InvalidParameter):
        build_code(ctx5, 2, gamma=ctx5.one)  # norm 1 is a square
    gamma = ctx5.elem([3, 2, 1, 1])
    with pytest.raises(InvalidParameter):
        build_code(ctx5, 2, gamma=gamma, xi=ctx5.zero)
    with pytest.raises(InvalidParameter):
        build_code(ctx5, 2, gamma=gamma, xi=ctx5.one)  # trace of gamma is nonzero


def test_encode_trivial_and_linear(code5):
    ctx = code5.ctx
    zero_msg = tuple(ctx.zero for _ in range(4))
    assert all(c.is_zero() for c in code5.encode(zero_msg))
    unit = (ctx.one, ctx.zero, ctx.zero, ctx.zero)
    assert code5.encode(unit) == ctx.unpack(code5.G[0])
    # F_{q^n}-linearity
    rng = rng_for(51)
    for _ in range(20):
        m1, m2 = random_message(code5, rng), random_message(code5, rng)
        c1, c2 = random_subfield_element(ctx, rng), random_subfield_element(ctx, rng)
        combo = tuple(c1 * x + c2 * y for x, y in zip(m1, m2))
        expected = tuple(
            c1 * x + c2 * y for x, y in zip(code5.encode(m1), code5.encode(m2))
        )
        assert code5.encode(combo) == expected


def test_encoded_words_have_zero_trace_syndrome(code5):
    from tzcode.channel import random_message

    rng = rng_for(52)
    ctx = code5.ctx
    for _ in range(100):
        cw = code5.encode(random_message(code5, rng))
        assert all(ctx.trace_rel(s).is_zero() for s in ctx.unpack(syndrome(code5, cw)))


def test_encode_rejects_out_of_subfield_entries(code5):
    ctx = code5.ctx
    bad = (code5.gamma, ctx.zero, ctx.zero, ctx.zero)  # gamma is never in F_{q^n}
    with pytest.raises(MessageNotInSubfield):
        code5.encode(bad)
    with pytest.raises(MessageNotInSubfield):
        code5.encode((ctx.one, ctx.zero))  # wrong length


def test_unmap_round_trip(code5):
    from tzcode.channel import random_message

    ctx = code5.ctx
    rng = rng_for(53)
    for _ in range(100):
        msg = random_message(code5, rng)
        assert code5.unmap(code5.encode(msg)) == msg
    zero = tuple(ctx.zero for _ in range(4))
    assert code5.unmap(code5.encode(zero)) == zero
    assert code5.unmap(ctx.unpack(code5.G[0])) == (ctx.one, ctx.zero, ctx.zero, ctx.zero)


def test_unmap_rejects_non_codeword(code5):
    ctx = code5.ctx
    cw = list(code5.encode(tuple(ctx.zero for _ in range(4))))
    cw[0] = cw[0] + ctx.one
    with pytest.raises(NotACodeword):
        code5.unmap(tuple(cw))


def test_membership_characterization_exhaustive(code321):
    # forward: all 81 codewords have zero-trace syndrome.  converse: the
    # zero-trace set is an F_q-space whose dimension equals the code's, so
    # the two sets coincide exactly.
    ctx = code321.ctx
    total = 0
    for idx in range(3 ** (2 * ctx.n * code321.k)):
        digits = [(idx // 3**i) % 3 for i in range(4)]
        msg = []
        for i in range(2):
            acc = ctx.zero
            for j, b in enumerate(ctx.subfield_basis):
                acc = acc + b.scale(digits[i * 2 + j])
            msg.append(acc)
        cw = code321.encode(tuple(msg))
        assert code321.is_codeword(cw)
        total += 1
    assert total == 81
    # expand v -> Tr(v H^T) to one F_q matrix and read off its kernel size
    rows = []
    for i in range(ctx.m):
        for c in range(ctx.m):
            basis_vec = [ctx.zero] * ctx.m
            basis_vec[i] = ctx.power_basis[c]
            img = [ctx.trace_rel(s) for s in ctx.unpack(syndrome(code321, basis_vec))]
            rows.append(np.concatenate([x.coeffs for x in img]))
    mat = np.stack(rows, axis=1)
    kernel_dim = fq_kernel(mat, 3).shape[0]
    assert kernel_dim == 2 * ctx.n * code321.k  # |zero-trace set| = 81 = |code|


def test_encode_matches_generator_row_sum(code5, code332):
    rng = rng_for(55)
    for code in (code5, code332, build_code(FieldCtx(7, 2), 3)):
        for _ in range(30):
            msg = random_message(code, rng)
            assert code.encode(msg) == encode_by_rows(code, msg)


def test_is_codeword_matches_trace_syndrome(code321, code332):
    rng = rng_for(56)
    for code in (code321, code332):
        ctx = code.ctx
        for _ in range(30):
            _, cw, _, _, r = plant(code, 1, rng)
            noise = tuple(ctx.random_element(rng) for _ in range(code.length))
            assert code.is_codeword(cw) and is_codeword_by_trace(code, cw)
            for v in (r, noise):
                assert code.is_codeword(v) == is_codeword_by_trace(code, v)
            assert not code.is_codeword(r)


def _random_gamma(ctx, rng):
    while True:
        g = ctx.random_element(rng)
        if is_valid_gamma(ctx, g):
            return g


def _is_left_inverse(code):
    eye = np.eye(code._enc_mat.shape[0], dtype=np.int64)
    return np.array_equal(code._enc_mat @ message_left_inverse(code) % code.ctx.q, eye)


@pytest.mark.parametrize("q, n, k", [(3, 2, 1), (5, 2, 2), (3, 4, 3), (7, 3, 4),
                                     (3, 12, 1), (3, 12, 2), (7, 12, 19)])
def test_closed_form_left_inverse_at_default_parameters(q, n, k):
    assert _is_left_inverse(build_code(FieldCtx(q, n), k))


@pytest.mark.parametrize("q, n, k", [(3, 2, 1), (5, 2, 2), (3, 4, 3), (7, 3, 4),
                                     (5, 4, 5), (3, 6, 7)])
def test_closed_form_left_inverse_at_random_lambda_and_gamma(q, n, k):
    ctx = FieldCtx(q, n)
    rng = rng_for(57)
    for _ in range(3):
        gamma = _random_gamma(ctx, rng)
        code = build_code(ctx, k, lam=_random_basis(ctx, rng), gamma=gamma,
                          xi=find_xi(ctx, gamma))
        assert _is_left_inverse(code)


@pytest.mark.parametrize("q, n, k", [(3, 2, 1), (5, 2, 2), (3, 4, 3), (7, 3, 4), (3, 6, 7)])
def test_closed_form_mu_k_coords_invert_mu_k(q, n, k):
    # recover_B's coordinates Tr(x nu_j), nu the trace-dual basis of
    # mu^(q^k), map the rows of mu^(q^k) to the identity, at the default and
    # at random lambda and gamma
    ctx = FieldCtx(q, n)
    rng = rng_for(59)
    codes = [build_code(ctx, k)]
    for _ in range(2):
        gamma = _random_gamma(ctx, rng)
        codes.append(build_code(ctx, k, lam=_random_basis(ctx, rng), gamma=gamma,
                                xi=find_xi(ctx, gamma)))
    for code in codes:
        mu_k = ctx.frob(ctx.pack(code.mu), k)
        assert np.array_equal(recover_B(code, mu_k), np.eye(ctx.m, dtype=np.int64))


@pytest.mark.parametrize("q, n, k", [(3, 2, 1), (5, 2, 2), (3, 4, 3), (7, 3, 4),
                                     (5, 2, 1), (7, 2, 2), (3, 3, 2), (5, 3, 3)])
def test_membership_agrees_with_eliminated_left_inverse(q, n, k):
    # is_codeword and unmap (the transform's membership test and its split of
    # k+1 entries) against the eliminated and the closed-form left inverse
    # and the entrywise trace of the syndrome, on codewords, on codewords
    # plus gamma x or x^(q^k) at lam (b_0 or a_k nonzero, every higher F_i
    # zero), on corrupted codewords and on noise
    ctx = FieldCtx(q, n)
    code = build_code(ctx, k)
    eliminated, closed = ref_msg_left_inverse(code), message_left_inverse(code)
    off_by_b0 = ctx.pack([code.gamma * x for x in code.lam])
    off_by_ak = ctx.frob(ctx.pack(code.lam), k)
    rng = rng_for(58)
    for _ in range(20):
        msg, cw, _, _, r = plant(code, 1, rng)
        noise = tuple(ctx.random_element(rng) for _ in range(code.length))
        near = [ctx.unpack((ctx.pack(cw) + off) % q) for off in (off_by_b0, off_by_ak)]
        for v in (cw, r, noise, *near):
            digits = ref_message_digits(code, v, eliminated)
            assert same_span(digits, ref_message_digits(code, v, closed))
            member = digits is not None
            assert code.is_codeword(v) == member == is_codeword_by_trace(code, v)
            if member:
                assert code.unmap(v) == ctx.subfield_elements(digits)
            else:
                with pytest.raises(NotACodeword):
                    code.unmap(v)
        assert code.unmap(cw) == msg
        assert not any(code.is_codeword(v) for v in near)


@pytest.mark.parametrize("other", [(5, 2, None), (3, 2, [2, 2, 0, 0, 1]), None],
                         ids=["foreign-q", "foreign-modulus", "not-a-field-element"])
def test_words_from_another_field_are_rejected(code321, other):
    ctx = code321.ctx
    stranger = FieldCtx(*other).one if other else 0
    assert stranger != ctx.one
    word = (ctx.zero, ctx.zero, ctx.zero, stranger)
    with pytest.raises(InvalidParameter):
        decode(code321, word)
    with pytest.raises(InvalidParameter):
        code321.unmap(word)
    with pytest.raises(InvalidParameter):
        code321.is_codeword(word)
    with pytest.raises(InvalidParameter):
        brute_force_decode(code321, word)
    with pytest.raises(InvalidParameter):
        code321.encode((stranger, ctx.zero))


@pytest.mark.parametrize("other", [(5, 2, None), (3, 2, [2, 2, 0, 0, 1]), None],
                         ids=["foreign-q", "foreign-modulus", "not-a-field-element"])
def test_mixed_fields_are_rejected_at_construction(ctx3, other):
    # a basis, lam, gamma or xi from another field is refused up front, and
    # the message names the argument or the entry at fault
    foreign = FieldCtx(*other) if other else None
    stranger = foreign.alpha if foreign else 0
    mixed = [*ctx3.power_basis][:3] + [stranger]
    with pytest.raises(InvalidParameter, match="basis entry 3"):
        Basis(mixed)
    with pytest.raises(InvalidParameter, match="basis entry 3"):
        build_code(ctx3, 1, lam=mixed)
    # a basis takes its field from its first entry
    with pytest.raises(InvalidParameter, match=f"basis entry {1 if foreign else 0}"):
        Basis([stranger, *[*ctx3.power_basis][1:]])
    if foreign is None:
        with pytest.raises(InvalidParameter, match="gamma"):
            build_code(ctx3, 1, gamma=1)
        return
    with pytest.raises(InvalidParameter, match="lam"):
        build_code(ctx3, 1, lam=foreign.power_basis)
    with pytest.raises(InvalidParameter, match="lam"):
        build_code(ctx3, 1, lam=[*foreign.power_basis])
    gamma = find_gamma(foreign)
    with pytest.raises(InvalidParameter, match="gamma"):
        build_code(ctx3, 1, gamma=gamma)
    with pytest.raises(InvalidParameter, match="xi"):
        build_code(ctx3, 1, xi=find_xi(foreign, gamma))
    # the same values in their own field build a code
    build_code(foreign, 1, lam=foreign.power_basis, gamma=gamma, xi=find_xi(foreign, gamma))


@pytest.mark.parametrize("length", [3, 5])
def test_words_of_the_wrong_length_are_rejected(code321, length):
    # decode, unmap, is_codeword and the oracle share one word check
    word = (code321.ctx.zero,) * length
    for entry in (lambda w: decode(code321, w), code321.unmap, code321.is_codeword,
                  lambda w: brute_force_decode(code321, w)):
        with pytest.raises(ValueError, match="length 4"):
            entry(word)


def test_equal_field_built_twice_is_accepted(code321):
    twin = FieldCtx(3, 2)
    assert twin is not code321.ctx and twin == code321.ctx
    msg, cw, _, _, r = plant(code321, 1, rng_for(57))
    for word in (cw, r):
        word = tuple(twin.elem(c.coeffs) for c in word)
        out = decode(code321, word)
        assert out.success and out.message == msg and out.codeword == cw
    assert code321.unmap(tuple(twin.elem(c.coeffs) for c in cw)) == msg
    assert LinPoly(twin, [twin.one]) == LinPoly(code321.ctx, [code321.ctx.one])
