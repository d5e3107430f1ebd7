"""Tower arithmetic, Frobenius tables, traces, norms, and the Moore matrix."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tzcode import FieldCtx, build_code, rank_weight
from tzcode.decoder import decode
from tzcode.errors import DivisionByZero, InvalidParameter, UnsupportedCharacteristic
from tzcode import field
from tzcode.field import (SUBFIELD_TABLE_SIZE, FF2n, Basis, _is_prime, _primitive_matrix,
                          _rabin, _reduction_table, default_modulus)
from tzcode.linalg import ff_rank, fq_rank
from tzcode.selftest import MODULUS

from conftest import (
    MODULUS_10007_4,
    elements,
    ext,
    ext_inv,
    in_base,
    in_subfield,
    index_of,
    plant,
    qvan,
    ref_inverse_and_norm,
    ref_reduction_table,
    ref_subfield_coords,
    rng_for,
    trace_abs,
)


def test_reduction_of_alpha_fourth(ctx5):
    # long division of a^4 by a^4 + 2 leaves remainder -2 = 3
    a = ctx5.alpha
    assert a * a**3 == ctx5.scalar(3)


def test_identity_elements(ctx5, ctx3):
    for ctx in (ctx5, ctx3):
        rng = rng_for(11)
        for _ in range(20):
            x = ctx.random_element(rng)
            assert x + ctx.zero == x
            assert x * ctx.one == x
        assert ctx.one.inverse() == ctx.one


def test_gamma_times_xi_is_eta(ctx5):
    gamma = ctx5.elem([3, 2, 1, 1])
    xi = ctx5.elem([4, 2, 4, 0])
    assert gamma * xi == ctx5.elem([0, 1, 0, 4])


def test_field_axioms_sampled(ctx5):
    rng = rng_for(12)
    for _ in range(50):
        a, b, c = (ctx5.random_element(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == ctx5.one
            assert (a / a) == ctx5.one


def test_division_by_zero(ctx5):
    with pytest.raises(DivisionByZero):
        ctx5.one / ctx5.zero
    with pytest.raises(DivisionByZero):
        ctx5.zero.inverse()


def test_frobenius_of_alpha(ctx5):
    a = ctx5.alpha
    assert a.frobenius(1) == a.scale(3)
    assert a.frobenius(2) == a.scale(4)
    assert a.frobenius(3) == a.scale(2)
    assert a.frobenius(0) == a


def test_frobenius_is_field_automorphism(ctx5):
    rng = rng_for(13)
    for _ in range(30):
        a, b = ctx5.random_element(rng), ctx5.random_element(rng)
        i = int(rng.integers(0, ctx5.m))
        assert (a * b).frobenius(i) == a.frobenius(i) * b.frobenius(i)
        assert (a + b).frobenius(i) == a.frobenius(i) + b.frobenius(i)


def test_frobenius_order_and_inverse(ctx5):
    rng = rng_for(14)
    for _ in range(20):
        a = ctx5.random_element(rng)
        assert a.frobenius(ctx5.m) == a
        for i in range(1, ctx5.m):
            assert a.frobenius(i).frobenius(-i) == a


def test_frobenius_agrees_with_exponentiation(ctx5):
    # independent oracle: plain square-and-multiply with exponent q^i
    rng = rng_for(15)
    for _ in range(25):
        a = ctx5.random_element(rng)
        i = int(rng.integers(0, ctx5.m))
        assert a.frobenius(i) == a ** (ctx5.q**i)


def test_subfield_membership_exhaustive():
    # a in F_{q^n} iff a^(q^n) = a, checked over every element of both small towers
    for q, n in ((3, 2), (5, 2)):
        ctx = FieldCtx(q, n)
        count = 0
        for a in elements(ctx):
            fixed = a.frobenius(n) == a
            assert in_subfield(a) == fixed
            count += fixed
        assert count == q**n


def test_norm_of_gamma(ctx5):
    assert ctx5.norm_abs(ctx5.elem([3, 2, 1, 1])) == ctx5.scalar(2)


def test_trace_and_norm_trivial_values(ctx5):
    assert ctx5.trace_rel(ctx5.zero) == ctx5.zero
    assert ctx5.norm_abs(ctx5.one) == ctx5.one


def test_trace_of_gamma_xi(ctx5):
    eta = ctx5.elem([3, 2, 1, 1]) * ctx5.elem([4, 2, 4, 0])
    assert ctx5.trace_rel(eta) == ctx5.zero


def test_norm_agrees_with_exponentiation(ctx5, ctx3):
    for ctx in (ctx5, ctx3):
        rng = rng_for(16)
        e = (ctx.q**ctx.m - 1) // (ctx.q - 1)
        for _ in range(15):
            a = ctx.random_element(rng)
            assert ctx.norm_abs(a) == a**e


def test_trace_rel_surjective_linear_kernel_dim_one(ctx5):
    # exhaustive at q=5, n=2: image is all of F_25, kernel has 25 elements
    image = set()
    kernel = 0
    for a in elements(ctx5):
        tr = ctx5.trace_rel(a)
        assert in_subfield(tr)
        image.add(tr)
        kernel += tr.is_zero()
    assert len(image) == 25
    assert kernel == 25
    # F_{q^n}-linearity on a sample
    rng = rng_for(17)
    for _ in range(20):
        a = ctx5.random_element(rng)
        c = ctx5.trace_rel(ctx5.random_element(rng))  # arbitrary subfield scalar
        assert ctx5.trace_rel(c * a) == c * ctx5.trace_rel(a)


def test_trace_abs_lands_in_base(ctx5):
    rng = rng_for(18)
    for _ in range(20):
        assert in_base(trace_abs(ctx5, ctx5.random_element(rng)))
        assert in_base(ctx5.norm_abs(ctx5.random_element(rng)))


# ---------------------------------------------------------------------------
# Moore matrices
# ---------------------------------------------------------------------------

def test_qvan_reproduces_published_system(ctx5):
    lam = [ctx5.one, ctx5.alpha, ctx5.alpha**2, ctx5.alpha**3]
    mat = ctx5.unpack(qvan(lam, 4))
    a = ctx5.alpha
    assert mat[1] == (ctx5.one, a.scale(3), (a**2).scale(4), (a**3).scale(2))
    assert mat[2] == (ctx5.one, a.scale(4), a**2, (a**3).scale(4))
    assert mat[3] == (ctx5.one, a.scale(2), (a**2).scale(4), (a**3).scale(3))


def test_qvan_single_row(ctx5):
    rng = rng_for(19)
    vec = [ctx5.random_element(rng) for _ in range(3)]
    assert ctx5.unpack(qvan(vec, 1)) == (tuple(vec),)


def test_qvan_rank_of_dependent_entries(ctx5):
    a = ctx5.alpha
    mat = qvan([ctx5.one, a, a.scale(3)], 3)
    assert ff_rank(mat, ctx5) == 2  # entries span the plane <1, a>


def test_qvan_determinant_lemma_exhaustive():
    # det(qvan_2((a0, a1))) = a0 a1^q - a1 a0^q vanishes iff the pair is
    # F_q-dependent, over every pair in F_81
    ctx = FieldCtx(3, 2)
    els = list(elements(ctx))
    for a0 in els:
        f0 = a0.frobenius(1)
        for a1 in els:
            det = a0 * a1.frobenius(1) - a1 * f0
            dep = rank_weight([a0, a1]) < 2
            assert det.is_zero() == dep
    # the determinant drives the Moore-matrix rank, spot-checked
    rng = rng_for(23)
    for _ in range(25):
        pair = [ctx.random_element(rng) for _ in range(2)]
        full = rank_weight(pair) == 2
        assert (ff_rank(qvan(pair, 2), ctx) == 2) == full


def test_qvan_full_rank_via_determinant_product_formula(ctx5):
    # the product formula evaluated directly for the evaluation basis
    lam = [ctx5.one, ctx5.alpha, ctx5.alpha**2, ctx5.alpha**3]
    det = lam[0]
    for j in range(3):
        import itertools

        for cs in itertools.product(range(ctx5.q), repeat=j + 1):
            acc = lam[j + 1]
            for ci, li in zip(cs, lam[: j + 1]):
                acc = acc - li.scale(ci)
            det = det * acc
    assert not det.is_zero()
    assert ff_rank(qvan(lam, 4), ctx5) == 4


# ---------------------------------------------------------------------------
# expansion and rank weight
# ---------------------------------------------------------------------------

def test_ext_zero_vector(ctx5):
    basis = ctx5.power_basis
    zeros = [ctx5.zero] * 4
    assert not ext(zeros, basis).any()


def test_ext_power_basis_identity(ctx5):
    basis = ctx5.power_basis
    mat = ext(list(basis), basis)
    assert np.array_equal(mat, np.eye(4, dtype=np.int64))


def test_ext_round_trip_random_bases(ctx5):
    rng = rng_for(20)
    lam = Basis([ctx5.one, ctx5.alpha, ctx5.alpha**2, ctx5.alpha**3])
    for basis in (ctx5.power_basis, lam):
        for _ in range(100):
            x = [ctx5.random_element(rng) for _ in range(5)]
            assert ext_inv(ext(x, basis), basis) == tuple(x)


def test_rank_weight_is_basis_independent(ctx5):
    rng = rng_for(21)
    lam = Basis([ctx5.one, ctx5.alpha, ctx5.alpha**2, ctx5.alpha**3])
    for _ in range(20):
        x = [ctx5.random_element(rng) for _ in range(4)]
        w = rank_weight(x)
        assert 0 <= w <= 4
        assert fq_rank(ext(x, lam), ctx5.q) == w


def test_rank_weight_trivial_cases(ctx5):
    assert rank_weight([ctx5.zero] * 4) == 0
    assert rank_weight([ctx5.one, ctx5.alpha, ctx5.alpha**2, ctx5.alpha**3]) == 4


def test_rank_weight_of_planted_decomposition(ctx5):
    # any product of independent column elements and a full-rank row matrix
    # has rank weight exactly t
    from tzcode.decoder import error_from_decomposition

    rng = rng_for(22)
    for t in (1, 2, 3):
        while True:
            a = [ctx5.random_element(rng) for _ in range(t)]
            if rank_weight(a) == t:
                break
        while True:
            B = rng.integers(0, 5, (t, 4), dtype=np.int64)
            if fq_rank(B, 5) == t:
                break
        assert rank_weight(ctx5.unpack(error_from_decomposition(ctx5.pack(a), B, ctx5))) == t


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

def test_even_q_rejected():
    with pytest.raises(UnsupportedCharacteristic):
        FieldCtx(2, 2)
    with pytest.raises(UnsupportedCharacteristic):
        FieldCtx(4, 2)


@pytest.mark.parametrize("q, n, name", [(3.0, 2, "q"), (True, 2, "q"), (3, 2.0, "n"),
                                        (3, True, "n"), ("3", 2, "q")])
def test_orders_that_are_no_integers_are_rejected(q, n, name):
    value = q if name == "q" else n
    with pytest.raises(InvalidParameter, match=f"^{name} must be an integer, got {value!r}$"):
        FieldCtx(q, n)


def test_reducible_modulus_rejected():
    with pytest.raises(InvalidParameter):
        FieldCtx(5, 2, [1, 0, 0, 0, 1])  # x^4 + 1 splits mod 5


def test_nonmonic_modulus_rejected():
    with pytest.raises(InvalidParameter):
        FieldCtx(5, 2, [2, 0, 0, 0, 2])


def test_default_modulus_matches_published_field():
    assert FieldCtx(5, 2).modulus == (2, 0, 0, 0, 1)


# default moduli found by the list-polynomial Rabin test this one replaced
@pytest.mark.parametrize("q, n, modulus", [
    (3, 12, [2, 0, 0, 0, 1] + [0] * 19 + [1]),
    (7, 12, [4, 3, 1] + [0] * 21 + [1]),
    (3, 16, [1, 2, 2, 1] + [0] * 28 + [1]),
    (5, 2, [2, 0, 0, 0, 1]),
    (3, 2, [2, 1, 0, 0, 1]),
])
def test_default_moduli_pinned(q, n, modulus):
    assert default_modulus(q, 2 * n) == modulus


def _monic(q, m):
    """Every monic polynomial of degree m over F_q, low degree first."""
    for idx in range(q**m):
        yield [(idx // q**i) % q for i in range(m)] + [1]


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("m", [2, 3])
def test_low_degree_irreducible_iff_rootless(q, m):
    for f in _monic(q, m):
        rootless = all(sum(c * x**i for i, c in enumerate(f)) % q for x in range(q))
        assert (_rabin(q, f) is not None) == rootless, f


def _mobius(d):
    out, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


@pytest.mark.parametrize("q, m", [(3, 4), (5, 4), (3, 6)])
def test_irreducible_count_matches_gauss_formula(q, m):
    gauss = sum(_mobius(d) * q ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
    assert sum(_rabin(q, f) is not None for f in _monic(q, m)) == gauss


def _counted_rabin(monkeypatch) -> list:
    """The candidates FieldCtx hands _rabin from now on, in order."""
    calls = []

    def counted(q, coeffs):
        calls.append(list(coeffs))
        return _rabin(q, coeffs)

    monkeypatch.setattr(field, "_rabin", counted)
    return calls


@pytest.mark.parametrize("q, n, tested", [(3, 4, 4), (3, 12, 25)])
def test_default_field_tests_each_candidate_once(q, n, tested, monkeypatch):
    # the search keeps the accepted candidate's tables: FieldCtx does not
    # test its modulus again
    calls = _counted_rabin(monkeypatch)
    ctx = FieldCtx(q, n)
    rootless = []
    for f in _monic(q, 2 * n):
        if all(sum(c * x**i for i, c in enumerate(f)) % q for x in range(q)):
            rootless.append(f)
        if f == list(ctx.modulus):
            break
    assert calls == rootless and len(calls) == tested


def test_explicit_modulus_is_tested_once(monkeypatch):
    calls = _counted_rabin(monkeypatch)
    FieldCtx(5, 2, MODULUS)
    assert calls == [list(MODULUS)]


@pytest.mark.parametrize("q, n", [(3, 2), (3, 12), (7, 12)])
def test_frobenius_rows_are_a_view_of_the_power_table(q, n):
    ctx = FieldCtx(q, n)
    assert np.shares_memory(ctx._frob_rows, ctx._frob_tensor)
    eye = np.eye(ctx.m, dtype=np.int64)
    for i in (0, 1, n, ctx.m - 1):
        assert np.array_equal(ctx._frob_rows[i], ctx.frob(eye, i))


def test_inverse_exhaustive(ctx5, ctx3):
    for ctx in (ctx5, ctx3):
        for a in list(elements(ctx))[1:]:
            assert a * a.inverse() == ctx.one


def _check_arithmetic(ctx, seed):
    rng = rng_for(seed)
    e = (ctx.q**ctx.m - 1) // (ctx.q - 1)
    for _ in range(10):
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        assert a * a.inverse() == ctx.one
        assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)
        assert a.frobenius(1) == a**ctx.q
        assert ctx.norm_abs(a) == a**e


def test_large_q_field_builds():
    ctx = FieldCtx(10007, 2)
    assert ctx.modulus == (6, 1, 0, 0, 1)
    _check_arithmetic(ctx, 20)


# ---------------------------------------------------------------------------
# inversion and norms through the tabled subfield F_(q^d)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _field(q, n):
    return FieldCtx(q, n)


def _check_against_the_chain(ctx, packed):
    """ctx.inv and ctx.norm_abs on the packed nonzero elements equal the
    Itoh-Tsujii chain down to F_q, in values and in the work dtype."""
    inverse, norm = ref_inverse_and_norm(ctx, packed)
    got = ctx.inv(packed)
    assert got.dtype == ctx._work and np.array_equal(got, inverse)
    for a, expected in zip(ctx.unpack(packed), ctx.unpack(norm)):
        assert ctx.norm_abs(a) == expected


@pytest.mark.parametrize("q, n, d", [(3, 2, 2), (5, 2, 2), (3, 3, 3)])
def test_inverse_and_norm_exhaustive_on_small_fields(q, n, d):
    # F_(3^4), F_(5^4) and F_(3^6) would fit the table whole, but the table
    # is a proper subfield: a one-step chain into F_(q^d)
    ctx = FieldCtx(q, n)
    assert ctx._table_degree == d
    every = np.stack([a.coeffs for a in elements(ctx)])
    _check_against_the_chain(ctx, every[1:])
    assert ctx.norm_abs(ctx.zero) == ctx.zero


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 11, 101]), n=st.integers(1, 12), data=st.data())
def test_inverse_and_norm_match_the_chain(q, n, data):
    # every d the bound gives: a proper divisor, and 1 at n = 1 and at q = 101
    ctx = _field(q, n)
    assert ctx._table_degree < ctx.m
    row = st.lists(st.integers(0, q - 1), min_size=ctx.m, max_size=ctx.m).filter(any)
    packed = np.array(data.draw(st.lists(row, min_size=1, max_size=4)), dtype=np.int64)
    _check_against_the_chain(ctx, packed)


def test_inverse_without_a_table_is_the_chain_to_the_base_field():
    # q^2 > SUBFIELD_TABLE_SIZE: d = 1, so no table is built and N(a) lies in F_q
    ctx = FieldCtx(10007, 4, MODULUS_10007_4)
    assert ctx._table_degree == 1 and not hasattr(ctx, "_table_inverse")
    packed = rng_for(24).integers(0, ctx.q, (12, ctx.m))
    packed[:, 0] = np.maximum(packed[:, 0], 1)
    _check_against_the_chain(ctx, packed)


@pytest.mark.parametrize("q, n, d", [(3, 12, 6), (7, 12, 4), (3, 2, 2), (11, 3, 3)])
def test_tabled_subfield_and_its_generator(q, n, d):
    # d is the largest proper divisor of 2n with q^d <= SUBFIELD_TABLE_SIZE; the
    # table's generator g is the first element of F_(q^d), in the digit
    # order the table reads, of order q^d - 1; the table holds every
    # nonzero element's inverse and norm as the chain gives them
    ctx = _field(q, n)
    assert ctx._table_degree == d and q**d <= SUBFIELD_TABLE_SIZE
    assert all(ctx.m % e or q**e > SUBFIELD_TABLE_SIZE for e in range(d + 1, ctx.m))
    size = q**d
    primes = [p for p in range(2, size) if (size - 1) % p == 0 and _is_prime(p)]

    def full_order(c):
        return c ** (size - 1) == ctx.one and all(c ** ((size - 1) // p) != ctx.one for p in primes)

    basis, cols = ctx._subfield(d)
    assert np.array_equal(ctx._table_rows(basis), q ** np.arange(d))  # digit j weighs q^j
    digits = np.stack([idx // q ** np.arange(d) % q for idx in range(size)])
    subfield = ctx.unpack(digits @ basis % q)
    assert all(c.frobenius(d) == c for c in subfield)
    elems = ctx.unpack(basis)
    products = np.array([[(x * y).coeffs[cols] for y in elems] for x in elems])
    one = ctx._red[0, cols]
    first = int(one @ _primitive_matrix(products, one, q) % q @ q ** np.arange(d))  # 1 times g
    assert full_order(subfield[first]) and not any(full_order(c) for c in subfield[1:first])
    _check_against_the_chain(ctx, np.stack([c.coeffs for c in subfield[1:]]))


def test_inverse_and_norm_reduce_their_input_first(ctx5):
    # FF2n keeps the coefficients it is given: an entry outside 0..q-1 is
    # the same element as its residue, for inverse and norm alike
    for raw in ([5, 1, 0, 0], [-4, 1, 0, 0], [9, 7, -1, 12]):
        a = FF2n(ctx5, np.array(raw))
        reduced = FF2n(ctx5, np.array(raw) % 5)
        assert a.inverse() == reduced.inverse()
        assert ctx5.norm_abs(a) == ctx5.norm_abs(reduced)
    assert FF2n(ctx5, np.array([5, 1, 0, 0])).inverse() * ctx5.alpha == ctx5.one


def test_reduction_table_matches_the_row_by_row_fold():
    # rows below 2n are the unit vectors; the rest shift and fold, as before
    rng = rng_for(25)
    cases = [(3, _field(3, 12).modulus), (7, _field(7, 12).modulus), (5, MODULUS)]
    for q in (3, 5, 7, 11):
        for m in (2, 3, 8):
            cases.append((q, [int(c) for c in rng.integers(0, q, m)] + [1]))
    for q, modulus in cases:
        table = _reduction_table(q, modulus)
        assert table.dtype == np.int64
        assert np.array_equal(table, ref_reduction_table(q, modulus))


def _int64_safe(q, n):
    """The largest intermediate of a field multiply stays below 2^63."""
    return 2 * n * (q - 1) ** 2 + n * (2 * n - 1) * (q - 1) ** 3 < 2**63


def test_int64_bound_at_the_api_boundary():
    lo, hi = 3, 2**21  # first q that overflows at n = 2 lies in between
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if not _int64_safe(mid, 2) else (mid + 1, hi)
    above = next(p for p in range(lo, 2 * lo) if _is_prime(p))
    with pytest.raises(InvalidParameter, match="int64"):
        FieldCtx(above, 2)
    # q = 1 mod 4 makes x^4 - c irreducible for any non-square c, so the
    # modulus search stops after a few candidates
    below = next(p for p in range(lo - 1, 0, -1) if _is_prime(p) and p % 4 == 1)
    ctx = FieldCtx(below, 2)
    _check_arithmetic(ctx, 21)


def test_element_index_round_trip(ctx3):
    for idx in (0, 1, 5, 80):
        assert index_of(ctx3, ctx3.element_from_index(idx)) == idx


def test_subfield_digit_map_round_trip(ctx5, ctx33):
    for ctx in (ctx5, ctx33):
        rng = rng_for(19)
        digits = rng.integers(0, ctx.q, (6, ctx.n))
        elems = ctx.subfield_elements(digits)
        for row, e in zip(digits, elems):
            acc = ctx.zero
            for b, d in zip(ctx.subfield_basis, row):
                acc = acc + b.scale(int(d))
            assert e == acc and in_subfield(e)
        assert np.array_equal(ctx.subfield_digits(elems), digits)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 101, 10007])
def test_subfield_digits_are_a_column_read(q, monkeypatch):
    # FieldCtx solves no F_q system for the digit map: an element's digits
    # are its entries at the basis's free columns.  On F_(q^n) they agree
    # with the solved right inverse, in every work dtype (float32 up to
    # q = 11, float64 at q = 101, int64 at q = 10007), and so does encoding
    # through either
    import tzcode.linalg as linalg

    def refused(*args):
        raise AssertionError("fq_solve reached")

    with monkeypatch.context() as patched:
        patched.setattr(linalg, "fq_solve", refused)
        ctx = FieldCtx(q, 2)
    assert ctx._work == {101: np.float64, 10007: np.int64}.get(q, np.float32)
    coords = ref_subfield_coords(ctx)
    digits = rng_for(23).integers(0, q, (40, ctx.n))
    elems = ctx._from_digits(digits)
    for packed in (elems, elems.astype(ctx._work)):
        assert np.array_equal(ctx.subfield_digits(packed), digits)
        assert np.array_equal(packed @ coords % q, digits)
    codes = [build_code(ctx, k) for k in (1, 2)]
    digits = rng_for(24).integers(0, q, (4, ctx.n))
    msgs = [ctx.subfield_elements(digits[: 2 * code.k]) for code in codes]
    read = [code.encode(msg) for code, msg in zip(codes, msgs)]
    monkeypatch.setattr(FieldCtx, "subfield_digits",
                        lambda self, elems: self.pack(elems) @ ref_subfield_coords(self) % self.q)
    assert [code.encode(msg) for code, msg in zip(codes, msgs)] == read


def test_basis_rejects_dependent_elements(ctx5):
    with pytest.raises(InvalidParameter):
        Basis([ctx5.one, ctx5.alpha, ctx5.alpha.scale(2), ctx5.alpha**3])


def test_handed_out_elements_compare_by_bytes(ctx5):
    # every element encode, decode, unmap, the channel draws and
    # subfield_elements hand out holds int64 (2n,) coefficients, so equality
    # by coefficient bytes agrees with np.array_equal and with the hash;
    # elements of equal but distinct fields compare equal, other types never
    from tzcode.field import FF2n

    twin = FieldCtx(ctx5.q, ctx5.n, ctx5.modulus)
    assert twin is not ctx5 and twin == ctx5
    code = build_code(ctx5, 1)
    rng = rng_for(99)
    elems = list(ctx5.subfield_elements(rng.integers(0, ctx5.q, (3, ctx5.n))))
    for t, subfield in ((0, False), (1, False), (1, True)):
        msg, cw, e, decomp, r = plant(code, t, rng, subfield=subfield)
        out = decode(code, r)
        assert out.success
        assert decomp.a.dtype == np.int64 and decomp.a.shape == (t, ctx5.m)
        for word in (msg, cw, e, out.codeword, out.error, out.message, code.unmap(cw)):
            elems.extend(word)
    for x in elems:
        assert x.coeffs.dtype == np.int64 and x.coeffs.shape == (ctx5.m,)
        assert x == FF2n(twin, x.coeffs.copy()) and hash(x) == hash(twin.elem(x.coeffs))
        assert x != x.coeffs and x != tuple(x.coeffs) and x != int(x.coeffs[0])
    for x in elems:
        for y in elems:
            same = np.array_equal(x.coeffs, y.coeffs)
            assert (x == y) == same and (x != y) != same
            assert not same or hash(x) == hash(y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.int64])
def test_elements_hold_int64_whatever_array_they_are_built_from(ctx5, dtype):
    # FF2n compares and hashes its coefficient bytes, so it casts what it is
    # given to int64; an int64 array it keeps without a copy
    from tzcode.field import FF2n

    coeffs = [1, 2, 0, 4]
    x = FF2n(ctx5, np.array(coeffs, dtype=dtype))
    assert x.coeffs.dtype == np.int64 and not x.coeffs.flags.writeable
    assert x == ctx5.elem(coeffs) and hash(x) == hash(ctx5.elem(coeffs))
    assert len({x, ctx5.elem(coeffs)}) == 1
    assert (x * ctx5.alpha) == ctx5.elem(coeffs) * ctx5.alpha
    held = np.array(coeffs, dtype=np.int64)
    assert FF2n(ctx5, held).coeffs is held
