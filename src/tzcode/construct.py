"""Code construction: twist element, trace almost dual basis, G and H, encoding.

A code instance lives over the tower F_q < F_{q^n} < F_{q^2n} and is linear
over the middle field only.  Its generator matrix G (2k x 2n) evaluates the
basis maps x, x^q, gamma x^q, ..., x^(q^(k-1)), gamma x^(q^(k-1)),
gamma x^(q^k) at the evaluation basis lambda.  The parity-check matrix H
((4n-2k) x 2n) is built on the trace almost dual basis
mu = xi^(q^(2n-k)) lambda*, where lambda* is the trace-dual basis of lambda;
a word is a codeword exactly when its syndrome has zero relative trace.
G and H are packed (rows, 2n, 2n) arrays (field.py), built by batched
Frobenius maps and products.

A word w has the transform sigma_i = sum_j w_j (mu_j^(q^k))^(q^i), i in Z_2n:
one product with the table TZCode holds (TZCode._read).  H's rows are rows
1..2n-k-1 of that table and their gamma multiples, gamma^(q^(2n-k)) times
row 2n-k, and row 0, so the syndrome holds nothing sigma does not.  As
sum_j lambda_j^(q^i) lambda*_j = delta_i0, F_i(w) = sum_j w_j (lambda*_j)^(q^i)
are the coefficients of the q-polynomial that interpolates w on lambda, and
sigma_i = xi^(q^i) F_(k+i).  Split F_i = a_i + gamma b_i over F_{q^n}: w is
a codeword exactly when sigma_1..sigma_(2n-k-1) = 0, b_0 = 0 and a_k = 0,
and a_0, a_1, b_1, ..., b_k are its message.  TZCode._message tests this
and splits sigma_(i-k), i <= k, with k+1 F_q maps: it is the one membership
test, which is_codeword, unmap and the decoder read.

The code is also one F_q map, _enc_mat, from the 2kn subfield digits of a
message to the 4n^2 coefficients of its codeword, which encode and the
exhaustive oracles multiply by.  Every table is held in the field's work
dtype (FieldCtx._work), so products run through BLAS wherever it is
float32 or float64; N is also held as a public int64 array.
nu = lam^(q^k) xi^-1 is the trace-dual basis of mu^(q^k) = xi (lam*)^(q^k), so
sum_i nu_j^(q^i) sigma_i = e_j: the table N[j, i] = nu_j^(q^i) inverts the
transform.  The split maps and nu share the one inverse of xi^(q^(2n-k)).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, MessageNotInSubfield, NotACodeword, _check_integers
from .field import FF2n, Basis, FieldCtx
from .linalg import ff_mat_vec, fq_inv, fq_kernel

__all__ = [
    "find_gamma",
    "is_valid_gamma",
    "find_xi",
    "trace_almost_dual",
    "TZCode",
    "build_code",
    "gh_product",
]


def is_valid_gamma(ctx: FieldCtx, g: FF2n) -> bool:
    """True when the absolute norm of g is a non-square in F_q."""
    norm = ctx.norm_abs(g).as_base_int()
    return pow(norm, (ctx.q - 1) // 2, ctx.q) == ctx.q - 1


def find_gamma(ctx: FieldCtx) -> FF2n:
    """First element with non-square norm, in coefficient-lexicographic order past the
    q scalars, whose norms c^(2n) are squares."""
    for idx in range(ctx.q, ctx.q**ctx.m):
        g = ctx.element_from_index(idx)
        if is_valid_gamma(ctx, g):
            return g
    raise InvalidParameter("no element of non-square norm found")  # unreachable for odd q


def find_xi(ctx: FieldCtx, gamma: FF2n) -> FF2n:
    """A nonzero xi with zero relative trace of gamma*xi.

    The relative trace is F_q-linear with kernel an F_{q^n}-line; the first
    echelon kernel vector is taken as its generator eta, and xi = eta/gamma.
    """
    if gamma.is_zero():
        raise InvalidParameter("gamma must be nonzero")
    trace_map = (ctx._frob_rows[ctx.n] + ctx._frob_rows[0]).T % ctx.q
    kernel = fq_kernel(trace_map, ctx.q)
    eta = FF2n(ctx, kernel[0].copy())
    return eta / gamma


def _trace_form(ctx: FieldCtx) -> np.ndarray:
    """The F_q Gram matrix Tr(alpha^r alpha^s) of the power basis, r, s < 2n.

    Tr(alpha^d) for d <= 4n-2: the absolute trace lies in F_q, so it is the
    constant coefficient of the sum of all Frobenius images.
    """
    tr = (ctx._red @ ctx._frob_rows[:, :, 0].sum(axis=0).astype(np.int64)) % ctx.q
    power = np.arange(ctx.m)
    return tr[power[:, None] + power[None, :]]


def trace_almost_dual(ctx: FieldCtx, lam: Basis, xi: FF2n, k: int) -> Basis:
    """The unique basis mu with sum_j lam_j^(q^i) mu_j = xi^(q^(2n-k)) if i = 0, else 0.

    The trace-dual basis lam* (Tr(lam_i lam*_j) = delta_ij) satisfies
    sum_j lam_j^(q^i) lam*_j = delta_i0, so mu = xi^(q^(2n-k)) lam*.  With T
    the F_q Gram matrix T_ij = Tr(lam_i lam_j), lam* = T^-1 lam, which costs
    one 2n x 2n inversion over F_q.
    """
    if xi.is_zero():
        raise InvalidParameter("xi must be nonzero")
    q, m = ctx.q, ctx.m
    expansion = lam.expansion
    gram = (expansion.T @ _trace_form(ctx) % q @ expansion) % q
    dual = (expansion @ fq_inv(gram, q)) % q  # T is symmetric, so is T^-1
    return Basis(ctx.unpack(ctx.mul(xi.frobenius(m - k).coeffs, dual.T)))


def _twisted_rows(ctx: FieldCtx, elems: np.ndarray, gamma: FF2n, powers) -> np.ndarray:
    """The packed rows e^(q^i) and gamma e^(q^i) over elems, for each i in powers."""
    rows = ctx.frob(elems, np.array(powers, dtype=np.int64)[:, None])
    return np.stack([rows, ctx.mul(gamma.coeffs, rows)], axis=1).reshape(-1, *elems.shape)


def _split_maps(ctx: FieldCtx, gamma: FF2n, twists: np.ndarray) -> np.ndarray:
    """(len twists, 2n, 4n) F_q maps in ctx._work: map i takes x to (a | b), a + gamma b = tw_i x.

    a, b lie in F_(q^n): b = (f - f^(q^n)) / (gamma - gamma^(q^n)), a = f - gamma b, f = tw_i x.
    """
    q, n = ctx.q, ctx.n
    eye = np.eye(ctx.m, dtype=np.int64)
    conj_gap = ctx.inv((gamma.coeffs - ctx.frob(gamma.coeffs, n)) % q)
    to_b = (eye - ctx._frob_rows[n]) @ ctx.mul_matrix(conj_gap) % q
    to_a = (eye - to_b @ ctx.mul_matrix(gamma.coeffs)) % q
    return ctx._dot(ctx.mul_matrix(twists), np.concatenate([to_a, to_b], axis=1)).astype(ctx._work)


class TZCode:
    """A fully instantiated code: parameters, G, H, the transform tables, encoding helpers.

    Instances are immutable after construction: nothing, the exhaustive
    oracles included, attaches state to one, so it is safe for concurrent
    use.  Build through build_code rather than directly.
    """

    def __init__(self, ctx: FieldCtx, k: int, lam: Basis, gamma: FF2n, xi: FF2n, mu: Basis):
        self.ctx = ctx
        self.k = k
        self.lam = lam
        self.gamma = gamma
        self.xi = xi
        self.mu = mu

        m = ctx.m
        self.length = m
        self.min_distance = m - k + 1
        # (d-1)//2: odd k reaches it with any error; even k only with errors
        # over F_(q^n), generic ones decoding up to (2n-k-1)//2 = radius - 1
        self.radius = (m - k) // 2

        # x, x^(q^i) and gamma x^(q^i) for 0 < i < k, and gamma x^(q^k), at lam
        lam_elems = ctx.pack(lam)
        self.G = np.concatenate([
            lam_elems[None],
            _twisted_rows(ctx, lam_elems, gamma, range(1, k)),
            ctx.mul(gamma.coeffs, ctx.frob(lam_elems, k))[None],
        ])
        mu_elems = ctx.pack(mu)
        self.H = np.concatenate([
            ctx.mul(gamma.frobenius(m - k).coeffs, mu_elems)[None],
            _twisted_rows(ctx, mu_elems, gamma, range(k + 1, m)),
            ctx.frob(mu_elems, k)[None],
        ])
        # the transform table: row i is (mu^(q^k))^(q^i), one frob_powers
        powers = ctx.frob_powers(np.asarray(ctx.frob(mu_elems, k), ctx._work))
        self._transform_work = np.ascontiguousarray(powers.swapaxes(0, 1))

        # lam* = xi^(-q^(2n-k)) mu, and nu = (xi^(-q^(2n-k)) lam)^(q^k) is the
        # trace-dual basis of mu^(q^k): one inverse serves both
        xi_inv = ctx.inv(xi.frobenius(m - k).coeffs)
        nu = ctx.frob(ctx.mul(xi_inv, lam_elems), k)
        # N[j, i] = nu_j^(q^i) inverts the decoder's transform: one product of
        # nu with the field's Frobenius-power table
        self._N_work = ctx.frob_powers(np.asarray(nu, ctx._work))
        self.N = np.asarray(self._N_work, np.int64)
        # F_i = xi^(-q^(i-k)) sigma_(i-k), split into (a_i | b_i)
        self._split_work = _split_maps(ctx, gamma, ctx.frob(xi_inv, np.arange(k + 1)))

        # the code as one F_q map: row i*n + j holds the coefficients of the
        # codeword of the message with subfield_basis[j] at entry i, zero
        # elsewhere: G's row i through the multiplication matrix of that basis
        # element, which every entry of G shares.  Held in the work dtype: a
        # product with it sums at most 2kn <= 4n^2 products of reduced
        # entries, inside FieldCtx's bound
        by_basis = ctx._mul_factor(np.asarray(ctx._subfield_mat, ctx._work))
        rows = np.asarray(self.G, ctx._work)[:, None]
        self._enc_mat = ctx._mod(rows @ by_basis[None]).reshape(2 * k * ctx.n, m * m)

    def validate_message(self, msg) -> np.ndarray:
        """The packed (2k, 2n) message; MessageNotInSubfield unless it is 2k elements of F_(q^n)."""
        msg = tuple(msg)
        if len(msg) != 2 * self.k:
            raise MessageNotInSubfield(f"message needs {2 * self.k} entries, got {len(msg)}")
        self.ctx.check_elements(msg, "entry")
        packed = self.ctx.pack(msg)
        moved = (self.ctx.frob(packed, self.ctx.n) != packed).any(axis=1)
        if moved.any():
            bad = msg[int(np.argmax(moved))]
            raise MessageNotInSubfield(f"entry {bad!r} is not fixed by the q^n power map")
        return packed

    def encode(self, msg) -> tuple:
        """Codeword msg . G for a message over the subfield of linearity."""
        ctx = self.ctx
        digits = ctx.subfield_digits(self.validate_message(msg)).reshape(-1)
        flat = ctx._mod(digits.astype(ctx._work) @ self._enc_mat)
        return ctx.unpack(flat.reshape(self.length, -1))

    def pack_word(self, v) -> np.ndarray:
        """The packed word: ValueError on a wrong length, InvalidParameter on a foreign entry."""
        v = tuple(v)
        if len(v) != self.length:
            raise ValueError(f"word must have length {self.length}, got {len(v)}")
        self.ctx.check_elements(v, "entry")
        return self.ctx.pack(v)

    def _read(self, packed) -> np.ndarray:
        """The packed transform sigma_i, i in Z_2n, of a packed word: one product with the table."""
        return ff_mat_vec(self._transform_work, packed, self.ctx)

    def _message(self, sigma):
        """The packed message of the word with transform sigma; None unless it is a codeword.

        A codeword has sigma_1..sigma_(2n-k-1) = 0 and b_0 = a_k = 0 in the split of its
        sigma_(i-k), i <= k.  sigma's entries lie in (-q, q): one product, 2n terms a sum.
        """
        ctx, k = self.ctx, self.k
        if sigma[1 : ctx.m - k].any():
            return None
        low = np.asarray(sigma[np.arange(-k, 1)], ctx._work)
        ab = ctx._dot(low[:, None], self._split_work).reshape(-1, ctx.m)
        if ab[1].any() or ab[2 * k].any():
            return None
        return np.concatenate([ab[:1], ab[2 : 2 * k], ab[2 * k + 1 :]]).astype(np.int64)

    def unmap(self, cw) -> tuple:
        """The unique message encoding to cw; raises NotACodeword otherwise."""
        msg = self._message(self._read(self.pack_word(cw)))
        if msg is None:
            raise NotACodeword("vector is not in the code")
        return self.ctx.unpack(msg)

    def is_codeword(self, v) -> bool:
        """Membership, read off the transform of v (_message)."""
        return self._message(self._read(self.pack_word(v))) is not None

    def __repr__(self):
        return (
            f"TZCode(q={self.ctx.q}, n={self.ctx.n}, k={self.k}, "
            f"d={self.min_distance}, radius={self.radius})"
        )


def gh_product(code: TZCode) -> np.ndarray:
    """G H^T, packed: row i is the syndrome H g_i of G's row i."""
    return np.stack([ff_mat_vec(code.H, g, code.ctx) for g in code.G])


def _check_gh_structure(code: TZCode):
    """G H^T is zero but for (gamma xi)^(q^(2n-k)) and gamma xi at its two corners."""
    ctx = code.ctx
    expected = np.zeros((len(code.G), len(code.H), ctx.m), dtype=np.int64)
    expected[-1, -1] = (code.gamma * code.xi).coeffs
    expected[0, 0] = ctx.frob(expected[-1, -1], ctx.m - code.k)
    if not np.array_equal(gh_product(code), expected):
        raise InvalidParameter("generator/parity-check product violates its structure")


def build_code(ctx: FieldCtx, k: int, lam=None, gamma: FF2n | None = None,
               xi: FF2n | None = None) -> TZCode:
    """Instantiate a code, filling in any of lam, gamma, xi that were omitted.

    Supplied values must lie in ctx and satisfy their invariants, else
    InvalidParameter names them; G H^T's structure is checked before return.
    """
    _check_integers(k=k)
    if not 1 <= k <= ctx.m - 1:
        raise InvalidParameter(f"k must satisfy 1 <= k <= {ctx.m - 1}, got {k}")
    if lam is None:
        lam = ctx.power_basis
    elif not isinstance(lam, Basis):
        lam = Basis(lam)
    for name, value, kind in (("lam", lam, Basis), ("gamma", gamma, FF2n), ("xi", xi, FF2n)):
        if value is not None and not (isinstance(value, kind) and value.ctx == ctx):
            raise InvalidParameter(f"{name} ({value!r}) does not lie in {ctx!r}")
    if gamma is None:
        gamma = find_gamma(ctx)
    elif not is_valid_gamma(ctx, gamma):
        raise InvalidParameter("gamma must have non-square absolute norm")
    if xi is None:
        xi = find_xi(ctx, gamma)
    elif not ctx.trace_rel(gamma * xi).is_zero():
        raise InvalidParameter("gamma * xi must have zero relative trace")
    mu = trace_almost_dual(ctx, lam, xi, k)
    code = TZCode(ctx, k, lam, gamma, xi, mu)
    _check_gh_structure(code)
    return code

