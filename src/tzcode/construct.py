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

The code is also one F_q-linear map, _enc_mat, from the 2kn subfield digits
of a message to the 4n^2 coefficients of its codeword.  encode multiplies by
it.  Its left inverse, msg_left_inverse, is not found by elimination: it is
read off the trace-dual basis lambda* in closed form.  A codeword is
c_j = f(lambda_j) for the linearized polynomial f = sum_i f_i x^(q^i) of its
message, and sum_j lambda_j^(q^i) lambda*_j = delta_i0 gives
f_i = sum_j c_j (lambda*_j)^(q^i); splitting f_i = a_i + gamma b_i over
F_{q^n} gives the message entries.  The single membership test reads a
packed word's digits off that left inverse and accepts the word when
re-applying _enc_mat gives it back; unmap, is_codeword and the decoder all
use it, on words that pack_word has checked for length and field.  Both
maps are held once, in the field's work dtype (FieldCtx._work), so their
products run through BLAS wherever that dtype is float64; digits and
codewords leave them as int64.  H and the decoder's table N are held twice,
as the public int64 arrays and as private work-dtype copies that the
decoder's products take uncast.

The decoder recovers an error e from its transform
sigma_i = sum_j e_j (mu_j^(q^k))^(q^i), i in Z_2n.  nu = lam^(q^k) xi^-1 is
the trace-dual basis of mu^(q^k) = xi (lam*)^(q^k), so
sum_i nu_j^(q^i) sigma_i = sum_l e_l Tr(nu_j mu_l^(q^k)) = e_j: TZCode
holds the packed table N[j, i] = nu_j^(q^i), and N sigma is the error.  The
same duality gives the coordinates of an element x in the basis mu^(q^k),
Tr(x nu_j), with no inversion (mu_k_coords).  lam*, which the left inverse
reads, and nu share the one inverse of xi^(q^(2n-k)).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, MessageNotInSubfield, NotACodeword
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
    """First element with non-square norm, in coefficient-lexicographic order."""
    for idx in range(ctx.q**ctx.m):
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
    trace_map = (ctx._frob_pows[ctx.n] + ctx._frob_pows[0]) % ctx.q
    kernel = fq_kernel(trace_map, ctx.q)
    eta = FF2n(ctx, kernel[0].copy())
    return eta / gamma


def _trace_form(ctx: FieldCtx) -> np.ndarray:
    """The F_q Gram matrix Tr(alpha^r alpha^s) of the power basis, r, s < 2n.

    Tr(alpha^d) for d <= 4n-2: the absolute trace lies in F_q, so it is the
    constant coefficient of the sum of all Frobenius images.
    """
    tr = (ctx._red @ sum(ctx._frob_pows)[0]) % ctx.q
    power = np.arange(ctx.m)
    return tr[power[:, None] + power[None, :]]


def trace_almost_dual(ctx: FieldCtx, lam, xi: FF2n, k: int) -> Basis:
    """The unique basis mu with sum_j lam_j^(q^i) mu_j = xi^(q^(2n-k)) if i = 0, else 0.

    The trace-dual basis lam* (Tr(lam_i lam*_j) = delta_ij) satisfies
    sum_j lam_j^(q^i) lam*_j = delta_i0, so mu = xi^(q^(2n-k)) lam*.  With T
    the F_q Gram matrix T_ij = Tr(lam_i lam_j), lam* = T^-1 lam, which costs
    one 2n x 2n inversion over F_q.
    """
    if xi.is_zero():
        raise InvalidParameter("xi must be nonzero")
    q, m = ctx.q, ctx.m
    expansion = np.stack([e.coeffs for e in lam], axis=1)
    gram = (expansion.T @ _trace_form(ctx) % q @ expansion) % q
    dual = (expansion @ fq_inv(gram, q)) % q  # T is symmetric, so is T^-1
    return Basis(ctx.unpack(ctx.mul(xi.frobenius(m - k).coeffs, dual.T)))


def _twisted_rows(ctx: FieldCtx, elems: np.ndarray, gamma: FF2n, powers) -> np.ndarray:
    """The packed rows e^(q^i) and gamma e^(q^i) over elems, for each i in powers."""
    rows = ctx.frob(elems, np.array(powers, dtype=np.int64)[:, None])
    return np.stack([rows, ctx.mul(gamma.coeffs, rows)], axis=1).reshape(-1, *elems.shape)


def _message_left_inverse(ctx: FieldCtx, k: int, gamma: FF2n, dual: np.ndarray) -> np.ndarray:
    """The (4n^2, 2kn) F_q map from a word's coefficients to its message digits, in ctx._work.

    dual is lam* packed in ctx._work.  The unit word alpha^r at entry j has
    f_i = alpha^r (lam*_j)^(q^i), row r of the multiplication matrix of
    (lam*_j)^(q^i).  b = (f - f^(q^n)) / (gamma - gamma^(q^n)) and a = f - gamma b
    are F_q maps on coefficient rows, folded into the subfield digit map; the
    message is a_0, a_1, b_1, ..., a_(k-1), b_(k-1), b_k.
    """
    q, n, m = ctx.q, ctx.n, ctx.m
    f = ctx.mul_matrix(ctx.frob(dual, np.arange(k + 1)[:, None]))  # [i, j, r]: row r of f_i
    eye = np.eye(m, dtype=np.int64)
    conj_gap = ctx.inv((gamma.coeffs - ctx.frob(gamma.coeffs, n)) % q)
    to_b = (eye - ctx._frob_rows[n]) @ ctx.mul_matrix(conj_gap) % q
    to_a = (eye - to_b @ ctx.mul_matrix(gamma.coeffs)) % q
    to_digits = np.stack([to_a, to_b], axis=1) @ ctx._subfield_coords % q  # [row, (a, b), digit]
    ab = ctx._dot(f, to_digits.reshape(m, 2 * n)).reshape(k + 1, m, m, 2, n)
    ab = ab.transpose(1, 2, 0, 3, 4).reshape(m * m, 2 * k + 2, n)  # [j r, i (a, b), digit]
    keep = np.r_[0, 2:2 * k, 2 * k + 1]  # drop b_0 and a_k
    return ab[:, keep].reshape(m * m, 2 * k * n)


class TZCode:
    """A fully instantiated code: parameters, G, H, the transform table N, encoding helpers.

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

        m, q = ctx.m, ctx.q
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
        # H and N (below) are also held in the work dtype, in which the
        # decoder's syndrome and inverse transform multiply by them
        self._H_work = np.asarray(self.H, ctx._work)

        # lam* = xi^(-q^(2n-k)) mu, and nu = (xi^(-q^(2n-k)) lam)^(q^k) is the
        # trace-dual basis of mu^(q^k): one inverse serves both
        xi_inv = ctx.inv(xi.frobenius(m - k).coeffs)
        nu = ctx.frob(ctx.mul(xi_inv, lam_elems), k)
        # N[j, i] = nu_j^(q^i) inverts the decoder's transform: one product of
        # nu with the field's Frobenius-power table.  mu^(q^k) by columns plants
        # the locators d = B mu^(q^k), and the coordinates of x in that basis
        # are Tr(x nu_j), which rebuild B from the locators
        self._N_work = ctx.frob_powers(np.asarray(nu, ctx._work))
        self.N = np.asarray(self._N_work, np.int64)
        self.mu_k = (ctx._frob_pows[k] @ mu.expansion) % q
        self.mu_k_coords = nu @ _trace_form(ctx) % q

        # the code as one F_q map: row i*n + j holds the coefficients of the
        # codeword of the message with subfield_basis[j] at entry i, zero
        # elsewhere: G's row i through the multiplication matrix of that basis
        # element, which every entry of G shares.  Both maps are held once, in
        # the work dtype: a product with either sums at most 4n^2 products of
        # reduced entries, inside FieldCtx's bound
        by_basis = ctx.mul_matrix(np.asarray(ctx.pack(ctx.subfield_basis), ctx._work))
        self._enc_mat = ctx._mod(self.G[:, None] @ by_basis[None]).reshape(2 * k * ctx.n, m * m)
        dual = np.asarray(ctx.mul(xi_inv, mu_elems), ctx._work)
        self.msg_left_inverse = _message_left_inverse(ctx, k, gamma, dual)

    def check_context(self, vec):
        """Raise InvalidParameter unless every entry is an element of the code's field."""
        ctx = self.ctx
        for e in vec:
            if not isinstance(e, FF2n):
                raise InvalidParameter(f"entry {e!r} is not a field element")
            if e.ctx is not ctx and e.ctx != ctx:
                raise InvalidParameter(f"entry {e!r} lies in {e.ctx!r}, not in {ctx!r}")

    def validate_message(self, msg) -> np.ndarray:
        """The packed (2k, 2n) message; MessageNotInSubfield unless it is 2k elements of F_(q^n)."""
        msg = tuple(msg)
        if len(msg) != 2 * self.k:
            raise MessageNotInSubfield(f"message needs {2 * self.k} entries, got {len(msg)}")
        self.check_context(msg)
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
        flat = ctx._mod(digits @ self._enc_mat)
        return ctx.unpack(flat.reshape(self.length, -1))

    def pack_word(self, v) -> np.ndarray:
        """The packed word: ValueError on a wrong length, InvalidParameter on a foreign entry."""
        v = tuple(v)
        if len(v) != self.length:
            raise ValueError(f"word must have length {self.length}, got {len(v)}")
        self.check_context(v)
        return self.ctx.pack(v)

    def _message_digits(self, packed):
        """Digits of the message encoding to a packed word, or None when it is not a codeword.

        Both products run in the work dtype of the maps; the digits leave as int64.
        """
        ctx = self.ctx
        flat = packed.reshape(-1)
        digits = ctx._mod(flat @ self.msg_left_inverse)
        if not np.array_equal(ctx._mod(digits @ self._enc_mat), flat):
            return None
        return np.asarray(digits, np.int64)

    def unmap(self, cw) -> tuple:
        """The unique message encoding to cw; raises NotACodeword otherwise."""
        digits = self._message_digits(self.pack_word(cw))
        if digits is None:
            raise NotACodeword("vector is not in the code")
        return self.ctx.subfield_elements(digits)

    def is_codeword(self, v) -> bool:
        """Membership: v is the encoding of the digits its left inverse reads off."""
        return self._message_digits(self.pack_word(v)) is not None

    def __repr__(self):
        return (
            f"TZCode(q={self.ctx.q}, n={self.ctx.n}, k={self.k}, "
            f"d={self.min_distance}, radius={self.radius})"
        )


def gh_product(code: TZCode) -> np.ndarray:
    """G H^T, packed: row i is the syndrome H g_i of G's row i."""
    return np.stack([ff_mat_vec(code._H_work, g, code.ctx) for g in code.G])


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

    Supplied values are validated against their invariants; the structure of
    G H^T is checked before the instance is returned.
    """
    if not 1 <= k <= ctx.m - 1:
        raise InvalidParameter(f"k must satisfy 1 <= k <= {ctx.m - 1}, got {k}")
    if lam is None:
        lam = ctx.power_basis
    elif not isinstance(lam, Basis):
        lam = Basis(lam)
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

