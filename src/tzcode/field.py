"""Exact arithmetic in the tower F_q < F_{q^n} < F_{q^2n}, q an odd prime.

An element of F_{q^2n} is a length-2n coefficient vector over F_q in the
power basis of alpha, where alpha is a root of the defining modulus, a
monic irreducible polynomial of degree 2n over F_q.  Coefficient index i
holds the coefficient of alpha^i.  Vectors are stored as read-only numpy
int64 arrays with entries reduced into [0, q).

The Frobenius map a -> a^q is applied through a precomputed 2n x 2n
matrix over F_q (and its cached powers), never by field exponentiation;
the decoder applies thousands of q-power maps and this keeps each one a
single matrix-vector product.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DivisionByZero,
    InvalidParameter,
    SingularMatrix,
    UnsupportedCharacteristic,
)

__all__ = [
    "FieldCtx",
    "FF2n",
    "Basis",
    "qvan",
    "ext",
    "ext_inv",
    "rank_weight",
]


# ---------------------------------------------------------------------------
# polynomial helpers over F_q (dense int lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return p[: d + 1]


def _poly_divmod(a, b, q):
    """Quotient and remainder of a by b over F_q.  b must be nonzero."""
    a = list(a)
    b = _poly_trim(list(b))
    db = len(b) - 1
    inv_lead = pow(int(b[db]), q - 2, q)
    quo = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1 - db, -1, -1):
        c = (a[i + db] * inv_lead) % q
        if c:
            quo[i] = c
            for j in range(db + 1):
                a[i + j] = (a[i + j] - c * b[j]) % q
    return _poly_trim(quo), _poly_trim(a)


def _poly_gcd(a, b, q):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b != [0]:
        _, r = _poly_divmod(a, b, q)
        a, b = b, r
    # normalize monic
    lead = a[-1]
    if lead not in (0, 1):
        inv = pow(lead, q - 2, q)
        a = [(c * inv) % q for c in a]
    return a


def _is_prime(v):
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    f = 3
    while f * f <= v:
        if v % f == 0:
            return False
        f += 2
    return True


def _prime_factors(v):
    out = []
    f = 2
    while f * f <= v:
        if v % f == 0:
            out.append(f)
            while v % f == 0:
                v //= f
        f += 1
    if v > 1:
        out.append(v)
    return out


def _frobenius_matrix(q, modulus):
    """Matrix of a -> a^q on F_q[x]/(modulus), columns are x^(jq) mod modulus."""
    m = len(modulus) - 1
    # x^d mod modulus for d up to (m-1)*q, built by shift-and-reduce
    rows = np.zeros(((m - 1) * q + 1, m), dtype=np.int64)
    rows[0, 0] = 1
    cur = [0] * m
    cur[0] = 1
    for d in range(1, (m - 1) * q + 1):
        nxt = [0] + cur[: m - 1]
        carry = cur[m - 1]
        if carry:
            for j in range(m):
                nxt[j] = (nxt[j] - carry * modulus[j]) % q
        cur = nxt
        rows[d] = cur
    frob = np.zeros((m, m), dtype=np.int64)
    for j in range(m):
        frob[:, j] = rows[j * q]
    return frob


def _poly_is_irreducible(q, coeffs):
    """Rabin test for a monic polynomial of degree m over F_q."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[m] != 1:
        return False
    if coeffs[0] == 0:
        return False  # divisible by x
    frob = _frobenius_matrix(q, coeffs)
    x_vec = np.zeros(m, dtype=np.int64)
    x_vec[1 % m] = 1
    if m == 1:
        return True
    # x^(q^m) == x mod f
    power = np.eye(m, dtype=np.int64)
    powers = {}
    for i in range(1, m + 1):
        power = (frob @ power) % q
        powers[i] = power
    if not np.array_equal((powers[m] @ x_vec) % q, x_vec):
        return False
    for p in _prime_factors(m):
        d = m // p
        g = (powers[d] @ x_vec) % q
        diff = [int(c) for c in (g - x_vec) % q]
        if _poly_gcd(coeffs, diff, q) != [1]:
            return False
    return True


def default_modulus(q, m):
    """First monic irreducible of degree m in coefficient-lexicographic order.

    Candidates are enumerated by counting the non-leading coefficients as
    base-q digits with the constant term least significant, so the search is
    reproducible across runs and implementations.
    """
    for idx in range(q**m):
        coeffs = [(idx // q**i) % q for i in range(m)] + [1]
        if _poly_is_irreducible(q, coeffs):
            return coeffs
    raise InvalidParameter(f"no irreducible polynomial of degree {m} over F_{q}")


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

class FieldCtx:
    """The tower F_q < F_{q^n} < F_{q^2n} with its precomputed Frobenius tables.

    Immutable after construction and safe to share across threads.
    """

    def __init__(self, q: int, n: int, modulus=None):
        if not _is_prime(q) or q == 2:
            raise UnsupportedCharacteristic(f"q must be an odd prime, got {q}")
        if n < 1:
            raise InvalidParameter(f"n must be positive, got {n}")
        self.q = q
        self.n = n
        self.m = 2 * n
        if modulus is None:
            modulus = default_modulus(q, self.m)
        modulus = [int(c) % q for c in modulus]
        if len(modulus) != self.m + 1 or modulus[self.m] != 1:
            raise InvalidParameter(
                f"modulus must be monic of degree {self.m}, got coefficients {modulus}"
            )
        if not _poly_is_irreducible(q, modulus):
            raise InvalidParameter("modulus is not irreducible over F_q")
        self.modulus = tuple(modulus)

        m = self.m
        mod_arr = np.array(modulus, dtype=np.int64)
        # x^d mod modulus for d = 0 .. 2m-2, used to fold raw products
        red = np.zeros((2 * m - 1, m), dtype=np.int64)
        red[0, 0] = 1
        cur = np.zeros(m, dtype=np.int64)
        cur[0] = 1
        for d in range(1, 2 * m - 1):
            nxt = np.roll(cur, 1)
            carry = cur[m - 1]
            nxt[0] = 0
            if carry:
                nxt = (nxt - carry * mod_arr[:m]) % q
            cur = nxt
            red[d] = cur
        self._red = red

        frob = _frobenius_matrix(q, list(self.modulus))
        pows = [np.eye(m, dtype=np.int64)]
        for _ in range(m - 1):
            pows.append((frob @ pows[-1]) % q)
        self.frob_table = frob
        self._frob_pows = pows
        if not np.array_equal((frob @ pows[-1]) % q, pows[0]):
            raise InvalidParameter("Frobenius table does not have order 2n")

        self.zero = FF2n(self, np.zeros(m, dtype=np.int64))
        self.one = FF2n(self, red[0].copy())
        alpha = np.zeros(m, dtype=np.int64)
        alpha[1] = 1
        self.alpha = FF2n(self, alpha)
        self._power_basis = None

        from .linalg import fq_kernel, fq_solve  # local import avoids a cycle

        # echelon-canonical F_q-basis of F_{q^n} inside F_{q^2n}, and a right
        # inverse that reads an element's digits in that basis back off
        sub = fq_kernel((pows[n] - pows[0]) % q, q)
        if sub.shape[0] != n:
            raise InvalidParameter("subfield of the stated degree not found")
        self._subfield_mat = sub
        self._subfield_coords = fq_solve(sub, np.eye(n, dtype=np.int64), q)
        self.subfield_basis = self.subfield_elements(np.eye(n, dtype=np.int64))

    # -- element constructors ------------------------------------------------

    def elem(self, coeffs) -> "FF2n":
        arr = np.asarray(list(coeffs), dtype=np.int64) % self.q
        if arr.shape != (self.m,):
            raise InvalidParameter(f"element needs {self.m} coefficients, got {arr.shape}")
        return FF2n(self, arr)

    def scalar(self, c: int) -> "FF2n":
        arr = np.zeros(self.m, dtype=np.int64)
        arr[0] = c % self.q
        return FF2n(self, arr)

    def element_from_index(self, idx: int) -> "FF2n":
        """Element whose coefficients are the base-q digits of idx, c0 least significant."""
        arr = np.zeros(self.m, dtype=np.int64)
        for i in range(self.m):
            arr[i] = idx % self.q
            idx //= self.q
        return FF2n(self, arr)

    def elements(self):
        """All q^2n elements in index order.  Only sensible for tiny fields."""
        for idx in range(self.q**self.m):
            yield self.element_from_index(idx)

    def random_element(self, rng) -> "FF2n":
        return FF2n(self, rng.integers(0, self.q, self.m, dtype=np.int64))

    # -- maps ------------------------------------------------------------------

    def frobenius(self, a: "FF2n", i: int) -> "FF2n":
        """a^(q^i), i reduced mod 2n; negative i inverts the map."""
        return FF2n(self, (self._frob_pows[i % self.m] @ a.coeffs) % self.q)

    def trace_rel(self, a: "FF2n") -> "FF2n":
        """Relative trace onto F_{q^n}: a + a^(q^n)."""
        return FF2n(self, (a.coeffs + (self._frob_pows[self.n] @ a.coeffs)) % self.q)

    def norm_abs(self, a: "FF2n") -> "FF2n":
        """Absolute norm onto F_q: product of all 2n Frobenius images."""
        out = self.one
        for i in range(self.m):
            out = out * self.frobenius(a, i)
        return out

    def in_subfield(self, a: "FF2n") -> bool:
        """Membership in F_{q^n}, tested as a^(q^n) == a."""
        return np.array_equal((self._frob_pows[self.n] @ a.coeffs) % self.q, a.coeffs)

    def subfield_elements(self, digits) -> tuple:
        """Elements sum_j d_j subfield_basis[j], one per row of a (..., n) digit array."""
        digits = np.asarray(digits, dtype=np.int64).reshape(-1, self.n)
        coeffs = (digits @ self._subfield_mat) % self.q
        return tuple(FF2n(self, c) for c in coeffs)

    def subfield_digits(self, elems) -> np.ndarray:
        """(len(elems), n) digits in subfield_basis; the inverse of subfield_elements.

        Valid only for elements of F_{q^n}.
        """
        return (np.stack([e.coeffs for e in elems]) @ self._subfield_coords) % self.q

    @property
    def power_basis(self) -> "Basis":
        if self._power_basis is None:
            elems = []
            arr = np.zeros(self.m, dtype=np.int64)
            for i in range(self.m):
                arr[:] = 0
                arr[i] = 1
                elems.append(FF2n(self, arr.copy()))
            self._power_basis = Basis(elems)
        return self._power_basis

    # -- raw coefficient arithmetic --------------------------------------------

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        conv = np.convolve(a, b)
        return (conv @ self._red[: conv.shape[0]]) % self.q

    def _inv(self, a: np.ndarray) -> np.ndarray:
        if not a.any():
            raise DivisionByZero("inverse of zero")
        # extended Euclid in F_q[x] against the modulus
        q = self.q
        r0, r1 = list(self.modulus), _poly_trim([int(c) for c in a])
        s0, s1 = [0], [1]
        while r1 != [0]:
            quo, rem = _poly_divmod(r0, r1, q)
            r0, r1 = r1, rem
            prod = [0] * (len(quo) + len(s1) - 1)
            for i, qc in enumerate(quo):
                if qc:
                    for j, sc in enumerate(s1):
                        prod[i + j] = (prod[i + j] + qc * sc) % q
            diff = [0] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                diff[i] = c
            for i, c in enumerate(prod):
                diff[i] = (diff[i] - c) % q
            s0, s1 = s1, _poly_trim(diff)
        inv_lead = pow(r0[-1], q - 2, q)
        out = np.zeros(self.m, dtype=np.int64)
        for i, c in enumerate(s0):
            out[i] = (c * inv_lead) % q
        return out

    def __repr__(self):
        return f"FieldCtx(q={self.q}, n={self.n}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.q == other.q
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.n, self.modulus))


class FF2n:
    """One element of F_{q^2n} as a coefficient vector in the power basis."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: np.ndarray):
        coeffs.setflags(write=False)
        self.ctx = ctx
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other: "FF2n") -> "FF2n":
        return FF2n(self.ctx, (self.coeffs + other.coeffs) % self.ctx.q)

    def __sub__(self, other: "FF2n") -> "FF2n":
        return FF2n(self.ctx, (self.coeffs - other.coeffs) % self.ctx.q)

    def __neg__(self) -> "FF2n":
        return FF2n(self.ctx, (-self.coeffs) % self.ctx.q)

    def __mul__(self, other: "FF2n") -> "FF2n":
        return FF2n(self.ctx, self.ctx._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other: "FF2n") -> "FF2n":
        return FF2n(self.ctx, self.ctx._mul(self.coeffs, self.ctx._inv(other.coeffs)))

    def inverse(self) -> "FF2n":
        return FF2n(self.ctx, self.ctx._inv(self.coeffs))

    def __pow__(self, e: int) -> "FF2n":
        """Square-and-multiply exponentiation; negative e inverts first."""
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ctx.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def frobenius(self, i: int) -> "FF2n":
        return self.ctx.frobenius(self, i)

    def scale(self, c: int) -> "FF2n":
        """Multiplication by an F_q scalar given as an int."""
        return FF2n(self.ctx, (self.coeffs * (c % self.ctx.q)) % self.ctx.q)

    def as_base_int(self) -> int:
        """The element as an int, valid only for elements of F_q."""
        if self.coeffs[1:].any():
            raise InvalidParameter("element does not lie in the base field")
        return int(self.coeffs[0])

    def __eq__(self, other):
        return (
            isinstance(other, FF2n)
            and self.ctx is other.ctx
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self):
        return f"FF2n({list(int(c) for c in self.coeffs)})"

    def __str__(self):
        terms = []
        for i in range(self.ctx.m - 1, -1, -1):
            c = int(self.coeffs[i])
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("a" if c == 1 else f"{c}a")
            else:
                terms.append(f"a^{i}" if c == 1 else f"{c}a^{i}")
        return " + ".join(terms) if terms else "0"


class Basis:
    """An ordered F_q-basis of F_{q^2n} with cached coordinate maps."""

    def __init__(self, elems):
        elems = tuple(elems)
        ctx = elems[0].ctx
        if len(elems) != ctx.m:
            raise InvalidParameter(f"basis needs {ctx.m} elements, got {len(elems)}")
        expansion = np.stack([e.coeffs for e in elems], axis=1) % ctx.q
        from .linalg import fq_inv  # local import avoids a cycle

        try:
            inv = fq_inv(expansion, ctx.q)
        except SingularMatrix:
            raise InvalidParameter("elements are not an F_q-basis") from None
        self.ctx = ctx
        self.elems = elems
        self.expansion = expansion
        self._inv_expansion = inv

    def coords(self, a: FF2n) -> np.ndarray:
        return (self._inv_expansion @ a.coeffs) % self.ctx.q

    def from_coords(self, v) -> FF2n:
        arr = (self.expansion @ (np.asarray(v, dtype=np.int64) % self.ctx.q)) % self.ctx.q
        return FF2n(self.ctx, arr)

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __eq__(self, other):
        return isinstance(other, Basis) and self.elems == other.elems

    def __repr__(self):
        return f"Basis({list(self.elems)})"


# ---------------------------------------------------------------------------
# derived constructions
# ---------------------------------------------------------------------------

def qvan(a, s: int):
    """The s x len(a) Moore matrix: row i is the entrywise q^i power of a."""
    if s < 1:
        raise InvalidParameter("Moore matrix needs at least one row")
    a = list(a)
    rows = [a]
    for _ in range(s - 1):
        rows.append([x.frobenius(1) for x in rows[-1]])
    return rows


def ext(x, basis: Basis) -> np.ndarray:
    """Matrix expansion by columns: column j holds the basis coordinates of x[j]."""
    x = list(x)
    if not x:
        return np.zeros((basis.ctx.m, 0), dtype=np.int64)
    return np.stack([basis.coords(v) for v in x], axis=1)


def ext_inv(mat: np.ndarray, basis: Basis):
    """Inverse of ext: rebuild the field vector from a coordinate matrix."""
    return tuple(basis.from_coords(mat[:, j]) for j in range(mat.shape[1]))


def rank_weight(x) -> int:
    """Dimension over F_q of the span of the entries of x."""
    x = list(x)
    if not x:
        return 0
    from .linalg import fq_rank

    stack = np.stack([v.coeffs for v in x])
    return fq_rank(stack, x[0].ctx.q)
