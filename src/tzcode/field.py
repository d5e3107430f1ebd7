"""Exact arithmetic in the tower F_q < F_{q^n} < F_{q^2n}, q an odd prime.

An element of F_{q^2n} is a length-2n coefficient vector over F_q in the
power basis of alpha, where alpha is a root of the defining modulus f, a
monic irreducible polynomial of degree 2n over F_q.  Coefficient index i
holds the coefficient of alpha^i.  Vectors are stored as read-only numpy
int64 arrays with entries reduced into [0, q).

All polynomial arithmetic mod f goes through one reduction table, the rows
x^d mod f for d <= 4n-2: a product is a convolution folded through it.
The same table serves the Rabin irreducibility test of each candidate
modulus.  The Frobenius map a -> a^q is the 2n x 2n matrix whose columns
are (x^q)^j, with x^q mod f found by square-and-multiply; it and its
powers are applied as single matrix-vector products, never by field
exponentiation.  Inversion is Itoh-Tsujii: the conorm
b = a^(q + ... + q^(2n-1)) comes from an addition chain of about
2 log2(2n) products, N(a) = a b lies in F_q, and a^-1 = b N(a)^-1; the
absolute norm is the same a b.  Every fold stays exact in int64 only
while 2n(q-1)^2 + n(2n-1)(q-1)^3 < 2^63, which FieldCtx checks first.
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
# F_q[x]/(f) through its reduction table
# ---------------------------------------------------------------------------

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


def _reduction_table(q, modulus) -> np.ndarray:
    """Row d is x^d mod modulus, for d = 0 .. 2m-2: it folds any raw product."""
    m = len(modulus) - 1
    low = np.array(modulus[:m], dtype=np.int64)
    red = np.zeros((2 * m - 1, m), dtype=np.int64)
    red[0, 0] = 1
    for d in range(1, 2 * m - 1):
        carry = red[d - 1, m - 1]
        red[d, 1:] = red[d - 1, : m - 1]
        red[d] = (red[d] - carry * low) % q
    return red


def _rabin(q, coeffs):
    """Rabin test of a monic polynomial of degree m >= 2 over F_q.

    Returns (reduction table, Frobenius matrix) when it is irreducible, else
    None.  The Frobenius matrix has columns (x^q)^j, with x^q mod f found by
    square-and-multiply.  f is irreducible exactly when x^(q^m) = x and, for
    each prime p | m, x^(q^(m/p)) - x is coprime to f; gcd(f, g) = 1 exactly
    when multiplication by g is bijective on F_q[x]/(f), so coprimality is a
    full-rank test of g's multiplication matrix, whose rows are g x^j.
    """
    from .linalg import fq_rank  # local import avoids a cycle

    m = len(coeffs) - 1
    if coeffs[0] == 0:
        return None  # divisible by x
    red = _reduction_table(q, coeffs)

    def mul(a, b):
        return (np.convolve(a, b) @ red) % q

    x = red[1]
    xq = x
    for bit in bin(q)[3:]:
        xq = mul(xq, xq)
        if bit == "1":
            xq = mul(xq, x)
    cols = [red[0]]
    for _ in range(m - 1):
        cols.append(mul(cols[-1], xq))
    frob = np.stack(cols, axis=1)

    x_qi = [x]  # x^(q^i) for i = 0 .. m
    for _ in range(m):
        x_qi.append((frob @ x_qi[-1]) % q)
    if not np.array_equal(x_qi[m], x):
        return None
    for p in _prime_factors(m):
        g = (x_qi[m // p] - x) % q
        if fq_rank(np.stack([mul(g, x_j) for x_j in red[:m]]), q) != m:
            return None
    return red, frob


def default_modulus(q, m):
    """First monic irreducible of degree m in coefficient-lexicographic order.

    Candidates are enumerated by counting the non-leading coefficients as
    base-q digits with the constant term least significant, so the search is
    reproducible across runs and implementations.
    """
    for idx in range(q**m):
        coeffs = [(idx // q**i) % q for i in range(m)] + [1]
        if _rabin(q, coeffs) is not None:
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
        if n < 1:
            raise InvalidParameter(f"n must be positive, got {n}")
        # _mul folds a raw product c = a*b (entries < q) through the table:
        # with m = 2n, c_d sums at most min(d+1, 2m-1-d) terms below (q-1)^2;
        # output i takes c_i itself (d < m, at most m (q-1)^2) plus
        # c_d * (x^d mod f)_i for d = m .. 2m-2, at most
        # (q-1)^3 (1 + ... + (m-1)) = n(2n-1)(q-1)^3.  All of it stays in int64
        # only while 2n(q-1)^2 + n(2n-1)(q-1)^3 < 2^63.
        if 2 * n * (q - 1) ** 2 + n * (2 * n - 1) * (q - 1) ** 3 >= 2**63:
            raise InvalidParameter(f"q={q}, n={n} overflows int64 field arithmetic")
        if not _is_prime(q) or q == 2:
            raise UnsupportedCharacteristic(f"q must be an odd prime, got {q}")
        self.q = q
        self.n = n
        self.m = m = 2 * n
        if modulus is None:
            modulus = default_modulus(q, m)
        modulus = [int(c) % q for c in modulus]
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise InvalidParameter(
                f"modulus must be monic of degree {m}, got coefficients {modulus}"
            )
        tables = _rabin(q, modulus)
        if tables is None:
            raise InvalidParameter("modulus is not irreducible over F_q")
        self.modulus = tuple(modulus)
        self._red, frob = tables
        pows = [np.eye(m, dtype=np.int64)]
        for _ in range(m - 1):
            pows.append((frob @ pows[-1]) % q)
        self._frob_pows = pows

        self.zero = FF2n(self, np.zeros(m, dtype=np.int64))
        self.one = FF2n(self, self._red[0].copy())
        self.alpha = FF2n(self, self._red[1].copy())
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
        """Absolute norm onto F_q: a times its conorm, the other 2n-1 Frobenius images."""
        return FF2n(self, self._mul(a.coeffs, self._conorm(a.coeffs)))

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
            # rows x^0 .. x^(2n-1) of the reduction table are the unit vectors
            self._power_basis = Basis(FF2n(self, x_d.copy()) for x_d in self._red[: self.m])
        return self._power_basis

    # -- raw coefficient arithmetic --------------------------------------------

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        conv = np.convolve(a, b)
        return (conv @ self._red[: conv.shape[0]]) % self.q

    def _conorm(self, a: np.ndarray) -> np.ndarray:
        """a^(q + q^2 + ... + q^(2n-1)), by the Itoh-Tsujii addition chain.

        With e_j = 1 + q + ... + q^(j-1), x = a^(e_j) steps to a^(e_2j) as
        x * x^(q^j) and to a^(e_(j+1)) as a * x^q, following the bits of 2n-1;
        about 2 log2(2n) products and as many Frobenius matrix-vector products.
        """
        q, pows = self.q, self._frob_pows
        x, j = a, 1
        for bit in bin(self.m - 1)[3:]:
            x = self._mul(x, (pows[j] @ x) % q)
            j *= 2
            if bit == "1":
                x = self._mul(a, (pows[1] @ x) % q)
                j += 1
        return (pows[1] @ x) % q

    def _inv(self, a: np.ndarray) -> np.ndarray:
        """a^-1 = b / N(a), b the conorm: N(a) = a b lies in F_q."""
        if not a.any():
            raise DivisionByZero("inverse of zero")
        b = self._conorm(a)
        norm = int(self._mul(a, b)[0])
        return (b * pow(norm, self.q - 2, self.q)) % self.q

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
            and (self.ctx is other.ctx or self.ctx == other.ctx)
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
