"""Exact arithmetic in the tower F_q < F_{q^n} < F_{q^2n}, q an odd prime.

An element of F_{q^2n} is a length-2n coefficient vector over F_q in the
power basis of alpha, where alpha is a root of the defining modulus f, a
monic irreducible polynomial of degree 2n over F_q.  Coefficient index i
holds the coefficient of alpha^i, reduced into [0, q).

Inside the library a vector or matrix over F_{q^2n} is one packed array
of shape (..., 2n) in the field's work dtype, FieldCtx._work; FF2n is the
scalar view the public API hands out and takes back.  FieldCtx.pack reads
an array or a flat sequence of elements into one work-dtype array, and
unpack hands out the rows of one read-only int64 copy.  Every FF2n holds
a read-only int64 array of shape (2n,), reduced into [0, q), whatever
array it is built from, so that two elements are equal, and hash alike,
exactly when their fields and their coefficient bytes are equal.  The
FieldCtx kernels broadcast over the leading axes:

* mul_matrix: the 2n x 2n matrices M(a) with v M(a) = a v, one matmul of
  a with the multiplication table, whose row d holds M(x^d) (row u of it
  is x^(d+u) mod f).  Every product goes through it: each elimination
  pivot, the matrix-vector product, the span read and the span's term
  matrices;
* mul: a b as a M(b), M taken of the operand with fewer entries: one table
  product, one batched row product and one reduction;
* frob: a^(q^i) as one matmul with the i-th of the stacked Frobenius
  powers, the powers of the map whose row j is (x^q)^j, with x^q mod f
  found by square-and-multiply;
* frob_powers: the a^(q^i), i < count, as one matmul with the first count
  blocks of the Frobenius-power table, which lays the 2n powers side by
  side; it serves the syndrome matrices and the code's transform tables;
* trace: a + a^(q^n) as one matmul with I + F^n;
* inv: Itoh-Tsujii into a tabled subfield F_{q^d}, d the largest proper
  divisor of 2n with q^d <= SUBFIELD_TABLE_SIZE (Guajardo and Paar's
  tower-field variant).  The conorm b = a^(q^d + q^2d + ... + q^(2n-d))
  comes from an addition chain of about 2 log2(2n/d) products, N(a) = a b
  lies in F_{q^d}, and a^-1 = b N(a)^-1, N(a)^-1 read off the table by
  N(a)'s d digits; the absolute norm of a is that of N(a), read off the
  same table.  At d = 1, where q^2 passes the bound or 2n = 2, N(a) lies
  in F_q and fq_reciprocal inverts it.

The reduction table, the rows x^d mod f for d <= 4n-2, folds the raw
products of the Rabin irreducibility test of each candidate modulus, and
the modulus search keeps the reduction table and Frobenius matrix of the
candidate it accepts, so that each candidate is tested once.  FieldCtx
builds each table once: the multiplication and Frobenius-power tables as
(2n, 4n^2) F_q matrices, the stacked Frobenius powers (_frob_rows) being a
view of the second, the reduced-echelon bases of F_{q^n} and of F_{q^d}
with the columns at which an element of either holds its digits in that
basis (subfield_digits reads F_{q^n}'s), and the subfield table: the
inverses, packed, and the absolute norms of the q^d elements of F_{q^d}.
It holds q^d 2n work-dtype entries, at most SUBFIELD_TABLE_SIZE 2n: 70 KB
at (3,12), where d = 6 in float32, and 461 KB at (7,12), where d = 4 in
float64.  Its build from the powers of a primitive element takes about
0.8 and 1.1 ms of set-up there (one BLAS thread), less than the reduction
table's unit rows save in the modulus search.  At 2^13, d = 8 at (3,12):
three products fewer per inverse, but the table passes 0.6 MB and its
build takes about twice as long.  A fold stays exact in int64 only while
2n(q-1)^2 + n(2n-1)(q-1)^3 < 2^63, which FieldCtx checks first; so does
any product of reduced rows with reduced tables or matrices.  A
multiplication matrix that feeds one more product enters it unreduced
(FieldCtx._mul_factor), that product taking the only reduction, wherever
the largest sum it then meets, an ff_mat_vec block below 8n^3(q-1)^3 + q,
stays exact in the work dtype: FieldCtx works this out once from q and n
(FieldCtx._lazy), and elsewhere the same kernels reduce the matrix first.

The work dtype is a float wherever q times the largest sum it must hold
stays below 2^p, p its significand bits: float32 (p = 24) where that sum
is the unreduced one, so that every product is lazy, else float64
(p = 53) where it is the admitted bound, else int64.  Every partial sum
of a BLAS product is then an exact integer, in whatever order it adds,
and so is floor(x / q) in the reduction; BLAS multiplies float matrices
many times faster than numpy multiplies int64 ones, and a float32 vector
holds twice the lanes of a float64 one.  Every kernel takes any integer
dtype and computes in and returns the work dtype, and so does every
packed array the library keeps or passes between stages.  int64 is made
only where elements leave: FF2n, unpack, and the packed results
documented as int64 (ff_rref, ff_solve, TZCode.G and H, syndrome,
gh_product); the F_q routines of linalg work in int64 throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DivisionByZero, InvalidParameter, UnsupportedCharacteristic, _check_integers
from .linalg import fq_kernel, fq_rank, fq_reciprocal

__all__ = [
    "FieldCtx",
    "FF2n",
    "Basis",
    "rank_weight",
]

# the most elements the subfield FieldCtx tables for inverses and norms may
# have (module docstring)
SUBFIELD_TABLE_SIZE = 2**12
# how many candidates for that table's primitive element are tested at once:
# the first lies at index 13 in F_(7^4) at (7,12), where one at a time takes
# 2.0 ms against 0.19 ms for 16 (timeit, one BLAS thread)
_CANDIDATES = 16


# ---------------------------------------------------------------------------
# F_q[x]/(f) through its reduction table
# ---------------------------------------------------------------------------

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


def _is_prime(v):
    return _prime_factors(v) == [v]


def _reduction_table(q, modulus) -> np.ndarray:
    """Row d is x^d mod modulus, for d = 0 .. 2m-2: it folds any raw product.

    Rows 0 .. m-1 are the unit vectors; each later row shifts the one
    before and folds its carry, the coefficient of x^m, through modulus.
    """
    m = len(modulus) - 1
    low = np.array(modulus[:m], dtype=np.int64)
    red = np.zeros((2 * m - 1, m), dtype=np.int64)
    red[:m] = np.eye(m, dtype=np.int64)
    for d in range(m, 2 * m - 1):
        carry = red[d - 1, m - 1]
        red[d, 1:] = red[d - 1, : m - 1]
        red[d] = (red[d] - carry * low) % q
    return red


def _primitive_matrix(products, one, q) -> np.ndarray:
    """The digit matrix of the first element of order q^d - 1 in index order.

    Elements of F_{q^d} are given by their d digits in a basis, whose
    products[i, j] holds the digits of basis_i basis_j and one the digits
    of 1; the digit matrix of c, sum_j c_j products[:, j], multiplies digit
    rows by c.  c has order q^d - 1 exactly when c^((q^d-1)/p) != 1 for
    each prime p | q^d - 1: square-and-multiply on the matrices of
    _CANDIDATES candidates at a time, every exponent in lockstep.
    """
    d = len(one)
    size = q**d
    place = q ** np.arange(d)
    exponents = np.array([(size - 1) // p for p in _prime_factors(size - 1)])
    for first in range(1, size, _CANDIDATES):
        digits = np.arange(first, min(first + _CANDIDATES, size))[:, None] // place % q
        mats = steps = np.einsum("cj,ijk->cik", digits, products) % q
        out = np.broadcast_to(one, (len(steps), len(exponents), d))  # one c^e
        e = exponents.copy()
        while e.any():
            out = np.where((e & 1)[:, None], out @ steps % q, out)
            steps = steps @ steps % q
            e >>= 1
        primitive = ~(out == one).all(axis=-1).any(axis=1)
        if primitive.any():
            return mats[primitive.argmax()]
    raise AssertionError("every finite field has a primitive element")


def _mul_table(red) -> np.ndarray:
    """(m, m^2) multiplication table of a reduction table: row d is M(x^d), row u of it x^(d+u).

    a @ it, reshaped to (m, m), is the multiplication matrix M(a), whose row
    u is a x^u mod f.
    """
    power = np.arange(red.shape[1])
    return red[power[:, None] + power].reshape(len(power), -1)


def _rabin(q, coeffs):
    """Rabin test of a monic polynomial of degree m >= 2 over F_q.

    Returns (reduction table, Frobenius matrix) when it is irreducible, else
    None.  The Frobenius matrix has columns (x^q)^j, with x^q mod f found by
    square-and-multiply.  f is irreducible exactly when x^(q^m) = x and, for
    each prime p | m, x^(q^(m/p)) - x is coprime to f; gcd(f, g) = 1 exactly
    when multiplication by g is bijective on F_q[x]/(f), so coprimality is a
    full-rank test of g's multiplication matrix, one product of g with the
    multiplication table (_mul_table, which also builds FieldCtx._mul_tensor).
    """
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
        if fq_rank((g @ _mul_table(red)).reshape(m, m) % q, q) != m:
            return None
    return red, frob


def _first_irreducible(q, m):
    """(default_modulus(q, m), _rabin's tables of it): each candidate is tested once."""
    points = np.arange(q, dtype=np.int64)
    for high in range(q ** (m - 1)):
        upper = [(high // q**i) % q for i in range(m - 1)] + [1]
        minus_g = np.zeros(q, dtype=np.int64)
        for c in reversed(upper):  # Horner: g(x) = sum_i upper[i] x^(i+1)
            minus_g -= c
            minus_g *= points
            minus_g %= q
        rootless = np.ones(q, dtype=bool)
        rootless[minus_g] = False
        for c in np.flatnonzero(rootless):
            coeffs = [int(c)] + upper
            tables = _rabin(q, coeffs)
            if tables is not None:
                return coeffs, tables
    raise InvalidParameter(f"no irreducible polynomial of degree {m} over F_{q}")


def default_modulus(q, m):
    """First monic irreducible of degree m in coefficient-lexicographic order.

    Candidates are enumerated by counting the non-leading coefficients as
    base-q digits with the constant term least significant, so the search is
    reproducible across runs and implementations.  Only candidates without a
    root in F_q reach the Rabin test: the q candidates g + c that share their
    higher terms g have a root exactly when -c is a value of g, so one
    evaluation of g at every point of F_q screens all of them.
    """
    return _first_irreducible(q, m)[0]


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

def _check_order(q: int, n: int) -> int:
    """The admitted bound of q and n; InvalidParameter or UnsupportedCharacteristic if they are bad.

    n must be positive, q an odd prime, and the bound below 2^63.  The bound
    is the largest sum in a raw product folded through the reduction table,
    as _rabin folds it: with m = 2n, raw entry d sums at most
    min(d+1, 2m-1-d) terms below (q-1)^2, and an output takes one of them
    (at most m (q-1)^2) plus the raw entries d = m .. 2m-2 times table
    entries, at most (q-1)^3 (1 + ... + (m-1)) = n(2n-1)(q-1)^3.  For q >= 3
    it is at least m^2 (q-1)^2, so any product of reduced rows with reduced
    tables or matrices, m^2 terms at most, stays inside it.
    """
    _check_integers(q=q, n=n)
    if n < 1:
        raise InvalidParameter(f"n must be positive, got {n}")
    bound = 2 * n * (q - 1) ** 2 + n * (2 * n - 1) * (q - 1) ** 3
    if bound >= 2**63:
        raise InvalidParameter(f"q={q}, n={n} overflows int64 field arithmetic")
    if not _is_prime(q) or q == 2:
        raise UnsupportedCharacteristic(f"q must be an odd prime, got {q}")
    return bound


class FieldCtx:
    """The tower F_q < F_{q^n} < F_{q^2n} with its precomputed F_q tables.

    Immutable after construction and safe to share across threads.
    """

    def __init__(self, q: int, n: int, modulus=None):
        bound = _check_order(q, n)
        self.q = q
        self.n = n
        self.m = m = 2 * n
        # the search hands over the tables of the candidate it accepted
        modulus, tables = _first_irreducible(q, m) if modulus is None else (modulus, None)
        modulus = [int(c) % q for c in modulus]
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise InvalidParameter(
                f"modulus must be monic of degree {m}, got coefficients {modulus}"
            )
        tables = tables or _rabin(q, modulus)
        if tables is None:
            raise InvalidParameter("modulus is not irreducible over F_q")
        self.modulus = tuple(modulus)
        self._red, frob = tables
        # Below 2^24 every integer is exact in float32, below 2^53 in float64,
        # and BLAS multiplies float matrices many times faster than numpy
        # multiplies int64 ones; below 2^24 / q or 2^53 / q, floor(x / q) is
        # exact too (_mod).  So long eliminations and large products run in
        # the narrowest float the bound allows, and every packed array is
        # held in that dtype.  The float products are small and were tuned
        # single-threaded, the way the benchmark runs them with BLAS pinned
        # to one thread.
        # A multiplication matrix M(b) = b @ _mul_tensor that feeds one more
        # product may enter it unreduced, that product taking the only
        # reduction, while the largest such sum stays exact in the work
        # dtype: an unreduced entry of M(b) is below 2n(q-1)^2, a reduced
        # row times M(b) below 4n^2(q-1)^3, and ff_mat_vec's block of 2n
        # columns plus its reduced running sum below 8n^3(q-1)^3 + q, the
        # largest sum any product meets.  float32 is taken only where that
        # sum is exact, so every product there is lazy; where it is not
        # exact in float64 or int64, _mul_factor reduces M(b) first.
        unreduced = 8 * n**3 * (q - 1) ** 3 + q
        self._work = np.dtype(np.float32 if unreduced * q < 2**24 else
                              np.float64 if bound * q < 2**53 else np.int64)
        self._lazy = unreduced * q < 2**53 if self._work.kind == "f" else unreduced < 2**63
        # the F_q tables, each built once in the work dtype, that the hot
        # kernels multiply by: row d of _mul_tensor is M(x^d), whose row u is
        # x^(d+u) mod f, so a @ _mul_tensor lays out the rows a x^u of M(a);
        # row r of _frob_tensor is x^r under the 2n power maps side by side,
        # so a @ _frob_tensor lays out a^(q^i) for every i, and _frob_rows is
        # its (2n, 2n, 2n) view whose [i] maps the rows of a packed array to
        # those of a^(q^i); _trace_rows = I + F^n, so a @ _trace_rows is
        # a + a^(q^n), unreduced
        self._mul_tensor = _mul_table(self._red).astype(self._work)
        step = frob.T.astype(self._work)
        rows = [np.eye(m, dtype=self._work)]
        for _ in range(m - 1):
            rows.append(self._dot(rows[-1], step))
        self._frob_tensor = np.stack(rows, axis=1).reshape(m, m * m)
        self._frob_rows = self._frob_tensor.reshape(m, m, m).swapaxes(0, 1)
        self._trace_rows = self._frob_rows[0] + self._frob_rows[n]

        self.zero = FF2n(self, np.zeros(m, dtype=np.int64))
        self.one = FF2n(self, self._red[0].copy())
        self.alpha = FF2n(self, self._red[1].copy())

        self._subfield_mat, self._subfield_cols = self._subfield(n)
        self.subfield_basis = self.subfield_elements(np.eye(n, dtype=np.int64))
        self._tabulate_subfield()

    def _subfield(self, d: int):
        """(basis, columns): the reduced-echelon F_q-basis of F_{q^d} and its digit columns.

        F_{q^d} is the kernel of a -> a^(q^d) - a.  Line j is one at its free
        column, the last it does not vanish at, and every other line is zero
        there, so an element's digits in this basis are its entries at those
        columns.
        """
        q = self.q
        basis = fq_kernel((self._frob_rows[d] - self._frob_rows[0]).T % q, q)
        if basis.shape[0] != d:
            raise InvalidParameter("subfield of the stated degree not found")
        return basis, np.array([np.flatnonzero(line)[-1] for line in basis])

    def _tabulate_subfield(self):
        """The tabled subfield F_{q^d} and its tables, built once.

        d is the largest proper divisor of 2n with q^d <= SUBFIELD_TABLE_SIZE.
        _table_index is the (2n,) weight vector that reads an element of
        F_{q^d} as its index, sum_j digit_j q^j, its digits taken in the
        reduced-echelon basis (_subfield).  With g the first element in
        index order of order q^d - 1 (_primitive_matrix), the row of g^k
        holds g^-k in _table_inverse, the (q^d, 2n) packed inverses, and
        g^(k (q^d-1)/(q-1)), the absolute norm, in _table_norm, an F_q
        value; row 0, the zero's, holds zeros.  The powers of g run
        on d x d digit matrices.  At d = 1 no table is built: F_q's
        reciprocals are fq_reciprocal's.
        """
        q, m = self.q, self.m
        d = max((d for d in range(2, m) if m % d == 0 and q**d <= SUBFIELD_TABLE_SIZE),
                default=1)
        self._table_degree = d
        if d == 1:
            return
        basis, cols = self._subfield(d)
        size = q**d
        self._table_index = np.zeros(m, dtype=self._work)
        self._table_index[cols] = q ** np.arange(d)
        one = self._red[0, cols]
        products = self.mul(basis[:, None], basis[None])[..., cols].astype(np.int64)
        # the powers g^k, k < q^d - 1, doubling: rows [2^i, 2^(i+1)) are the
        # first 2^i times g^(2^i)
        step = _primitive_matrix(products, one, q).astype(self._work)
        powers = one[None].astype(self._work)
        for _ in range((size - 2).bit_length()):
            powers = np.concatenate([powers, self._dot(powers, step)])
            step = self._dot(step, step)
        elems = self._dot(powers[: size - 1], basis.astype(self._work))
        index = self._table_rows(elems)
        k = np.arange(size - 1)
        self._table_inverse = np.zeros((size, m), dtype=self._work)
        self._table_inverse[index[-k]] = elems  # g^-k has the inverse g^k
        self._table_norm = np.zeros(size, dtype=np.int64)
        self._table_norm[index] = elems[k * ((size - 1) // (q - 1)) % (size - 1), 0]

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

    def random_element(self, rng) -> "FF2n":
        return FF2n(self, rng.integers(0, self.q, self.m, dtype=np.int64))

    def check_elements(self, elems, what: str):
        """InvalidParameter, naming what and the index at fault, unless all lie in this field."""
        for j, e in enumerate(elems):
            if not isinstance(e, FF2n) or e.ctx is not self and e.ctx != self:
                raise InvalidParameter(f"{what} {j} ({e!r}) is not an element of {self!r}")

    # -- maps ------------------------------------------------------------------

    def frobenius(self, a: "FF2n", i: int) -> "FF2n":
        """a^(q^i), i reduced mod 2n; negative i inverts the map."""
        return FF2n(self, self.frob(a.coeffs, i))

    def trace_rel(self, a: "FF2n") -> "FF2n":
        """Relative trace onto F_{q^n}: a + a^(q^n)."""
        return FF2n(self, self.trace(a.coeffs))

    def norm_abs(self, a: "FF2n") -> "FF2n":
        """Absolute norm onto F_q: that of a's norm into F_{q^d}, read off the subfield table."""
        norm = self.mul(a.coeffs, self._conorm(a.coeffs))
        if self._table_degree == 1:  # N(a) lies in F_q
            return FF2n(self, norm)
        return self.scalar(int(self._table_norm[self._table_rows(norm)]))

    def subfield_elements(self, digits) -> tuple:
        """Elements sum_j d_j subfield_basis[j], one per row of a (..., n) digit array."""
        return self.unpack(self._from_digits(digits))

    def _from_digits(self, digits) -> np.ndarray:
        """The packed (rows, 2n) elements of subfield_elements."""
        digits = np.asarray(digits, dtype=np.int64).reshape(-1, self.n)
        return (digits @ self._subfield_mat) % self.q

    def subfield_digits(self, elems) -> np.ndarray:
        """(..., n) digits in subfield_basis, in the work dtype; the inverse of subfield_elements.

        elems is a sequence of elements or their packed array, whose entries
        at the basis's free columns are the digits.  Valid only for elements
        of F_{q^n}.
        """
        return self.pack(elems)[..., self._subfield_cols]

    @property
    def power_basis(self) -> "Basis":
        """1, alpha, ..., alpha^(2n-1), built afresh on each access."""
        # rows x^0 .. x^(2n-1) of the reduction table are the unit vectors
        return Basis(FF2n(self, x_d.copy()) for x_d in self._red[: self.m])

    # -- packed arithmetic: (..., 2n) arrays, broadcasting over leading axes ----

    def pack(self, elems) -> np.ndarray:
        """The (..., 2n) work-dtype array of an array, an element or a nested sequence of elements.

        An array in the work dtype passes through unchanged, and a flat
        sequence of elements is read entry by entry into one copy.
        """
        if isinstance(elems, FF2n):
            elems = elems.coeffs
        elif not isinstance(elems, np.ndarray):
            elems = [e.coeffs if isinstance(e, FF2n) else self.pack(e) for e in elems]
            elems = elems or np.zeros((0, self.m))
        return np.asarray(elems, self._work)

    def unpack(self, arr):
        """The elements of a (..., 2n) array, as nested tuples of FF2n.

        The elements share one read-only int64 copy of arr, row by row.
        """
        def build(x):
            if x.ndim == 2:
                return tuple([FF2n(self, row) for row in x])
            return FF2n(self, x) if x.ndim == 1 else tuple(build(y) for y in x)

        arr = np.array(arr, dtype=np.int64)  # the elements own this copy
        arr.setflags(write=False)
        return build(arr)

    def _mod(self, x: np.ndarray) -> np.ndarray:
        """x mod q entrywise, for int64 x or for float x whose magnitude times q is below 2^p.

        p is the float's significand bits: 53 in float64, 24 in float32.  A
        float x is overwritten.
        """
        if x.dtype.kind != "f":
            return x % self.q
        floor = x / self.q
        np.floor(floor, out=floor)
        floor *= self.q
        x -= floor
        return x

    def _dot(self, a: np.ndarray, b: np.ndarray, reduce: bool = True) -> np.ndarray:
        """a @ b in the work dtype, mod q unless reduce is False; exact while its sums stay bounded.

        a may hold any integer dtype; b is a table or a product in the work
        dtype.  A stack of rows against one matrix is a single matrix product.
        """
        a = np.asarray(a, self._work)
        if b.ndim == 2 and a.ndim > 2:
            out = (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
        else:
            out = a @ b
        return self._mod(out) if reduce else out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entrywise products of broadcasting packed arrays: a M(b), reduced once.

        M is of the operand with fewer entries.
        """
        if a[..., 0].size < b[..., 0].size:
            a, b = b, a
        return self._dot(a[..., None, :], self._mul_factor(b))[..., 0, :]

    def _by_table(self, a: np.ndarray, table: np.ndarray, reduce: bool = True) -> np.ndarray:
        """(..., blocks, 2n): a times a (2n, blocks 2n) table, reduced unless reduce is False."""
        out = self._dot(a, table, reduce)
        return out.reshape(a.shape[:-1] + (table.shape[1] // self.m, self.m))

    def mul_matrix(self, a: np.ndarray) -> np.ndarray:
        """(..., 2n, 2n) matrices M with v @ M = a v, one per entry of a.

        Row u is a x^u: one product of a with the multiplication table.
        """
        return self._by_table(a, self._mul_tensor)

    def _mul_factor(self, a: np.ndarray) -> np.ndarray:
        """mul_matrix(a) for one more product that reduces: unreduced wherever _lazy allows."""
        return self._by_table(a, self._mul_tensor, not self._lazy)

    def frob_powers(self, a: np.ndarray, count=None) -> np.ndarray:
        """(..., count, 2n) powers a^(q^i), i < count (2n by default), from the power table."""
        return self._by_table(a, self._frob_tensor[:, : (count or self.m) * self.m])

    def frob(self, a: np.ndarray, i) -> np.ndarray:
        """a^(q^i) entrywise; i is an int or an int array broadcasting over a's entries."""
        rows = self._frob_rows[i % self.m]
        if rows.ndim == 2:
            return self._dot(a, rows)
        return self._dot(a[..., None, :], rows)[..., 0, :]

    def trace(self, a: np.ndarray) -> np.ndarray:
        """Relative trace onto F_{q^n} entrywise: a + a^(q^n), one product and one reduction."""
        return self._dot(a, self._trace_rows)

    def _conorm(self, a: np.ndarray) -> np.ndarray:
        """a^(q^d + q^2d + ... + q^(2n-d)) entrywise, d the tabled degree.

        a times it is a's norm into F_{q^d}.  It comes from the Itoh-Tsujii
        addition chain: with e_j = 1 + q^d + ... + q^((j-1)d), x = a^(e_j)
        steps to a^(e_2j) as x * x^(q^(jd)) and to a^(e_(j+1)) as a * x^(q^d),
        following the bits of 2n/d - 1; about 2 log2(2n/d) products and as
        many Frobenius maps.
        """
        d = self._table_degree
        x, j = a, 1
        for bit in bin(self.m // d - 1)[3:]:
            x = self.mul(x, self.frob(x, j * d))
            j *= 2
            if bit == "1":
                x = self.mul(a, self.frob(x, d))
                j += 1
        return self.frob(x, d)

    def _table_rows(self, x: np.ndarray) -> np.ndarray:
        """The subfield table indices of the entries of x, which lie in F_{q^d}."""
        return (x @ self._table_index).astype(np.intp)

    def inv(self, a: np.ndarray) -> np.ndarray:
        """a^-1 = b N(a)^-1 entrywise, b the conorm: N(a) = a b lies in F_{q^d}.

        N(a)^-1 is read off the subfield table, and one multiplication
        matrix of b serves both products.  At d = 1 N(a) lies in F_q and
        fq_reciprocal inverts it.
        """
        if not a.any(axis=-1).all():
            raise DivisionByZero("inverse of zero")
        b = self._conorm(a)
        by_b = self._mul_factor(b)
        norm = self._dot(a[..., None, :], by_b)[..., 0, :]
        if self._table_degree == 1:
            return self._mod(b * fq_reciprocal(norm[..., :1], self.q).astype(self._work))
        inverse = self._table_inverse[self._table_rows(norm)]  # N(a)^-1
        return self._dot(inverse[..., None, :], by_b)[..., 0, :]

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


_INT64 = np.dtype(np.int64)


class FF2n:
    """One element of F_{q^2n} as a coefficient vector in the power basis.

    Element arithmetic does not check that operands share a field; TZCode's
    entry points (encode, decode, unmap, is_codeword), Basis and build_code
    check every element once (FieldCtx.check_elements).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: np.ndarray):
        if coeffs.dtype is not _INT64:  # an int64 array is kept, anything else copied
            coeffs = coeffs.astype(_INT64)
        if coeffs.flags.writeable:
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
        return FF2n(self.ctx, self.ctx.mul(self.coeffs, other.coeffs))

    def __truediv__(self, other: "FF2n") -> "FF2n":
        return FF2n(self.ctx, self.ctx.mul(self.coeffs, self.ctx.inv(other.coeffs)))

    def inverse(self) -> "FF2n":
        return FF2n(self.ctx, self.ctx.inv(self.coeffs))

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
            and self.coeffs.tobytes() == other.coeffs.tobytes()
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self):
        return f"FF2n({list(int(c) for c in self.coeffs)})"


class Basis:
    """An ordered F_q-basis of F_{q^2n}; column j of expansion holds elems[j]."""

    def __init__(self, elems):
        elems = tuple(elems)
        if not elems:
            raise InvalidParameter("a basis needs at least one element")
        if not isinstance(elems[0], FF2n):
            raise InvalidParameter(f"basis entry 0 ({elems[0]!r}) is not a field element")
        ctx = elems[0].ctx
        ctx.check_elements(elems, "basis entry")
        if len(elems) != ctx.m:
            raise InvalidParameter(f"basis needs {ctx.m} elements, got {len(elems)}")
        expansion = np.stack([e.coeffs for e in elems], axis=1) % ctx.q
        if fq_rank(expansion, ctx.q) != ctx.m:
            raise InvalidParameter("elements are not an F_q-basis")
        self.ctx = ctx
        self.elems = elems
        self.expansion = expansion

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


def rank_weight(x) -> int:
    """Dimension over F_q of the span of the entries of x."""
    x = list(x)
    if not x:
        return 0
    stack = np.stack([v.coeffs for v in x])
    return fq_rank(stack, x[0].ctx.q)
