"""Linearized polynomials over F_{q^2n}.

A q-polynomial sum_i f_i x^(q^i) acts as an F_q-linear endomorphism of
F_{q^2n}.  LinPoly holds its coefficients as one packed (d+1, 2n) array
in the field's work dtype (field.py), row i the coefficient of x^(q^i).  Since x^(q^2n) = x on the
field, 2n+1 coefficients (q-degree 2n, as the subspace polynomial of the
whole field needs) are the most it takes.  decode keeps its spans as bare
arrays of that shape, acting through _term_matrices; root_space returns the
kernel packed too, for tests that count a span's roots (decode never does).
"""

from __future__ import annotations

import numpy as np

from .field import FF2n
from .linalg import fq_kernel

__all__ = ["LinPoly", "root_space"]


class LinPoly:
    """Linearized polynomial with coefficients in F_{q^2n}, packed (d+1, 2n).

    The coefficients may be given as a sequence of FF2n or as a packed array.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = ctx.pack(coeffs)
        if len(coeffs) > ctx.m + 1:
            raise ValueError(
                f"q-degree must stay at most 2n = {ctx.m}, got {len(coeffs)} coefficients")
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def qdegree(self) -> int:
        nonzero = np.flatnonzero(self.coeffs.any(axis=1))
        return int(nonzero[-1]) if nonzero.size else -1  # -1: the zero polynomial

    def is_zero(self) -> bool:
        return self.qdegree < 0

    def evaluate(self, x: FF2n) -> FF2n:
        """sum_i f_i x^(q^i): one batched Frobenius of x, one batched product."""
        ctx = self.ctx
        powers = ctx.frob(x.coeffs, np.arange(len(self.coeffs)))
        return FF2n(ctx, ctx._mod(ctx.mul(self.coeffs, powers).sum(axis=0)))

    __call__ = evaluate

    def __eq__(self, other):
        return (isinstance(other, LinPoly) and self.ctx == other.ctx
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"LinPoly({self.coeffs.astype(np.int64).tolist()})"


def _term_matrices(ctx, *polys) -> np.ndarray:
    """The (terms, 2n, 2n) F_q matrices F^i M(f_i) of each f in polys in turn, reduced, work dtype.

    Each f is given by its packed coefficients (d+1, 2n), and its d+1
    matrices follow those of the polynomial before it.  F^i holds the rows
    of the q^i-th power map and M(f_i) multiplication by f_i, so x @ F^i @
    M(f_i) = f_i x^(q^i) on a coefficient row x; each entry sums 2n products
    of F^i's reduced entries with M(f_i)'s, unreduced where FieldCtx._lazy
    allows.  One product gives all of them.
    """
    powers = np.concatenate([np.arange(len(f)) for f in polys]) % ctx.m  # F^(2n) is F^0
    return ctx._dot(ctx._frob_rows[powers], ctx._mul_factor(np.concatenate(polys)))


def root_space(f: LinPoly) -> np.ndarray:
    """Echelon-canonical F_q-basis of the kernel of f, packed (dim, 2n).

    f acts on coefficient rows as the F_q matrix sum_i F^i M(f_i)
    (_term_matrices); the kernel of that 2n x 2n system has at most the
    q-degree of f for its dimension.  The sum adds at most 2n+1 reduced
    matrices, inside the work dtype's bound.
    """
    action = f.ctx._mod(_term_matrices(f.ctx, f.coeffs).sum(axis=0))
    return fq_kernel(action.T, f.ctx.q)
