"""Linearized polynomials over F_{q^2n}.

A q-polynomial sum_i f_i x^(q^i) acts as an F_q-linear endomorphism of
F_{q^2n}.  LinPoly holds its coefficients as one packed (d+1, 2n) array
(field.py), row i the coefficient of x^(q^i).  Since x^(q^2n) = x on the
field, 2n+1 coefficients (q-degree 2n, as the subspace polynomial of the
whole field needs) are the most it takes.  root_space returns the kernel
packed as well: the decoder keeps the span polynomial and its roots as
arrays from the syndrome to the corrected word.
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
        return FF2n(ctx, ctx.mul(self.coeffs, powers).sum(axis=0) % ctx.q)

    __call__ = evaluate

    def __eq__(self, other):
        return (isinstance(other, LinPoly) and self.ctx == other.ctx
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"LinPoly({self.coeffs.tolist()})"


def root_space(f: LinPoly) -> np.ndarray:
    """Echelon-canonical F_q-basis of the kernel of f, packed (dim, 2n).

    f acts on coefficient rows as the F_q matrix sum_i F^i M(f_i), F^i the
    rows of the q^i-th power map and M(f_i) multiplication by f_i; the kernel
    of that 2n x 2n system has at most the q-degree of f for its dimension.
    The action is built in the field's work dtype: each F^i M(f_i) sums 2n
    products of reduced entries, and the sum over i adds at most 2n+1
    reduced matrices.
    """
    ctx = f.ctx
    # x @ F^i @ M(f_i) = f_i x^(q^i), so x @ action = f(x); F^(2n) is F^0
    frob = ctx._frob_rows[np.arange(len(f.coeffs)) % ctx.m]
    action = frob @ ctx.mul_matrix(np.asarray(f.coeffs, ctx._work))
    action = ctx._mod(ctx._mod(action).sum(axis=0))
    return fq_kernel(action.T, ctx.q)
