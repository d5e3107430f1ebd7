"""Linearized polynomials over F_{q^2n}.

A q-polynomial sum_i f_i x^(q^i) acts as an F_q-linear endomorphism of
F_{q^2n}.  Coefficient index i holds the coefficient of x^(q^i); working
degree stays below 2n since x^(q^2n) = x on the field.
"""

from __future__ import annotations

import numpy as np

from .field import FF2n, Basis
from .linalg import fq_kernel

__all__ = ["LinPoly", "root_space"]


class LinPoly:
    """Linearized polynomial with coefficients in F_{q^2n}."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) > ctx.m + 1:
            raise ValueError("working q-degree must stay below 2n")
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def qdegree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[i].is_zero():
                return i
        return -1  # zero polynomial

    def is_zero(self) -> bool:
        return self.qdegree < 0

    def evaluate(self, x: FF2n) -> FF2n:
        acc = self.ctx.zero
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                acc = acc + c * x.frobenius(i)
        return acc

    __call__ = evaluate

    def __eq__(self, other):
        return isinstance(other, LinPoly) and self.ctx == other.ctx and self.coeffs == other.coeffs

    def __repr__(self):
        return f"LinPoly({list(self.coeffs)})"


def root_space(f: LinPoly, basis: Basis | None = None):
    """Echelon-canonical F_q-basis of the kernel of f.

    f acts on coefficient rows as the F_q matrix whose row k is f(x^k), one
    batched product of its coefficients with the Frobenius images of the
    power basis; the kernel is then a 2n x 2n base-field system in the
    coordinates of the basis, and its size is bounded by the q-degree of f.
    """
    ctx = f.ctx
    if basis is None:
        basis = ctx.power_basis
    q = ctx.q
    coeffs = ctx.pack(f.coeffs)
    # row k of action is f(x^k) = sum_i f_i (x^k)^(q^i), so x @ action = f(x)
    powers = np.arange(len(coeffs))[:, None]
    identity = np.eye(ctx.m, dtype=np.int64)
    action = ctx.mul(coeffs[:, None], ctx.frob(identity, powers)).sum(axis=0) % q
    # column j: coordinates of f(basis_j)
    mat = (basis._inv_expansion @ ((basis.expansion.T @ action) % q).T) % q
    return [basis.from_coords(row) for row in fq_kernel(mat, q)]
