"""Span polynomials, evaluation, and root-space extraction."""

import numpy as np
import pytest

from tzcode import FieldCtx, LinPoly, rank_weight
from tzcode.linpoly import _term_matrices, root_space

from conftest import (
    DependentSpan,
    elements,
    in_subfield,
    random_subfield_element,
    rng_for,
    span_poly,
)


def test_identity_polynomial_evaluation(ctx5):
    rng = rng_for(40)
    ident = LinPoly(ctx5, [ctx5.one])
    for _ in range(10):
        a = ctx5.random_element(rng)
        assert ident(a) == a


def test_evaluation_matches_generator_entry(ctx5, code5):
    # gamma x^q at alpha reproduces the generator row built from gamma lambda^q
    gamma = code5.gamma
    f = LinPoly(ctx5, [ctx5.zero, gamma])
    assert f(ctx5.alpha) == gamma * ctx5.alpha.scale(3)
    assert f(ctx5.alpha) == ctx5.unpack(code5.G[2][1])
    assert f(ctx5.alpha) == ctx5.elem([4, 4, 1, 3])


def test_evaluation_against_exponentiation_oracle(ctx5):
    rng = rng_for(41)
    for _ in range(100):
        deg = int(rng.integers(0, ctx5.m))
        coeffs = [ctx5.random_element(rng) for _ in range(deg + 1)]
        f = LinPoly(ctx5, coeffs)
        a = ctx5.random_element(rng)
        expected = ctx5.zero
        for i, c in enumerate(coeffs):
            expected = expected + c * a ** (ctx5.q**i)
        assert f(a) == expected


def test_evaluation_is_additive_and_homogeneous(ctx5):
    rng = rng_for(42)
    f = LinPoly(ctx5, [ctx5.random_element(rng) for _ in range(3)])
    for _ in range(20):
        x, y = ctx5.random_element(rng), ctx5.random_element(rng)
        assert f(x + y) == f(x) + f(y)
        c = int(rng.integers(0, ctx5.q))
        assert f(x.scale(c)) == f(x).scale(c)


def test_coefficients_are_packed(ctx5):
    f = LinPoly(ctx5, [ctx5.zero, ctx5.alpha])
    assert np.array_equal(f.coeffs, ctx5.pack([ctx5.zero, ctx5.alpha]))
    assert LinPoly(ctx5, f.coeffs) == f
    assert f.qdegree == 1 and LinPoly(ctx5, [ctx5.zero]).qdegree == -1


def test_qdegree_limit_is_2n(ctx5):
    # 2n+1 coefficients: the subspace polynomial of the whole field needs them
    full = span_poly(ctx5, list(ctx5.power_basis))
    assert full.qdegree == ctx5.m
    assert all(full(a).is_zero() for a in ctx5.power_basis)
    with pytest.raises(ValueError, match="at most 2n = 4"):
        LinPoly(ctx5, [ctx5.one] * (ctx5.m + 2))


def test_span_poly_of_one_is_x_q_minus_x(ctx5):
    f = span_poly(ctx5, [ctx5.one])
    assert ctx5.unpack(f.coeffs) == (-ctx5.one, ctx5.one)


def test_span_poly_of_empty_set_is_x(ctx5):
    f = span_poly(ctx5, [])
    assert ctx5.unpack(f.coeffs) == (ctx5.one,)


def test_span_poly_exhaustive_root_check():
    # q=3, n=2, span of {1, alpha}: exactly the 9 span elements vanish
    ctx = FieldCtx(3, 2)
    f = span_poly(ctx, [ctx.one, ctx.alpha])
    assert f.qdegree == 2
    span = set()
    for c0 in range(3):
        for c1 in range(3):
            span.add(ctx.one.scale(c0) + ctx.alpha.scale(c1))
    roots = {a for a in elements(ctx) if f(a).is_zero()}
    assert roots == span


def test_span_poly_rejects_dependent_input(ctx5):
    with pytest.raises(DependentSpan):
        span_poly(ctx5, [ctx5.alpha, ctx5.alpha.scale(2)])


def test_span_poly_is_monic(ctx5):
    rng = rng_for(43)
    for t in (1, 2, 3):
        while True:
            vecs = [ctx5.random_element(rng) for _ in range(t)]
            if rank_weight(vecs) == t:
                break
        f = span_poly(ctx5, vecs)
        assert ctx5.unpack(f.coeffs[-1]) == ctx5.one
        assert f.qdegree == t


def test_span_poly_coeffs_in_subfield_for_subfield_inputs(ctx5, ctx33):
    for ctx in (ctx5, ctx33):
        rng = rng_for(44)
        for t in (1, 2):
            while True:
                vecs = [random_subfield_element(ctx, rng) for _ in range(t)]
                if rank_weight(vecs) == t:
                    break
            f = span_poly(ctx, vecs)
            assert all(in_subfield(c) for c in ctx.unpack(f.coeffs))


def test_root_space_trivial_cases(ctx5):
    one_dim = root_space(LinPoly(ctx5, [-ctx5.one, ctx5.one]))  # x^q - x
    assert one_dim.shape == (1, ctx5.m)
    assert rank_weight(ctx5.unpack(one_dim) + (ctx5.one,)) == 1  # spans F_q
    assert root_space(LinPoly(ctx5, [ctx5.one])).shape == (0, ctx5.m)  # only the zero root


def test_root_space_inverts_span_poly():
    ctx = FieldCtx(3, 2)
    rng = rng_for(45)
    for _ in range(50):
        t = int(rng.integers(1, 4))
        while True:
            vecs = [ctx.random_element(rng) for _ in range(t)]
            if rank_weight(vecs) == t:
                break
        roots = root_space(span_poly(ctx, vecs))
        assert len(roots) == t
        assert rank_weight(ctx.unpack(roots) + tuple(vecs)) == t  # same span


def test_kernel_dimension_bounded_by_degree(ctx5):
    rng = rng_for(46)
    for _ in range(30):
        deg = int(rng.integers(0, ctx5.m))
        coeffs = [ctx5.random_element(rng) for _ in range(deg)]
        top = ctx5.random_element(rng)
        while top.is_zero():
            top = ctx5.random_element(rng)
        f = LinPoly(ctx5, coeffs + [top])
        assert len(root_space(f)) <= f.qdegree


def test_term_matrices_of_a_stack_are_those_of_each_polynomial(ctx5):
    # one call on several polynomials, of different q-degrees, gives each
    # one's matrices F^i M(f_i) in turn, and a coefficient row times their
    # sum is the polynomial's value
    rng = rng_for(47)
    polys = [ctx5.pack([ctx5.random_element(rng) for _ in range(size)]) for size in (3, 2, 4)]
    terms = _term_matrices(ctx5, *polys)
    assert terms.shape == (9, ctx5.m, ctx5.m)
    for f, own in zip(polys, np.split(terms, [3, 5])):
        assert np.array_equal(own, _term_matrices(ctx5, f))
        x = ctx5.random_element(rng)
        assert np.array_equal(x.coeffs @ own.sum(axis=0) % ctx5.q, LinPoly(ctx5, f)(x).coeffs)
