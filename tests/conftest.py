import numpy as np
import pytest

from tzcode import FieldCtx, LinPoly, build_code, qvan
from tzcode.errors import DependentSpan
from tzcode.linalg import ff_solve
from tzcode.channel import ChannelSpec, random_error, random_message, trial_rng
from tzcode.selftest import GAMMA, MODULUS, XI


@pytest.fixture(scope="session")
def ctx5():
    return FieldCtx(5, 2, MODULUS)


@pytest.fixture(scope="session")
def code5(ctx5):
    """The published q=5, n=2, k=2 instance with its explicit gamma and xi."""
    return build_code(ctx5, 2, gamma=ctx5.elem(GAMMA), xi=ctx5.elem(XI))


@pytest.fixture(scope="session")
def ctx3():
    return FieldCtx(3, 2)


@pytest.fixture(scope="session")
def code321(ctx3):
    return build_code(ctx3, 1)


@pytest.fixture(scope="session")
def code322(ctx3):
    return build_code(ctx3, 2)


@pytest.fixture(scope="session")
def ctx33():
    return FieldCtx(3, 3)


@pytest.fixture(scope="session")
def code332(ctx33):
    return build_code(ctx33, 2)


def plant(code, t, rng, subfield=False):
    """One corrupted transmission: (message, codeword, error, decomposition, received)."""
    msg = random_message(code, rng)
    cw = code.encode(msg)
    e, decomp = random_error(code, ChannelSpec(t=t, subfield_only=subfield), rng)
    r = tuple(x + y for x, y in zip(cw, e))
    return msg, cw, e, decomp, r


def rng_for(seed, trial=0):
    return trial_rng(seed, trial)


# ---------------------------------------------------------------------------
# reference implementations: the element-by-element forms that src/ replaced
# with F_q matrix forms, kept here so tests can compare the two
# ---------------------------------------------------------------------------

def index_of(ctx, a) -> int:
    """Inverse of FieldCtx.element_from_index: coefficients as base-q digits."""
    idx = 0
    for i in range(ctx.m - 1, -1, -1):
        idx = idx * ctx.q + int(a.coeffs[i])
    return idx


def in_base(a) -> bool:
    return not a.coeffs[1:].any()


def trace_abs(ctx, a):
    """Absolute trace onto F_q: sum of all 2n Frobenius images."""
    acc = ctx.zero
    for i in range(ctx.m):
        acc = acc + a.frobenius(i)
    return acc


def span_poly(ctx, vecs):
    """Monic subspace polynomial whose roots are exactly the F_q-span of vecs.

    Built degree by degree: when L kills the span of the first j inputs and
    v is the next one, L'(x) = L(x)^q - L(v)^(q-1) L(x) kills the enlarged
    span and has q-degree j+1.  Dependent inputs make L(v) vanish, which is
    rejected.  The top coefficient is normalized to 1.
    """
    coeffs = [ctx.one]  # the identity polynomial x
    for v in vecs:
        val = LinPoly(ctx, coeffs)(v)
        if val.is_zero():
            raise DependentSpan("generators are linearly dependent over F_q")
        factor = val.frobenius(1) / val  # val^(q-1)
        raised = [ctx.zero] + [c.frobenius(1) for c in coeffs]
        coeffs = [r - factor * c for r, c in zip(raised, coeffs + [ctx.zero])]
    inv = coeffs[-1].inverse()
    return LinPoly(ctx, [c * inv for c in coeffs])


def moore_mu(ctx, lam, xi, k):
    """mu from the square Moore system qvan(lam) mu = (xi^(q^(2n-k)), 0, ..., 0)."""
    rhs = [xi.frobenius(ctx.m - k)] + [ctx.zero] * (ctx.m - 1)
    return ff_solve(qvan(list(lam), ctx.m), rhs)


def encode_by_rows(code, msg) -> tuple:
    """msg . G as a sum of generator rows, entry by entry."""
    out = []
    for col in range(code.length):
        acc = msg[0] * code.G[0][col]
        for i in range(1, 2 * code.k):
            acc = acc + msg[i] * code.G[i][col]
        out.append(acc)
    return tuple(out)


def is_codeword_by_trace(code, v) -> bool:
    """Zero relative trace of every entry of v H^T, row by row."""
    for row in code.H:
        acc = code.ctx.zero
        for x, y in zip(row, v):
            acc = acc + x * y
        if not code.ctx.trace_rel(acc).is_zero():
            return False
    return True
