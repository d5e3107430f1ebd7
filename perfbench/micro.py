"""Single-operation timings at a workload's field size, taken untraced."""

from __future__ import annotations

REPEAT = 7


def _per_call(probe, fn, number: int) -> list:
    """REPEAT batches of `number` calls, each bracketed by the speed probe;
    each Timed's result is its seconds per call."""
    def batch():
        for _ in range(number):
            fn()

    runs = [probe.timed(batch) for _ in range(REPEAT)]
    for run in runs:
        run.result = run.seconds / number
    return runs


def microtimings(tz, ctx, rng, probe) -> dict:
    """Field multiply, Frobenius and inverse, one ff_rref and one fq_rref.

    ff_rref runs on a random n x (n+1) matrix over F_{q^2n}, the shape of the
    decoder's span systems; fq_rref on a random 2n x 2n matrix over F_q, the
    shape of the root-space system.  Returns name -> timed batches.
    """
    n, m, q = ctx.n, ctx.m, ctx.q

    def nonzero():
        while True:
            x = ctx.random_element(rng)
            if not x.is_zero():
                return x

    a, b = nonzero(), nonzero()
    ff_mat = [[ctx.random_element(rng) for _ in range(n + 1)] for _ in range(n)]
    fq_mat = rng.integers(0, q, (m, m))
    return {
        "field.mul_us": _per_call(probe, lambda: a * b, 2000),
        "field.frobenius_us": _per_call(probe, lambda: a.frobenius(1), 2000),
        "field.inverse_us": _per_call(probe, a.inverse, 50),
        "linalg.ff_rref_op_ms": _per_call(probe, lambda: tz.linalg.ff_rref(ff_mat), 2),
        "linalg.fq_rref_op_ms": _per_call(probe, lambda: tz.linalg.fq_rref(fq_mat, q), 100),
    }
