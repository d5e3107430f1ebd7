"""Names the benchmark under perfbench/ looks up in tzcode.

perfbench/ is kept fixed so that its numbers stay comparable across
changes; it wraps and calls these names, so renaming or removing one
breaks the benchmark without breaking any other test.
"""

import importlib.util
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tzcode

from conftest import plant, ref_rref, rng_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracer():
    return _load("perfbench_tracer", TRACER)


def test_traced_methods_are_defined_on_their_classes():
    tracer = _tracer()
    for (layer, cls_name), methods in tracer.SPAN_METHODS.items():
        cls = vars(getattr(tzcode, layer))[cls_name]
        for meth in methods:
            assert meth in vars(cls), f"{layer}.{cls_name}.{meth}"
    for cls_name, meth, _ in tracer.COUNTED_METHODS:
        assert meth in vars(vars(tzcode.field)[cls_name]), f"field.{cls_name}.{meth}"
    for layer in tracer.LAYERS:
        assert hasattr(tzcode, layer)


@pytest.mark.parametrize("module, name", [
    ("decoder", "decode"),
    ("decoder", "build_S_exp"),    # their spans tell the route of a decode
    ("decoder", "estimate_rank"),
    ("selftest", "run_selftest"),
    # spans that feed the per-layer metrics
    ("construct", "build_code"),
    ("construct", "trace_almost_dual"),
    ("decoder", "syndrome"),
    ("decoder", "build_S"),
    ("decoder", "solve_span"),
    ("decoder", "solve_locators"),
    ("decoder", "recover_B"),
    ("decoder", "error_from_decomposition"),
    ("field", "rank_weight"),
    ("linalg", "ff_rank"),
    ("linalg", "ff_rref"),
    ("linalg", "fq_rref"),
    ("linpoly", "root_space"),
    ("channel", "random_message"),
    ("channel", "random_error"),
])
def test_looked_up_functions_exist(module, name):
    mod = importlib.import_module(f"tzcode.{module}")
    assert callable(vars(mod)[name])


def test_public_names_the_load_generator_calls():
    for name in ("FieldCtx", "build_code", "ChannelSpec", "trial_rng", "random_message",
                 "random_error", "decode", "simulate"):
        assert callable(getattr(tzcode, name)), name


@pytest.mark.parametrize("q, n, k, t, subfield, route", [
    (3, 4, 1, 0, False, "zero"),
    (3, 4, 1, 3, False, "plain"),
    (3, 4, 2, 3, True, "boundary"),
    (3, 6, 4, 2, False, "boundary"),
])
def test_traced_decode_shows_its_route(q, n, k, t, subfield, route, monkeypatch):
    # the benchmark's route gate reads the route off the spans of
    # decoder.build_S_exp and decoder.estimate_rank, so decode must reach
    # both through the decoder module's globals, where the tracer wraps them.
    # Even k builds S_exp only, below the boundary rank too, so the frozen
    # route_of reads "boundary" there and its "fallback" label is unreachable.
    # layers.py imports its names from the module `tracer`, as run.py loads it
    tracer_mod = _load("tracer", TRACER)
    monkeypatch.setitem(sys.modules, "tracer", tracer_mod)
    layers = _load("layers", PERFBENCH / "layers.py")
    code = tzcode.build_code(tzcode.FieldCtx(q, n), k)
    _, cw, e, _, r = plant(code, t, rng_for(96, t), subfield=subfield)
    tracer = tracer_mod.Tracer(tzcode)
    with tracer.installed():
        out, (lo, hi) = tracer.run(0, lambda: tzcode.decode(code, r))
    assert out.codeword == cw and out.error == e
    assert layers.route_of({tracer.spans[j][tracer_mod.NAME] for j in range(lo, hi)}) == route
    assert not tracer_mod.wrappers_present(tzcode)


def test_traced_boundary_decode_times_its_span_read(monkeypatch):
    # even k reads S_exp's spans through decoder.solve_span, looked up in the
    # decoder module's globals, so a traced boundary decode shows that span
    # under decoder.decode and layers.trial_values gives decoder.span_ms a
    # nonzero time on the boundary route
    tracer_mod = _load("tracer", TRACER)
    monkeypatch.setitem(sys.modules, "tracer", tracer_mod)
    layers = _load("layers", PERFBENCH / "layers.py")
    code = tzcode.build_code(tzcode.FieldCtx(3, 4), 2)
    _, cw, _, _, r = plant(code, 3, rng_for(97), subfield=True)
    tracer = tracer_mod.Tracer(tzcode)
    with tracer.installed():
        out, (lo, hi) = tracer.run(0, lambda: tzcode.decode(code, r))
    assert out.codeword == cw
    name, parent = tracer_mod.NAME, tracer_mod.PARENT
    parents = [tracer.spans[span[parent]][name] for span in tracer.spans[lo:hi]
               if span[name] == "decoder.solve_span"]
    assert parents == ["decoder.decode"]
    route, _, values = layers.trial_values(tracer, lo, hi)
    assert route == "boundary" and values["decoder.span_ms"] > 0


class _StubProbe:
    """The speed probe's timed() without its kernel: one call, its wall time."""

    def timed(self, fn):
        t0 = time.perf_counter()
        result = fn()
        return SimpleNamespace(result=result, seconds=time.perf_counter() - t0)


def test_traced_microtimings_run_on_todays_tzcode(monkeypatch):
    # run.py --trace 1 times single operations with perfbench/micro.py, which
    # calls ff_rref on nested lists of elements and fq_rref on an int array;
    # once per batch here, at a small field
    micro = _load("perfbench_micro", PERFBENCH / "micro.py")
    monkeypatch.setattr(micro, "REPEAT", 1)
    ctx = tzcode.FieldCtx(3, 2)
    reduced = []

    def ff_rref(mat, _ff_rref=tzcode.linalg.ff_rref):
        out = _ff_rref(mat)
        reduced.append((mat, out))
        return out

    monkeypatch.setattr(tzcode.linalg, "ff_rref", ff_rref)
    timings = micro.microtimings(tzcode, ctx, rng_for(98), _StubProbe())
    assert list(timings) == ["field.mul_us", "field.frobenius_us", "field.inverse_us",
                             "linalg.ff_rref_op_ms", "linalg.fq_rref_op_ms"]
    assert all(len(runs) == 1 and runs[0].result >= 0 for runs in timings.values())
    assert len(reduced) == 2
    for mat, (rows, pivots) in reduced:
        ref_rows, ref_pivots = ref_rref(mat)
        assert rows.dtype == np.int64 and pivots == ref_pivots
        assert ctx.unpack(rows) == tuple(tuple(row) for row in ref_rows)
