"""Names the benchmark under perfbench/ looks up in tzcode.

perfbench/ is kept fixed so that its numbers stay comparable across
changes; it wraps and calls these names, so renaming or removing one
breaks the benchmark without breaking any other test.
"""

import importlib.util
from pathlib import Path

import pytest

import tzcode

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
