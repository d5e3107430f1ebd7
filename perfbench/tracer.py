"""Spans and call counts around the public functions of each tzcode layer.

Tracing is installed from outside the package.  Every public module-level
function of a layer module is replaced, under every name through which a
loaded tzcode module looks it up (``tzcode.decoder.ff_rank`` as well as
``tzcode.linalg.ff_rank``), by a wrapper that records a span.  A few class
methods get span wrappers too, and the hot element operations get wrappers
that only count calls, because a span per field multiply would dwarf it.
The originals are put back when the ``installed()`` block ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("field", "linalg", "linpoly", "construct", "decoder", "channel")

SPAN_METHODS = {
    ("field", "FieldCtx"): ("__init__",),
    ("construct", "TZCode"): ("__init__", "encode", "unmap", "is_codeword", "validate_message"),
    ("linpoly", "LinPoly"): ("evaluate",),
}

COUNTERS = ("mul", "add", "frobenius", "inverse")
# (class in tzcode.field, method, counters it bumps); FF2n.frobenius
# delegates to FieldCtx.frobenius and is counted there
COUNTED_METHODS = (
    ("FF2n", "__mul__", ("mul",)),
    ("FF2n", "__add__", ("add",)),
    ("FF2n", "__sub__", ("add",)),
    ("FF2n", "__neg__", ("add",)),
    ("FF2n", "__truediv__", ("mul", "inverse")),
    ("FF2n", "inverse", ("inverse",)),
    ("FieldCtx", "frobenius", ("frobenius",)),
)

# fields of a finished span record
NAME, TRIAL, PARENT, START, END, OPS_START, OPS_END = range(7)


def _namespaces(tz):
    prefix = tz.__name__ + "."
    return [mod for key, mod in list(sys.modules.items())
            if key == tz.__name__ or key.startswith(prefix)]


def _patched_classes(tz):
    classes = {getattr(getattr(tz, layer), cls) for layer, cls in SPAN_METHODS}
    classes.update(getattr(tz.field, cls) for cls, _, _ in COUNTED_METHODS)
    return classes


def wrappers_present(tz) -> bool:
    """True if any tzcode namespace or traced class still holds a wrapper."""
    for holder in _namespaces(tz) + list(_patched_classes(tz)):
        if any(getattr(v, "__perfbench__", False) for v in vars(holder).values()):
            return True
    return False


class Tracer:
    """In-memory span log: name, trial id, parent span, start, end, op counts.

    Spans are single-threaded and properly nested, so a span's self time is
    its duration minus the summed durations of its direct children.
    """

    def __init__(self, tz):
        self.tz = tz
        self.spans = []
        self.counts = [0] * len(COUNTERS)
        self.trial = 0
        self.t0 = time.perf_counter()
        self._stack = []
        self._patches = []

    @contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for holder, attr, original in reversed(self._patches):
                setattr(holder, attr, original)
            self._patches.clear()

    def run(self, trial: int, fn):
        """Call fn with spans tagged by trial; return (result, span index range)."""
        self.trial = trial
        lo = len(self.spans)
        result = fn()
        return result, (lo, len(self.spans))

    def _patch(self, holder, attr, wrapper):
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def _install(self):
        tz = self.tz
        namespaces = _namespaces(tz)
        for layer in LAYERS:
            mod = getattr(tz, layer)
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._span_wrapper(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(getattr(tz, layer), cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                self._patch(cls, meth, self._span_wrapper(name, vars(cls)[meth]))
        for cls_name, meth, slots in COUNTED_METHODS:
            cls = getattr(tz.field, cls_name)
            self._patch(cls, meth, self._count_wrapper(slots, vars(cls)[meth]))

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, self.trial, stack[-1] if stack else -1, 0.0, 0.0, tuple(counts), None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[OPS_END] = tuple(counts)
                stack.pop()
                spans[idx] = tuple(rec)

        wrapper.__perfbench__ = True
        return wrapper

    def _count_wrapper(self, slots, fn):
        counts = self.counts
        idx = tuple(COUNTERS.index(s) for s in slots)

        @functools.wraps(fn)
        def wrapper(*args):
            for i in idx:
                counts[i] += 1
            return fn(*args)

        wrapper.__perfbench__ = True
        return wrapper

    def self_times(self, lo: int, hi: int) -> list:
        """Self time of each span in [lo, hi), whose parents lie in the range too."""
        spans = self.spans
        own = [spans[j][END] - spans[j][START] for j in range(lo, hi)]
        for j in range(lo, hi):
            parent = spans[j][PARENT]
            if parent >= lo:
                own[parent - lo] -= spans[j][END] - spans[j][START]
        return own

    def write(self, path):
        """Write every span as one JSON line, times in seconds since the tracer began."""
        with open(path, "w") as fh:
            for idx, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx,
                    "name": rec[NAME],
                    "trial": rec[TRIAL],
                    "parent": rec[PARENT],
                    "start": rec[START] - self.t0,
                    "end": rec[END] - self.t0,
                }) + "\n")
