"""Paired timing of decode in two source trees of tzcode, in one process.

    python3 tools/paired_decode.py PARENT_SRC CHANGE_SRC --q 3 --n 12 --k 2 --t 11 --subfield

Each SRC is a directory that holds a tzcode package, such as a checkout's
src/.  Both are imported under distinct package names, which works because
every import inside tzcode is relative.  The same planted words are decoded
by both sides, word by word, and the side that runs first alternates from
word to word, so that both see the same host speed; a paired run resolves
changes that the swing of absolute times between runs hides.  Every pair of
outcomes must be equal.  The syndrome, the syndrome-matrix build and
solve_span are timed apart from the whole decode.  The table gives each
side's p50 per stage in ms and the ratio change/parent; exit code 1 means
two outcomes differed.  BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# numpy reads these when it is imported, so main sets them before the import
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
STAGES = ("syndrome", "build", "solve_span", "decode")


def load(name: str, src: str):
    """The tzcode package under src, imported as the top-level package name."""
    init = Path(src) / "tzcode" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no tzcode package under {src}")
    for stale in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[stale]  # a second load in one process starts afresh
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


class Side:
    """One tree's code and the stage timings of its decodes."""

    def __init__(self, tz, q, n, k):
        self.tz = tz
        self.ctx = tz.FieldCtx(q, n)
        self.code = tz.build_code(self.ctx, k)
        self.times = {stage: [] for stage in STAGES}

    def run(self, word):
        """Time the stages and the whole decode of one packed word; return the outcome."""
        dec, code, ctx = self.tz.decoder, self.code, self.ctx
        r = ctx.unpack(word)
        clock = time.perf_counter
        t0 = clock()
        s = dec.syndrome(code, word)
        t1 = clock()
        if code.k % 2 == 0:
            S, rows = dec.build_S_exp(code, s), ctx.n - code.k // 2 - 1
        else:
            S, rows = dec.build_S(code, s, (ctx.m - code.k - 1) // 2), None
        t2 = clock()
        dec.solve_span(S, ctx, rows)
        t3 = clock()
        out = dec.decode(code, r)
        t4 = clock()
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            self.times[stage].append(dt * 1e3)
        return out


def comparable(out):
    """A decode outcome as plain values, equal across the two packages."""
    def coeffs(elems):
        return None if elems is None else tuple(e.coeffs.tobytes() for e in elems)

    return (out.success, out.t, out.failure_reason,
            coeffs(out.codeword), coeffs(out.error), coeffs(out.message))


def planted_words(side: Side, t: int, subfield: bool, words: int, seed: int) -> list:
    """Packed received words: a random codeword plus a planted error of rank t."""
    tz, code = side.tz, side.code
    spec = tz.ChannelSpec(t=t, subfield_only=subfield)
    out = []
    for i in range(words):
        rng = tz.trial_rng(seed, i)
        cw = code.encode(tz.random_message(code, rng))
        e, _ = tz.random_error(code, spec, rng)
        out.append(side.ctx.pack([x + y for x, y in zip(cw, e)]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--t", type=int, required=True)
    ap.add_argument("--subfield", action="store_true", help="plant errors over F_(q^n)")
    ap.add_argument("--words", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    sides = [Side(load(name, src), args.q, args.n, args.k)
             for name, src in (("tzcode_parent", args.parent_src),
                               ("tzcode_change", args.change_src))]
    words = planted_words(sides[0], args.t, args.subfield, args.words, args.seed)
    for side in sides:  # one untimed decode each, so that neither pays first-call costs
        side.run(words[0])
        side.times = {stage: [] for stage in STAGES}
    for i, word in enumerate(words):
        order = sides if i % 2 == 0 else sides[::-1]
        outs = {id(side): comparable(side.run(word)) for side in order}
        if outs[id(sides[0])] != outs[id(sides[1])]:
            print(f"word {i}: the outcomes differ", file=sys.stderr)
            return 1

    print(f"q={args.q} n={args.n} k={args.k} t={args.t} subfield={args.subfield} "
          f"words={args.words} seed={args.seed}: every outcome equal")
    print(f"{'stage':<12}{'parent p50 ms':>15}{'change p50 ms':>15}{'ratio':>8}")
    for stage in STAGES:
        p50 = [statistics.median(side.times[stage]) for side in sides]
        print(f"{stage:<12}{p50[0]:>15.3f}{p50[1]:>15.3f}{p50[1] / p50[0]:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
