"""Paired timing of set-up and decode in two source trees of tzcode, in one process.

    python3 tools/paired_decode.py PARENT_SRC CHANGE_SRC --q 3 --n 12 --k 2 --t 11 --subfield

Each SRC is a directory that holds a tzcode package, such as a checkout's
src/.  Both are imported under distinct package names, which works because
every import inside tzcode is relative.  First both trees build FieldCtx
and the code on SETUP_PAIRS pairs, and every pair of codes must hold equal
TABLES, in shape and in exact values (compared as int64, so that a table
held in another work dtype still compares), wherever both trees hold the
table; the names of the tables that only one tree holds, and both dtypes
of a shared table whose dtypes differ, are printed.  Then the same planted
words are decoded by both sides, word by word.  The side that runs first alternates from pair
to pair and from word to word, so that both see the same host speed; a
paired run resolves changes that the swing of absolute times between runs
hides.  Every pair of outcomes must be equal.  Set-up is one row of the
table; the read of a word (TZCode._read, one product with the code's read
table) is timed apart from the whole decode.  The stages between them are
not, since what they take depends on what a tree reads: a tree that reads
the syndrome hands its builders the syndrome, and one that reads the
transform hands them the transform.  The table gives each side's p50 per
stage in ms and the ratio change/parent; exit code 1 means two tables or
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
STAGES = ("setup", "read", "decode")
# 40 pairs resolve a set-up ratio to a few percent; 10 left it at about +-12%
SETUP_PAIRS = 40
# the tables of a code that two trees holding them must build alike
TABLES = ("G", "H", "_transform_work", "_N_work", "_split_work", "_enc_mat")


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
        """Time the read and the whole decode of one packed word; return the outcome."""
        code = self.code
        r = self.ctx.unpack(word)
        clock = time.perf_counter
        t0 = clock()
        code._read(word)
        t1 = clock()
        out = self.tz.decoder.decode(code, r)
        t2 = clock()
        for stage, dt in zip(STAGES[1:], (t1 - t0, t2 - t1)):
            self.times[stage].append(dt * 1e3)
        return out


def held(code) -> list:
    """The names of TABLES that code holds."""
    return [name for name in TABLES if hasattr(code, name)]


def shared(sides) -> list:
    """The names of TABLES that both sides' codes hold."""
    return [name for name in held(sides[0].code) if name in held(sides[1].code)]


def check_setup(sides, q: int, n: int, k: int):
    """Time FieldCtx and build_code in both trees on SETUP_PAIRS pairs.

    The tree that builds first alternates from pair to pair.  Returns the
    first of the TABLES both codes hold in which the two codes of a pair
    differ in shape or in value, or None.
    """
    for i in range(SETUP_PAIRS):
        codes = {}
        for side in sides if i % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            codes[id(side)] = side.tz.build_code(side.tz.FieldCtx(q, n), k)
            side.times["setup"].append((time.perf_counter() - t0) * 1e3)
        for name in shared(sides):
            a, b = (getattr(codes[id(side)], name) for side in sides)
            if a.shape != b.shape or (a.astype("int64") != b.astype("int64")).any():
                return name
    return None


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
    for side, other, label in ((sides[0], sides[1], "parent"), (sides[1], sides[0], "change")):
        lone = [name for name in held(side.code) if name not in held(other.code)]
        if lone:
            print(f"tables held by the {label} tree only: {', '.join(lone)}")
    for name in shared(sides):
        dtypes = [getattr(side.code, name).dtype for side in sides]
        if dtypes[0] != dtypes[1]:
            print(f"{name}: parent dtype {dtypes[0]}, change dtype {dtypes[1]}")
    differs = check_setup(sides, args.q, args.n, args.k)
    if differs:
        print(f"setup: the codes differ in {differs}", file=sys.stderr)
        return 1
    words = planted_words(sides[0], args.t, args.subfield, args.words, args.seed)
    for side in sides:  # one untimed decode each, so that neither pays first-call costs
        side.run(words[0])
        for stage in STAGES[1:]:
            side.times[stage].clear()
    for i, word in enumerate(words):
        order = sides if i % 2 == 0 else sides[::-1]
        outs = {id(side): comparable(side.run(word)) for side in order}
        if outs[id(sides[0])] != outs[id(sides[1])]:
            print(f"word {i}: the outcomes differ", file=sys.stderr)
            return 1

    print(f"q={args.q} n={args.n} k={args.k} t={args.t} subfield={args.subfield} "
          f"words={args.words} seed={args.seed}: every shared table and every outcome equal")
    print(f"{'stage':<12}{'parent p50 ms':>15}{'change p50 ms':>15}{'ratio':>8}")
    for stage in STAGES:
        p50 = [statistics.median(side.times[stage]) for side in sides]
        print(f"{stage:<12}{p50[0]:>15.3f}{p50[1]:>15.3f}{p50[1] / p50[0]:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
