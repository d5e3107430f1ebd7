"""One hash of every decode outcome over a fixed grid of small codes.

    PYTHONPATH=src python tests/differential.py [--check]

prints the number of decodes, how many succeeded, and the SHA-256 of one
line per decode: success, failure reason, decoded rank t, and the
coefficients of the codeword and the message.  A second line does the same
for membership: one line per received word with is_codeword, and the
unmapped message when the word is a codeword.  The grid is q in {3, 5, 7},
n in {2, 3, 4}, every k, t from 0 to one past the unique radius, generic
errors and (where t <= n) subfield errors, TRIALS seeded trials each,
every received word decoded in both strict_alg1 modes.  A third line hashes
the decode lines of a wider grid at larger n: (q, n) in {(3, 6), (5, 5),
(3, 8), (7, 6)}, every third k from 1, t in {1, radius-1, ..., radius+2},
generic errors, WIDE_TRIALS trials each, both modes.  Run it on two trees
of the library: equal hashes mean that a change kept every outcome.  It
uses only the public API, so it runs unchanged on earlier trees.  With
--check it also compares its three lines with the committed
differential.expected beside it and exits 1 on any difference; a change
that alters outcomes on purpose re-records that file and says why.

pytest does not collect this file; it takes about 12 s on one core of a
2-vCPU x86-64 host.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from tzcode import ChannelSpec, FieldCtx, build_code, decode, random_error, random_message, trial_rng

TRIALS = 25
WIDE_TRIALS = 10
WIDE_FIELDS = ((3, 6), (5, 5), (3, 8), (7, 6))
EXPECTED = Path(__file__).with_name("differential.expected")


def _coeffs(vec) -> str:
    return "" if vec is None else ";".join(",".join(map(str, e.coeffs.tolist())) for e in vec)


def _decode_lines(code, r, head):
    for strict in (False, True):
        out = decode(code, r, strict_alg1=strict)
        yield (f"{head} {int(strict)} {int(out.success)} {out.failure_reason} {out.t} "
               f"{_coeffs(out.codeword)} {_coeffs(out.message)}")


def _received(code, spec, seed, trial):
    rng = trial_rng(seed, trial)
    cw = code.encode(random_message(code, rng))
    e, _ = random_error(code, spec, rng)
    return tuple(x + y for x, y in zip(cw, e))


def outcome_lines():
    """("decode", "member" or "wide", line) pairs in grid order; the seed of a setting is its position."""
    seed = 0
    for q in (3, 5, 7):
        for n in (2, 3, 4):
            ctx = FieldCtx(q, n)
            for k in range(1, ctx.m):
                code = build_code(ctx, k)
                for t in range(code.radius + 2):
                    for subfield in (False, True) if t <= n else (False,):
                        spec = ChannelSpec(t=t, subfield_only=subfield, seed=seed)
                        for trial in range(TRIALS):
                            r = _received(code, spec, seed, trial)
                            member = code.is_codeword(r)
                            yield "member", (
                                f"{q} {n} {k} {t} {int(subfield)} {trial} {int(member)} "
                                f"{_coeffs(code.unmap(r) if member else None)}")
                            for line in _decode_lines(
                                    code, r, f"{q} {n} {k} {t} {int(subfield)} {trial}"):
                                yield "decode", line
                        seed += 1
    for q, n in WIDE_FIELDS:
        ctx = FieldCtx(q, n)
        for k in range(1, ctx.m, 3):
            code = build_code(ctx, k)
            for t in sorted({1} | set(range(max(code.radius - 1, 1), code.radius + 3))):
                spec = ChannelSpec(t=t, seed=seed)
                for trial in range(WIDE_TRIALS):
                    r = _received(code, spec, seed, trial)
                    for line in _decode_lines(code, r, f"{q} {n} {k} {t} 0 {trial}"):
                        yield "wide", line
                seed += 1


def summary_lines():
    """The three printed lines: decode, membership and wide-grid counts with their hashes."""
    kinds = ("decode", "member", "wide")
    digests = {kind: hashlib.sha256() for kind in kinds}
    counts = {kind: [0, 0] for kind in kinds}  # lines, and decode successes or codewords
    for kind, line in outcome_lines():
        digests[kind].update(line.encode() + b"\n")
        counts[kind][0] += 1
        counts[kind][1] += line.split()[6 if kind == "member" else 7] == "1"
    decodes, successes = counts["decode"]
    words, codewords = counts["member"]
    wide, wide_successes = counts["wide"]
    return [
        f"{decodes} decodes, {successes} successes, sha256 {digests['decode'].hexdigest()}",
        f"{words} words, {codewords} codewords, sha256 {digests['member'].hexdigest()}",
        f"{wide} wide-grid decodes, {wide_successes} successes, "
        f"sha256 {digests['wide'].hexdigest()}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 unless the lines equal {EXPECTED.name}")
    args = parser.parse_args(argv)
    lines = summary_lines()
    print("\n".join(lines))
    if args.check and lines != EXPECTED.read_text().splitlines():
        print(f"differs from {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
