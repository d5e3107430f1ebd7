"""One hash of every decode outcome over a fixed grid of small codes.

    PYTHONPATH=src python tests/differential.py

prints the number of decodes, how many succeeded, and the SHA-256 of one
line per decode: success, failure reason, decoded rank t, and the
coefficients of the codeword and the message.  A second line does the same
for membership: one line per received word with is_codeword, and the
unmapped message when the word is a codeword.  The grid is q in {3, 5, 7},
n in {2, 3, 4}, every k, t from 0 to one past the unique radius, generic
errors and (where t <= n) subfield errors, TRIALS seeded trials each,
every received word decoded in both strict_alg1 modes.  Run it on two trees
of the library: equal hashes mean that a change kept every outcome.  It
uses only the public API, so it runs unchanged on earlier trees.

pytest does not collect this file; it takes about 20 s.
"""

from __future__ import annotations

import hashlib

from tzcode import ChannelSpec, FieldCtx, build_code, decode, random_error, random_message, trial_rng

TRIALS = 25


def _coeffs(vec) -> str:
    return "" if vec is None else ";".join(",".join(map(str, e.coeffs.tolist())) for e in vec)


def outcome_lines():
    """("decode" or "member", line) pairs in grid order; the seed of each setting is its position."""
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
                            rng = trial_rng(seed, trial)
                            cw = code.encode(random_message(code, rng))
                            e, _ = random_error(code, spec, rng)
                            r = tuple(x + y for x, y in zip(cw, e))
                            member = code.is_codeword(r)
                            yield "member", (
                                f"{q} {n} {k} {t} {int(subfield)} {trial} {int(member)} "
                                f"{_coeffs(code.unmap(r) if member else None)}")
                            for strict in (False, True):
                                out = decode(code, r, strict_alg1=strict)
                                yield "decode", (
                                    f"{q} {n} {k} {t} {int(subfield)} {trial} {int(strict)} "
                                    f"{int(out.success)} {out.failure_reason} {out.t} "
                                    f"{_coeffs(out.codeword)} {_coeffs(out.message)}")
                        seed += 1


def main():
    digests = {"decode": hashlib.sha256(), "member": hashlib.sha256()}
    counts = {"decode": [0, 0], "member": [0, 0]}  # lines, and decode successes or codewords
    for kind, line in outcome_lines():
        digests[kind].update(line.encode() + b"\n")
        counts[kind][0] += 1
        counts[kind][1] += line.split()[7 if kind == "decode" else 6] == "1"
    decodes, successes = counts["decode"]
    words, codewords = counts["member"]
    print(f"{decodes} decodes, {successes} successes, sha256 {digests['decode'].hexdigest()}")
    print(f"{words} words, {codewords} codewords, sha256 {digests['member'].hexdigest()}")


if __name__ == "__main__":
    main()
