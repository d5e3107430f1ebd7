"""Command-line interface.

Exit codes: 0 success, 1 decoding failure (decode subcommand) or a failed
selftest, 2 invalid parameters (a malformed parameter or vector file too),
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import paramfile
from .channel import ChannelSpec, simulate
from .construct import build_code
from .decoder import decode
from .errors import TZError
from .field import Basis, FieldCtx
from .oracle import DEFAULT_BUDGET, min_distance_bruteforce
from .selftest import run_selftest

EXIT_OK = 0
EXIT_DECODE_FAILURE = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3


def _parse_int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _cmd_gen(args) -> int:
    ctx = FieldCtx(args.q, args.n, _parse_int_list(args.modulus) if args.modulus else None)
    gamma = ctx.elem(_parse_int_list(args.gamma)) if args.gamma else None
    xi = ctx.elem(_parse_int_list(args.xi)) if args.xi else None
    if xi is not None and gamma is None:
        raise TZError("--xi requires --gamma")
    lam = Basis([ctx.elem(e) for e in json.loads(args.lam)]) if args.lam else None
    code = build_code(ctx, args.k, lam=lam, gamma=gamma, xi=xi)
    paramfile.save_params(code, args.out)
    print(f"wrote {args.out}: q={ctx.q} n={ctx.n} k={code.k} d={code.min_distance}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    code = paramfile.load_params(args.params)
    messages = paramfile.read_vectors(args.msg, code.ctx)
    codewords = [code.encode(m) for m in messages]
    paramfile.write_vectors(args.out, codewords)
    print(f"encoded {len(codewords)} message(s) -> {args.out}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    code = paramfile.load_params(args.params)
    received = paramfile.read_vectors(getattr(args, "in"), code.ctx)
    failures = 0
    lines = []
    for r in received:
        out = decode(code, r)
        if out.success:
            lines.append(paramfile.format_vector(out.codeword))
        else:
            failures += 1
            lines.append(f"FAILURE:{out.failure_reason}")
    with open(args.out, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")
    print(f"decoded {len(received) - failures}/{len(received)} word(s) -> {args.out}")
    return EXIT_DECODE_FAILURE if failures else EXIT_OK


def _cmd_simulate(args) -> int:
    code = paramfile.load_params(args.params)
    spec = ChannelSpec(t=args.t, subfield_only=args.subfield_only, seed=args.seed)
    report = simulate(code, spec, args.trials)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    results = run_selftest()
    all_ok = True
    for name, ok in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_DECODE_FAILURE


def _cmd_mindist(args) -> int:
    code = paramfile.load_params(args.params)
    d = min_distance_bruteforce(code, budget=args.budget)
    expected = code.min_distance
    print(f"minimum rank distance: {d} (construction target {expected})")
    return EXIT_OK if d == expected else EXIT_DECODE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tzcode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="instantiate a code and write its parameter file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modulus", help="comma-separated coefficients, low degree first")
    p.add_argument("--gamma", help="comma-separated coefficients of gamma")
    p.add_argument("--xi", help="comma-separated coefficients of xi (requires --gamma)")
    p.add_argument("--lam", help="JSON list of coefficient lists for the evaluation basis")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("encode", help="encode message vectors")
    p.add_argument("--params", required=True)
    p.add_argument("--msg", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode received vectors: every error of rank "
                       "<= (2n-k-1)//2, and at even k errors over F_(q^n) of rank n-k/2")
    p.add_argument("--params", required=True)
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="seeded error-channel campaign")
    p.add_argument("--params", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--subfield-only", action="store_true",
                   help="error entries in F_(q^n), which rank n-k/2 needs at even k")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("selftest", help="reproduce the published q=5 instance")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("mindist", help="brute-force minimum rank distance")
    p.add_argument("--params", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_mindist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TZError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
