"""Flat-file persistence: JSON parameter files and bracketed vector lines.

Field elements serialize as coefficient arrays in the power basis, low
degree first, values in [0, q).  A vector file holds one word per line,
elements separated by commas, each element in square brackets; parsing is
exact and round trips bit for bit.  Only JSON integers are read, coefficients in [0, q).
"""

from __future__ import annotations

import json

from .construct import TZCode, build_code
from .errors import InvalidParameter
from .field import Basis, FieldCtx, _check_order

__all__ = [
    "params_dict",
    "params_from_dict",
    "save_params",
    "load_params",
    "format_vector",
    "parse_vector",
    "write_vectors",
    "read_vectors",
]

def _coeffs(value, q: int, what: str) -> list:
    """value if it is a list of JSON integers in [0, q), else InvalidParameter naming what."""
    if not isinstance(value, list) or any(type(c) is not int or not 0 <= c < q for c in value):
        raise InvalidParameter(f"{what} must be a list of integers in [0, {q}), got {value!r}")
    return value


def _elem_list(e) -> list:
    return [int(c) for c in e.coeffs]


def params_dict(code: TZCode) -> dict:
    from .channel import RNG_NAME

    return {
        "q": code.ctx.q,
        "n": code.ctx.n,
        "k": code.k,
        "modulus": [int(c) for c in code.ctx.modulus],
        "gamma": _elem_list(code.gamma),
        "xi": _elem_list(code.xi),
        "lambda": [_elem_list(e) for e in code.lam],
        "mu": [_elem_list(e) for e in code.mu],
        "rng": RNG_NAME,
    }


def params_from_dict(data: dict) -> TZCode:
    try:
        q, n, k = data["q"], data["n"], data["k"]
        _check_order(q, n)  # as FieldCtx checks them, before q bounds the coefficients
        ctx = FieldCtx(q, n, _coeffs(data["modulus"], q, "modulus"))
        lam = Basis([ctx.elem(_coeffs(e, q, f"lambda entry {j}"))
                     for j, e in enumerate(data["lambda"])])
        gamma = ctx.elem(_coeffs(data["gamma"], q, "gamma"))
        xi = ctx.elem(_coeffs(data["xi"], q, "xi"))
        stored_mu = [ctx.elem(_coeffs(e, q, f"mu entry {j}")) for j, e in enumerate(data["mu"])]
    except KeyError as exc:
        raise InvalidParameter(f"parameter file is missing key {exc}") from None
    except TypeError as exc:
        raise InvalidParameter(f"parameter file has a field of the wrong type: {exc}") from None
    code = build_code(ctx, k, lam=lam, gamma=gamma, xi=xi)
    if list(code.mu) != stored_mu:
        raise InvalidParameter("stored mu does not match the basis recomputed from lambda and xi")
    return code


def save_params(code: TZCode, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(params_dict(code), fp, indent=2)
        fp.write("\n")


def load_params(path) -> TZCode:
    with open(path, "r", encoding="utf-8") as fp:
        return params_from_dict(json.load(fp))


def format_vector(vec) -> str:
    return ",".join("[" + ",".join(str(int(c)) for c in e.coeffs) + "]" for e in vec)


def parse_vector(line: str, ctx: FieldCtx) -> tuple:
    try:
        entries = json.loads("[" + line.strip() + "]")
    except json.JSONDecodeError:
        raise InvalidParameter(f"malformed vector line: {line!r}") from None
    return tuple(ctx.elem(_coeffs(e, ctx.q, f"vector line {line.strip()!r}")) for e in entries)


def write_vectors(path, vectors):
    with open(path, "w", encoding="utf-8") as fp:
        for vec in vectors:
            fp.write(format_vector(vec))
            fp.write("\n")


def read_vectors(path, ctx: FieldCtx) -> list:
    out = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                out.append(parse_vector(line, ctx))
    return out
