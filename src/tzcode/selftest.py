"""Golden reconstruction of the worked q=5, n=2, k=2 instance.

All constants are frozen coefficient vectors (low degree first) over F_5
for the modulus a^4 + 2.  The check rebuilds the code from the published
gamma and xi and demands entrywise equality for mu, G, H, and G H^T.
"""

from __future__ import annotations

import numpy as np

from .construct import build_code, gh_product
from .field import FieldCtx

Q, N, K = 5, 2, 2
MODULUS = [2, 0, 0, 0, 1]
GAMMA = [3, 2, 1, 1]
XI = [4, 2, 4, 0]
MU = [[1, 2, 1, 0], [2, 1, 0, 2], [1, 0, 2, 4], [0, 2, 4, 2]]
G = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0], [0, 0, 0, 2]],
    [[3, 2, 1, 1], [4, 4, 1, 3], [2, 2, 2, 3], [2, 1, 1, 1]],
    [[3, 2, 1, 1], [2, 2, 3, 4], [3, 3, 3, 2], [4, 2, 2, 2]],
]
H = [
    [[0, 1, 0, 4], [1, 0, 4, 0], [0, 4, 0, 2], [4, 0, 2, 0]],
    [[1, 4, 4, 0], [2, 2, 0, 1], [1, 0, 3, 2], [0, 4, 1, 1]],
    [[2, 1, 1, 3], [3, 3, 4, 2], [4, 2, 1, 3], [1, 3, 4, 4]],
    [[1, 3, 1, 0], [2, 4, 0, 3], [1, 0, 2, 1], [0, 3, 4, 3]],
]
GHT_CORNER_00 = [0, 4, 0, 1]
GHT_CORNER_33 = [0, 1, 0, 4]


def reference_code():
    ctx = FieldCtx(Q, N, MODULUS)
    return build_code(ctx, K, gamma=ctx.elem(GAMMA), xi=ctx.elem(XI))


def run_selftest():
    """Returns [(artifact, passed)] for mu, G, H, and G H^T."""
    code = reference_code()
    results = []
    results.append(("mu", [list(map(int, e.coeffs)) for e in code.mu] == MU))
    results.append(("G", code.G.tolist() == G))
    results.append(("H", code.H.tolist() == H))
    expected = np.zeros((4, 4, 4), dtype=np.int64)
    expected[0, 0] = GHT_CORNER_00
    expected[3, 3] = GHT_CORNER_33
    results.append(("GH^T", np.array_equal(gh_product(code), expected)))
    return results
