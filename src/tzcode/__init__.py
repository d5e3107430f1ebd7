"""Rank-metric MRD codes over F_{q^2n}, linear over the subfield F_{q^n}.

Construction, encoding, syndrome decoding of every error of rank
<= (2n-k-1)//2 and, at even k, of errors over F_(q^n) of rank n-k/2,
channel simulation, and brute-force oracles for desk-scale verification.

The hot kernels multiply small float64 matrices through BLAS (field.py).
They were tuned with BLAS pinned to one thread, as the benchmark runs them;
on a few cores the default thread pool can make each product slower, so a
caller that times or serves decodes should set OPENBLAS_NUM_THREADS=1 (or
its BLAS's equivalent) before numpy is imported.
"""

from . import errors
from .channel import (
    ChannelSpec,
    ErrorDecomposition,
    TrialReport,
    random_error,
    random_message,
    simulate,
    trial_rng,
)
from .construct import (
    TZCode,
    build_code,
    find_gamma,
    find_xi,
    is_valid_gamma,
    trace_almost_dual,
)
from .decoder import DecodeOutcome, decode, syndrome
from .field import FF2n, Basis, FieldCtx, rank_weight
from .linpoly import LinPoly
from .oracle import OracleResult, brute_force_decode, min_distance_bruteforce
from .paramfile import load_params, save_params

__version__ = "0.1.0"

__all__ = [
    "errors",
    "FieldCtx",
    "FF2n",
    "Basis",
    "rank_weight",
    "LinPoly",
    "TZCode",
    "build_code",
    "find_gamma",
    "is_valid_gamma",
    "find_xi",
    "trace_almost_dual",
    "decode",
    "DecodeOutcome",
    "syndrome",
    "ChannelSpec",
    "ErrorDecomposition",
    "TrialReport",
    "random_error",
    "random_message",
    "simulate",
    "trial_rng",
    "OracleResult",
    "brute_force_decode",
    "min_distance_bruteforce",
    "load_params",
    "save_params",
    "__version__",
]
