"""lambda_forge: level raising of weight-2 newforms with prescribed
Iwasawa lambda-invariants.

Starting from a fixed p-ordinary newform g (backed by an elliptic curve or
a coefficient table) with certified lambda/mu data, the package classifies
primes by Frobenius conjugacy class, plans admissible raised levels,
predicts the lambda-invariant of the congruent newforms living there, and
verifies the exact Chebotarev densities of the admissible prime families
both by exhaustive GL2(F_p) enumeration and by empirical sampling.
"""

import os
import sys

# The package makes no BLAS call, so numpy need not start OpenBLAS's thread
# pool (a thread a core) at import.  Set before the first import of numpy,
# so that pool workers and every other importer get it too; a value the
# user has set wins, and once numpy is loaded the variable is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import PrimeRange, sieve_primes
from .curves import (
    CurveModel,
    count_points_bsgs,
    count_points_naive,
    is_ordinary,
    trace_of_frobenius,
    traces_of_frobenius,
)
from .density import (
    ClassCountReport,
    DensityReport,
    empirical_density,
    enumerate_gl2_classes,
    exact_densities,
)
from .forms import CoefficientTable, FormContext, a_ell, load_coefficients
from .iwasawa import bk_rank_bounds, lambda_transfer, sigma_columns, sigma_ell
from .levels import (
    CarayolReport,
    LevelSet,
    build_level_set,
    carayol_check,
    plan_target_lambda,
)
from .residual import (
    ClassifiedChunk,
    FrobeniusClass,
    ScreenReport,
    Verdict,
    classify_chunks,
    classify_prime,
    classify_range,
    screen_p,
)

__version__ = "0.1.0"

__all__ = [
    "CarayolReport",
    "ClassCountReport",
    "ClassifiedChunk",
    "CoefficientTable",
    "CurveModel",
    "DensityReport",
    "FormContext",
    "FrobeniusClass",
    "LevelSet",
    "PrimeRange",
    "ScreenReport",
    "Verdict",
    "a_ell",
    "bk_rank_bounds",
    "build_level_set",
    "carayol_check",
    "classify_chunks",
    "classify_prime",
    "classify_range",
    "count_points_bsgs",
    "count_points_naive",
    "empirical_density",
    "enumerate_gl2_classes",
    "exact_densities",
    "is_ordinary",
    "lambda_transfer",
    "load_coefficients",
    "plan_target_lambda",
    "screen_p",
    "sieve_primes",
    "sigma_columns",
    "sigma_ell",
    "trace_of_frobenius",
    "traces_of_frobenius",
]
