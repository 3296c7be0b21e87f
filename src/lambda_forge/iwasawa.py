"""Local transfer invariants (s_ell, d_ell, sigma_ell) and the lambda transfer.

For a prime ell != p the local contribution of ell to the lambda-invariant
is sigma_ell = s_ell * d_ell, where s_ell is the p-power counting primes
above ell in the cyclotomic Z_p-tower and d_ell is the multiplicity of
1/ell as a root of the mod-p local Euler factor.  Congruent forms differ in
lambda exactly by the sum of the sigma differences over primes of the new
level (Greenberg-Vatsal), which is what ``lambda_transfer`` evaluates.

Everything works on columns, one row a prime: :func:`s_ells` and
:func:`d_ells` are congruences in ell, except that a prime with
ell**(p-1) = 1 mod p**2 (about one in p) needs the exact scalar loop over
higher powers of p.  :func:`sigma_ell` is the one sigma kernel; both the
sweep (:func:`sigma_columns`) and the level planner call it.
"""

from __future__ import annotations

import numpy as np

from .curves import _pow
from .errors import HypothesisViolation, ResourceLimitError
from .forms import FormContext
from .residual import ClassifiedChunk

S_ELL_EXPONENT_CAP = 20


def s_ells(p: int, ells: np.ndarray) -> np.ndarray:
    """p**m at each ell, for the maximal m >= 0 with ell**(p-1) = 1 mod p**(m+1).

    ``ells`` has the dtype :func:`~lambda_forge.residual.column_dtype`.
    Fermat guarantees m >= 0.  ell**(p-1) = 1 mod p**2 is tested over the
    whole array; only the rows where it holds take the scalar loop over
    higher powers, in order, so the first ell whose exponent passes
    :data:`S_ELL_EXPONENT_CAP` is the one that raises, rather than being
    silently truncated.  The result is int64 while 2 * s fits, else an
    object array.
    """
    if (ells == p).any():
        raise ValueError("s_ell is undefined at ell = p")
    hits = np.flatnonzero(_pow(ells % (p * p), np.asarray(p - 1), p * p) == 1)
    exponents = [_s_exponent(p, ell) for ell in ells[hits].tolist()]
    top = p ** max(exponents, default=0)
    s = np.ones(len(ells), np.int64 if 2 * top < 2**63 else object)
    s[hits] = [p**m for m in exponents]
    return s


def _s_exponent(p: int, ell: int) -> int:
    m = 0
    while pow(ell, p - 1, p ** (m + 2)) == 1:
        m += 1
        if m > S_ELL_EXPONENT_CAP:
            raise ResourceLimitError(
                f"s_ell exponent exceeds cap {S_ELL_EXPONENT_CAP} at ell={ell}, p={p}"
            )
    return m


def d_ells(p: int, ells: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Multiplicity (0, 1 or 2) of 1/ell mod p as a root of 1 + c1*X + c2*X^2, a row each.

    All three arrays have the dtype :func:`~lambda_forge.residual.column_dtype`;
    c1 and c2 are taken mod p.
    """
    r = ells % p
    if not r.all():
        raise ValueError(f"ell = {ells[np.argmin(r != 0)]} not invertible mod {p}")
    x0 = _pow(r, np.asarray(p - 2), p)  # 1/ell, by Fermat
    c1, c2 = c1 % p, c2 % p
    root = (1 + x0 * ((c1 + c2 * x0) % p)) % p == 0
    # synthetic division of c2*X^2 + c1*X + 1 by (X - x0): quotient c2*X + (c1 + c2*x0)
    double = ((c1 + c2 * x0) % p + c2 * x0) % p == 0
    return np.where(root, 1 + double, 0)


def sigma_ell(
    p: int, ells: np.ndarray, c1: np.ndarray, c2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns (s_ell, d_ell, sigma = s_ell * d_ell) for the factors 1 + c1*X + c2*X^2."""
    s = s_ells(p, ells)
    d = d_ells(p, ells, c1, c2)
    return s, d, s * d


def sigma_columns(chunk: ClassifiedChunk) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ell, s_ell, d_ell, sigma) at the unramified primes of a classified chunk.

    Each prime's factor is its unramified one, 1 - t*X + ell*X^2 with
    t = a_ell mod p.
    """
    unramified = chunk.codes != 0
    ells = chunk.ells[unramified]
    return (ells, *sigma_ell(chunk.p, ells, -chunk.trace_mod_p[unramified], ells))


def lambda_transfer(ctx: FormContext, sigma_g: np.ndarray, sigma_f: np.ndarray) -> int:
    """lambda_f = lambda_g + sum over the new primes ell of (sigma_ell(g) - sigma_ell(f)).

    ``sigma_g`` and ``sigma_f`` are aligned columns, one row a prime of
    N_f / N_g.  Requires the certified mu_zero attestation: the congruence
    transfer of Selmer coranks is only valid when the mu-invariant of g
    vanishes.
    """
    if not ctx.mu_zero:
        raise HypothesisViolation(
            "lambda transfer requires the certified vanishing of mu_p(g); "
            "config asserts mu_zero = false"
        )
    return ctx.lambda_g + int((sigma_g - sigma_f).sum())


def bk_rank_bounds(lambda_f: int) -> dict[str, int | list[int]]:
    """Bloch-Kato Selmer corank information derived from a lambda-invariant.

    The corank is at most lambda with the same parity, and equals lambda
    whenever lambda <= 1 (``{"exact": lambda}``); otherwise only the
    candidate set is known (``{"candidates": [...]}``, ascending).
    """
    if lambda_f < 0:
        raise ValueError(f"lambda must be >= 0, got {lambda_f}")
    if lambda_f <= 1:
        return {"exact": lambda_f}
    return {"candidates": list(range(lambda_f % 2, lambda_f + 1, 2))}
