"""Local transfer invariants (s_ell, d_ell, sigma_ell) and the lambda transfer.

For a prime ell != p the local contribution of ell to the lambda-invariant
is sigma_ell = s_ell * d_ell, where s_ell is the p-power counting primes
above ell in the cyclotomic Z_p-tower and d_ell is the multiplicity of
1/ell as a root of the mod-p local Euler factor.  Congruent forms differ in
lambda exactly by the sum of the sigma differences over primes of the new
level, which is what ``lambda_transfer`` evaluates.

s_ell and d_ell are computed over arrays of primes (:func:`s_ells`,
:func:`d_ells`, and :func:`sigma_columns` for a classified chunk): both are
congruences in ell, except that a prime with ell**(p-1) = 1 mod p**2 (about
one in p) needs the exact scalar loop over higher powers of p.  The
per-prime functions (:func:`compute_s_ell`, :func:`compute_d_ell`,
:func:`sigma_ell`) are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import _pow
from .errors import HypothesisViolation, MissingDataError, ResourceLimitError
from .forms import FormContext
from .residual import ClassifiedChunk, FrobeniusClass, Verdict, column_dtype

S_ELL_EXPONENT_CAP = 20


@dataclass(frozen=True)
class EulerFactor:
    """Mod-p local factor 1 + c1*X + c2*X^2 (constant term always 1)."""

    p: int
    c1: int
    c2: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", self.c1 % self.p)
        object.__setattr__(self, "c2", self.c2 % self.p)

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return (1, self.c1, self.c2)


@dataclass(frozen=True)
class SigmaDatum:
    """Per-prime transfer datum; sigma = s_ell * d_ell by construction."""

    ell: int
    s_ell: int
    d_ell: int
    sigma: int

    def __post_init__(self) -> None:
        if self.d_ell not in (0, 1, 2):
            raise ValueError(f"d_ell must be in {{0,1,2}}, got {self.d_ell}")
        if self.sigma != self.s_ell * self.d_ell:
            raise ValueError(
                f"sigma = {self.sigma} != s_ell * d_ell = {self.s_ell * self.d_ell}"
            )

    def as_dict(self) -> dict:
        return {"ell": self.ell, "s": self.s_ell, "d": self.d_ell, "sigma": self.sigma}


def compute_s_ell(p: int, ell: int) -> int:
    """p**m for the maximal m >= 0 with ell**(p-1) = 1 mod p**(m+1).

    Fermat guarantees m >= 0.  The exponent is capped at
    :data:`S_ELL_EXPONENT_CAP`; passing the cap raises rather than silently
    truncating.
    """
    return s_ells(p, np.array([ell], column_dtype(p, ell))).tolist()[0]


def s_ells(p: int, ells: np.ndarray) -> np.ndarray:
    """:func:`compute_s_ell` at each ell of an array of dtype :func:`column_dtype`.

    ell**(p-1) = 1 mod p**2 is tested over the whole array; only the rows
    where it holds take the scalar loop over higher powers, in order, so
    the first ell past the cap is the one that raises.  The result is int64
    while 2 * s fits, else an object array.
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


def euler_factor_from_frobenius(klass: FrobeniusClass, p: int) -> EulerFactor:
    """Unramified factor 1 - trace*X + det*X^2 from a classified prime."""
    if klass.trace_mod_p is None or klass.det_mod_p is None:
        raise MissingDataError(
            f"prime {klass.ell} was skipped (ramified); no Frobenius data for its factor"
        )
    return EulerFactor(p=p, c1=-klass.trace_mod_p, c2=klass.det_mod_p)


def ramified_euler_factor(verdict: Verdict, p: int) -> EulerFactor:
    """Factor for a form newly ramified at a Pi/Omega prime: 1 -+ X.

    Inertia then acts by nontrivial unipotents, the inertia coinvariants are
    a line on which Frobenius acts by +1 (Pi type) or -1 (Omega type), so the
    quadratic factor degenerates to 1 - X resp. 1 + X.
    """
    if verdict is Verdict.PI:
        return EulerFactor(p=p, c1=-1, c2=0)
    if verdict is Verdict.OMEGA:
        return EulerFactor(p=p, c1=1, c2=0)
    raise ValueError(f"ramified trivial-quotient factor needs a Pi/Omega verdict, got {verdict}")


def compute_d_ell(factor: EulerFactor, ell: int, p: int) -> int:
    """Multiplicity of 1/ell mod p as a root of the factor (0, 1, or 2)."""
    dtype = column_dtype(p, ell)
    c1, c2 = (np.array([c], dtype) for c in (factor.c1, factor.c2))
    return d_ells(p, np.array([ell], dtype), c1, c2).tolist()[0]


def d_ells(p: int, ells: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """:func:`compute_d_ell` at each row, for the factors 1 + c1*X + c2*X^2.

    All three arrays have the dtype :func:`column_dtype`; c1 and c2 are
    taken mod p.
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


def sigma_ell(p: int, ell: int, factor: EulerFactor) -> SigmaDatum:
    s = compute_s_ell(p, ell)
    d = compute_d_ell(factor, ell, p)
    return SigmaDatum(ell=ell, s_ell=s, d_ell=d, sigma=s * d)


def sigma_columns(chunk: ClassifiedChunk) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ell, s_ell, d_ell, sigma) at the unramified primes of a classified chunk.

    Each prime's factor is its unramified one, 1 - t*X + ell*X^2 with
    t = a_ell mod p (:func:`euler_factor_from_frobenius`).
    """
    unramified = chunk.codes != 0
    ells = chunk.ells[unramified]
    s = s_ells(chunk.p, ells)
    d = d_ells(chunk.p, ells, -chunk.trace_mod_p[unramified], ells)
    return ells, s, d, s * d


@dataclass(frozen=True)
class TransferResult:
    """Predicted invariants of a congruent form."""

    lambda_f: int
    mu_f: int


def lambda_transfer(
    ctx: FormContext,
    sigma_g: list[SigmaDatum] | tuple[SigmaDatum, ...],
    sigma_f: list[SigmaDatum] | tuple[SigmaDatum, ...],
) -> TransferResult:
    """lambda_f = lambda_g + sum over ell | N_f of (sigma_ell(g) - sigma_ell(f)).

    Requires the certified mu_zero attestation: the congruence transfer of
    Selmer coranks is only valid when the mu-invariant of g vanishes.  Both
    lists must cover the same primes.  Primes dividing N_g contribute zero
    identically (both forms see the same inertia coinvariants there), so
    such entries are accepted but never evaluated.  Returns mu_f = 0.
    """
    if not ctx.mu_zero:
        raise HypothesisViolation(
            "lambda transfer requires the certified vanishing of mu_p(g); "
            "config asserts mu_zero = false"
        )
    by_ell_g = {d.ell: d for d in sigma_g}
    by_ell_f = {d.ell: d for d in sigma_f}
    if len(by_ell_g) != len(sigma_g) or len(by_ell_f) != len(sigma_f):
        raise ValueError("duplicate primes in a sigma list")
    if set(by_ell_g) != set(by_ell_f):
        raise ValueError(
            f"sigma supports differ: {sorted(set(by_ell_g) ^ set(by_ell_f))}"
        )
    total = sum(
        by_ell_g[ell].sigma - by_ell_f[ell].sigma for ell in by_ell_g if ctx.level % ell
    )
    return TransferResult(lambda_f=ctx.lambda_g + total, mu_f=0)


@dataclass(frozen=True)
class RankBound:
    """Bloch-Kato Selmer corank information derived from a lambda-invariant.

    The corank is at most lambda with the same parity, and equals lambda
    whenever lambda <= 1; otherwise only the candidate set is known.
    """

    lambda_f: int
    exact: int | None
    candidates: tuple[int, ...]

    def as_dict(self) -> dict:
        if self.exact is not None:
            return {"exact": self.exact}
        return {"candidates": list(self.candidates)}


def bk_rank_bounds(lambda_f: int) -> RankBound:
    if lambda_f < 0:
        raise ValueError(f"lambda must be >= 0, got {lambda_f}")
    candidates = tuple(range(lambda_f % 2, lambda_f + 1, 2))
    if lambda_f <= 1:
        return RankBound(lambda_f=lambda_f, exact=lambda_f, candidates=candidates)
    return RankBound(lambda_f=lambda_f, exact=None, candidates=candidates)
