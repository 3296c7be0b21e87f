"""Admissible level sets: enumeration, Carayol admissibility, and planning.

A level set picks n primes from the Pi family and r from the Omega family;
the congruent newform then lives at level N_f = N_g * (product of the
chosen primes) and its predicted lambda-invariant is lambda_g + n,
independent of which specific primes were chosen.  Existence of the form at
each admissible level is the Diamond-Taylor level-raising theorem and is
attached as an asserted certificate, never recomputed.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arith import PrimeRange, factorize
from .density import exact_densities
from .errors import CoverageError, ResourceLimitError, ScarcityError
from .forms import FormContext
from .iwasawa import lambda_transfer, sigma_ell
from .residual import FrobeniusClass, Verdict, classify_range, column_dtype

MAX_LEVEL = 2**63
CARAYOL_TRIAL_BOUND = 10**6
EXISTENCE_ASSERTED = "DiamondTaylorAsserted"
EXISTENCE_IDENTITY = "IdentityOfBaseForm"


@dataclass(frozen=True)
class LevelSet:
    """A chosen set of level-raising primes with its predicted invariants."""

    pi_primes: tuple[int, ...]
    omega_primes: tuple[int, ...]
    n_sigma: int
    n_f: int
    predicted_lambda: int
    predicted_mu: int
    existence: str

    def as_dict(self) -> dict:
        return {
            "pi_primes": list(self.pi_primes),
            "omega_primes": list(self.omega_primes),
            "N_sigma": self.n_sigma,
            "N_f": self.n_f,
            "predicted_lambda": self.predicted_lambda,
            "predicted_mu": self.predicted_mu,
            "existence": self.existence,
        }


def _checked_product(factors: Iterable[int], start: int = 1) -> int:
    out = start
    for f in factors:
        out *= f
        if out > MAX_LEVEL:
            raise ResourceLimitError(f"level product exceeds 2^63 (reached {out})")
    return out


def _case1_identity_holds(ell: int, trace: int, p: int) -> bool:
    """Carayol case 1: ell * t^2 = (1 + ell)^2 * det mod p, with det = ell mod p."""
    return (ell * trace * trace - (1 + ell) ** 2 * ell) % p == 0


def build_level_set(
    ctx: FormContext,
    pi_classes: tuple[FrobeniusClass, ...],
    omega_classes: tuple[FrobeniusClass, ...],
) -> LevelSet:
    """Assemble a LevelSet from classified primes, running the full pipeline.

    The predicted lambda is obtained by actually evaluating the transfer sum
    over the chosen primes (generic Euler factors for g, degenerate ramified
    factors for the new form), not by shortcutting to lambda_g + n.  A prime
    dividing N_g * p has no Frobenius class to transfer and is refused.
    """
    chosen = [(c, Verdict.PI) for c in pi_classes] + [(c, Verdict.OMEGA) for c in omega_classes]
    for klass, _ in chosen:
        if ctx.divides_ngp(klass.ell):
            raise ValueError(f"level-raising prime {klass.ell} divides N_g * p")
    for klass, want in chosen:
        if klass.verdict is not want:
            raise ValueError(f"prime {klass.ell} has verdict {klass.verdict}, expected {want}")
        if not _case1_identity_holds(klass.ell, klass.trace_mod_p, ctx.p):
            raise AssertionError(
                f"level-raising prime {klass.ell} fails the Carayol case-1 identity; bug"
            )

    primes = [c.ell for c, _ in chosen]
    if len(set(primes)) != len(primes):
        raise ValueError(f"duplicate primes in level set: {sorted(primes)}")
    n_sigma = _checked_product(primes)
    n_f = _checked_product([ctx.level], start=n_sigma)

    dtype = column_dtype(ctx.p, max(primes, default=0))
    ells = np.array(primes, dtype)
    traces = np.array([c.trace_mod_p for c, _ in chosen], dtype)
    # Newly ramified at a Pi (Omega) prime, f has inertia acting by a nontrivial
    # unipotent; its inertia coinvariants are a line on which Frobenius acts by
    # +1 (-1), so the quadratic factor degenerates to 1 - X (1 + X).
    signs = np.array([-1 if want is Verdict.PI else 1 for _, want in chosen], dtype)
    _, _, sigma_g = sigma_ell(ctx.p, ells, -traces, ells)
    _, _, sigma_f = sigma_ell(ctx.p, ells, signs, np.zeros_like(ells))

    return LevelSet(
        pi_primes=tuple(c.ell for c in pi_classes),
        omega_primes=tuple(c.ell for c in omega_classes),
        n_sigma=n_sigma,
        n_f=n_f,
        predicted_lambda=lambda_transfer(ctx, sigma_g, sigma_f),
        predicted_mu=0,
        existence=EXISTENCE_ASSERTED if chosen else EXISTENCE_IDENTITY,
    )


def enumerate_level_sets(
    ctx: FormContext,
    classified: Iterable[FrobeniusClass],
    n: int,
    r: int,
    limit: int = 10,
) -> list[LevelSet]:
    """The lexicographically first ``limit`` level sets with n Pi and r Omega primes.

    ``classified`` is any classification stream (ascending ell).  n = r = 0
    yields the identity set describing the base form itself.
    """
    if n < 0 or r < 0:
        raise ValueError(f"n and r must be >= 0, got n={n}, r={r}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    pi_pool: list[FrobeniusClass] = []
    omega_pool: list[FrobeniusClass] = []
    for klass in classified:
        if klass.verdict is Verdict.PI:
            pi_pool.append(klass)
        elif klass.verdict is Verdict.OMEGA:
            omega_pool.append(klass)
    if len(pi_pool) < n or len(omega_pool) < r:
        raise ScarcityError(
            f"need {n} Pi and {r} Omega primes but the scan supplied "
            f"{len(pi_pool)} and {len(omega_pool)}"
        )
    out: list[LevelSet] = []
    for pi_choice in itertools.combinations(pi_pool, n):
        for omega_choice in itertools.combinations(omega_pool, r):
            out.append(build_level_set(ctx, pi_choice, omega_choice))
            if len(out) >= limit:
                return out
    return out


def plan_target_lambda(
    ctx: FormContext,
    target: int,
    r: int,
    scan_bound: int,
    *,
    workers: int | None = None,
) -> LevelSet:
    """Smallest level set predicted to hit ``target`` as the lambda-invariant.

    Picks the n = target - lambda_g smallest Pi primes and the r smallest
    Omega primes below ``scan_bound``.  The scan stops as soon as enough
    primes are found.
    """
    if r < 0:
        raise ValueError(f"omega count must be >= 0, got {r}")
    if target < ctx.lambda_g:
        raise ValueError(
            f"target {target} below lambda_g = {ctx.lambda_g}: "
            "the transfer can only raise the invariant"
        )
    n = target - ctx.lambda_g
    if max(n, r) == 0:
        raise ValueError(
            "target = lambda_g and omega count 0 would leave the level unchanged; "
            "request at least one Omega prime for a stability set"
        )
    pi_found: list[FrobeniusClass] = []
    omega_found: list[FrobeniusClass] = []
    with closing(classify_range(ctx, PrimeRange(2, scan_bound), workers=workers)) as stream:
        for klass in stream:
            if klass.verdict is Verdict.PI and len(pi_found) < n:
                pi_found.append(klass)
            elif klass.verdict is Verdict.OMEGA and len(omega_found) < r:
                omega_found.append(klass)
            if len(pi_found) >= n and len(omega_found) >= r:
                break
    if len(pi_found) < n or len(omega_found) < r:
        pi_density, omega_density = exact_densities(ctx.p)
        raise ScarcityError(
            f"scan to {scan_bound} found {len(pi_found)}/{n} Pi and "
            f"{len(omega_found)}/{r} Omega primes; expected supply rates are "
            f"{pi_density} (Pi) and {omega_density} (Omega) of all primes"
        )
    return build_level_set(ctx, tuple(pi_found), tuple(omega_found))


# --- Carayol admissibility -------------------------------------------------

CASE_DESCRIPTIONS = {
    "1": "alpha=1, ell coprime to base level, ell*t^2 = (1+ell)^2*det",
    "2a": "ell = -1 mod p, ell coprime to base level, trace 0, alpha=2",
    "2b": "ell = -1 mod p, ell exactly divides base level, det unramified, alpha=1",
    "3a": "ell = +1 mod p, ell coprime to base level, alpha=2",
    "3b": "ell = +1 mod p, alpha=1",
}


@dataclass(frozen=True)
class CarayolPrimeReport:
    ell: int
    alpha: int
    satisfied_cases: tuple[str, ...]
    status: str  # "admissible" | "violation" | "unknown"
    ambiguous: bool
    detail: str

    def as_dict(self) -> dict:
        return {
            "ell": self.ell,
            "alpha": self.alpha,
            "satisfied_cases": list(self.satisfied_cases),
            "status": self.status,
            "ambiguous": self.ambiguous,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CarayolReport:
    level: int
    base_level: int
    verdict: str  # "admissible" | "inadmissible" | "unknown" | "inadmissible_structural"
    primes: tuple[CarayolPrimeReport, ...]

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "base_level": self.base_level,
            "verdict": self.verdict,
            "primes": [p.as_dict() for p in self.primes],
        }


def carayol_check(ctx: FormContext, proposed_level: int) -> CarayolReport:
    """Check a proposed level against the per-prime admissibility conditions.

    The optimal level always divides an admissible one, so a level that is
    not a multiple of N_g is rejected structurally.  For each extra prime
    power the satisfied cases are all reported; more than one satisfied case
    is flagged ambiguous rather than silently resolved.  A prime whose trace
    the backend cannot supply is marked unknown, never guessed.
    """
    if proposed_level < 1:
        raise ValueError(f"level must be positive, got {proposed_level}")
    if proposed_level % ctx.p == 0:
        raise ValueError(f"proposed level {proposed_level} is divisible by p = {ctx.p}")
    if proposed_level % ctx.level != 0:
        return CarayolReport(
            level=proposed_level,
            base_level=ctx.level,
            verdict="inadmissible_structural",
            primes=(),
        )

    base_factors = dict(factorize(ctx.level, trial_bound=CARAYOL_TRIAL_BOUND))
    level_factors = dict(factorize(proposed_level, trial_bound=CARAYOL_TRIAL_BOUND))
    p = ctx.p

    extra = [ell for ell in sorted(level_factors) if level_factors[ell] > base_factors.get(ell, 0)]
    counted = [ell for ell in extra if not ctx.divides_ngp(ell)]
    fetched = iter(ctx.coefficients(counted))

    reports: list[CarayolPrimeReport] = []
    for ell in extra:
        ord_base = base_factors.get(ell, 0)
        alpha = level_factors[ell] - ord_base

        trace = None if ctx.divides_ngp(ell) else next(fetched)
        if isinstance(trace, CoverageError):
            trace = None
        elif isinstance(trace, Exception):
            raise trace
        elif trace is not None:
            trace %= p

        satisfied: list[str] = []
        undecided: list[str] = []
        residue = ell % p

        if ord_base == 0 and alpha == 1:
            if trace is None:
                undecided.append("1")
            elif _case1_identity_holds(ell, trace, p):
                satisfied.append("1")
        if residue == p - 1:
            if ord_base == 0 and alpha == 2:
                if trace is None:
                    undecided.append("2a")
                elif trace == 0:
                    satisfied.append("2a")
            if ord_base == 1 and alpha == 1:
                # det of the residual representation is the mod-p cyclotomic
                # character (weight 2, trivial nebentype), unramified away from p
                satisfied.append("2b")
        if residue == 1:
            if ord_base == 0 and alpha == 2:
                satisfied.append("3a")
            if alpha == 1 and ord_base in (0, 1):
                satisfied.append("3b")

        if satisfied:
            status = "admissible"
        elif undecided:
            status = "unknown"
        else:
            status = "violation"
        detail_bits = [CASE_DESCRIPTIONS[c] for c in satisfied]
        if undecided:
            detail_bits.append(
                f"cases {','.join(undecided)} undecidable: no coefficient for {ell}"
            )
        if not satisfied and not undecided:
            detail_bits.append("no admissibility case applies")
        reports.append(
            CarayolPrimeReport(
                ell=ell,
                alpha=alpha,
                satisfied_cases=tuple(satisfied),
                status=status,
                ambiguous=len(satisfied) > 1,
                detail="; ".join(detail_bits),
            )
        )

    if any(r.status == "violation" for r in reports):
        verdict = "inadmissible"
    elif any(r.status == "unknown" for r in reports):
        verdict = "unknown"
    else:
        verdict = "admissible"
    return CarayolReport(
        level=proposed_level, base_level=ctx.level, verdict=verdict, primes=tuple(reports)
    )
