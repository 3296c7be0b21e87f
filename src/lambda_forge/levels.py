"""Admissible level sets: building and planning them, and Carayol admissibility.

A level set picks n primes from the Pi family and r from the Omega family;
the congruent newform then lives at level N_f = N_g * (product of the
chosen primes) and its predicted lambda-invariant is lambda_g + n,
independent of which specific primes were chosen.  Existence of the form at
each admissible level is the Diamond-Taylor level-raising theorem and is
attached as an asserted certificate, never recomputed.  A level set is
built from each family's (ell, a_ell) columns, and a plan picks its primes
from the sweep's classified chunks, so no object is built a prime.  A level's
Carayol admissibility is read off one table of cases, :data:`CARAYOL_CASES`.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import PrimeRange, factorize, int_text
from .density import exact_densities
from .errors import CoverageError, ResourceLimitError, ScarcityError
from .forms import FormContext
from .iwasawa import lambda_transfer, sigma_ell
from .residual import Verdict, classify_chunk, classify_chunks
# the traced benchmark (bench/run.py) wraps levels.classify_range by name
from .residual import classify_range  # noqa: F401

CARAYOL_TRIAL_BOUND = 10**6
EXISTENCE_ASSERTED = "DiamondTaylorAsserted"
EXISTENCE_IDENTITY = "IdentityOfBaseForm"


@dataclass(frozen=True)
class LevelSet:
    """A chosen set of level-raising primes with its predicted invariants."""

    pi_primes: tuple[int, ...]
    omega_primes: tuple[int, ...]
    N_sigma: int
    N_f: int
    predicted_lambda: int
    predicted_mu: int
    existence: str


def _case1_identity_holds(ell: int, trace: int, p: int) -> bool:
    """Carayol case 1: ell * t^2 = (1 + ell)^2 * det mod p, with det = ell mod p."""
    return (ell * trace * trace - (1 + ell) ** 2 * ell) % p == 0


def build_level_set(
    ctx: FormContext,
    pi: tuple[Sequence[int], Sequence[int]],
    omega: tuple[Sequence[int], Sequence[int]],
) -> LevelSet:
    """Assemble a LevelSet from chosen primes, running the full pipeline.

    ``pi`` and ``omega`` hold each family's primes as (ells, a_ells)
    columns; only a_ell mod p matters.  A prime dividing N_g * p has no
    Frobenius class to transfer and is refused, as is a prime chosen twice.
    Each family is sorted ascending, and each row's verdict is then derived
    again with :func:`residual.classify_chunk`, the one definition of the Pi
    and Omega families, and a prime outside its family is refused.  The
    ``LevelSet`` lists each family ascending.  The predicted lambda is
    obtained by actually evaluating the transfer sum over the chosen primes
    (generic Euler factors for g, degenerate ramified factors for the new
    form), not by shortcutting to lambda_g + n.
    """
    primes = [int(ell) for ell in (*pi[0], *omega[0])]
    for ell in primes:
        if ctx.divides_ngp(ell):
            raise ValueError(f"level-raising prime {ell} divides N_g * p")
    if len(set(primes)) != len(primes):
        raise ValueError(f"duplicate primes in level set: {sorted(primes)}")
    n_sigma = math.prod(primes)

    # classify_chunk picks the dtype of its columns from its last row, so each
    # family goes in ascending, for that row to be its largest prime
    pi_chunk, omega_chunk = (
        classify_chunk([ell for ell, _ in rows], np.arange(len(rows)),
                       np.asarray([a for _, a in rows]), ctx.p)
        for rows in (sorted(zip(map(int, ells), a_ells)) for ells, a_ells in (pi, omega))
    )
    for want, chunk in ((Verdict.PI, pi_chunk), (Verdict.OMEGA, omega_chunk)):
        for ell, t, verdict in zip(chunk.ells.tolist(), chunk.trace_mod_p.tolist(),
                                   chunk.verdicts()):
            if verdict is not want:
                raise ValueError(f"prime {ell} has verdict {verdict}, expected {want}")
            if not _case1_identity_holds(ell, t, ctx.p):
                raise AssertionError(
                    f"level-raising prime {ell} fails the Carayol case-1 identity; bug"
                )

    ells = np.concatenate((pi_chunk.ells, omega_chunk.ells))
    traces = np.concatenate((pi_chunk.trace_mod_p, omega_chunk.trace_mod_p))
    # Newly ramified at a Pi (Omega) prime, f has inertia acting by a nontrivial
    # unipotent; its inertia coinvariants are a line on which Frobenius acts by
    # +1 (-1), so the quadratic factor degenerates to 1 - X (1 + X).
    signs = np.array([-1] * len(pi_chunk.ells) + [1] * len(omega_chunk.ells), ells.dtype)
    _, _, sigma_g = sigma_ell(ctx.p, ells, -traces, ells)
    _, _, sigma_f = sigma_ell(ctx.p, ells, signs, np.zeros_like(ells))

    return LevelSet(
        pi_primes=tuple(pi_chunk.ells.tolist()),
        omega_primes=tuple(omega_chunk.ells.tolist()),
        N_sigma=n_sigma,
        N_f=ctx.level * n_sigma,
        predicted_lambda=lambda_transfer(ctx, sigma_g, sigma_f),
        predicted_mu=0,
        existence=EXISTENCE_ASSERTED if primes else EXISTENCE_IDENTITY,
    )


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
    Omega primes below ``scan_bound``, reading each classified chunk's
    columns.  The scan stops as soon as enough primes are found.
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
    need = {Verdict.PI: n, Verdict.OMEGA: r}
    found = {verdict: ([], []) for verdict in need}  # each family's (ells, traces)
    with closing(classify_chunks(ctx, PrimeRange(2, scan_bound), workers=workers)) as chunks:
        for chunk in chunks:
            verdicts = chunk.verdicts()
            for verdict, (ells, traces) in found.items():
                rows = np.flatnonzero(verdicts == verdict)[: need[verdict] - len(ells)]
                ells += chunk.ells[rows].tolist()
                traces += chunk.trace_mod_p[rows].tolist()
            if all(len(found[verdict][0]) == need[verdict] for verdict in need):
                break
    pi, omega = found[Verdict.PI], found[Verdict.OMEGA]
    if len(pi[0]) < n or len(omega[0]) < r:
        pi_density, omega_density = exact_densities(ctx.p)
        raise ScarcityError(
            f"scan to {scan_bound} found {len(pi[0])}/{n} Pi and "
            f"{len(omega[0])}/{r} Omega primes; expected supply rates are "
            f"{pi_density} (Pi) and {omega_density} (Omega) of all primes"
        )
    return build_level_set(ctx, pi, omega)


# --- Carayol admissibility -------------------------------------------------

# Carayol's cases in report order: (name, ell mod p or None for any, the
# (ord_base, alpha) pairs it covers, a test of (ell, a_ell mod p, p) or None,
# description).  A case with a test is undecided at a prime with no trace.
CARAYOL_CASES = (
    ("1", None, ((0, 1),), _case1_identity_holds,
     "alpha=1, ell coprime to base level, ell*t^2 = (1+ell)^2*det"),
    ("2a", -1, ((0, 2),), lambda ell, trace, p: trace == 0,
     "ell = -1 mod p, ell coprime to base level, trace 0, alpha=2"),
    # det of the residual representation is the mod-p cyclotomic character
    # (weight 2, trivial nebentype), unramified away from p
    ("2b", -1, ((1, 1),), None,
     "ell = -1 mod p, ell exactly divides base level, det unramified, alpha=1"),
    ("3a", 1, ((0, 2),), None, "ell = +1 mod p, ell coprime to base level, alpha=2"),
    ("3b", 1, ((0, 1), (1, 1)), None, "ell = +1 mod p, alpha=1"),
)


@dataclass(frozen=True)
class CarayolPrimeReport:
    ell: int
    alpha: int
    satisfied_cases: tuple[str, ...]
    status: str  # "admissible" | "violation" | "unknown"
    ambiguous: bool
    detail: str


@dataclass(frozen=True)
class CarayolReport:
    level: int
    base_level: int
    verdict: str  # "admissible" | "inadmissible" | "unknown" | "inadmissible_structural"
    primes: tuple[CarayolPrimeReport, ...]


def carayol_check(
    ctx: FormContext,
    proposed_level: int,
    *,
    factors: Sequence[tuple[int, int]] | None = None,
) -> CarayolReport:
    """Check a proposed level against the per-prime admissibility conditions.

    The optimal level always divides an admissible one, so a level that is
    not a multiple of N_g is rejected structurally.  Each extra prime power
    is held against the rows of :data:`CARAYOL_CASES`, and is admissible if
    a case holds (more than one is flagged ambiguous, never resolved), else
    unknown if a case needs the trace the backend cannot supply (a gap in a
    table, or a prime past what the point counter accepts), else a
    violation.  The level is inadmissible if a prime is a violation, else
    unknown if a prime is unknown, else admissible.

    The level is factored by trial division up to
    :data:`CARAYOL_TRIAL_BOUND` unless ``factors``, its (prime, exponent)
    pairs, are given; they must multiply to the level.
    """
    if proposed_level < 1:
        raise ValueError(f"level must be positive, got {int_text(proposed_level)}")
    if proposed_level % ctx.p == 0:
        raise ValueError(f"proposed level {int_text(proposed_level)} is divisible by p = {ctx.p}")
    if proposed_level % ctx.level != 0:
        return CarayolReport(level=proposed_level, base_level=ctx.level,
                             verdict="inadmissible_structural", primes=())

    base_factors = dict(factorize(ctx.level, trial_bound=CARAYOL_TRIAL_BOUND))
    if factors is None:
        factors = factorize(proposed_level, trial_bound=CARAYOL_TRIAL_BOUND)
    level_factors = dict(factors)
    if math.prod(q**e for q, e in level_factors.items()) != proposed_level:
        raise ValueError(
            f"the factors given do not multiply to the level {int_text(proposed_level)}"
        )
    p = ctx.p

    extra = [ell for ell in sorted(level_factors) if level_factors[ell] > base_factors.get(ell, 0)]
    # a_ell mod p at the extra primes not dividing N_g * p, one batch up to each
    # prime the backend fails at (a gap in a table, or a prime too large to
    # count points at); that prime gets no trace, and the batch goes on past it
    traces: dict[int, int] = {}
    pending = [ell for ell in extra if not ctx.divides_ngp(ell)]
    while pending:
        column, error = ctx.coefficient_column(pending)
        traces.update(zip(pending, (column % p).tolist()))
        if error is None:
            break
        if not isinstance(error, (CoverageError, ResourceLimitError)):
            raise error
        pending = pending[len(column) + 1:]

    reports: list[CarayolPrimeReport] = []
    for ell in extra:
        ord_base = base_factors.get(ell, 0)
        alpha = level_factors[ell] - ord_base
        trace = traces.get(ell)
        satisfied: list[str] = []
        undecided: list[str] = []
        detail_bits: list[str] = []
        for name, residue, shapes, trace_test, description in CARAYOL_CASES:
            if (ord_base, alpha) not in shapes:
                continue
            if residue is not None and (ell - residue) % p != 0:
                continue
            if trace_test is not None and trace is None:
                undecided.append(name)
            elif trace_test is None or trace_test(ell, trace, p):
                satisfied.append(name)
                detail_bits.append(description)

        if satisfied:
            status = "admissible"
        elif undecided:
            status = "unknown"
        else:
            status = "violation"
            detail_bits.append("no admissibility case applies")
        if undecided:
            detail_bits.append(f"cases {','.join(undecided)} undecidable: no coefficient for {ell}")
        reports.append(CarayolPrimeReport(
            ell=ell, alpha=alpha, satisfied_cases=tuple(satisfied), status=status,
            ambiguous=len(satisfied) > 1, detail="; ".join(detail_bits),
        ))

    if any(r.status == "violation" for r in reports):
        verdict = "inadmissible"
    elif any(r.status == "unknown" for r in reports):
        verdict = "unknown"
    else:
        verdict = "admissible"
    return CarayolReport(
        level=proposed_level, base_level=ctx.level, verdict=verdict, primes=tuple(reports)
    )
