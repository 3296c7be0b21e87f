"""Density verification: exact conjugacy-class counts and Chebotarev sampling.

The Pi and Omega families correspond to explicit unions of semisimple
conjugacy classes in GL2(F_p); their proportions are (p-3)/(p-1)^2 of the
group, and the extra first-layer nonsplitting condition on Pi multiplies
that by (p-1)/p.  Both claims are checked two independent ways: exhaustive
enumeration of all p^4 matrices (exact rational identities) and empirical
Frobenius statistics over a sieved prime range (3-sigma band).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable

from .arith import PrimeRange, is_prime
from .errors import ResourceLimitError
from .forms import FormContext
from .residual import ClassifiedChunk, Verdict, verdict_counts
# the traced benchmark (bench/run.py) wraps density.classify_range by name
from .residual import classify_range  # noqa: F401

GL2_ENUMERATION_MAX_P = 13
MIN_EXPECTED_HITS = 30
DEFAULT_SIGMA_BAND = 3.0


@dataclass(frozen=True)
class ClassCountReport:
    """Exhaustive count of the two class families inside GL2(F_p)."""

    p: int
    gl2_order: int
    torus_order: int
    count_Y: int
    count_Y_prime: int
    ratio_Y: Fraction
    ratio_Y_prime: Fraction


def enumerate_gl2_classes(p: int) -> ClassCountReport:
    """Brute-force census of GL2(F_p) for small p (5 <= p <= 13).

    Y counts matrices semisimple with eigenvalues {a, 1}, Y' those with
    eigenvalues {a, -1}, both requiring a outside {0, +-1}.  Since the two
    eigenvalues are then distinct, membership is decided by the
    characteristic polynomial: det must avoid {0, +-1} and +1 (resp. -1)
    must be a root.
    """
    if not is_prime(p) or p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if p > GL2_ENUMERATION_MAX_P:
        raise ResourceLimitError(
            f"exhaustive GL2 enumeration is capped at p <= {GL2_ENUMERATION_MAX_P}, got {p}"
        )
    gl2 = 0
    count_y = 0
    count_y_prime = 0
    excluded = (0, 1, p - 1)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                bc = b * c
                for d in range(p):
                    det = (a * d - bc) % p
                    if det == 0:
                        continue
                    gl2 += 1
                    if det in excluded:
                        continue
                    tr = (a + d) % p
                    # char poly X^2 - tr*X + det evaluated at +1 and -1
                    if (1 - tr + det) % p == 0:
                        count_y += 1
                    if (1 + tr + det) % p == 0:
                        count_y_prime += 1
    expected_order = (p * p - 1) * (p * p - p)
    if gl2 != expected_order:
        raise AssertionError(f"enumerated |GL2| = {gl2} != {expected_order}; bug")
    return ClassCountReport(
        p=p,
        gl2_order=gl2,
        torus_order=(p - 1) ** 2,
        count_Y=count_y,
        count_Y_prime=count_y_prime,
        ratio_Y=Fraction(count_y, gl2),
        ratio_Y_prime=Fraction(count_y_prime, gl2),
    )


def exact_densities(p: int) -> tuple[Fraction, Fraction]:
    """(Pi density, Omega density) = ((p-3)/(p(p-1)), (p-3)/(p-1)^2)."""
    if not is_prime(p) or p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return Fraction(p - 3, p * (p - 1)), Fraction(p - 3, (p - 1) ** 2)


@dataclass(frozen=True)
class DensityReport:
    set_name: str
    exact_density: Fraction
    sample_primes: int
    hits: int
    empirical: Fraction
    standard_error: float
    z_score: float
    verdict: str  # "Consistent" | "Inconsistent" | "Underpowered"


def _make_report(name: str, density: Fraction, n: int, hits: int) -> DensityReport:
    if n == 0:
        return DensityReport(name, density, 0, 0, Fraction(0), 0.0, 0.0, "Underpowered")
    delta = float(density)
    se = sqrt(delta * (1.0 - delta) / n)
    z = (hits / n - delta) / se
    if density * n < MIN_EXPECTED_HITS:
        verdict = "Underpowered"
    else:
        verdict = "Consistent" if abs(z) <= DEFAULT_SIGMA_BAND else "Inconsistent"
    return DensityReport(
        set_name=name,
        exact_density=density,
        sample_primes=n,
        hits=hits,
        empirical=Fraction(hits, n),
        standard_error=se,
        z_score=z,
        verdict=verdict,
    )


def empirical_density(
    ctx: FormContext,
    prime_range: PrimeRange,
    *,
    workers: int | None = None,
    chunks: Iterable[ClassifiedChunk] | None = None,
) -> tuple[DensityReport, DensityReport]:
    """Observed Pi/Omega frequencies over a prime range, versus the exact densities.

    Ramified primes are excluded from numerator and denominator.  The
    comparison needs the (asserted) surjectivity of the residual image:
    without it the class proportions say nothing about prime frequencies,
    so a false assertion is a hard error.  A sample whose expected hit
    count falls below :data:`MIN_EXPECTED_HITS` yields an Underpowered verdict
    instead of a Consistent/Inconsistent call.

    ``chunks`` is the classification of ``prime_range`` when the caller
    already has one under way (the CLI writes it to CSV as it passes), and
    every a_ell in it has been fetched and checked.  Without it the range is
    swept here on ``workers`` processes (:func:`residual.verdict_counts`),
    fetching a_ell only where it can change a verdict: not at a prime
    dividing N_g * p, nor at one with ell = +-1 mod p, whose class has
    det = +-1 and is in neither family whatever its trace (the census's
    ``det in excluded``).  Those primes still count in ``sample_primes``,
    and a backend failure at one of them does not stop the sweep.  Either
    way the verdicts are counted a chunk at a time, from its code column.
    """
    ctx.require("surjective_mod_p")
    pi_density, omega_density = exact_densities(ctx.p)
    if chunks is None:
        tallies = verdict_counts(ctx, prime_range, workers=workers)
    else:
        tallies = (chunk.counts() for chunk in chunks)
    counts = dict.fromkeys(Verdict, 0)
    for tally in tallies:
        for verdict, count in tally.items():
            counts[verdict] += count
    n = sum(counts.values()) - counts[Verdict.SKIPPED]
    return (
        _make_report("Pi", pi_density, n, counts[Verdict.PI]),
        _make_report("Omega", omega_density, n, counts[Verdict.OMEGA]),
    )
