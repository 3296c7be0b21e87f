"""Frobenius conjugacy classification at unramified primes.

For ell coprime to N_g * p, the Frobenius class of the residual
representation has trace a_ell mod p and determinant ell mod p (weight 2,
trivial nebentype).  When the two eigenvalues are distinct the semisimple
class is pinned down by (trace, det), so membership in the two admissible
families is decided by congruences alone:

* ``PiMember``:    eigenvalues {ell, 1},  needs a_ell = 1 + ell,  ell != +-1,
                   and ell**(p-1) != 1 mod p**2 (Wieferich-type exclusion);
* ``OmegaMember``: eigenvalues {-ell, -1}, needs a_ell = -(1 + ell), ell != +-1.

No mod-p**2 test applies to the Omega family: splitting behaviour in the
first cyclotomic layer only matters when the local multiplicity it scales
is nonzero, and for Omega primes that multiplicity is already zero.
"""

from __future__ import annotations

import csv
import os
from collections import deque
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, Sequence

from .arith import PrimeRange, count_primes, is_prime, sieve_primes
from .curves import CurveModel, trace_of_frobenius
from .forms import FormContext, a_ell


class Verdict(Enum):
    PI = "PiMember"
    OMEGA = "OmegaMember"
    NEITHER = "Neither"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class FrobeniusClass:
    """Classification outcome for one prime.

    ``trace_mod_p`` and ``det_mod_p`` are None exactly for Skipped primes
    (those dividing N_g * p, where the class is undefined).  ``reasons``
    records each congruence test in a fixed order.
    """

    ell: int
    trace_mod_p: int | None
    det_mod_p: int | None
    verdict: Verdict
    reasons: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "ell": self.ell,
            "trace_mod_p": self.trace_mod_p,
            "det_mod_p": self.det_mod_p,
            "verdict": self.verdict.value,
            "reasons": list(self.reasons),
        }


def classify_prime(ctx: FormContext, ell: int) -> FrobeniusClass:
    """Classify the Frobenius class at one prime ell coprime to N_g * p.

    Any other ell is refused with the ValueError of :func:`a_ell`.
    """
    return _frobenius_class(ell, a_ell(ctx, ell), ctx.p)


def _frobenius_class(ell: int, a: int, p: int) -> FrobeniusClass:
    """The class at an unramified prime ell with coefficient a_ell = a."""
    t = a % p
    d = ell % p

    reasons = ["coprime-to-Ngp=pass"]
    res_ok = d not in (1, p - 1)
    if res_ok:
        reasons.append("mod-p-class=pass")
    else:
        reasons.append(f"mod-p-class=fail(ell={'+1' if d == 1 else '-1'} mod p)")

    pi_trace = t == (1 + ell) % p
    omega_trace = t == (-(1 + ell)) % p
    if pi_trace:
        reasons.append("trace=pi")
    elif omega_trace:
        reasons.append("trace=omega")
    else:
        reasons.append("trace=neither")

    verdict = Verdict.NEITHER
    if res_ok and pi_trace:
        if pow(ell, p - 1, p * p) != 1:
            reasons.append("wieferich=pass")
            verdict = Verdict.PI
        else:
            reasons.append("wieferich=fail(ell^(p-1)=1 mod p^2)")
    else:
        reasons.append("wieferich=n/a")
        if res_ok and omega_trace:
            verdict = Verdict.OMEGA

    if verdict is not Verdict.NEITHER:
        _check_split_factorization(verdict, t, d, ell, p)
    return FrobeniusClass(ell, t, d, verdict, tuple(reasons))


def _check_split_factorization(verdict: Verdict, t: int, d: int, ell: int, p: int) -> None:
    """Recheck that X^2 - tX + d splits with the two distinct claimed roots."""
    if verdict is Verdict.PI:
        roots = (1, ell % p)
    else:
        roots = (p - 1, (-ell) % p)
    if roots[0] == roots[1]:
        raise AssertionError(f"repeated eigenvalue at ell={ell}, p={p}; classifier bug")
    for r in roots:
        if (r * r - t * r + d) % p != 0:
            raise AssertionError(
                f"claimed eigenvalue {r} is not a root of X^2-{t}X+{d} mod {p}"
            )


def _skipped(ell: int) -> FrobeniusClass:
    return FrobeniusClass(ell, None, None, Verdict.SKIPPED, ("divides-Ngp",))


# Primes in the first chunk of a sweep; later chunks double up to _MAX_CHUNK.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4096

# The context a pool worker fetches coefficients from, set once by the pool initializer.
_worker_ctx: FormContext | None = None


def _set_worker_context(ctx: FormContext) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _coefficients_in_worker(ells: Sequence[int]) -> list[int | Exception]:
    return _worker_ctx.coefficients(ells)


def _chunk_lengths(total: int, workers: int) -> Iterator[int]:
    """Chunk lengths covering ``total`` primes.

    Chunks start at ``_FIRST_CHUNK`` primes and double up to ``_MAX_CHUNK``,
    so a consumer that stops early leaves only small chunks running.  Each
    chunk also holds at most 1 / (2 * workers) of the primes still left
    (guided self-scheduling, Polychronopoulos and Kuck 1987), so the last,
    most expensive primes (point counting slows as ell grows) are spread
    over all workers instead of landing on one.
    """
    size = _FIRST_CHUNK
    while total > 0:
        n = min(size, -(-total // (2 * workers)))
        yield n
        total -= n
        size = min(2 * size, _MAX_CHUNK)


def coefficient_chunks(
    ctx: FormContext,
    prime_range: PrimeRange,
    *,
    workers: int | None = None,
) -> Iterator[tuple[list[int], dict[int, int | Exception]]]:
    """The primes of the range in ascending chunks, each with its coefficients.

    A chunk comes as its primes and a dict, in ascending order, from those
    that do not divide N_g * p to a_ell, or to the exception the backend
    raised at that ell (:meth:`FormContext.coefficients`).

    The sieved primes are cut into chunks (see :func:`_chunk_lengths`) whose
    coefficients are fetched on ``workers`` processes, capped at the cores
    this process may run on.  A 1-worker sweep, a range that fits in the
    first chunk, or a table backend makes the same batched lookups in this
    process: a table's coefficients are dict lookups, cheaper than the pool's
    start-up and traffic (``BENCH_11.json``), so only a curve, whose
    coefficients are point counts, is swept on a pool.  Only primes go out
    to a worker and only its list of coefficients comes back, about 4 bytes
    a prime pickled.  At most 2 * workers chunks are in flight and they are
    merged in ascending order, so the stream is identical at every worker
    count.  Closing the generator, explicitly or by dropping it, cancels the
    chunks not yet started and shuts the pool down, so a consumer that stops
    early stops the work too.
    """
    total = count_primes(prime_range)
    if total <= _FIRST_CHUNK or not isinstance(ctx.backend, CurveModel):
        workers = 1
    else:
        workers = max(1, min(workers or 1, len(os.sched_getaffinity(0))))
    primes = sieve_primes(prime_range)
    chunks = (list(islice(primes, n)) for n in _chunk_lengths(total, workers))

    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_set_worker_context, initargs=(ctx,)
        )

    def submit(ells: list[int]) -> tuple[list[int], list[int], Callable[[], list]]:
        # sieved, so prime: no need for the checks of a_ell
        exposed = [ell for ell in ells if not ctx.divides_ngp(ell)]
        if pool is None:
            return ells, exposed, partial(ctx.coefficients, exposed)
        return ells, exposed, pool.submit(_coefficients_in_worker, exposed).result

    in_flight: deque[tuple[list[int], list[int], Callable[[], list]]] = deque()
    try:
        while True:
            in_flight.extend(map(submit, islice(chunks, 2 * workers - len(in_flight))))
            if not in_flight:
                return
            ells, exposed, coefficients = in_flight.popleft()
            yield ells, dict(zip(exposed, coefficients()))
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _classify_chunk(
    ctx: FormContext, ells: Sequence[int], coefficients: dict[int, int | Exception]
) -> Iterator[FrobeniusClass]:
    """Classify a chunk in order, raising the error of the first prime whose coefficient failed.

    The consumer therefore sees exactly what a prime-by-prime loop would
    have yielded before raising, whatever the chunking: a table gap, say,
    as a CoverageError at the first uncovered prime, or a PointCountError
    at the first prime whose group order stayed ambiguous.
    """
    for ell in ells:
        a = coefficients.get(ell)
        if a is None:
            yield _skipped(ell)
        elif isinstance(a, Exception):
            raise a
        else:
            yield _frobenius_class(ell, a, ctx.p)


def classify_range(
    ctx: FormContext,
    prime_range: PrimeRange,
    *,
    workers: int | None = None,
) -> Iterator[FrobeniusClass]:
    """Classify every prime in the range, in ascending order.

    Primes dividing N_g * p come through as Skipped markers so that density
    denominators can count classifiable primes only.

    The coefficients come from :func:`coefficient_chunks` on ``workers``
    processes: primes go out to the pool and coefficients come back, and
    each chunk is classified here, in this process, as it arrives.  The
    stream (an error included) is therefore identical at every worker
    count, and closing it stops the sweep.
    """
    with closing(coefficient_chunks(ctx, prime_range, workers=workers)) as chunks:
        for ells, coefficients in chunks:
            yield from _classify_chunk(ctx, ells, coefficients)


def tee_to_csv(stream: Iterable[FrobeniusClass], out: IO[str]) -> Iterator[FrobeniusClass]:
    """Pass the stream through, writing it to ``out`` in the export format.

    The format has the header ``ell,trace_mod_p,verdict`` and one row per
    class, written as the class goes by.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["ell", "trace_mod_p", "verdict"])
    for fc in stream:
        writer.writerow([fc.ell, "" if fc.trace_mod_p is None else fc.trace_mod_p, fc.verdict.value])
        yield fc


def classification_to_csv(stream: Iterable[FrobeniusClass], out: IO[str]) -> None:
    """Write the whole stream to ``out`` in the export format of :func:`tee_to_csv`."""
    for _ in tee_to_csv(stream, out):
        pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ScreenReport:
    """Mechanizable eligibility checks for a candidate working prime p.

    ``asserted_only`` lists the hypotheses this tool can never check and
    which therefore require config attestation.
    """

    p: int
    checks: tuple[CheckResult, ...]
    asserted_only: tuple[str, ...]

    @property
    def mechanical_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "asserted_only": list(self.asserted_only),
            "eligible_mechanically": self.mechanical_pass,
        }


ASSERTED_ONLY_ITEMS = (
    "surjective_mod_p",
    "mu_zero",
    "lambda_g_certified",
    "optimal_level",
)


def screen_p(curve: CurveModel, p: int) -> ScreenReport:
    """Screen a candidate prime p for use with a curve-backed form.

    Checks the conditions a machine can decide (p >= 5 prime, p coprime to
    the conductor, ordinariness); everything else is reported as requiring
    attestation.  Always returns a report, never raises on a failing check.
    A check that cannot be evaluated fails with a "not evaluated (...)"
    detail naming what stopped it.  Ordinariness is evaluated exactly where
    :func:`curves.is_ordinary` answers: a_p comes from the point counter,
    whose one refusal at a prime p >= 5 is bad reduction.
    """
    p_ok = p >= 5 and is_prime(p)
    checks = [CheckResult("p>=5-and-prime", p_ok, f"p = {p}")]
    if not p_ok:
        skipped = "not evaluated (p is not a prime >= 5)"
        checks += [
            CheckResult("good-reduction-at-p", False, skipped),
            CheckResult("ordinary-at-p", False, skipped),
        ]
        return ScreenReport(p=p, checks=tuple(checks), asserted_only=ASSERTED_ONLY_ITEMS)

    good = curve.conductor % p != 0
    detail = f"conductor {curve.conductor} {'coprime to' if good else 'divisible by'} {p}"
    checks.append(CheckResult("good-reduction-at-p", good, detail))
    try:
        ap = trace_of_frobenius(curve, p)
    except ValueError:
        checks.append(CheckResult("ordinary-at-p", False, "not evaluated (bad reduction)"))
    else:
        checks.append(
            CheckResult("ordinary-at-p", ap % p != 0, f"a_p = {ap} mod {p} = {ap % p}")
        )
    return ScreenReport(p=p, checks=tuple(checks), asserted_only=ASSERTED_ONLY_ITEMS)


def resolve_workers() -> int:
    """Worker count when no ``--workers`` is given: LAMBDA_FORGE_THREADS, else the cores.

    Never more than the cores this process may run on.
    """
    cores = len(os.sched_getaffinity(0))
    env = os.environ.get("LAMBDA_FORGE_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"LAMBDA_FORGE_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise ValueError(f"LAMBDA_FORGE_THREADS must be >= 1, got {n}")
        return min(n, cores)
    return cores
