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

Every test is a congruence, so a sweep classifies a whole chunk of primes
at once (:func:`classify_chunk`): a :class:`ClassifiedChunk` holds the
columns ell, a_ell mod p and a code naming the outcome of each test, all
computed in numpy.  The chunks come from :func:`coefficient_chunks` as
columns too (:class:`CoefficientChunk`): the sieved primes, the rows whose
a_ell was fetched and those a_ell.  Every report reads the columns: the CSV
export, the JSON rows (:meth:`ClassifiedChunk.json_rows`), the density
counts, the sigma columns and the primes ``plan`` picks
(:meth:`ClassifiedChunk.verdicts`).  No command builds one
:class:`FrobeniusClass` a prime: :func:`classify_range` still flattens the
chunks that way, for tests and for the benchmark's tracer, which wraps it
by name.  Only the density counts (:func:`verdict_counts`) fetch fewer
rows: those that can change a verdict (:func:`verdict_rows`).
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import product
from math import isqrt
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .arith import PrimeRange, PrimeStream, is_prime
# the traced benchmark (bench/run.py) wraps residual.sieve_primes by name
from .arith import sieve_primes  # noqa: F401
from .curves import CurveModel, _pow, trace_of_frobenius
from .errors import PointCountError, ResourceLimitError
from .forms import HYPOTHESES, FormContext, a_ell


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


def classify_prime(ctx: FormContext, ell: int) -> FrobeniusClass:
    """Classify the Frobenius class at one prime ell coprime to N_g * p.

    Any other ell is refused with the ValueError of :func:`a_ell`.
    """
    (klass,) = classify_chunk([ell], [0], np.array([a_ell(ctx, ell)]), ctx.p).classes()
    return klass


# The outcomes of the three congruence tests, as recorded in ``reasons``.
_MOD_P_CLASS = ("mod-p-class=pass", "mod-p-class=fail(ell=+1 mod p)",
                "mod-p-class=fail(ell=-1 mod p)")
_TRACE = ("trace=pi", "trace=omega", "trace=neither")
_WIEFERICH = ("wieferich=pass", "wieferich=fail(ell^(p-1)=1 mod p^2)", "wieferich=n/a")

# A row's code: 0 for a Skipped prime, else 1 + 9*m + 3*t + w for the outcomes
# (m, t, w), each an index into the tuple of its test above.  A prime is Pi
# when all three pass, Omega when its class passes with an Omega trace.
_REASONS = (("divides-Ngp",),) + tuple(
    ("coprime-to-Ngp=pass", _MOD_P_CLASS[m], _TRACE[t], _WIEFERICH[w])
    for m, t, w in product(range(3), repeat=3)
)
_VERDICTS = (Verdict.SKIPPED,) + tuple(
    Verdict.PI if (m, t, w) == (0, 0, 0)
    else Verdict.OMEGA if (m, t) == (0, 1)
    else Verdict.NEITHER
    for m, t, w in product(range(3), repeat=3)
)
_VERDICT_INDEX = np.array([list(Verdict).index(v) for v in _VERDICTS])
_VERDICT_COLUMN = np.array(_VERDICTS, dtype=object)

# What follows the trace in a row of the CSV export, by code.
_CSV_TAILS = tuple(f",{v.value}\n" for v in _VERDICTS)

# A report value that json_row_pieces cuts the row's JSON text at.
JSON_FIELD = "\0"
# What comes between two rows of a list at the top level of a report.
JSON_ROW_SEPARATOR = ",\n    "


def json_value(value: object) -> object:
    """The JSON form of a report object: the ``default`` every report is dumped with.

    A dataclass is written as the dict of its fields, an :class:`Enum` as
    its value and a :class:`Fraction` as its ``str``.  Any other type is
    refused with TypeError, as ``json.dumps`` refuses it.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_row_pieces(row: object) -> list[str]:
    """The JSON text of a report row, cut at each value that is :data:`JSON_FIELD`.

    The text is the row's as ``json.dumps(report, sort_keys=True, indent=2,
    default=json_value)`` prints it in a list at the top level of the
    report.  Its fields come in key order, so the row with the integers v0,
    v1, ... in those fields is ``pieces[0] + str(v0) + pieces[1] + str(v1)
    + ... + pieces[-1]``.
    """
    text = json.dumps(row, sort_keys=True, indent=2, default=json_value)
    return text.replace("\n", "\n    ").split(json.dumps(JSON_FIELD))


def _json_row_pieces(code: int) -> list[str]:
    """A row of this code in JSON, cut at det, ell and trace; a Skipped row at ell alone."""
    value = JSON_FIELD if code else None
    klass = FrobeniusClass(JSON_FIELD, value, value, _VERDICTS[code], _REASONS[code])
    return json_row_pieces(klass)


# The JSON of a row by code, cut at its fields.  Every classified row starts
# alike, as det_mod_p and ell sort first; only the pieces around its trace
# depend on its code.
_JSON_PIECES = tuple(map(_json_row_pieces, range(len(_REASONS))))
_JSON_DET, _JSON_ELL = _JSON_PIECES[1][:2]
_JSON_TRACES, _JSON_TAILS = zip(*(pieces[-2:] for pieces in _JSON_PIECES))


def mod_p_class(det: np.ndarray, p: int) -> np.ndarray:
    """The mod-p-class test at each det = ell mod p, as an index into ``_MOD_P_CLASS``.

    It fails, 1 at ell = +1 and 2 at ell = -1 mod p, where the eigenvalue
    ell of a Pi class (or -ell of an Omega class) would meet the other
    eigenvalue +-1.  Such a prime is Neither whatever its a_ell, just as
    the census of :func:`density.enumerate_gl2_classes` drops every class
    with ``det in excluded``.
    """
    return (det == 1) + 2 * (det == p - 1)


def verdict_rows(ctx: FormContext, ells: np.ndarray) -> np.ndarray:
    """Which of the sieved primes ``ells`` have an a_ell that can change a verdict.

    Those that neither divide N_g * p (Skipped) nor fail the mod-p-class
    test (:func:`mod_p_class`, Neither): the verdict of every other prime
    is fixed by ell alone.
    """
    return ~ctx.divides_ngp(ells) & (mod_p_class(ells % ctx.p, ctx.p) == 0)


# Up to this p a product of two residues mod p^2 fits in int64, so the
# columns of a chunk are int64; a larger p, or an ell from 2^62 up, runs the
# same code on dtype=object arrays of exact Python ints.
_INT64_P_LIMIT = isqrt(isqrt(2**63 - 1))


def column_dtype(p: int, top: int):
    """The dtype of the columns of primes up to ``top`` at the working prime p."""
    return np.int64 if p <= _INT64_P_LIMIT and top < 2**62 else object


@dataclass(frozen=True, eq=False)  # numpy columns have no single truth value
class ClassifiedChunk:
    """Consecutive primes classified as columns, one row a prime, ascending.

    ``trace_mod_p`` is a_ell mod p, or -1 at a Skipped prime.  ``codes``
    names each row's reasons and verdict (see ``_REASONS``); the det column
    is ``ells % p``, so it is not stored.
    """

    p: int
    ells: np.ndarray
    trace_mod_p: np.ndarray
    codes: np.ndarray

    def _rows(self) -> zip:
        return zip(self.ells.tolist(), self.trace_mod_p.tolist(), self.codes.tolist())

    def classes(self) -> Iterator[FrobeniusClass]:
        """The rows as :class:`FrobeniusClass` objects, in order."""
        for ell, t, code in self._rows():
            if code:
                yield FrobeniusClass(ell, t, ell % self.p, _VERDICTS[code], _REASONS[code])
            else:
                yield FrobeniusClass(ell, None, None, Verdict.SKIPPED, _REASONS[0])

    def verdicts(self) -> np.ndarray:
        """Each row's :class:`Verdict`, as a column of dtype object."""
        return _VERDICT_COLUMN[self.codes]

    def counts(self) -> dict[Verdict, int]:
        """The number of rows of each verdict."""
        tally = np.bincount(_VERDICT_INDEX[self.codes], minlength=len(Verdict))
        return dict(zip(Verdict, tally.tolist()))

    def csv_rows(self) -> str:
        """The rows in the export format of :func:`tee_to_csv`."""
        return "".join([
            f"{ell},{t}{_CSV_TAILS[code]}" if code else f"{ell},,Skipped\n"
            for ell, t, code in self._rows()
        ])

    def json_rows(self) -> str:
        """The rows as :class:`FrobeniusClass` objects in a report's list, joined by
        :data:`JSON_ROW_SEPARATOR`: the text ``json.dumps(sort_keys=True, indent=2,
        default=json_value)`` prints for them.
        """
        rows = zip(self.ells.tolist(), (self.ells % self.p).tolist(),
                   self.trace_mod_p.tolist(), self.codes.tolist())
        return JSON_ROW_SEPARATOR.join([
            f"{_JSON_DET}{d}{_JSON_ELL}{ell}{_JSON_TRACES[code]}{t}{_JSON_TAILS[code]}" if code
            else f"{_JSON_PIECES[0][0]}{ell}{_JSON_PIECES[0][1]}"
            for ell, d, t, code in rows
        ])


def classify_chunk(
    ells: Sequence[int] | np.ndarray,
    exposed: Sequence[int] | np.ndarray,
    a_ells: np.ndarray,
    p: int,
) -> ClassifiedChunk:
    """Classify ascending primes at once; a row not in ``exposed`` is Skipped.

    ``exposed`` holds the indices, ascending, of the rows of ``ells`` that
    are classified, and ``a_ells`` their coefficients, in the same order.
    The split factorization of each Pi and Omega row is rechecked, and the
    first row that fails it raises an AssertionError.
    """
    dtype = column_dtype(p, ells[-1] if len(ells) else 0)
    column = np.asarray(ells, dtype)
    rows = np.asarray(exposed, np.intp)
    ell = column[rows]
    t = (a_ells % p).astype(dtype)
    d = ell % p
    m = mod_p_class(d, p)
    pi = t == (1 + ell) % p
    omega = ~pi & (t == -(1 + ell) % p)
    w = np.full(len(rows), 2)
    tested = (m == 0) & pi
    w[tested] = _pow(ell[tested] % (p * p), np.asarray(p - 1), p * p) == 1
    _check_split_factorizations(tested & (w == 0), (m == 0) & omega, ell, t, d, p)

    codes = np.zeros(len(column), np.uint8)
    codes[rows] = 1 + 9 * m + 3 * np.where(pi, 0, np.where(omega, 1, 2)) + w
    trace = np.full(len(column), -1, dtype)
    trace[rows] = t
    return ClassifiedChunk(p, column, trace, codes)


def _check_split_factorizations(pi, omega, ell, t, d, p: int) -> None:
    """Recheck that X^2 - tX + d splits with the two distinct claimed roots.

    The roots are {1, ell} at the Pi rows and {-1, -ell} at the Omega rows;
    the first row that fails raises an AssertionError.
    """
    r0 = np.where(pi, 1, p - 1).astype(d.dtype)  # object past the int64 bound, as d is
    r1 = np.where(pi, d, -ell % p)
    r0_bad = (r0 * r0 - t * r0 + d) % p != 0
    bad = (pi | omega) & ((r0 == r1) | r0_bad | ((r1 * r1 - t * r1 + d) % p != 0))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if r0[i] == r1[i]:
        raise AssertionError(f"repeated eigenvalue at ell={ell[i]}, p={p}; classifier bug")
    r = r0[i] if r0_bad[i] else r1[i]
    raise AssertionError(f"claimed eigenvalue {r} is not a root of X^2-{t[i]}X+{d[i]} mod {p}")


# Primes in the first chunk of a sweep; later chunks double up to _MAX_CHUNK.
# The first is fetched in-process, so a consumer that stops inside it starts
# no pool, and the ramp keeps small what a consumer that stops soon after it
# waits for: `plan --target-lambda 7` on 11a stops at the 73rd prime, inside
# the 128-prime second chunk (a 1,024-prime second chunk took its sweep from
# 6 to 46 ms, BENCH_22.json).  With 2 or more workers each chunk also holds at
# most 1 / (2 * workers) of the primes still left (guided self-scheduling,
# Polychronopoulos and Kuck 1987), so the last, most expensive primes (point
# counting slows as ell grows) are spread over all workers instead of landing
# on one.  That cap cuts no chunk below _MIN_CHUNK but the final remainder,
# because a chunk has a fixed cost (a pool round trip, BSGS rounds of a few
# lanes, the classification of its columns): on 11a near 3e4 a chunk's
# coefficients cost 80-130 us a prime at 64 primes, 40-60 at 256, 28-40 at
# 1,024 and 26-37 at 4,096 (best of 5 in each of 6 runs, one core of a 2-core
# host, Python 3.11, BENCH_22.json).  One worker has nothing to balance, so
# its chunks follow the ramp to the end.
_FIRST_CHUNK = 64
_MIN_CHUNK = 1024
_MAX_CHUNK = 4096

# The context a pool worker fetches coefficients from, set once by the pool initializer.
_worker_ctx: FormContext | None = None


def _set_worker_context(ctx: FormContext) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _coefficients_in_worker(ells: np.ndarray) -> tuple[np.ndarray, Exception | None]:
    return _worker_ctx.coefficient_column(ells)


class CoefficientChunk(NamedTuple):
    """Consecutive primes of a sweep, with the coefficients of the rows the consumer reads.

    ``ells`` are the sieved primes, ascending, ``fetched`` the indices of
    the rows whose a_ell was fetched (by default every row not dividing
    N_g * p), and ``a_ells[i]`` is a_ell at ``ells[fetched[i]]``.
    """

    ells: np.ndarray
    fetched: np.ndarray
    a_ells: np.ndarray


def coefficient_chunks(
    ctx: FormContext,
    prime_range: PrimeRange,
    *,
    workers: int | None = None,
    rows: Callable[[FormContext, np.ndarray], np.ndarray] | None = None,
) -> Iterator[CoefficientChunk]:
    """The primes of the range in ascending chunks of columns, with their coefficients.

    ``rows(ctx, ells)`` is the consumer's choice of the coefficients it
    reads: the mask of a chunk's sieved primes ``ells`` to fetch, among
    those not dividing N_g * p.  By default every one of those is fetched,
    as every consumer that prints a row per prime needs; the density counts
    fetch only :func:`verdict_rows`.  Only fetched rows are checked, so a
    backend failure at a row not fetched (a table gap, say) never shows.

    A failure at a fetched prime (a table gap as a :class:`CoverageError`,
    or a :class:`PointCountError` where a group order stayed ambiguous) cuts
    the chunk holding it just before that prime: the cut chunk is yielded,
    and then the error is raised.  This is the one place a sweep raises a
    backend error, so its rows, and the error that ends them, are the same
    for every consumer and at every worker count.

    The sieved primes are cut into chunks (see ``_FIRST_CHUNK``) whatever
    ``rows`` picks, all taken from one :class:`PrimeStream`, so each segment
    of the range is sieved once.  Every chunk is fetched with
    :meth:`FormContext.coefficient_column`.  The first chunk is always
    fetched in this process, so a consumer that stops inside it (``plan`` at
    its usual targets) sieves one segment and starts no pool.  Only when the
    consumer asks for a second chunk is the rest fetched on ``workers``
    processes, capped at the cores this process may run on and at one worker
    for every ``_MIN_CHUNK`` primes past the first chunk, since fewer primes
    a worker cannot repay its start-up.  A pool starts only for a curve, and only
    when that leaves two or more workers (from 64 + 2 * 1,024 primes on);
    every other sweep fetches every chunk in this process.  A table answers
    a chunk with one ``searchsorted`` gather, cheaper than the pool's
    start-up and traffic (``BENCH_11.json``), so only a curve, whose
    coefficients are point counts, is swept on a pool.  Only primes go out
    to a worker, as an int64 column, and the column and error it fetched
    come back as they are: 33 KB pickled each way for a chunk of 4,096
    primes, whose point counts take 20-30 ms near 3e4-9e5 (one core of a
    2-core host, Python 3.11).
    At most 2 * workers chunks are in flight and they are merged in
    ascending order, so the stream is identical at every worker count.
    Closing the generator, explicitly or by dropping it, cancels the chunks
    no worker has taken yet and shuts the pool down; it waits for the
    chunks already taken (at most workers + 1 of them: 128, 256 and 512
    primes at 2 workers for a consumer that stops in the second chunk).
    """
    workers = min(workers or 1, len(os.sched_getaffinity(0)))
    if not isinstance(ctx.backend, CurveModel):
        workers = 1
    primes = PrimeStream(prime_range)
    pool = None

    def submit(ells: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable]:
        # sieved, so prime: no need for the checks of a_ell
        fetched = np.flatnonzero(~ctx.divides_ngp(ells) if rows is None else rows(ctx, ells))
        if pool is None:
            return ells, fetched, partial(ctx.coefficient_column, ells[fetched])
        return ells, fetched, pool.submit(_coefficients_in_worker, ells[fetched]).result

    # the first chunk is always fetched here: a sweep that stops inside it
    # sieves one segment and starts no pool
    first = primes.take(_FIRST_CHUNK)
    in_flight = deque([submit(first)] if len(first) else [])
    size = _FIRST_CHUNK  # the ramp: chunks double up to _MAX_CHUNK
    try:
        while in_flight:
            ells, fetched, fetch = in_flight.popleft()
            a_ells, error = fetch()
            if error is not None:
                cut = fetched[len(a_ells)]  # the row the backend failed at
                yield CoefficientChunk(ells[:cut], fetched[: len(a_ells)], a_ells)
                raise error
            yield CoefficientChunk(ells, fetched, a_ells)
            # Past 2 * workers * _MAX_CHUNK primes left the pool gets every worker
            # and the guided cap cuts no chunk, so the stream sieves no further
            # ahead; short of that the range has ended and ``left`` is exact.
            left = primes.ahead(2 * workers * _MAX_CHUNK)
            if size == _FIRST_CHUNK:  # a second chunk is asked for
                # no more workers than full chunks past the first: a pool of 1 is no pool
                workers = max(1, min(workers, left // _MIN_CHUNK))
                if workers > 1:
                    # imported here, so that a process that never starts a pool never loads it
                    from concurrent.futures import ProcessPoolExecutor

                    pool = ProcessPoolExecutor(
                        max_workers=workers, initializer=_set_worker_context, initargs=(ctx,)
                    )
            while left and len(in_flight) < 2 * workers:
                size = min(2 * size, _MAX_CHUNK)
                n = size
                if workers > 1:  # at most 1 / (2 * workers) of the primes left
                    n = min(n, max(_MIN_CHUNK, -(-left // (2 * workers))))
                in_flight.append(submit(primes.take(n)))
                left = primes.ahead(2 * workers * _MAX_CHUNK)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def classify_chunks(
    ctx: FormContext,
    prime_range: PrimeRange,
    *,
    workers: int | None = None,
) -> Iterator[ClassifiedChunk]:
    """Classify every prime in the range, in ascending chunks of columns.

    Primes dividing N_g * p come through as Skipped rows so that density
    denominators can count classifiable primes only.

    The coefficients come from :func:`coefficient_chunks` on ``workers``
    processes, which also ends the stream at a backend failure: primes go
    out to the pool and coefficients come back, and each chunk is classified
    here, in this process, as it arrives.  Closing the stream stops the
    sweep.
    """
    with closing(coefficient_chunks(ctx, prime_range, workers=workers)) as chunks:
        for ells, fetched, a_ells in chunks:
            yield classify_chunk(ells, fetched, a_ells, ctx.p)


def verdict_counts(
    ctx: FormContext,
    prime_range: PrimeRange,
    *,
    workers: int | None = None,
) -> Iterator[dict[Verdict, int]]:
    """The number of primes of each verdict, a chunk of the range at a time.

    The counts are those of :func:`classify_chunks`, but only the rows that
    can change a verdict (:func:`verdict_rows`) are fetched and classified.
    A prime dividing N_g * p counts as Skipped and one with ell = +-1 mod p
    as Neither, with no a_ell computed, so a backend failure there (a table
    gap, or a point count refused or outside the Hasse bound) cannot stop
    the sweep.
    """
    stream = coefficient_chunks(ctx, prime_range, workers=workers, rows=verdict_rows)
    with closing(stream) as chunks:
        for ells, fetched, a_ells in chunks:
            counts = classify_chunk(ells[fetched], np.arange(len(fetched)), a_ells, ctx.p).counts()
            skipped = int(np.count_nonzero(ctx.divides_ngp(ells)))
            counts[Verdict.SKIPPED] += skipped
            counts[Verdict.NEITHER] += len(ells) - len(fetched) - skipped
            yield counts


def classify_range(
    ctx: FormContext,
    prime_range: PrimeRange,
    *,
    workers: int | None = None,
) -> Iterator[FrobeniusClass]:
    """The rows of :func:`classify_chunks` as one :class:`FrobeniusClass` a prime."""
    with closing(classify_chunks(ctx, prime_range, workers=workers)) as chunks:
        for chunk in chunks:
            yield from chunk.classes()


def tee_to_csv(chunks: Iterable[ClassifiedChunk], out: IO[str]) -> Iterator[ClassifiedChunk]:
    """Pass the chunks through, writing them to ``out`` in the export format.

    The format has the header ``ell,trace_mod_p,verdict`` and one row per
    prime, written as its chunk goes by.
    """
    out.write("ell,trace_mod_p,verdict\n")
    for chunk in chunks:
        out.write(chunk.csv_rows())
        yield chunk


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ScreenReport:
    """Mechanizable eligibility checks for a candidate working prime p.

    ``asserted_only`` lists the hypotheses this tool can never check and
    which therefore require config attestation.  ``eligible_mechanically``
    is set from the checks: whether every one passed.
    """

    p: int
    checks: tuple[CheckResult, ...]
    asserted_only: tuple[str, ...]
    eligible_mechanically: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eligible_mechanically", all(c.passed for c in self.checks))


ASSERTED_ONLY_ITEMS = tuple(report_key for _, report_key, _, _ in HYPOTHESES)


def screen_p(curve: CurveModel, p: int) -> ScreenReport:
    """Screen a candidate prime p for use with a curve-backed form.

    Checks the conditions a machine can decide (p >= 5 prime, p coprime to
    the conductor, ordinariness); everything else is reported as requiring
    attestation.  Always returns a report, never raises on a failing check.
    A check that cannot be evaluated fails with a "not evaluated (...)"
    detail naming what stopped it: a p too large for :func:`arith.is_prime`
    to decide fails all three.  Ordinariness is evaluated exactly where
    :func:`curves.is_ordinary` answers: a_p comes from the point counter,
    which refuses a prime p >= 5 of bad reduction, and whose
    :class:`PointCountError` (a group order it could not pin down) or
    :class:`ResourceLimitError` (a p past :data:`curves.MAX_COUNTED_ELL`)
    is reported with its message.
    """
    try:
        checks = [CheckResult("p>=5-and-prime", p >= 5 and is_prime(p), f"p = {p}")]
        skipped = "not evaluated (p is not a prime >= 5)"
    except ResourceLimitError as exc:
        skipped = f"not evaluated ({exc})"
        checks = [CheckResult("p>=5-and-prime", False, skipped)]
    if not checks[0].passed:
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
    except (PointCountError, ResourceLimitError) as exc:
        checks.append(CheckResult("ordinary-at-p", False, f"not evaluated ({exc})"))
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
