"""Coefficient backends for the fixed newform g and its certified invariants.

A :class:`FormContext` bundles the level N_g, the working prime p, the
certified Iwasawa inputs (lambda_g, mu-vanishing) and a coefficient
backend, which is either an elliptic curve (a_ell by point counting) or a
table loaded from CSV.  A table is two columns, ell ascending and a_ell,
and answers a batch of ells with one ``searchsorted`` gather
(:meth:`FormContext.coefficient_column`).  The certified fields are
*attestations* carried in configuration; nothing in this package verifies
them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .arith import are_prime, is_prime
from .curves import CurveModel, trace_of_frobenius, traces_of_frobenius
from .errors import CoverageError, HypothesisViolation, TableFormatError

# A table column is int64 while all its values lie strictly between -2^60 and
# 2^60, so that the Hasse check's 4*ell and its square of a clipped |a| stay
# exact; otherwise the column holds exact Python ints (dtype=object).
_INT64_BOUND = 2**60
# Any |a| from here up breaks the Hasse bound at every ell below 2^60.
_HASSE_CLIP = 2**31


def _column(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """``values`` as a table column: int64 when every value fits, else dtype=object."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    if len(values) and (values.min() <= -_INT64_BOUND or values.max() >= _INT64_BOUND):
        return values.astype(object)
    return values


def _divides(n: int, ells: np.ndarray) -> np.ndarray:
    """Whether each of ``ells`` divides n, for any int n."""
    if ells.dtype != object and n >= 2**63:
        ells = ells.astype(object)
    return n % ells == 0


def _hasse_violations(ells: np.ndarray, a_ells: np.ndarray, level: int) -> np.ndarray:
    """The rows where ell does not divide ``level`` and a_ell**2 > 4*ell."""
    if ells.dtype == object or a_ells.dtype == object:
        exact = a_ells.astype(object)
        over = exact * exact > 4 * ells
    else:
        clipped = np.minimum(np.abs(a_ells), _HASSE_CLIP)
        over = clipped * clipped > 4 * ells
    return over & ~_divides(level, ells)


@dataclass(frozen=True, eq=False, init=False)
class CoefficientTable:
    """Finite map ell -> a_ell as two columns, ascending in ell.

    Built from a mapping, ``CoefficientTable({2: -2, 3: -1}, level=11)``, or
    from two columns (:meth:`from_columns`).  Either way the weight-2 Hasse
    bound |a_ell| <= 2*sqrt(ell) is checked once, over the whole columns, at
    every ell not dividing the level; the first violating row, in the order
    given, raises :class:`TableFormatError`.  The columns are read-only, and
    int64 unless a value lies outside (-2^60, 2^60): then that column holds
    exact Python ints (dtype=object).
    """

    ells: np.ndarray
    a_ells: np.ndarray
    level: int

    def __init__(self, coefficients: Mapping[int, int], level: int) -> None:
        self._set_columns(list(coefficients), list(coefficients.values()), level)

    @classmethod
    def from_columns(
        cls, ells: Sequence[int] | np.ndarray, a_ells: Sequence[int] | np.ndarray, level: int
    ) -> CoefficientTable:
        """The table of the rows (ells[i], a_ells[i]); the ells are distinct, in any order."""
        table = cls.__new__(cls)
        table._set_columns(ells, a_ells, level)
        return table

    def _set_columns(self, ells, a_ells, level: int) -> None:
        ells, a_ells = _column(ells), _column(a_ells)
        bad = _hasse_violations(ells, a_ells, level)
        if bad.any():
            i = int(np.argmax(bad))
            raise TableFormatError(
                f"a_{ells[i]} = {a_ells[i]} violates the Hasse bound |a| <= 2*sqrt({ells[i]})"
            )
        if (ells[1:] < ells[:-1]).any():
            order = np.argsort(ells, kind="stable")
            ells, a_ells = ells[order], a_ells[order]
        for name, column in (("ells", ells), ("a_ells", a_ells)):
            column = column.view()  # read-only here, whoever else holds the data
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "level", level)

    def rows(self, ells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each of ``ells``, the index of its row and whether the table has that row.

        An index is meaningful only where the table has the row.
        """
        if not len(self.ells):
            return np.zeros(len(ells), np.intp), np.zeros(len(ells), bool)
        at = np.minimum(np.searchsorted(self.ells, ells), len(self.ells) - 1)
        return at, self.ells[at] == ells


def load_coefficients(path: str | Path, level: int) -> CoefficientTable:
    """Parse a CSV coefficient file (header ``ell,a_ell``) and validate it.

    Every row is an integer pair ``ell,a_ell``; blank lines are skipped.
    ``ell`` must be prime and strictly increasing.  Rows at primes dividing
    ``level`` are kept as given; all other rows must satisfy the weight-2
    Hasse bound |a_ell| <= 2*sqrt(ell).  The first bad line raises
    :class:`TableFormatError` naming it; within a line, a field count or a
    non-integer field comes first, then ``not prime``, then ordering, then
    the Hasse bound.

    A file in the plain form (:func:`_plain_rows`) is parsed into columns
    in one numpy pass; any other file is read row by row with ``csv`` and
    ``int()`` (:func:`_scanned_rows`).  Either way, primality (one sieve
    pass, :func:`arith.are_prime`), ordering and the Hasse bound are then
    checked over the columns, and the line of the first fault is named.
    """
    path = Path(path)
    rows = _plain_rows(path)
    if rows is None:
        rows = _scanned_rows(path)
    ells, a_ells, lines, stop = rows
    ells, a_ells = _column(ells), _column(a_ells)
    previous = np.concatenate((np.zeros(1, ells.dtype), ells))[:-1]
    bad = ~are_prime(ells) | (ells <= previous)
    fault = int(np.argmax(bad)) if bad.any() else len(ells)
    try:
        # the rows above the first composite or out-of-order one: a Hasse violation
        # among them is the first fault in the file
        table = CoefficientTable.from_columns(ells[:fault], a_ells[:fault], level)
    except TableFormatError:
        i = int(np.argmax(_hasse_violations(ells[:fault], a_ells[:fault], level)))
        ell, a = int(ells[i]), int(a_ells[i])
        raise TableFormatError(
            f"{path}:{lines[i]}: a_{ell} = {a} violates the Hasse bound (|a| <= {isqrt(4 * ell)})"
        ) from None
    if fault < len(ells):
        ell = int(ells[fault])
        if not is_prime(ell):
            raise TableFormatError(f"{path}:{lines[fault]}: index {ell} is not prime")
        raise TableFormatError(
            f"{path}:{lines[fault]}: ell={ell} not strictly increasing"
            f" (previous {int(previous[fault])})"
        )
    if stop is not None:
        raise stop
    return table


# The bytes of the plain form: digits, '-', ',' and '\n'.
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[list(b"0123456789-,\n")] = True
# Digits a plain field may have: fewer than 19, so every value is below 2^60.
_PLAIN_DIGITS = 18


def _plain_rows(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, None] | None:
    """The rows of a plain-form table as int64 columns with their line numbers.

    The plain form is the header line ``ell,a_ell`` and then lines of two
    fields joined by one comma, each field an optional ``-`` and 1 to 18
    decimal digits (:func:`_field_values`).  Lines end in LF or CRLF, the
    last one may lack its end, and empty lines are skipped.  ``csv`` and
    ``int()`` read such a file to the same rows, so line numbers are
    physical lines.  Any other file gives None.
    """
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")  # a lone CR is not plain, and stays
    header = data.split(b"\n", 1)[0]
    if header != b"ell,a_ell":
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=min(len(header) + 1, len(data)))
    if not _PLAIN_BYTES[body].all():
        return None
    ends = np.flatnonzero(body == ord("\n"))
    if len(body) and body[-1] != ord("\n"):
        ends = np.append(ends, len(body))
    starts = np.concatenate(([0], ends + 1))[: len(ends)]
    lines = np.flatnonzero(ends > starts)
    starts, ends = starts[lines], ends[lines]
    commas = np.flatnonzero(body == ord(","))
    # every line holds one comma, with a field on each side
    if len(commas) != len(starts) or not ((starts < commas) & (commas + 1 < ends)).all():
        return None
    signs = np.count_nonzero(body[np.concatenate((starts, commas + 1))] == ord("-"))
    if np.count_nonzero(body == ord("-")) != signs:
        return None  # a '-' inside a field
    ells = _field_values(body, starts, commas)
    a_ells = _field_values(body, commas + 1, ends)
    if ells is None or a_ells is None:
        return None
    return ells, a_ells, lines + 2, None


def _field_values(body: np.ndarray, firsts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The integers ``body[firsts[i]:ends[i]]`` as int64, or None if one is not plain.

    A plain field is an optional ``-`` (the caller has checked there is no
    other) and then 1 to 18 digits.  The fields are read a digit place at a
    time, from the place of the widest field's first digit, in place.
    """
    negative = body[firsts] == ord("-")
    lows = firsts + negative
    widths = ends - lows
    if len(widths) and (widths.min() < 1 or widths.max() > _PLAIN_DIGITS):
        return None
    width = int(widths.max(initial=0))
    values = np.zeros(len(lows), dtype=np.int64)
    at = ends - width  # each field's place k digits from its end, k = width down to 1
    index = np.empty_like(at)
    digit = np.empty(len(at), dtype=np.uint8)
    for _ in range(width):
        np.maximum(at, 0, out=index)
        np.take(body, index, out=digit)
        digit -= ord("0")
        digit *= at >= lows  # a place before the field's first digit reads as 0
        values *= 10
        values += digit
        at += 1
    np.negative(values, out=values, where=negative)
    return values


def _scanned_rows(path: Path) -> tuple[list[int], list[int], list[int], Exception | None]:
    """The rows of any table, read with ``csv`` and ``int()``, with their line numbers.

    The scan stops at the first line that is not two integer fields, or at
    anything else that stops the read (undecodable bytes, say); that error
    is returned, for the caller to raise unless a row above it is at fault.
    """
    ells: list[int] = []
    a_ells: list[int] = []
    lines: list[int] = []
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            for lineno, row in _data_rows(fh, path):
                if len(row) != 2:
                    raise TableFormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
                try:
                    ell, a = int(row[0]), int(row[1])
                except ValueError:
                    raise TableFormatError(f"{path}:{lineno}: non-integer row {row!r}")
                ells.append(ell)
                a_ells.append(a)
                lines.append(lineno)
    except Exception as exc:
        return ells, a_ells, lines, exc
    return ells, a_ells, lines, None


def _data_rows(fh: TextIO, path: Path) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after the ``ell,a_ell`` header, with their line numbers."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise TableFormatError(f"{path}: empty file, expected header 'ell,a_ell'")
    if [h.strip() for h in header] != ["ell", "a_ell"]:
        raise TableFormatError(f"{path}: bad header {header!r}, expected 'ell,a_ell'")
    for lineno, row in enumerate(reader, start=2):
        if row and (len(row) != 1 or row[0].strip()):
            yield lineno, row


@dataclass(frozen=True)
class FormContext:
    """The fixed p-ordinary weight-2 newform g with its certified invariants.

    ``lambda_g``, ``mu_zero`` and ``surjective_mod_p`` are certified inputs:
    they come from the literature or prior computation, are asserted in the
    configuration, and are echoed (never claimed as verified) in reports.
    The backend must be at ``level``: a curve's conductor or a table's level.
    """

    level: int
    p: int
    lambda_g: int
    mu_zero: bool
    surjective_mod_p: bool
    backend: CurveModel | CoefficientTable
    a_p: int = field(default=0)

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be positive, got {self.level}")
        if self.p < 5 or not is_prime(self.p):
            raise HypothesisViolation(f"p must be a prime >= 5, got {self.p}")
        if self.level % self.p == 0:
            raise HypothesisViolation(f"p = {self.p} divides the level {self.level}")
        if self.lambda_g < 0:
            raise HypothesisViolation(f"lambda_g must be >= 0, got {self.lambda_g}")
        if isinstance(self.backend, CurveModel):
            kind, level = "curve conductor", self.backend.conductor
        else:
            kind, level = "table level", self.backend.level
        if level != self.level:
            raise ValueError(f"{kind} {level} != stated level {self.level}")
        a_p = self.coefficient(self.p)
        if a_p % self.p == 0:
            raise HypothesisViolation(
                f"a_p = {a_p} is divisible by p = {self.p}: the form is not p-ordinary"
            )
        object.__setattr__(self, "a_p", a_p)

    def divides_ngp(self, ell: int | np.ndarray) -> bool | np.ndarray:
        """Whether the prime ell divides N_g * p, where no Frobenius class is defined.

        An array of primes gives a bool array.
        """
        if isinstance(ell, np.ndarray):
            return _divides(self.level, ell) | (ell == self.p)
        return self.level % ell == 0 or ell == self.p

    def coefficient(self, ell: int) -> int:
        """a_ell straight from the backend, for an ell the caller knows is prime.

        Nothing is checked here: :func:`a_ell` is the entry point that
        refuses composite ell and primes dividing N_g * p.
        """
        if isinstance(self.backend, CurveModel):
            return trace_of_frobenius(self.backend, ell)
        column, error = self.coefficient_column([ell])
        if error is not None:
            raise error
        return int(column[0])

    def coefficient_column(
        self, ells: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, Exception | None]:
        """a_ell at the primes ``ells``, in order, up to the first one the backend fails at.

        Returns the column of the coefficients before that prime and the
        error :meth:`coefficient` would raise there (a :class:`CoverageError`
        at a gap in a table), or None when there is none.  No coefficient
        depends on the other ells.  A table answers with one gather through
        :meth:`CoefficientTable.rows`; a curve counts the points of all the
        primes in shared walks (:func:`curves.traces_of_frobenius`).
        """
        ells = _column(ells)
        if isinstance(self.backend, CurveModel):
            values = traces_of_frobenius(self.backend, ells.tolist())
            for i, value in enumerate(values):
                if isinstance(value, Exception):
                    return _column(values[:i]), value
            return _column(values), None
        at, found = self.backend.rows(ells)
        if found.all():
            return self.backend.a_ells[at], None
        gap = int(np.argmin(found))
        return self.backend.a_ells[at[:gap]], CoverageError(int(ells[gap]))


def a_ell(ctx: FormContext, ell: int) -> int:
    """The ell-th Fourier coefficient of g, for ell coprime to N_g * p.

    Mod p this is the trace of the Frobenius class at ell in the residual
    representation; the reduction itself is done by callers.
    """
    _require_exposed(ctx, ell, is_prime(ell))
    return ctx.coefficient(ell)


def a_ells(ctx: FormContext, ells: Sequence[int]) -> list[int]:
    """:func:`a_ell` at each ell, the coefficients fetched in one batch.

    Every ell is checked before any coefficient is computed, so the first
    ell that :func:`a_ell` refuses is refused with its message; after that
    the first error of the batch is raised.  Primality of the whole list is
    decided in one sieve pass (:func:`arith.are_prime`).
    """
    for ell, prime in zip(ells, are_prime(ells)):
        _require_exposed(ctx, ell, prime)
    column, error = ctx.coefficient_column(ells)
    if error is not None:
        raise error
    return column.tolist()


def _require_exposed(ctx: FormContext, ell: int, prime: bool) -> None:
    if not prime:
        raise ValueError(f"ell = {ell} is not prime")
    if ctx.divides_ngp(ell):
        raise ValueError(f"ell = {ell} divides N_g * p; coefficient not exposed here")
