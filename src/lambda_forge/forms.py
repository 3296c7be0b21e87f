"""Coefficient backends for the fixed newform g and its certified invariants.

A :class:`FormContext` bundles the level N_g, the working prime p, the
certified Iwasawa inputs (lambda_g, mu-vanishing) and a coefficient
backend, which is either an elliptic curve (a_ell by point counting) or a
table loaded from CSV (:func:`load_coefficients`: ``np.loadtxt``, with a
``csv`` row scan that names the bad line).  A table is two columns, ell
ascending and a_ell, and answers a batch of ells with one ``searchsorted``
gather.  :meth:`FormContext.coefficient_column` is the one code that reads
a backend: a_p, :func:`a_ells` and the sweeps all fetch through it, and
:func:`a_ell` is a batch of one.  The certified inputs, listed once in
:data:`HYPOTHESES`, are *attestations* carried in configuration; nothing in
this package verifies them.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .arith import are_prime, is_prime, residues
from .curves import CurveModel, _require_countable, _traces
# the traced benchmark (bench/run.py) wraps forms.trace_of_frobenius by name
from .curves import trace_of_frobenius  # noqa: F401
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


def _hasse_violations(ells: np.ndarray, a_ells: np.ndarray, level: int) -> np.ndarray:
    """The rows where ell does not divide ``level`` and a_ell**2 > 4*ell."""
    if ells.dtype == object or a_ells.dtype == object:
        exact = a_ells.astype(object)
        over = exact * exact > 4 * ells
    else:
        clipped = np.minimum(np.abs(a_ells), _HASSE_CLIP)
        over = clipped * clipped > 4 * ells
    return over & (residues(level, ells) != 0)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Finite map ell -> a_ell as two columns, ascending in ell.

    Built from two columns, ``CoefficientTable([2, 3], [-2, -1], level=11)``:
    the rows (ells[i], a_ells[i]), with distinct ells in any order.  The
    weight-2 Hasse bound |a_ell| <= 2*sqrt(ell) is checked once, over the
    whole columns, at every ell not dividing the level; the first violating
    row, in the order given, raises :class:`TableFormatError`.  The columns
    are then sorted by ell, and an ell given twice raises
    :class:`TableFormatError` naming it.  The columns are made read-only,
    and are int64 unless a value lies outside (-2^60, 2^60): then that
    column holds exact Python ints (dtype=object).
    """

    ells: np.ndarray
    a_ells: np.ndarray
    level: int

    def __post_init__(self) -> None:
        ells, a_ells = _column(self.ells), _column(self.a_ells)
        bad = _hasse_violations(ells, a_ells, self.level)
        if bad.any():
            i = int(np.argmax(bad))
            raise TableFormatError(
                f"a_{ells[i]} = {a_ells[i]} violates the Hasse bound |a| <= 2*sqrt({ells[i]})"
            )
        if (ells[1:] < ells[:-1]).any():
            order = np.argsort(ells, kind="stable")
            ells, a_ells = ells[order], a_ells[order]
        repeated = ells[1:] == ells[:-1]
        if repeated.any():
            raise TableFormatError(f"ell = {ells[1:][repeated][0]} has more than one row")
        for name, column in (("ells", ells), ("a_ells", a_ells)):
            column = column.view()  # read-only here, whoever else holds the data
            column.flags.writeable = False
            object.__setattr__(self, name, column)


def load_coefficients(path: str | Path, level: int) -> CoefficientTable:
    """Parse a CSV coefficient file (header ``ell,a_ell``) and validate it.

    Every row is an integer pair ``ell,a_ell``; blank lines are skipped.
    ``ell`` must be prime and strictly increasing.  Rows at primes dividing
    ``level`` are kept as given; all other rows must satisfy the weight-2
    Hasse bound |a_ell| <= 2*sqrt(ell).  The first bad line raises
    :class:`TableFormatError` naming it; within a line, a field count or a
    non-integer field comes first, then ``not prime``, then ordering, then
    the Hasse bound.

    A file is first read by ``np.loadtxt`` (:func:`_loaded_columns`).  When
    that read is refused, or its columns fail a check, the file is read
    again row by row with ``csv`` and ``int()`` (:func:`_scanned_rows`),
    the one reader that keeps line numbers, and the line of the first fault
    is named.  Either way, primality (one sieve pass, :func:`arith.are_prime`),
    ordering and the Hasse bound are checked over the columns.
    """
    path = Path(path)
    columns = _loaded_columns(path)
    if columns is not None and not _index_faults(columns[0]).any():
        try:
            return CoefficientTable(*columns, level)
        except TableFormatError:
            pass
    ells, a_ells, lines, stop = _scanned_rows(path)
    ells, a_ells = _column(ells), _column(a_ells)
    bad = _index_faults(ells)
    fault = int(np.argmax(bad)) if bad.any() else len(ells)
    try:
        # the rows above the first composite or out-of-order one: a Hasse violation
        # among them is the first fault in the file
        table = CoefficientTable(ells[:fault], a_ells[:fault], level)
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
            f" (previous {int(ells[fault - 1])})"
        )
    if stop is not None:
        raise stop
    return table


def _index_faults(ells: np.ndarray) -> np.ndarray:
    """The rows whose ell is not prime, or not above the ell of the row before."""
    previous = np.concatenate((np.zeros(1, ells.dtype), ells))[:-1]
    return ~are_prime(ells) | (ells <= previous)


# numpy's loadtxt reads these bytes differently from int(): it strips the ASCII
# separators 0x1C-0x1F as whitespace, and numpy 2.4 reads some non-ASCII
# characters as digits ("13,\u01fe" as a_13 = 462).
_MISREAD_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loaded_columns(path: Path) -> np.ndarray | None:
    """The rows of a table as a (2, n) int64 array, read by ``np.loadtxt``.

    None when the first line is not exactly ``ell,a_ell``, when the file has
    a byte loadtxt may misread (:data:`_MISREAD_BYTES`, non-ASCII), when
    loadtxt refuses the file or warns, or when a row is not two fields.
    Whatever loadtxt accepts past that, ``csv`` and ``int()`` read to the
    same rows.
    """
    data = path.read_bytes()
    header = data.partition(b"\n")[0].removesuffix(b"\r")
    if header != b"ell,a_ell" or not data.isascii() or any(b in data for b in _MISREAD_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 reads "1.5" as an int64 with a warning
            rows = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, comments=None,
                              ndmin=2, encoding="utf-8")
    except (ValueError, DeprecationWarning, UserWarning):
        return None
    if rows.shape[1] != 2:
        return None
    return rows.T.copy()  # contiguous columns, as searchsorted wants them


def _scanned_rows(path: Path) -> tuple[list[int], list[int], list[int], Exception | None]:
    """The rows of any table, read with ``csv`` and ``int()``, with their line numbers.

    The scan stops at the first line that is not two integer fields, or at
    anything else that stops the read (bytes that are not UTF-8, a
    :class:`TableFormatError` naming the file); that error is returned, for
    the caller to raise unless a row above it is at fault.
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
    except UnicodeDecodeError as exc:
        return ells, a_ells, lines, TableFormatError(f"{path}: not UTF-8 text: {exc.reason}")
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


# The certified inputs, asserted in the configuration and echoed, never verified,
# in the order reports list them: (config key, report key, type, the refusal of
# an operation that needs it true, or None).
HYPOTHESES = (
    ("surjective_mod_p", "surjective_mod_p", bool,
     "density verification needs the asserted surjectivity of the mod-p image"),
    ("mu_zero", "mu_zero", bool, "lambda transfer requires the certified vanishing of mu_p(g)"),
    ("lambda_g", "lambda_g_certified", int, None),
    ("optimal_level_asserted", "optimal_level", bool, None),
)


@dataclass(frozen=True)
class FormContext:
    """The fixed p-ordinary weight-2 newform g with its certified invariants.

    ``lambda_g``, ``mu_zero`` and ``surjective_mod_p`` are the rows of
    :data:`HYPOTHESES` a form carries; an operation that needs one true
    refuses through :meth:`require`.
    The backend must be at ``level``: a curve's conductor or a table's level.
    ``a_p`` is read from the backend on construction, never passed in.  Every
    coefficient, a_p included, is read through :meth:`coefficient_column`.
    """

    level: int
    p: int
    lambda_g: int
    mu_zero: bool
    surjective_mod_p: bool
    backend: CurveModel | CoefficientTable
    a_p: int = field(init=False)

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
        column, error = self.coefficient_column([self.p])
        if error is not None:
            raise error
        a_p = int(column[0])
        if a_p % self.p == 0:
            raise HypothesisViolation(
                f"a_p = {a_p} is divisible by p = {self.p}: the form is not p-ordinary"
            )
        object.__setattr__(self, "a_p", a_p)

    def require(self, key: str) -> None:
        """Refuse an operation that needs ``key`` true, with its row's text in :data:`HYPOTHESES`."""
        if not getattr(self, key):
            text = next(text for name, _, _, text in HYPOTHESES if name == key)
            raise HypothesisViolation(f"{text}; config asserts {key} = false")

    def divides_ngp(self, ell: int | np.ndarray) -> bool | np.ndarray:
        """Whether the prime ell divides N_g * p, where no Frobenius class is defined.

        An array of primes gives a bool array.
        """
        return (residues(self.level, ell) == 0) | (ell == self.p)

    def coefficient_column(
        self, ells: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, Exception | None]:
        """a_ell at the primes ``ells``, in order, up to the first one the backend fails at.

        Returns the column of the coefficients before that prime and the
        error the backend gives there (a :class:`CoverageError` at a gap in a
        table), or None when there is none.  No coefficient depends on the
        other ells.  Nothing is checked here: :func:`a_ells` refuses composite
        ell and primes dividing N_g * p.  A table answers with one
        ``searchsorted`` gather; a curve counts the points of all the primes
        in shared walks (:func:`curves.traces_of_frobenius`), as one int64 column.
        """
        ells = _column(ells)
        if isinstance(self.backend, CurveModel):
            values, errors = _traces(self.backend, ells)
            first = min(errors, default=len(values))
            return values[:first], errors.get(first)
        table = self.backend
        at = np.minimum(np.searchsorted(table.ells, ells), max(len(table.ells) - 1, 0))
        found = table.ells[at] == ells if len(table.ells) else np.zeros(len(ells), bool)
        if found.all():
            return table.a_ells[at], None
        gap = int(np.argmin(found))
        return table.a_ells[at[:gap]], CoverageError(int(ells[gap]))


def a_ell(ctx: FormContext, ell: int) -> int:
    """The ell-th Fourier coefficient of g, for ell coprime to N_g * p.

    Mod p this is the trace of the Frobenius class at ell in the residual
    representation; the reduction itself is done by callers.  A batch of
    one: :func:`a_ells` at ``[ell]``.
    """
    return a_ells(ctx, [ell])[0]


def a_ells(ctx: FormContext, ells: Sequence[int]) -> list[int]:
    """:func:`a_ell` at each ell, the coefficients fetched in one batch.

    Every ell is checked before any coefficient is computed: the first one
    that is not prime, or that divides N_g * p, is refused with a ValueError
    naming it, or, on a curve, past :data:`curves.MAX_COUNTED_ELL` with a
    :class:`ResourceLimitError`; after that the first error of the batch is raised.
    Primality of the whole list is decided in one sieve pass
    (:func:`arith.are_prime`), which refuses an ell it cannot decide.
    """
    for ell, prime in zip(ells, are_prime(ells)):
        if not prime:
            raise ValueError(f"ell = {ell} is not prime")
        if ctx.divides_ngp(ell):
            raise ValueError(f"ell = {ell} divides N_g * p; coefficient not exposed here")
        if isinstance(ctx.backend, CurveModel):
            _require_countable(ctx.backend, ell)
    column, error = ctx.coefficient_column(ells)
    if error is not None:
        raise error
    return column.tolist()
