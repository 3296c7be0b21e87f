"""Coefficient backends for the fixed newform g and its certified invariants.

A :class:`FormContext` bundles the level N_g, the working prime p, the
certified Iwasawa inputs (lambda_g, mu-vanishing) and a coefficient
backend, which is either an elliptic curve (a_ell by point counting) or a
table loaded from CSV.  The certified fields are *attestations* carried in
configuration; nothing in this package verifies them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice
from math import isqrt
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .arith import are_prime, is_prime
from .curves import CurveModel, trace_of_frobenius, traces_of_frobenius
from .errors import CoverageError, HypothesisViolation, TableFormatError


@dataclass(frozen=True)
class CoefficientTable:
    """Finite map ell -> a_ell; the Hasse bound holds at primes not dividing the level."""

    coefficients: Mapping[int, int]
    level: int

    def __post_init__(self) -> None:
        for ell, a in self.coefficients.items():
            if self.level % ell != 0 and a * a > 4 * ell:
                raise TableFormatError(
                    f"a_{ell} = {a} violates the Hasse bound |a| <= 2*sqrt({ell})"
                )


def load_coefficients(path: str | Path, level: int) -> CoefficientTable:
    """Parse a CSV coefficient file (header ``ell,a_ell``) and validate it.

    Every row is an integer pair ``ell,a_ell``; blank lines are skipped.
    ``ell`` must be prime and strictly increasing.  Rows at primes dividing
    ``level`` are kept as given; all other rows must satisfy the weight-2
    Hasse bound |a_ell| <= 2*sqrt(ell).  The first bad line raises
    :class:`TableFormatError` naming it; within a line, a field count or a
    non-integer field comes first, then ``not prime``, then ordering, then
    the Hasse bound.  Primality of all rows is checked at the end in one
    sieve pass (:func:`arith.are_prime`), not one Miller-Rabin test a row.
    """
    path = Path(path)
    coeffs: dict[int, int] = {}
    prev = 0
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            for lineno, row in _data_rows(fh, path):
                if len(row) != 2:
                    raise TableFormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
                try:
                    ell, a = int(row[0]), int(row[1])
                except ValueError:
                    raise TableFormatError(f"{path}:{lineno}: non-integer row {row!r}")
                if ell <= prev or (level % ell != 0 and a * a > 4 * ell):
                    if not is_prime(ell):
                        raise TableFormatError(f"{path}:{lineno}: index {ell} is not prime")
                    if ell <= prev:
                        raise TableFormatError(
                            f"{path}:{lineno}: ell={ell} not strictly increasing (previous {prev})"
                        )
                    raise TableFormatError(
                        f"{path}:{lineno}: a_{ell} = {a} violates the Hasse bound"
                        f" (|a| <= {isqrt(4 * ell)})"
                    )
                coeffs[ell] = a
                prev = ell
        except Exception:
            # whatever stopped the parse (a bad row, undecodable bytes), a
            # composite row above it is the first fault in the file
            _require_prime_rows(path, coeffs)
            raise
    _require_prime_rows(path, coeffs)
    return CoefficientTable(coefficients=coeffs, level=level)


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


def _require_prime_rows(path: Path, coeffs: Mapping[int, int]) -> None:
    """Raise at the first row of ``coeffs`` whose ell is not prime.

    ``coeffs`` holds the file's first rows in order, so the line of the
    offending row is found by reading the file again up to it.
    """
    prime = are_prime(coeffs)
    if prime.all():
        return
    index = int(np.argmin(prime))
    with path.open(newline="", encoding="utf-8") as fh:
        lineno, row = next(islice(_data_rows(fh, path), index, None))
    raise TableFormatError(f"{path}:{lineno}: index {int(row[0])} is not prime")


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

    def divides_ngp(self, ell: int) -> bool:
        """Whether the prime ell divides N_g * p, where no Frobenius class is defined."""
        return self.level % ell == 0 or ell == self.p

    def coefficient(self, ell: int) -> int:
        """a_ell straight from the backend, for an ell the caller knows is prime.

        Nothing is checked here: :func:`a_ell` is the entry point that
        refuses composite ell and primes dividing N_g * p.
        """
        if isinstance(self.backend, CurveModel):
            return trace_of_frobenius(self.backend, ell)
        try:
            return self.backend.coefficients[ell]
        except KeyError:
            raise CoverageError(ell)

    def coefficients(self, ells: Sequence[int]) -> list[int | Exception]:
        """:meth:`coefficient` at many primes, as one batch.

        Each entry is a_ell or the error :meth:`coefficient` would raise at
        that ell (a :class:`CoverageError` at a gap in a table); no entry
        depends on the other ells.  A curve backend counts the points of all
        of them in shared walks (:func:`curves.traces_of_frobenius`).
        """
        if isinstance(self.backend, CurveModel):
            return traces_of_frobenius(self.backend, ells)
        table = self.backend.coefficients
        return [table[ell] if ell in table else CoverageError(ell) for ell in ells]


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
    values = ctx.coefficients(ells)
    for value in values:
        if isinstance(value, Exception):
            raise value
    return values


def _require_exposed(ctx: FormContext, ell: int, prime: bool) -> None:
    if not prime:
        raise ValueError(f"ell = {ell} is not prime")
    if ctx.divides_ngp(ell):
        raise ValueError(f"ell = {ell} divides N_g * p; coefficient not exposed here")
