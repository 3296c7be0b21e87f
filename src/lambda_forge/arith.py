"""Exact integer and modular arithmetic, plus fast prime generation.

Everything here is pure and deterministic.  Moduli in this project stay
below 2**63 (p <= ~10**3, ell <= ~10**8, p**2 <= ~10**6), so Python ints
never become a bottleneck and no external bignum support is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Collection, Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError

MAX_SIEVE_BOUND = 10**8

# Odd numbers per sieve segment; 2**17 odds cover a 2**18-wide window and the
# working set stays inside L2.
_SEGMENT_ODDS = 1 << 17

# are_prime sieves a window only when it holds at least this many values and
# tests the values of a sparser window with is_prime.  Sieving a window costs
# as much as 470 is_prime calls at the bottom of the range and 1,560 at the
# sieve cap (0.56 ms against 1.18 us, 2.0 ms against 1.28 us, best of five
# on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
_MIN_SIEVED_VALUES = 1000

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The bases 2, 3, 5, 7 suffice below 3,215,031,751, the least strong
# pseudoprime to all four (Jaeschke 1993, Math. Comp. 61).
_MR_SMALL_WITNESSES = (2, 3, 5, 7)
_MR_SMALL_BOUND = 3_215_031_751


@dataclass(frozen=True)
class PrimeRange:
    """Closed interval [lo, hi]; iterating yields its primes in order."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 2:
            raise ValueError(f"PrimeRange.lo must be >= 2, got {self.lo}")
        if self.hi <= self.lo:
            raise ValueError(f"PrimeRange.hi must exceed lo, got [{self.lo}, {self.hi}]")

    def __iter__(self) -> Iterator[int]:
        return sieve_primes(self)


def _simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (plain sieve, used for base primes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_segments(prime_range: PrimeRange) -> Iterator[np.ndarray]:
    """The primes in ``prime_range`` as ascending int64 arrays, one per segment.

    Segmented, odd-only sieve: base primes up to sqrt(hi) strike odd
    composites out of fixed-size boolean segments, so memory stays flat
    no matter how wide the range is.
    """
    lo, hi = prime_range.lo, prime_range.hi
    if hi > MAX_SIEVE_BOUND:
        raise ResourceLimitError(f"sieve bound {hi} exceeds the maximum {MAX_SIEVE_BOUND}")

    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.int64)

    base = _simple_sieve(isqrt(hi))
    odd_base = base[base > 2]

    low = max(lo, 3)
    if low % 2 == 0:
        low += 1
    while low <= hi:
        high = min(low + 2 * _SEGMENT_ODDS - 2, hi)  # inclusive, same parity
        if high % 2 == 0:
            high -= 1
        count = (high - low) // 2 + 1
        mask = np.ones(count, dtype=bool)
        for p in odd_base:
            p = int(p)
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start > high:
                continue
            mask[(start - low) // 2 :: p] = False
        yield low + 2 * np.flatnonzero(mask)
        low = high + 2


def sieve_primes(prime_range: PrimeRange) -> Iterator[int]:
    """Yield the primes in ``prime_range`` in ascending order."""
    for segment in _sieve_segments(prime_range):
        yield from segment.tolist()


def prime_chunks(prime_range: PrimeRange, lengths: Iterable[int]) -> Iterator[np.ndarray]:
    """The primes in ``prime_range``, ascending, as int64 arrays of the given lengths.

    A length past the primes still left gets those left, and the chunks end
    with the range.  Each length is read only when its chunk is asked for.
    """
    segments = _sieve_segments(prime_range)
    pending = np.empty(0, dtype=np.int64)
    for n in lengths:
        while len(pending) < n:
            segment = next(segments, None)
            if segment is None:
                break
            pending = np.concatenate((pending, segment))
        if not len(pending):
            return
        yield pending[:n]
        pending = pending[n:]


def count_primes(prime_range: PrimeRange) -> int:
    """How many primes ``prime_range`` holds, sieved without keeping them."""
    return sum(len(segment) for segment in _sieve_segments(prime_range))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    witnesses = _MR_SMALL_WITNESSES if n < _MR_SMALL_BOUND else _MR_WITNESSES
    for p in witnesses:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def are_prime(values: Collection[int] | np.ndarray) -> np.ndarray:
    """:func:`is_prime` at each of ``values``, as a bool array in their order.

    Values in [2, MAX_SIEVE_BOUND] are looked up in a sieve of just the
    sieve segments (2**18-wide windows) that hold at least
    ``_MIN_SIEVED_VALUES`` of them; the values of a sparser window, and
    values above the cap, go to :func:`is_prime` one at a time.  An int64
    array is split into those parts without a loop over its values.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        above = values > MAX_SIEVE_BOUND
        beyond = list(zip(np.flatnonzero(above).tolist(), values[above].tolist()))
        ns = np.where((values >= 2) & ~above, values, 0)
    else:
        beyond = []

        def sievable() -> Iterator[int]:
            for i, n in enumerate(values):
                if n > MAX_SIEVE_BOUND:
                    beyond.append((i, n))
                yield n if 2 <= n <= MAX_SIEVE_BOUND else 0

        ns = np.fromiter(sievable(), dtype=np.int64, count=len(values))
    prime = np.zeros(len(ns), dtype=bool)
    order = np.argsort(ns, kind="stable")
    sorted_ns = ns[order]
    width = 2 * _SEGMENT_ODDS
    i = int(np.searchsorted(sorted_ns, 2))
    while i < len(sorted_ns):
        lo = int(sorted_ns[i]) // width * width
        hi = min(lo + width - 1, MAX_SIEVE_BOUND)
        j = int(np.searchsorted(sorted_ns, hi, side="right"))
        if j - i < _MIN_SIEVED_VALUES:
            prime[order[i:j]] = [is_prime(n) for n in sorted_ns[i:j].tolist()]
            i = j
            continue
        sieved = np.zeros(hi - lo + 1, dtype=bool)
        for segment in _sieve_segments(PrimeRange(max(lo, 2), hi)):
            sieved[segment - lo] = True
        prime[order[i:j]] = sieved[sorted_ns[i:j] - lo]
        i = j
    for k, n in beyond:
        prime[k] = is_prime(n)
    return prime


def factorize(n: int, *, trial_bound: int | None = None) -> list[tuple[int, int]]:
    """Factor n >= 1 by trial division, as sorted (prime, exponent) pairs.

    If ``trial_bound`` is given and a composite cofactor survives division by
    everything <= trial_bound, raise :class:`ResourceLimitError`; a surviving
    cofactor that is itself prime is accepted.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    rem = n
    d = 2
    limit = trial_bound if trial_bound is not None else n
    while d * d <= rem and d <= limit:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rem > 1:
        if trial_bound is not None and rem > limit * limit and not is_prime(rem):
            raise ResourceLimitError(
                f"cofactor {rem} of {n} not factorable by trial division below {trial_bound}"
            )
        out.append((rem, 1))
    return out
