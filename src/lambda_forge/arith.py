"""Exact integer and modular arithmetic, plus fast prime generation.

Everything here is pure and deterministic, and exact at any size.  Sieved
primes stay below :data:`MAX_SIEVE_BOUND`, so they fit int64 columns; the
working prime p, a single ell and a level are Python ints of any size (a
planned level N_f passes 2**63 within a dozen primes), and need no external
bignum support.

A range's primes come from one segmented sieve: one at a time
(:func:`sieve_primes`), or as int64 arrays of any length taken from a
:class:`PrimeStream`, which also says how many primes lie ahead without
sieving any segment twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import Collection, Iterator

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

# Deterministic Miller-Rabin witnesses: the primes to 41 decide every n below
# _MR_BOUND = psi_13, the least strong pseudoprime to them all (Sorenson and
# Webster 2017; OEIS A014233).  Those to 37 alone pass psi_12 ~ 3.2 * 10**23.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# The bases 2, 3, 5, 7 suffice below 3,215,031,751, the least strong
# pseudoprime to all four (Jaeschke 1993, Math. Comp. 61).
_MR_SMALL_WITNESSES = (2, 3, 5, 7)
_MR_SMALL_BOUND = 3_215_031_751

# factorize tries the primes in blocks of up to this many, one gcd of what is
# left of n a block.  The primes to 10**6 make 44 blocks, and factorize takes
# 0.4-0.5 s on a 139,998-bit level with no factor among them (a 2-vCPU x86-64
# VM, Python 3.11).
_TRIAL_BLOCK = 2000


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


class PrimeStream:
    """The primes of a range, ascending, taken a few at a time.

    The range is sieved a segment at a time, only as far as the primes
    asked for reach, so each segment is sieved once however they are taken.
    """

    def __init__(self, prime_range: PrimeRange) -> None:
        self._segments = _sieve_segments(prime_range)
        self._pending = np.empty(0, dtype=np.int64)

    def ahead(self, n: int) -> int:
        """How many primes are left: at least n while that many remain, else exactly."""
        while len(self._pending) < n:
            segment = next(self._segments, None)
            if segment is None:
                break
            self._pending = np.concatenate((self._pending, segment))
        return len(self._pending)

    def take(self, n: int) -> np.ndarray:
        """The next n primes as an int64 array, or all those left if fewer."""
        self.ahead(n)
        chunk, self._pending = self._pending[:n], self._pending[n:]
        return chunk


def int_text(n: int) -> str:
    """n in decimal up to 100 digits, else its digit count: "<a 4,401-digit integer>".

    For messages, which must not echo a level of any size; past 4,300
    digits, Python refuses the conversion by default.
    """
    m = abs(n)
    if m < 10**100:
        return str(n)
    digits = int(m.bit_length() * 0.30102999566398120) + 1  # log10(2), then made exact
    digits += (m >= 10**digits) - (m < 10 ** (digits - 1))
    return f"<a {digits:,}-digit integer>"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24 (psi_13).

    A larger n is refused with :class:`ResourceLimitError`, never guessed.
    """
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ResourceLimitError(
            f"primality of {int_text(n)} is not decided at or above {_MR_BOUND}"
        )
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
    values above the cap, go to :func:`is_prime` one at a time, which
    refuses one it cannot decide.  The values are taken as one array: int64,
    or exact Python ints (dtype=object) when one lies outside int64.
    """
    try:
        values = np.asarray(values, dtype=np.int64)
    except OverflowError:
        values = np.array(values, dtype=object)
    above = values > MAX_SIEVE_BOUND
    beyond = list(zip(np.flatnonzero(above).tolist(), values[above].tolist()))
    ns = np.where((values >= 2) & ~above, values, 0).astype(np.int64, copy=False)
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


def residues(n: int, moduli):
    """n mod each of ``moduli``, for any int n (on Python ints where it is past int64)."""
    if isinstance(moduli, np.ndarray) and moduli.dtype != object and not -(2**63) <= n < 2**63:
        moduli = moduli.astype(object)
    return n % moduli


def factorize(n: int, *, trial_bound: int) -> list[tuple[int, int]]:
    """Factor n >= 1 by trial division, as sorted (prime, exponent) pairs.

    n is divided by the primes <= min(trial_bound, isqrt(n)), sieved by a
    :class:`PrimeStream` and taken in blocks of up to ``_TRIAL_BLOCK``: a
    block is tried one prime at a time only when it shares a factor with
    what is left of n, so a level of any length costs one gcd a block.  If
    a composite cofactor survives, raise :class:`ResourceLimitError`; a
    surviving cofactor that is itself prime is accepted.  The sieve refuses
    a bound past :data:`MAX_SIEVE_BOUND` the same way.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    rem = n
    bound = min(trial_bound, isqrt(n))
    primes = PrimeStream(PrimeRange(2, max(bound, 3)))  # a range holds at least [2, 3]
    size = 64  # doubled to _TRIAL_BLOCK: a small level stops within its first block
    while True:
        block = primes.take(size)
        size = min(2 * size, _TRIAL_BLOCK)
        block = block[block <= bound].tolist()
        if not block or block[0] * block[0] > rem:
            break
        common = gcd(rem, prod(block))
        for d in block:
            if common % d == 0:
                e = 0
                while rem % d == 0:
                    rem //= d
                    e += 1
                out.append((d, e))
    if rem > 1:
        if rem > trial_bound * trial_bound and not is_prime(rem):
            raise ResourceLimitError(
                f"cofactor {int_text(rem)} of {int_text(n)} not factorable by trial division "
                f"below {trial_bound}"
            )
        out.append((rem, 1))
    return out
