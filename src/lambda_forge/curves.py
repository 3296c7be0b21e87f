"""Rational elliptic curves as coefficient backends: a_ell by point counting.

A weight-2 newform attached to an elliptic curve E/Q has Fourier
coefficients a_ell = ell + 1 - #E(F_ell) at good primes.  Two counting
strategies are provided and cross-validated against each other:

* ``count_points_naive`` - quadratic-character summation over x (char > 3),
  or full enumeration of the long Weierstrass equation (char 2, 3);
* ``count_points_bsgs`` - a baby-step giant-step walk over the Hasse
  interval for random points of the curve and its quadratic twist, until
  the lcm of one side's point orders has a single multiple there: that
  multiple is the side's group order.  Mestre's theorem (Schoof 1995,
  J. Theor. Nombres Bordeaux 7, section 3; Cohen 1993, *A Course in
  Computational Algebraic Number Theory*, section 7.4) says that above
  ell = 229 the exponent of the curve or of its twist has a single multiple
  there; primes up to 229 are counted by summation.

Every count goes through one dispatcher, :func:`_bsgs_counts`: it sums
primes up to a bound, refuses bad ones, and counts the rest at once by BSGS,
their draws and walks running in lock-step as the lanes of numpy columns
from the draw to the count.  The walks are in Jacobian coordinates with one
inversion per lane per block of steps (Montgomery's simultaneous inversion)
over a baby table keyed by x alone, in batches capped at 2 MB of temporaries
and equal to within one lane, so that no batch is a small remainder.  Each
prime draws x from its own counter-based stream (splitmix64, Steele, Lea &
Flood 2014), keyed by its short model, and takes a point of the curve or of
its twist from x alone, with no square root (:func:`_random_points`); every
trial is settled on columns (:func:`_short_counts`).  In a batch of 4,096
primes a count costs about 14-24 us a prime near 3e3-9e5, some 55-78% of it
the walk and 8-13% the draws (``BENCH_30.json``).  A count alone costs 2-6
ms, nearly all numpy call overhead, so sweeps pass whole chunks;
:func:`count_points_bsgs` and :func:`trace_of_frobenius` are batches of one.

Every counter takes ell on trust as a prime: checking is the caller's job.
:func:`arith.is_prime` costs about 9 us a prime (0.72 s over the 78,498
primes below 1e6 on a 2-core host, Python 3.11), some 13% of a sweep's CPU
to 1e6, and sweeps pass sieved primes; so no counter tests it.  A
composite ell gives a meaningless number, not an error:
``trace_of_frobenius(E, 9)`` returns 0 for 11a1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as math_gcd, isqrt
from typing import Sequence

import numpy as np

from .arith import is_prime
from .errors import PointCountError, ResourceLimitError

NAIVE_COUNT_LIMIT = 3000  # at or above the measured naive/BSGS crossover (BENCH_28.json)
BSGS_MAX_POINTS = 40
# Mestre's theorem holds for every prime above it (Schoof 1995, section 3):
# the exponent of E or of its quadratic twist has one multiple in the Hasse
# window.  Primes up to it are counted by summation.
MESTRE_BOUND = 229
# The largest ell the counter accepts: a count grows like ell^(1/4), and one
# of 11a at the largest prime below 2^62 took 6.2-6.6 s (2-core x86-64 host,
# Python 3.11, numpy 2.4); past it a count is refused, never left to run.
MAX_COUNTED_ELL = 2**62


@dataclass(frozen=True)
class CurveModel:
    """Integral long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    The conductor is user-supplied (claimed to belong to the minimal model)
    and must have exactly the discriminant's primes: one missing from the
    discriminant is inconsistent, and a discriminant prime missing from the
    conductor makes the model singular, so not minimal, there.  The
    discriminant is always recomputed and, when passed in (0 included),
    checked against it; after construction the field holds the computed value.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    discriminant: int | None = None

    def __post_init__(self) -> None:
        disc = self._compute_discriminant()
        if disc == 0:
            raise ValueError("singular model: discriminant is zero")
        if self.discriminant not in (None, disc):
            raise ValueError(
                f"stated discriminant {self.discriminant} != computed {disc}"
            )
        object.__setattr__(self, "discriminant", disc)
        if self.conductor < 1:
            raise ValueError(f"conductor must be positive, got {self.conductor}")
        if (rest := _coprime_part(self.conductor, disc)) > 1:
            raise ValueError(
                f"conductor {self.conductor}: its factor {rest} is coprime to "
                f"the discriminant {disc}, so the model is inconsistent"
            )
        if (rest := _coprime_part(abs(disc), self.conductor)) > 1:
            # the least prime of rest, or rest whole if it has none below 10^6
            q = next((d for d in range(2, min(isqrt(rest), 10**6) + 1) if rest % d == 0), rest)
            raise ValueError(
                f"model is singular mod {q}, which does not divide the conductor "
                f"{self.conductor}: not a minimal model"
            )

    def _compute_discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c_invariants(self) -> tuple[int, int]:
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        return c4, c6


def _coprime_part(n: int, m: int) -> int:
    """n stripped of every prime that divides m."""
    while (g := math_gcd(n, m)) > 1:
        n //= g
    return n


def _short_model(c4: int, c6: int, ell: int) -> tuple[int, int]:
    """(A, B) of y^2 = x^3 + Ax + B over F_ell, isomorphic to the curve with these c-invariants.

    Valid for ell >= 5: the change of variables uses u = 6, invertible away
    from 2 and 3, so point counts transfer unchanged.
    """
    return (-27 * c4) % ell, (-54 * c6) % ell


def _require_countable(curve: CurveModel, ell: int) -> None:
    """Refuse a prime ell of bad reduction: the one curve-level rule.

    :class:`CurveModel` has already refused a model singular at a prime
    outside its conductor, so ell may divide the discriminant only if it
    divides the conductor.  Every counter applies it; ell itself is trusted
    to be prime.
    """
    if curve.conductor % ell == 0:
        raise ValueError(f"bad reduction at {ell}: cannot count points")


def _count_tiny_char(curve: CurveModel, ell: int) -> int:
    """Full scan of the long Weierstrass equation; only for ell in {2, 3}."""
    a1, a2, a3, a4, a6 = (c % ell for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    n = 1  # point at infinity
    for x in range(ell):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y) % ell == rhs:
                n += 1
    return n


def count_points_naive(curve: CurveModel, ell: int, *, limit: int = NAIVE_COUNT_LIMIT) -> int:
    """#E(F_ell) including infinity, by direct summation.

    For ell > 3 this sums the quadratic character of x^3 + Ax + B over all x
    using a residue table, costing O(ell) time and memory.  ell must be a
    prime; the caller checks that (see the module notes).
    """
    _require_countable(curve, ell)
    if ell > limit:
        raise ValueError(
            f"ell={ell} above the naive-count threshold {limit}; use count_points_bsgs"
        )
    if ell <= 3:
        return _count_tiny_char(curve, ell)

    a, b = _short_model(*curve.c_invariants(), ell)
    x = np.arange(ell, dtype=np.int64)
    f = (x * x % ell * x + a * x + b) % ell
    is_qr = np.zeros(ell, dtype=bool)
    y = np.arange((ell - 1) // 2 + 1, dtype=np.int64)
    is_qr[y * y % ell] = True
    chi = np.where(f == 0, 0, np.where(is_qr[f], 1, -1))
    return int(ell + 1 + chi.sum())


# --- lane-batched arithmetic mod per-lane primes (short model, char >= 5) -----
#
# Arrays hold one lane per column (per row in the draws), and every operation
# reduces modulo the per-lane array p.  Below this bound a sum of two products
# of residues fits in int64; lanes of a larger prime run the same code on
# dtype=object arrays.
_INT64_PRIME_LIMIT = 1 << 31
# x values a lane keeps from its stream per pass of :func:`_random_points`:
# about half of all x give a point, so one pass in 2^_DRAWS needs another.
# A pass reads twice as many candidates, since fewer than half are rejected.
_DRAWS = 4
# splitmix64's counter stride, the odd 64-bit fraction of the golden ratio
_GAMMA = 0x9E3779B97F4A7C15


def _pow(z, e, p):
    """z^e mod p lane by lane, for an exponent array e >= 0 broadcasting against z."""
    result = np.ones_like(z)
    for k in range(int(e.max()).bit_length()):
        result = np.where((e >> k) & 1 == 1, result * z % p, result)
        z = z * z % p
    return result


def _mix(z):
    """splitmix64's output function on a uint64 array, mod 2^64: a bijection of 64-bit words."""
    z = z ^ (z >> 30)
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _stream_keys(ells, a, b):
    """The key of each prime's point stream, a uint64 mix of its short model (ell, a, b)."""
    key = _mix(np.array(ells, np.uint64))
    key ^= np.array(a, np.uint64)
    key = _mix(key)
    key ^= np.array(b, np.uint64)
    return _mix(key)


def _candidates(keys, skips, bits, count, dtype):
    """``count`` candidates of each lane i's stream from its candidate ``skips[i]`` on, as rows.

    Candidate k (from 0) of a lane is the top ``bits`` bits of splitmix64's
    output at the counter ``key + (k + 1) * _GAMMA``, bits the bit length
    of the lane's prime p; a draw of x is the first candidate below p, as
    randrange takes one, so x is uniform on [0, p).  Each candidate is
    computed from its position alone, so a lane reads on from any offset.
    Every p <= :data:`MAX_COUNTED_ELL` fits one word; the values become
    ``dtype`` only after the shift.
    """
    counter = np.add.outer(skips.astype(np.uint64) + 1, np.arange(count, dtype=np.uint64))
    counter *= _GAMMA
    counter += keys[:, None]
    z = _mix(counter)
    z >>= 64 - bits[:, None]
    return z.astype(dtype)


def _random_points(keys, used, a, b, p, bits, trial):
    """The next point (x, y) of each lane's stream on this trial's side, with its A, as columns.

    Lane i draws x from the stream of key ``keys[i]`` (:func:`_candidates`)
    from its candidate ``used[i]`` on, until d = x^3 + ax + b is 0 or, on
    a curve trial (even), a square, on a twist trial (odd), a non-square
    (Euler's criterion): the x the scalar loop ``while True: x =
    randrange(p); ...`` would take.  The point is (dx, d^2), on
    y^2 = x^3 + ad^2 x + bd^3 with A = ad^2: the curve scaled by sqrt(d)
    when d is a square, its twist by d when it is not.  At d = 0 it is
    (x, 0) on the curve with A = a, of order 2, which divides the twist's
    order too, as the twist's cubic has as many roots.  ``bits`` holds each
    p's bit length.  Returns the columns x, y, A and the candidates used.

    A pass tests a lane's first _DRAWS draws in numpy; a lane whose draws
    all fail reads on from where it stopped, for twice as many.
    """
    lanes = len(keys)
    used = used.copy()
    x, d = np.zeros(lanes, p.dtype), np.zeros(lanes, p.dtype)
    pending = np.arange(lanes)
    per_lane = _DRAWS
    while len(pending):
        P, A, B = (v[pending, None] for v in (p, a, b))
        raw = _candidates(keys[pending], used[pending], bits[pending], 2 * per_lane, p.dtype)
        # the first per_lane accepted draws, and the candidates read up to each;
        # an empty slot, in a lane with fewer, stands for all of them
        accepted = raw < P
        rank = np.cumsum(accepted, axis=1)
        row, col = np.nonzero(accepted & (rank <= per_lane))
        slot = rank[row, col] - 1
        X = np.zeros((len(pending), per_lane), p.dtype)
        X[row, slot] = raw[row, col]
        read = np.full(X.shape, 2 * per_lane)
        read[row, slot] = col + 1
        valid = np.zeros(X.shape, bool)
        valid[row, slot] = True
        D = (X * X % P * X + A * X + B) % P
        euler = _pow(D, (P - 1) >> 1, P)
        ok = valid & ((D == 0) | (euler == (P - 1 if trial % 2 else 1)))
        col = ok.argmax(axis=1)
        done = ok.any(axis=1)
        at = (np.flatnonzero(done), col[done])
        lane = pending[done]
        x[lane], d[lane] = X[at], D[at]
        used[pending] += read[np.arange(len(pending)), np.where(done, col, per_lane - 1)]
        pending = pending[~done]
        per_lane *= 2
    root = d == 0
    dd = d * d % p
    return np.where(root, x, d * x % p), dd, np.where(root, a, a * dd % p), used


# --- the lane-batched walk ----------------------------------------------------
#
# One lane is one sampled point P on y^2 = x^3 + ax + b over F_ell with its
# window [lo, hi]; the walk runs down the rows.  Points are Jacobian
# (X : Y : Z), standing for (X / Z^2, Y / Z^3); Z = 0 is O.

# Bytes of walk temporaries one batch of lanes may hold; the lanes per batch
# follow from the walk length.  Measured with tracemalloc, a batch holds about
# _WORDS_PER_STEP int64 words per lane and step of its baby walk and giant block.
_WALK_BYTES = 2 << 20
_WORDS_PER_STEP = 5
# Giant steps between two normalisations, each costing one inversion per lane.
_GIANT_BLOCK = 32
_NONE = np.iinfo(np.int64).max  # no annihilator found


def _dbl(X, Y, Z, a, p):
    """2Q for Jacobian Q; O and points of order 2 go to Z = 0."""
    XX = X * X % p
    YY = Y * Y % p
    ZZ = Z * Z % p
    S = X * YY % p * 4 % p
    M = (3 * XX + a * (ZZ * ZZ % p)) % p
    X3 = M * M - 2 * S
    X3 %= p
    Y3 = M * (S - X3) - 8 * (YY * YY % p)
    Y3 %= p
    return X3, Y3, Y * Z % p * 2 % p


def _madd(X, Y, Z, x, y, a, p):
    """Q + (x, y) for Jacobian Q and affine (x, y), with every case of the group law.

    The formula itself gives Z = 0 for Q = -(x, y), which is right, but also
    for Q = O and Q = (x, y); those lanes are patched.
    """
    ZZ = Z * Z
    ZZ %= p
    H = x * ZZ - X
    H %= p
    ZZ *= Z
    ZZ %= p
    r = y * ZZ - Y
    r %= p
    HH = H * H
    HH %= p
    HHH = H * HH
    HHH %= p
    V = X * HH
    V %= p
    X3 = r * r - HHH - 2 * V
    X3 %= p
    V -= X3
    Y3 = r * V - Y * HHH
    Y3 %= p
    Z3 = Z * H
    Z3 %= p
    lost = Z3 == 0
    if lost.any():
        at_o = lost & (Z == 0)
        same = lost & ~at_o & (r == 0)
        if same.any():
            twice = _dbl(x, y, 1, a, p)
            X3, Y3, Z3 = (np.where(same, d, v) for d, v in zip(twice, (X3, Y3, Z3)))
        X3, Y3, Z3 = (np.where(at_o, s, v) for s, v in zip((x, y, 1), (X3, Y3, Z3)))
    return X3, Y3, Z3


def _affine(X, Y, Z, p):
    """Affine rows (x, y) and the mask of O for Jacobian rows, overwriting them.

    Montgomery's simultaneous inversion: one inversion per lane, of the
    product of the rows' Z, gives every row's 1/Z.
    """
    at_o = Z == 0
    Z[at_o] = 1
    acc = np.empty_like(Z)
    acc[0] = Z[0]
    for k in range(1, len(Z)):
        np.multiply(acc[k - 1], Z[k], out=acc[k])
        acc[k] %= p
    inv = _pow(acc[-1], p - 2, p)  # Fermat
    for k in range(len(Z) - 1, 0, -1):
        np.multiply(inv, acc[k - 1], out=acc[k])
        acc[k] %= p
        inv = inv * Z[k] % p
    acc[0] = inv
    Z[:] = acc  # 1/Z, then 1/Z^2
    Z *= acc
    Z %= p
    X *= Z
    X %= p
    Y *= Z
    Y %= p
    Y *= acc
    Y %= p
    return X, Y, at_o


def _baby_count(width: int) -> int:
    """M, the baby steps for a window of this width: the giant stride is 2M + 1.

    With x-keyed babies one giant step covers 2M + 1 exponents, so M is
    about sqrt(width / 2), and 2M >= isqrt(width) + 1 for every width.
    """
    return isqrt(width // 2) + 1


def _window_orders(x, y, a, p, lo, hi):
    """ord(P), or its only multiple in [lo, hi], for each lane of columns x, y, a, p, lo, hi.

    Each window, 0 < lo <= hi, must contain the group order, so it holds at
    least one multiple of ord(P).  With m = isqrt(hi - lo) + 1, a lane gets
    ord(P) if ord(P) <= m or the window holds two multiples of it; else the
    one multiple in the window, which is then the group order itself: its
    multiples in the window are exactly those of ord(P), which is all the
    lcm rule of :func:`_short_counts` needs.  A lane whose window holds
    no annihilator (a bug upstream) gets 0.

    The walk is Shanks' baby-step giant-step with a baby table keyed by x
    alone, so that one entry stands for both jP and -jP (see :func:`_walk`).
    Lanes may mix primes and window sizes; they are walked in the fewest
    batches that each hold at most about ``_WALK_BYTES`` of temporaries,
    equal to within one lane, so that no batch is a small remainder paying
    a whole walk's fixed cost.
    """
    width = (hi - lo).astype(np.int64)  # below 2^34 for every counted prime
    widest = int(width.max())
    babies = _baby_count(widest)
    steps = babies + 1 + min(widest // (2 * babies + 1) + 1, _GIANT_BLOCK)
    per_batch = max(1, _WALK_BYTES // (8 * _WORDS_PER_STEP * steps))
    batches = -(-len(x) // per_batch)
    cuts = [i * len(x) // batches for i in range(batches + 1)]
    return np.concatenate([_walk(*(v[i:j] for v in (x, y, a, p, lo, width)))
                           for i, j in zip(cuts, cuts[1:])])


def _walk(x, y, a, p, lo, width):
    """:func:`_window_orders` for one batch of columns, ``width`` = hi - lo as int64.

    The baby rows hold jP for j = 1 .. M and (2M + 1)P, with M from the
    widest window of the batch.  They show ord(P) when it is at most 2M + 1:
    O recurs at j = ord(P) <= M; beyond M, jP = -kP (equal x) gives
    ord(P) = j + k and y(jP) = 0 gives 2j; else (2M + 1)P = O.  Such lanes
    get their result from ord(P) directly, the others take the giant walk.
    """
    dtype = x.dtype
    babies = _baby_count(int(width.max()))
    lanes = len(x)

    X, Y, Z = (np.empty((babies + 1, lanes), dtype) for _ in range(3))
    X[0], Y[0], Z[0] = x, y, 1
    for j in range(1, babies):
        X[j], Y[j], Z[j] = _madd(X[j - 1], Y[j - 1], Z[j - 1], x, y, a, p)
    X[-1], Y[-1], Z[-1] = _madd(*_dbl(X[-2], Y[-2], Z[-2], a, p), x, y, a, p)
    bx, by, b_o = _affine(X, Y, Z, p)
    del X, Y, Z
    T = _multiple(lo + babies, bx, by, a, p)
    T = (T[0], -T[1] % p, T[2])  # T_0 = -(lo + M)P, the giant walk's start

    # the baby table, sorted, in place of the babies' x: key (lane * stride + x) * M + j - 1
    # for jP, so that equal neighbours in key // M are x-collisions; O rows
    # have junk keys, but O outranks them below
    stride = int(p.max()) + 1
    base = np.array(range(lanes), dtype) * stride
    keys = bx[:-1]
    keys += base
    keys *= babies
    keys += np.arange(babies)[:, None]
    keys = keys.ravel()
    keys.sort()
    same = np.flatnonzero(keys[1:] // babies == keys[:-1] // babies)
    ords = np.zeros(lanes, np.int64)
    ords[(keys[same] // babies // stride).astype(np.intp)] = (
        keys[same] % babies + keys[same + 1] % babies + 2
    )
    half = (by[:-1] == 0) & ~b_o[:-1]
    ords = np.where(half.any(axis=0), 2 * half.argmax(axis=0) + 2, ords)
    ords[b_o[-1]] = 2 * babies + 1
    ords = np.where(b_o[:-1].any(axis=0), b_o[:-1].argmax(axis=0) + 1, ords)

    out = np.zeros(lanes, dtype)
    known = np.flatnonzero(ords)
    if len(known):
        n, l, w = ords[known].astype(dtype), lo[known], width[known]
        first = l + (-l) % n
        small = (n - 1) ** 2 <= w  # n <= isqrt(w) + 1, as n >= 1
        out[known] = np.where(small | (first + n <= l + w), n, np.where(first <= l + w, first, 0))
    walk = np.flatnonzero(ords == 0)
    if len(walk):
        step = bx[-1, walk], -by[-1, walk] % p[walk]
        out[walk] = _giant_walk(
            tuple(v[walk] for v in T), step, keys, by[:-1].ravel(), walk, babies,
            base[walk], a[walk], p[walk], lo[walk], width[walk],
        )
    return out


def _multiple(k, bx, by, a, p):
    """kP in Jacobian coordinates by fixed windows, the affine rows jP (j >= 1) as the table."""
    w = max(1, (len(bx) - 1).bit_length() - 1)  # so that a digit, < 2^w, has its row
    top = (int(k.max()).bit_length() - 1) // w * w
    col = np.arange(len(k))
    Q = tuple(np.full(len(k), v, bx.dtype) for v in (1, 1, 0))
    for shift in range(top, -1, -w):
        for _ in range(w if shift < top else 0):
            Q = _dbl(*Q, a, p)
        d = ((k >> shift) & ((1 << w) - 1)).astype(np.intp)
        added = _madd(*Q, bx[d - 1, col], by[d - 1, col], a, p)
        Q = tuple(np.where(d > 0, s, q) for s, q in zip(added, Q))
    return Q


def _giant_walk(T, step, keys, baby_y, walk, babies, base, a, p, lo, width):
    """The giant steps of :func:`_walk` for its lanes ``walk``, where ord(P) > 2M + 1.

    They look for the u in [0, hi - lo] with (lo + u)P = O, as u = c_i + j
    with c_i = M + i(2M + 1) and -M <= j <= M: giant step i is
    T_i = -(lo + c_i)P, and T_i = jP.  The baby with the x of T_i is |j|P,
    and y tells the sign of j; T_i = O is j = 0.  As ord(P) > 2M + 1, the
    babies' x differ and a giant step holds at most one annihilator.
    ``keys`` is the batch's sorted baby table, ``base`` these lanes' offsets in it.
    """
    dtype = keys.dtype
    stride = 2 * babies + 1
    giants = width // stride + 1
    first = np.full(len(walk), _NONE)
    second = np.full(len(walk), _NONE)
    for begin in range(0, int(giants.max()), _GIANT_BLOCK):
        rows = min(_GIANT_BLOCK, int(giants.max()) - begin)
        GX, GY, GZ = (np.empty((rows, len(walk)), dtype) for _ in range(3))
        for i in range(rows):
            GX[i], GY[i], GZ[i] = T
            T = _madd(*T, *step, a, p)
        gx, gy, g_o = _affine(GX, GY, GZ, p)
        del GX, GY, GZ
        u, miss = _giant_matches(gx, gy, g_o, keys, baby_y, walk, babies, base)
        del gx, gy
        u += (begin + np.arange(rows)[:, None]) * stride + babies
        u[miss | (u > width)] = _NONE
        first, second = np.sort(np.vstack([first, second, u]), axis=0)[:2]
        if ((second != _NONE) | (begin + rows >= giants)).all():
            break
    found = first != _NONE
    sole = np.where(found, lo + np.where(found, first, 0), 0)
    return np.where(second != _NONE, second - first, sole)


def _giant_matches(gx, gy, g_o, keys, baby_y, walk, babies, base):
    """j with T = jP for each giant step T, and the mask of steps without a match.

    Overwrites gx.  See :func:`_giant_walk` for the arguments.
    """
    gx += base
    gx *= babies
    at = np.searchsorted(keys, gx)
    np.minimum(at, len(keys) - 1, out=at)
    found = keys[at]
    del at
    j = found % babies  # the baby (j + 1)P
    found -= j
    miss = (found != gx) & ~g_o
    del found
    j = j.astype(np.intp, copy=False)
    at = j * (len(baby_y) // babies)
    at += walk
    flip = baby_y[at] != gy
    del at
    j += 1
    np.negative(j, out=j, where=flip)
    j[g_o] = 0
    return j, miss


def _hasse_window(ell: int) -> tuple[int, int]:
    """[lo, hi], the integers within 2 sqrt(ell) of ell + 1: the Hasse interval of #E(F_ell)."""
    s = isqrt(4 * ell)
    return ell + 1 - s, ell + 1 + s


def _bsgs_counts(
    curve: CurveModel, ells: Sequence[int], max_points: int, summed_to: int = MESTRE_BOUND
) -> list[int | Exception]:
    """#E(F_ell) or the exception counting raises at ell, for each ell: the one dispatcher.

    An ell up to ``summed_to`` (at least :data:`MESTRE_BOUND`, below which
    BSGS does not settle) is counted by summation, a bad or too large one
    refused, and the rest by BSGS on their short models
    (:func:`_short_counts`).
    """
    c4, c6 = curve.c_invariants()
    entries: list = []
    for ell in ells:
        try:
            if ell <= summed_to:
                entries.append(count_points_naive(curve, ell, limit=ell))
                continue
            _require_countable(curve, ell)
            if ell > MAX_COUNTED_ELL:
                raise ResourceLimitError(f"point counting is capped at ell <= 2^62, got {ell}")
            entries.append(None)
        except (ValueError, ResourceLimitError) as exc:
            entries.append(exc)
    at = [i for i, entry in enumerate(entries) if entry is None]
    models = [_short_model(c4, c6, ells[i]) for i in at]
    for i, entry in zip(at, _short_counts([ells[i] for i in at], models, max_points)):
        entries[i] = entry
    return entries


def _short_counts(ells, models, max_points) -> list[int | PointCountError]:
    """#E(F_ell) of each y^2 = x^3 + ax + b in ``models`` at its ell > :data:`MESTRE_BOUND`, by BSGS.

    The lane columns (one dtype, p, a, b, the Hasse windows [lo, hi], stream
    keys, bit lengths) are made once; trial t draws (:func:`_random_points`)
    and walks (:func:`_window_orders`) the t-th point of every lane still
    open, passing slices: even trials on the curve, odd ones on its twist.
    Each side keeps the lcm L of its walk results, which divides that side's
    group order, a number in [lo, hi]; once L has a single multiple there,
    that multiple is the side's order, N on the curve and 2 ell + 2 - N on
    the twist.  Above :data:`MESTRE_BOUND` the exponent of the curve or of
    its twist has a single multiple in the window, so one side settles once
    its points reach that exponent.  A lane still open after ``max_points``
    trials is refused, never guessed.  Each lane's points come from its own
    stream, keyed by its model, so an entry never depends on the other lanes.
    """
    dtype = np.int64 if max(ells, default=0) < _INT64_PRIME_LIMIT else object
    p = np.array(ells, dtype)
    a, b = np.array(models, dtype).reshape(-1, 2).T
    lo, hi = np.array([_hasse_window(ell) for ell in ells], dtype).reshape(-1, 2).T
    bits = np.array([ell.bit_length() for ell in ells], np.uint64)
    keys, used = _stream_keys(p, a, b), np.zeros(len(ells), np.int64)
    lcms = np.ones((2, len(ells)), dtype)  # per side: the curve's, the twist's
    entries: list = [None] * len(ells)
    live = np.arange(len(ells))
    for trial in range(max_points):
        if not len(live):
            break
        P, LO, HI = p[live], lo[live], hi[live]
        x, y, A, used[live] = _random_points(
            keys[live], used[live], a[live], b[live], P, bits[live], trial
        )
        n = _window_orders(x, y, A, P, LO, HI)
        side = lcms[trial % 2]
        side[live] = L = np.lcm(side[live], np.where(n > 0, n, 1))
        first = LO + (-LO) % L
        counts = (first if trial % 2 == 0 else 2 * P + 2 - first).tolist()
        settled = (first <= HI) & (first + L > HI)
        for j in np.flatnonzero(settled | (n == 0)).tolist():
            entries[live[j]] = counts[j] if n[j] else PointCountError(
                f"no annihilator of a point in [{LO[j]}, {HI[j]}] mod {P[j]}; bug"
            )
        live = live[~settled & (n > 0)]
    return [
        PointCountError(
            f"group order ambiguous at ell={ell} after {max_points} points: refusing to guess"
        ) if entry is None else entry
        for ell, entry in zip(ells, entries)
    ]


def _unwrap(entries: list) -> int:
    (entry,) = entries
    if isinstance(entry, Exception):
        raise entry
    return entry


def count_points_bsgs(curve: CurveModel, ell: int) -> int:
    """#E(F_ell) via random point orders on the curve and its quadratic twist.

    Sampling is deterministic per (curve, ell) (see :func:`_short_counts`),
    and ambiguity after :data:`BSGS_MAX_POINTS` points raises instead of
    guessing, as does an ell past :data:`MAX_COUNTED_ELL`.  An ell up to
    :data:`MESTRE_BOUND` is counted by summation.
    A batch of one: sweeps count many primes at once through
    :func:`traces_of_frobenius`, since one count alone costs 2-6 ms of
    numpy overhead.  ell must be a prime; the caller checks that (see the
    module notes).
    """
    return _unwrap(_bsgs_counts(curve, [ell], BSGS_MAX_POINTS))


def traces_of_frobenius(curve: CurveModel, ells: Sequence[int]) -> list[int | Exception]:
    """a_ell = ell + 1 - #E(F_ell) for each ell, each checked against the Hasse bound.

    :func:`_bsgs_counts` sums primes up to :data:`NAIVE_COUNT_LIMIT` and
    counts the others by BSGS in shared walks.  Each entry is a_ell or the
    exception the count raised at that ell: a :class:`PointCountError`, a
    ValueError at a prime of bad reduction, or a :class:`ResourceLimitError`
    past :data:`MAX_COUNTED_ELL`.  No entry depends on the other ells.
    Every ell must be a prime; the caller checks that (see the module notes).
    """
    traces: list[int | Exception] = []
    counts = _bsgs_counts(curve, ells, BSGS_MAX_POINTS, summed_to=NAIVE_COUNT_LIMIT)
    for ell, n in zip(ells, counts):
        if not isinstance(n, Exception):
            a = ell + 1 - n
            n = a if a * a <= 4 * ell else PointCountError(
                f"a_{ell} = {a} violates the Hasse bound; count is wrong"
            )
        traces.append(n)
    return traces


def trace_of_frobenius(curve: CurveModel, ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell), checked against the Hasse bound: a batch of one.

    ell must be a prime; the caller checks that (see the module notes):
    at ell = 9 this returns 0 for 11a1.
    """
    return _unwrap(traces_of_frobenius(curve, [ell]))


def is_ordinary(curve: CurveModel, p: int) -> bool:
    """True iff a_p is not divisible by p.

    Raises ValueError unless p is a prime >= 5 of good reduction
    (:func:`_require_countable`).
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"ordinariness needs a prime p >= 5, got {p}")
    return trace_of_frobenius(curve, p) % p != 0
