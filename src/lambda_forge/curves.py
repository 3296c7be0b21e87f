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
primes up to a bound, refuses bad ones, and counts the rest at once by BSGS
on numpy columns, one lane a prime.  Each lane draws its points from its own
counter-based stream (splitmix64, Steele, Lea & Flood 2014) with no square
root (:func:`_random_points`), and walks them in Jacobian coordinates with
one inversion per block of steps (Montgomery's simultaneous inversion) over
a sorted baby table keyed by x alone (:func:`_window_orders`).  In a batch
of 4,096 primes of 11a a count costs 5-7 us a prime near 3e4-9e5 (2-core
x86-64 host, Python 3.11, numpy 2.4), and one alone 2-6 ms of numpy call
overhead, so sweeps pass whole chunks.

Every counter takes ell on trust as a prime: checking is the caller's job.
:func:`arith.is_prime` costs about 9 us a prime, more than a count in a
sweep, and sweeps pass sieved primes.  A composite ell gives a meaningless
number, not an error: ``trace_of_frobenius(E, 9)`` returns 0 for 11a1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as math_gcd, isqrt
from typing import Sequence

import numpy as np

from .arith import is_prime, residues
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


def _short_model(c4: int, c6: int, ell):
    """(A, B) of y^2 = x^3 + Ax + B over F_ell, isomorphic to the curve with these c-invariants.

    Valid for ell >= 5: the change of variables uses u = 6, invertible away
    from 2 and 3, so point counts transfer unchanged.  ell may be a column.
    """
    return residues(-27 * c4, ell), residues(-54 * c6, ell)


def _require_countable(curve: CurveModel, ell: int) -> None:
    """Refuse ell dividing the conductor (ValueError; :class:`CurveModel` refused any other
    bad prime) or past :data:`MAX_COUNTED_ELL` (:class:`ResourceLimitError`), before a count."""
    if curve.conductor % ell == 0:
        raise ValueError(f"bad reduction at {ell}: cannot count points")
    if ell > MAX_COUNTED_ELL:
        raise ResourceLimitError(f"point counting is capped at ell <= 2^62, got {ell}")


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
# Arrays hold one lane per column, and every operation reduces modulo the
# per-lane array p.  Below this bound a sum of two products of residues fits
# in int64; lanes of a larger prime run the same code on dtype=object arrays.
_INT64_PRIME_LIMIT = 1 << 31
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


def _random_points(keys, a, b, p, trial):
    """Trial ``trial``'s point (x, y) of each lane's stream, its A and its side, as columns.

    Lane i reads one word of the stream of key ``keys[i]``: w, splitmix64's
    output at the counter ``key + (trial + 1) * _GAMMA``, and x = w p / 2^64
    rounded down (Lemire's multiply-shift, no rejection).  Every x gives a
    point: with d = x^3 + ax + b, (dx, d^2) lies on y^2 = x^3 + ad^2 x + bd^3,
    A = ad^2, which is the curve scaled by sqrt(d) when d is a square and
    its twist by d when it is not (Euler's criterion; the column ``twist``).
    At d = 0 the point is (x, 0) on the curve with A = a, of order 2, which
    divides the twist's order too, as the twist's cubic has as many roots.
    Returns the columns x, y, A and twist.
    """
    w = _mix(keys + np.uint64((trial + 1) * _GAMMA % 2**64))
    if p.dtype == object:
        x = w.astype(object) * p >> 64
    else:
        # w p / 2^64 from w's 32-bit halves, every product below 2^63
        q = p.astype(np.uint64)
        x = (((w >> 32) * q + ((w & 0xFFFFFFFF) * q >> 32)) >> 32).astype(np.int64)
    d = (x * x % p * x + a * x + b) % p
    twist = _pow(d, (p - 1) >> 1, p) == p - 1
    root = d == 0
    dd = d * d % p
    return np.where(root, x, d * x % p), dd, np.where(root, a, a * dd % p), twist


# --- the lane-batched walk ----------------------------------------------------
#
# One lane is one sampled point P on y^2 = x^3 + ax + b over F_ell with its
# window [lo, hi]; the walk runs down the rows.  Points are Jacobian
# (X : Y : Z), standing for (X / Z^2, Y / Z^3); Z = 0 is O.

# Bytes of temporaries a walk batch may hold: under tracemalloc 3.5-3.9 int64
# words a lane and step of its baby walk and giant block (4,096 primes of 11a
# near 3e4-9e5; near 9e5 they walk in 32.9 ms at 2 MB, 28.8 at 4 MB).  So
# lanes * M < 2^17, and a giant key stays below lanes * M * 2^31 * 32 = 2^53.
_WALK_BYTES = 4 << 20
_WORDS_PER_STEP = 4
# Giant steps between two normalisations, each costing one inversion per lane;
# at most 32, as a giant key holds its row in 5 bits.
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
    batches within ``_WALK_BYTES``, equal to within one lane.
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

    A block's keys (x + base) M, the row in their low bits, are sorted and
    searched at once (16 ns a key, 28 unsorted); a lexsort merges the hits.
    """
    dtype = keys.dtype
    stride = 2 * babies + 1
    giants = width // stride + 1
    lanes = len(baby_y) // babies
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
        # a step's key, below 2^53 (see _WALK_BYTES); x = -1 at O matches no baby
        gx[g_o] = -1
        gx += base
        gx *= babies
        gx <<= 5
        gx |= np.arange(rows)[:, None]
        found = gx.ravel()
        found.sort()
        needles = found >> 5
        j = keys.take(np.searchsorted(keys, needles), mode="clip")
        j -= needles  # the baby (j + 1)P, if 0 <= j < M
        hit = np.flatnonzero((j >= 0) & (j < babies))
        i = (found[hit] & 31).astype(np.intp)
        k = np.searchsorted(base, needles[hit] // babies, side="right") - 1
        j = j[hit].astype(np.intp)
        del gx, found, needles
        j = np.where(baby_y[j * lanes + walk[k]] == gy[i, k], j + 1, -1 - j)
        o_i, o_k = np.nonzero(g_o)
        u = np.concatenate((i * stride + j, o_i * stride)) + begin * stride + babies
        k = np.concatenate((k, o_k))
        order = np.lexsort((u, k))
        order = order[u[order] <= width[k[order]]]
        u, k = u[order], k[order]
        # later blocks hold larger u: a lane's new hits follow the ones it has
        start = np.searchsorted(k, k) - (first[k] != _NONE) - (second[k] != _NONE)
        slot = np.arange(len(k)) - start
        first[k[slot == 0]] = u[slot == 0]
        second[k[slot == 1]] = u[slot == 1]
        if ((second != _NONE) | (begin + rows >= giants)).all():
            break
    found = first != _NONE
    sole = np.where(found, lo + np.where(found, first, 0), 0)
    return np.where(second != _NONE, second - first, sole)


def _lanes(ells) -> np.ndarray:
    """``ells`` as lanes: int64 below :data:`_INT64_PRIME_LIMIT`, else Python ints."""
    p = np.asarray(ells)
    if not p.size or p.max() < _INT64_PRIME_LIMIT:
        return p.astype(np.int64, copy=False)
    return p.astype(object)


def _bsgs_counts(curve: CurveModel, ells, max_points: int, summed_to: int = MESTRE_BOUND):
    """#E(F_ell) at each ell, an int64 column, and the errors by position (0 there): the dispatcher.

    An ell up to ``summed_to`` (at least :data:`MESTRE_BOUND`, below which
    BSGS does not settle) is counted by summation, a bad or too large one
    refused, and the rest by BSGS on their short models (:func:`_short_counts`).
    """
    ells = _lanes(ells)
    counts = np.zeros(len(ells), np.int64)
    errors = {}
    walked = (ells > summed_to) & (ells <= MAX_COUNTED_ELL)
    walked[walked] = residues(curve.conductor, ells[walked]) != 0
    for i in np.flatnonzero(~walked).tolist():
        ell = int(ells[i])
        try:
            if ell <= summed_to:
                counts[i] = count_points_naive(curve, ell, limit=ell)
            else:  # bad, or past the cap: refused
                _require_countable(curve, ell)
        except (ValueError, ResourceLimitError) as exc:
            errors[i] = exc
    at = np.flatnonzero(walked)
    models = np.stack(_short_model(*curve.c_invariants(), ells[at]), axis=-1)
    counts[at], refused = _short_counts(ells[at], models, max_points)
    errors.update((int(at[j]), exc) for j, exc in refused.items())
    return counts, errors


def _short_counts(ells, models, max_points):
    """#E(F_ell) of each y^2 = x^3 + ax + b in ``models`` at its ell > :data:`MESTRE_BOUND`, by BSGS.

    Returns an int64 column and the refusals by lane (0 there).  Trial t
    draws and walks the t-th point of every lane still open, on the side
    its x gives.  Each side keeps the lcm L of its walk results, which
    divides its group order, in [lo, hi]; once L has one multiple there, that
    is the order, N on the curve and 2 ell + 2 - N on the twist.  Above
    :data:`MESTRE_BOUND` one side settles once its points reach its
    exponent.  A lane open after ``max_points`` trials is refused, never
    guessed.  Each lane's stream is keyed by its model, so an entry never
    depends on the other lanes.
    """
    p = _lanes(ells)
    dtype = p.dtype
    a, b = np.array(models, dtype).reshape(-1, 2).T
    if dtype == object:
        s = np.frompyfunc(isqrt, 1, 1)(4 * p)
    else:  # exact: float64's root of 4p < 2^33 errs by < 2^-36, a non-square's is > 2^-18 off
        s = np.sqrt(4 * p).astype(np.int64)
    lo, hi = p + 1 - s, p + 1 + s  # the Hasse interval
    keys = _stream_keys(p, a, b)
    lcms = np.ones((2, len(p)), dtype)  # per side: the curve's, the twist's
    counts = np.zeros(len(p), dtype)
    errors = {}
    live = np.arange(len(p))
    for trial in range(max_points):
        if not len(live):
            break
        P, LO, HI = p[live], lo[live], hi[live]
        x, y, A, twist = _random_points(keys[live], a[live], b[live], P, trial)
        n = _window_orders(x, y, A, P, LO, HI)
        side = twist.astype(np.intp)
        lcms[side, live] = L = np.lcm(lcms[side, live], np.where(n > 0, n, 1))
        first = LO + (-LO) % L
        settled = (first <= HI) & (first + L > HI)
        counts[live[settled]] = np.where(twist, 2 * P + 2 - first, first)[settled]
        for j in np.flatnonzero(n == 0).tolist():
            errors[int(live[j])] = PointCountError(
                f"no annihilator of a point in [{LO[j]}, {HI[j]}] mod {P[j]}; bug"
            )
        live = live[~settled & (n > 0)]
    for i in live.tolist():
        errors[i] = PointCountError(
            f"group order ambiguous at ell={p[i]} after {max_points} points: refusing to guess"
        )
    return counts.astype(np.int64), errors


def _listed(values: np.ndarray, errors: dict[int, Exception]) -> list[int | Exception]:
    """``values`` as a list, each error in place of its entry."""
    entries = values.tolist()
    for i, error in errors.items():
        entries[i] = error
    return entries


def _unwrap(values: np.ndarray, errors: dict[int, Exception]) -> int:
    """The entry of a batch of one, or its error raised."""
    if errors:
        raise errors[0]
    return int(values[0])


def count_points_bsgs(curve: CurveModel, ell: int) -> int:
    """#E(F_ell) via random point orders on the curve and its quadratic twist.

    Sampling is deterministic per (curve, ell) (see :func:`_short_counts`),
    and ambiguity after :data:`BSGS_MAX_POINTS` points raises instead of
    guessing, as does an ell past :data:`MAX_COUNTED_ELL`.  An ell up to
    :data:`MESTRE_BOUND` is counted by summation.  A batch of one; ell must
    be a prime, which the caller checks (see the module notes).
    """
    return _unwrap(*_bsgs_counts(curve, [ell], BSGS_MAX_POINTS))


def _traces(curve: CurveModel, ells) -> tuple[np.ndarray, dict[int, Exception]]:
    """:func:`traces_of_frobenius` as an int64 column, and the errors by position (0 there)."""
    p = _lanes(ells)
    counts, errors = _bsgs_counts(curve, p, BSGS_MAX_POINTS, summed_to=NAIVE_COUNT_LIMIT)
    traces = p + 1 - counts
    for i in np.flatnonzero(traces * traces > 4 * p).tolist():
        errors.setdefault(i, PointCountError(
            f"a_{p[i]} = {traces[i]} violates the Hasse bound; count is wrong"
        ))
    traces[list(errors)] = 0
    return traces.astype(np.int64), errors


def traces_of_frobenius(curve: CurveModel, ells: Sequence[int]) -> list[int | Exception]:
    """a_ell = ell + 1 - #E(F_ell) for each ell, each checked against the Hasse bound.

    Primes up to :data:`NAIVE_COUNT_LIMIT` are summed, the others counted by
    BSGS in shared walks.  Each entry is a_ell or the exception the count
    raised at that ell: a :class:`PointCountError`, a ValueError at a prime
    of bad reduction, or a :class:`ResourceLimitError` past
    :data:`MAX_COUNTED_ELL`.  No entry depends on the other ells.
    """
    return _listed(*_traces(curve, ells))


def trace_of_frobenius(curve: CurveModel, ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell), checked against the Hasse bound: a batch of one.

    ell must be a prime; the caller checks that (see the module notes):
    at ell = 9 this returns 0 for 11a1.
    """
    return _unwrap(*_traces(curve, [ell]))


def is_ordinary(curve: CurveModel, p: int) -> bool:
    """True iff a_p is not divisible by p.

    Raises ValueError unless p is a prime >= 5 of good reduction
    (:func:`_require_countable`).
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"ordinariness needs a prime p >= 5, got {p}")
    return trace_of_frobenius(curve, p) % p != 0
