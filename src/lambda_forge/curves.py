"""Rational elliptic curves as coefficient backends: a_ell by point counting.

A weight-2 newform attached to an elliptic curve E/Q has Fourier
coefficients a_ell = ell + 1 - #E(F_ell) at good primes.  Two counting
strategies are provided and cross-validated against each other:

* ``count_points_naive`` - quadratic-character summation over x (char > 3),
  or full enumeration of the long Weierstrass equation (char 2, 3);
* ``count_points_bsgs`` - a baby-step giant-step walk over the Hasse
  interval for random points of the curve and its quadratic twist, whose
  point orders narrow the candidate group orders until exactly one survives.

:func:`traces_of_frobenius` counts many primes at once: the walks of all
their sampled points run in lock-step as the lanes of numpy arrays, in
Jacobian coordinates with one inversion per lane per block of steps
(Montgomery's simultaneous inversion), in batches capped at a few MB of
temporaries.  A walk costs about 20-50 us a lane near 1e4-1e6 in a large
batch but 1-15 ms alone, so sweeps pass whole chunks;
:func:`count_points_bsgs` and :func:`trace_of_frobenius` are batches of one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd as math_gcd, isqrt, lcm
from enum import Enum
from typing import Sequence
import warnings

import numpy as np

from .errors import NonMinimalModelWarning, PointCountError

NAIVE_COUNT_LIMIT = 3000  # the measured naive/BSGS crossover, rounded
BSGS_MAX_POINTS = 40


class ReductionType(Enum):
    GOOD = "Good"
    BAD = "Bad"


@dataclass(frozen=True)
class CurveModel:
    """Integral long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    The conductor is user-supplied (claimed to belong to the minimal model);
    the discriminant is always recomputed from the coefficients and, when a
    value is passed in, checked against it.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    discriminant: int = field(default=0)

    def __post_init__(self) -> None:
        disc = self._compute_discriminant()
        if disc == 0:
            raise ValueError("singular model: discriminant is zero")
        if self.discriminant not in (0, disc):
            raise ValueError(
                f"stated discriminant {self.discriminant} != computed {disc}"
            )
        object.__setattr__(self, "discriminant", disc)
        if self.conductor < 1:
            raise ValueError(f"conductor must be positive, got {self.conductor}")

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

    def short_model(self, ell: int) -> tuple[int, int]:
        """Coefficients (A, B) of the isomorphic curve y^2 = x^3 + Ax + B over F_ell.

        Valid for ell >= 5: the change of variables uses u = 6, invertible
        away from 2 and 3, so point counts transfer unchanged.
        """
        if ell < 5:
            raise ValueError("short model needs characteristic >= 5")
        c4, c6 = self.c_invariants()
        return (-27 * c4) % ell, (-54 * c6) % ell


def reduction_type(curve: CurveModel, ell: int) -> ReductionType:
    """Good iff ell does not divide the supplied conductor.

    Consistency checks against the discriminant: a conductor prime must
    divide the discriminant (hard error otherwise), while a discriminant
    prime absent from the conductor only *suggests* a non-minimal model
    and raises :class:`NonMinimalModelWarning`.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    bad = curve.conductor % ell == 0
    divides_disc = curve.discriminant % ell == 0
    if bad and not divides_disc:
        raise ValueError(
            f"conductor divisible by {ell} but discriminant is not; inconsistent model"
        )
    if divides_disc and not bad:
        warnings.warn(
            f"discriminant divisible by {ell} but conductor is not: "
            f"the model may not be minimal at {ell}",
            NonMinimalModelWarning,
            stacklevel=2,
        )
    return ReductionType.BAD if bad else ReductionType.GOOD


def _require_countable(curve: CurveModel, ell: int) -> None:
    if curve.conductor % ell == 0:
        raise ValueError(f"bad reduction at {ell}: cannot count points")
    if curve.discriminant % ell == 0:
        # good reduction but singular equation: the model is non-minimal at ell
        raise ValueError(
            f"model is singular mod {ell} (non-minimal?); refusing to count points"
        )


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
    using a residue table, costing O(ell) time and memory.
    """
    _require_countable(curve, ell)
    if ell > limit:
        raise ValueError(
            f"ell={ell} above the naive-count threshold {limit}; use count_points_bsgs"
        )
    if ell <= 3:
        return _count_tiny_char(curve, ell)

    a, b = curve.short_model(ell)
    x = np.arange(ell, dtype=np.int64)
    f = (x * x % ell * x + a * x + b) % ell
    is_qr = np.zeros(ell, dtype=bool)
    y = np.arange((ell - 1) // 2 + 1, dtype=np.int64)
    is_qr[y * y % ell] = True
    chi = np.where(f == 0, 0, np.where(is_qr[f], 1, -1))
    return int(ell + 1 + chi.sum())


# --- baby-step giant-step machinery (short model, char >= 5) ---------------


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod an odd prime p, or None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _random_point(a, b, p, rng):
    while True:
        x = rng.randrange(p)
        f = (x * x % p * x + a * x + b) % p
        y = sqrt_mod(f, p)
        if y is not None:
            return (x, y)


# --- the lane-batched walk ----------------------------------------------------
#
# One lane is one sampled point P on y^2 = x^3 + ax + b over F_ell with its
# window [lo, hi]; arrays hold one lane per column and the walk runs down the
# rows, so every operation reduces modulo the per-lane array p.  Points are
# Jacobian (X : Y : Z), standing for (X / Z^2, Y / Z^3); Z = 0 is O.

# Below this bound a sum of two products of residues fits in int64; lanes of a
# larger prime run the same code on dtype=object arrays.
_INT64_PRIME_LIMIT = 1 << 31
# Bytes of walk temporaries one batch of lanes may hold; the lanes per batch
# follow from the walk length.  Measured with tracemalloc, a batch holds about
# _WORDS_PER_STEP int64 words per lane and step of its baby walk and giant block.
_WALK_BYTES = 2 << 20
_WORDS_PER_STEP = 10
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


def _inverse(z, p):
    """z^(p - 2) mod p lane by lane: the inverse of z in F_p (Fermat)."""
    e = p - 2
    result = np.ones_like(z)
    for k in range(int(e.max()).bit_length()):
        result = np.where((e >> k) & 1 == 1, result * z % p, result)
        z = z * z % p
    return result


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
    inv = _inverse(acc[-1], p)
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


def _window_orders(points, a, p, lo, hi) -> list[int]:
    """ord(P), or the only multiple of ord(P) in [lo, hi], for each lane (P, a, p, lo, hi).

    Each window, 0 < lo <= hi, must contain the group order, so it holds at least one
    multiple of ord(P).  The walk is Shanks' baby-step giant-step over the
    window with m = isqrt(hi - lo) + 1 baby steps.  If ord(P) <= m, O recurs
    in the baby steps at j = ord(P).  Otherwise the giant steps visit the
    multiples of ord(P) in the window in increasing order, and the first two
    differ by ord(P).  If the walk finds only one, that multiple is the group
    order itself and is returned in place of ord(P): the multiples of the
    returned value in the window are exactly those of ord(P), which is all
    the candidate sieve in :func:`count_points_bsgs` needs.  A lane whose
    window holds no annihilator (a bug upstream) gets 0.

    Lanes may mix primes and window sizes; they are walked in batches sized
    so that a batch holds about ``_WALK_BYTES`` of temporaries.
    """
    width = [h - l for l, h in zip(lo, hi)]
    m = [isqrt(w) + 1 for w in width]
    steps = max(m) + min(max(-(-(w + 1) // k) for w, k in zip(width, m)), _GIANT_BLOCK)
    per_batch = max(1, _WALK_BYTES // (8 * _WORDS_PER_STEP * steps))
    out: list[int] = []
    for start in range(0, len(points), per_batch):
        batch = slice(start, start + per_batch)
        out += _walk(points[batch], a[batch], p[batch], lo[batch], width[batch], m[batch])
    return out


def _walk(points, a, p, lo, width, m) -> list[int]:
    """:func:`_window_orders` for one batch: the baby steps, then the giant walk."""
    dtype = np.int64 if max(p) < _INT64_PRIME_LIMIT else object
    x = np.array([P[0] for P in points], dtype)
    y = np.array([P[1] for P in points], dtype)
    a, p, lo = (np.array(v, dtype) for v in (a, p, lo))
    width, m = np.array(width), np.array(m)
    steps = int(m.max())

    # row j - 1 holds jP for j = 1 .. max(m), so every lane has its mP
    X, Y, Z = (np.empty((steps, len(x)), dtype) for _ in range(3))
    X[0], Y[0], Z[0] = x, y, 1
    X[1], Y[1], Z[1] = _dbl(x, y, 1, a, p)
    for j in range(2, steps):
        X[j], Y[j], Z[j] = _madd(X[j - 1], Y[j - 1], Z[j - 1], x, y, a, p)
    bx, by, b_o = _affine(X, Y, Z, p)
    recurs = b_o & (np.arange(1, steps + 1)[:, None] <= m)
    out = np.where(recurs.any(axis=0), recurs.argmax(axis=0) + 1, 0).astype(dtype)
    walk = np.flatnonzero(out == 0)
    if len(walk) < len(out):
        bx, by, b_o = bx[:, walk], by[:, walk], b_o[:, walk]
        a, p, lo, width, m = a[walk], p[walk], lo[walk], width[walk], m[walk]
    if len(walk):
        out[walk] = _giant_walk(bx, by, b_o, a, p, lo, width, m)
    return out.tolist()


def _giant_walk(bx, by, b_o, a, p, lo, width, m):
    """The giant steps of :func:`_walk` for lanes with ord(P) > m, given their baby rows.

    They look for the u in [0, hi - lo] with u*P = -lo*P, u = i*m + j: step
    i is T_i = -(lo + i*m)P, matched against the baby steps jP, j < m, at
    most one in each block of m.
    """
    steps, lanes = bx.shape
    dtype = bx.dtype
    col = np.arange(lanes)

    # T_0 = -lo*P: Q = lo*P by fixed windows of w bits, the baby rows as the table
    w = steps.bit_length() - 1
    top = (int(lo.max()).bit_length() - 1) // w * w
    Q = tuple(np.full(lanes, v, dtype) for v in (1, 1, 0))
    for shift in range(top, -1, -w):
        for _ in range(w if shift < top else 0):
            Q = _dbl(*Q, a, p)
        d = ((lo >> shift) & ((1 << w) - 1)).astype(np.intp)
        use = (d > 0) & ~b_o[d - 1, col]
        added = _madd(*Q, bx[d - 1, col], by[d - 1, col], a, p)
        Q = tuple(np.where(use, s, q) for s, q in zip(added, Q))
    T = (Q[0], -Q[1] % p, Q[2])
    step_x, step_y = bx[m - 1, col], -by[m - 1, col] % p

    # the baby table, keyed lane * stride + x and sorted; x = stride - 1 marks
    # a row past the lane's m.  x alone leaves jP and -jP apart only by y, so
    # a key is checked at its first two places.
    stride = int(p.max()) + 1
    base = np.array(range(lanes), dtype) * stride
    bx[(np.arange(1, steps + 1)[:, None] >= m) | b_o] = stride - 1
    bx += base
    keys = bx.ravel()
    order = np.argsort(keys)
    keys, ys = keys[order], by.ravel()[order]
    del bx, by, b_o

    giants = -(-(width + 1) // m)
    first = np.full(lanes, _NONE)
    second = np.full(lanes, _NONE)
    for start in range(0, int(giants.max()), _GIANT_BLOCK):
        rows = min(_GIANT_BLOCK, int(giants.max()) - start)
        GX, GY, GZ = (np.empty((rows, lanes), dtype) for _ in range(3))
        for i in range(rows):
            GX[i], GY[i], GZ[i] = T
            T = _madd(*T, step_x, step_y, a, p)
        gx, gy, g_o = _affine(GX, GY, GZ, p)
        gx += base
        at = np.searchsorted(keys, gx)
        j = np.where(g_o, 0, -1)  # T_i = O matches j = 0
        for offset in (0, 1):
            pos = np.minimum(at + offset, len(keys) - 1)
            hit = (keys[pos] == gx) & (ys[pos] == gy) & ~g_o
            j[hit] = order[pos[hit]] // lanes + 1
        u = (start + np.arange(rows)[:, None]) * m + j
        u[(j < 0) | (u > width)] = _NONE
        first, second = np.sort(np.vstack([first, second, u]), axis=0)[:2]
        if ((second != _NONE) | (start + rows >= giants)).all():
            break
    found = first != _NONE
    sole = np.where(found, lo + np.where(found, first, 0), 0)
    return np.where(second != _NONE, second - first, sole)


def _count_cubic_roots(a, b, p):
    """Number of roots of the squarefree cubic x^3 + ax + b in F_p.

    deg gcd(x^3 + ax + b, x^p - x), with x^p computed by square-and-multiply
    in F_p[x] modulo the cubic; O(log p) polynomial operations.
    """

    def mul(u, v):
        # product of two polynomials of degree <= 2, reduced by x^3 = -(ax + b)
        t0 = u[0] * v[0]
        t1 = u[0] * v[1] + u[1] * v[0]
        t2 = u[0] * v[2] + u[1] * v[1] + u[2] * v[0]
        t3 = u[1] * v[2] + u[2] * v[1]
        t4 = u[2] * v[2]
        return (
            (t0 - b * t3) % p,
            (t1 - a * t3 - b * t4) % p,
            (t2 - a * t4) % p,
        )

    result = (1, 0, 0)
    base = (0, 1, 0)
    e = p
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    h = [result[0], (result[1] - 1) % p, result[2]]  # x^p - x mod cubic

    f = [b % p, a % p, 0, 1]
    while any(h):
        while h and h[-1] == 0:
            h.pop()
        if not h:
            break
        # f mod h
        inv = pow(h[-1], -1, p)
        rem = f[:]
        for i in range(len(rem) - 1, len(h) - 2, -1):
            coef = rem[i] * inv % p
            if coef:
                for j in range(len(h)):
                    rem[i - len(h) + 1 + j] = (rem[i - len(h) + 1 + j] - coef * h[j]) % p
        while len(rem) >= len(h):
            rem.pop()
        f, h = h, rem
    while f and f[-1] == 0:
        f.pop()
    return len(f) - 1


def _structure_compatible(n, order_lcm, two_torsion, ell):
    """Can a group of order n on a curve over F_ell have this exponent lattice?

    The group is Z/d1 x Z/d2 with d1 | d2 and d1 | ell - 1 (Weil pairing);
    the lcm of sampled point orders must divide d2, and the rational
    2-torsion count gcd(d1,2) * gcd(d2,2) must match the measured value.
    """
    if n % order_lcm != 0:
        return False
    d1 = 1
    while d1 * d1 <= n:
        if n % d1 == 0:
            d2 = n // d1
            if (
                d2 % d1 == 0
                and (ell - 1) % d1 == 0
                and d2 % order_lcm == 0
                and math_gcd(d1, 2) * math_gcd(d2, 2) == two_torsion
            ):
                return True
        d1 += 1
    return False


class _OrderSieve:
    """The candidate group orders at one ell, narrowed by one sampled point a trial.

    The group order N lies in the Hasse interval [lo, hi] around ell + 1.
    Orders of random points on E force N into multiples of their lcm; orders
    on the quadratic twist do the same for 2*ell + 2 - N.  Trials alternate
    sides, curve first, until a single candidate survives.  The points come
    from this ell's own rng, so they do not depend on other primes.
    """

    __slots__ = (
        "ell", "a", "b", "lo", "hi", "lcm_curve", "lcm_twist", "twist", "two_torsion", "count"
    )

    def __init__(self, curve: CurveModel, ell: int):
        self.ell = ell
        self.a, self.b = curve.short_model(ell)
        s = isqrt(4 * ell)
        self.lo, self.hi = ell + 1 - s, ell + 1 + s
        self.lcm_curve = self.lcm_twist = 1
        self.twist: tuple[int, int] | None = None
        self.two_torsion: tuple[int, int] | None = None
        self.count: int | PointCountError | None = None

    def _twist_model(self) -> tuple[int, int]:
        if self.twist is None:
            ell, c = self.ell, 2
            while pow(c, (ell - 1) // 2, ell) != ell - 1:
                c += 1
            self.twist = self.a * c * c % ell, self.b * c % ell * c % ell * c % ell
        return self.twist

    def lane(self, trial: int) -> tuple:
        """(P, a, ell, lo, hi): the walk for this trial's point, on the curve or the twist.

        The rng is replayed from its seed through the earlier trials' draws: a
        generator holds 2.9 KB of state, too much to keep for every prime of a
        chunk when nearly all settle at the first point.
        """
        ell = self.ell
        rng = random.Random(f"ec-order:{ell}:{self.a}:{self.b}")
        for t in range(trial + 1):
            a, b = (self.a, self.b) if t % 2 == 0 else self._twist_model()
            P = _random_point(a, b, ell, rng)
        if trial % 2 == 0:
            return P, a, ell, self.lo, self.hi
        total = 2 * ell + 2
        return P, a, ell, total - self.hi, total - self.lo

    def narrow(self, trial: int, order: int, lane: tuple) -> None:
        """Fold in the walk result of this trial's lane; sets ``count`` once it is settled."""
        ell, lo, hi = self.ell, self.lo, self.hi
        if order == 0:
            self.count = PointCountError(
                f"no annihilator of a point in [{lane[3]}, {lane[4]}] mod {ell}; bug"
            )
            return
        if trial % 2 == 0:
            self.lcm_curve = lcm(self.lcm_curve, order)
        else:
            self.lcm_twist = lcm(self.lcm_twist, order)
        total = 2 * ell + 2
        first = lo + (-lo) % self.lcm_curve
        cands = [
            n for n in range(first, hi + 1, self.lcm_curve) if (total - n) % self.lcm_twist == 0
        ]
        if len(cands) > 1:
            # point orders alone cannot separate: both groups have small
            # exponent; bring in the exact 2-torsion structure.  Every value
            # folded into the lcms so far is an exact point order: a sole
            # multiple in a window would have left one candidate.
            if self.two_torsion is None:
                at, bt = self._twist_model()
                self.two_torsion = (
                    1 + _count_cubic_roots(self.a, self.b, ell),
                    1 + _count_cubic_roots(at, bt, ell),
                )
            curve_2, twist_2 = self.two_torsion
            cands = [
                n
                for n in cands
                if _structure_compatible(n, self.lcm_curve, curve_2, ell)
                and _structure_compatible(total - n, self.lcm_twist, twist_2, ell)
            ]
        if len(cands) == 1:
            self.count = cands[0]
        elif not cands:
            self.count = PointCountError(f"candidate set empty at ell={ell}; bug")


def _bsgs_counts(
    curve: CurveModel, ells: Sequence[int], max_points: int
) -> list[int | Exception]:
    """#E(F_ell) or the exception counting raises at ell, for each ell, by batched BSGS.

    Trial t walks the t-th point of every ell still ambiguous, all in one
    :func:`_window_orders` call; each ell's points come from its own rng, so
    an entry never depends on which other ells share the call.
    """
    entries: list = []
    for ell in ells:
        try:
            _require_countable(curve, ell)
            if ell < 5:
                raise ValueError("BSGS counting needs ell >= 5; use count_points_naive")
            entries.append(_OrderSieve(curve, ell))
        except ValueError as exc:
            entries.append(exc)
    live = [e for e in entries if isinstance(e, _OrderSieve)]
    for trial in range(max_points):
        live = [s for s in live if s.count is None]
        if not live:
            break
        lanes = [s.lane(trial) for s in live]
        for sieve, order, lane in zip(live, _window_orders(*zip(*lanes)), lanes):
            sieve.narrow(trial, order, lane)
    for i, entry in enumerate(entries):
        if isinstance(entry, _OrderSieve):
            entries[i] = entry.count
            if entry.count is None:
                entries[i] = PointCountError(
                    f"group order ambiguous at ell={entry.ell} after {max_points} points: "
                    "refusing to guess"
                )
    return entries


def _unwrap(entries: list) -> int:
    (entry,) = entries
    if isinstance(entry, Exception):
        raise entry
    return entry


def count_points_bsgs(curve: CurveModel, ell: int, *, max_points: int = BSGS_MAX_POINTS) -> int:
    """#E(F_ell) via random point orders on the curve and its quadratic twist.

    Sampling is deterministic per (curve, ell) (see :class:`_OrderSieve`),
    and ambiguity after ``max_points`` points raises instead of guessing.
    A batch of one: sweeps count many primes at once through
    :func:`traces_of_frobenius`, since one walk alone costs 1-15 ms of
    numpy overhead.
    """
    return _unwrap(_bsgs_counts(curve, [ell], max_points))


def traces_of_frobenius(
    curve: CurveModel,
    ells: Sequence[int],
    *,
    naive_limit: int = NAIVE_COUNT_LIMIT,
    max_points: int = BSGS_MAX_POINTS,
) -> list[int | Exception]:
    """a_ell = ell + 1 - #E(F_ell) for each ell, each checked against the Hasse bound.

    Primes up to ``naive_limit`` are counted naively, the others by BSGS
    in shared walks.  Each entry is a_ell or the exception the
    count raised at that ell: a :class:`PointCountError`, or a ValueError
    where the model cannot be counted.  No entry depends on the other ells.
    """
    counts: list = [None] * len(ells)
    walked = []
    for i, ell in enumerate(ells):
        if ell > naive_limit:
            walked.append(i)
            continue
        try:
            counts[i] = count_points_naive(curve, ell, limit=naive_limit)
        except ValueError as exc:
            counts[i] = exc
    for i, n in zip(walked, _bsgs_counts(curve, [ells[i] for i in walked], max_points)):
        counts[i] = n
    traces: list[int | Exception] = []
    for ell, n in zip(ells, counts):
        if not isinstance(n, Exception):
            a = ell + 1 - n
            n = a if a * a <= 4 * ell else PointCountError(
                f"a_{ell} = {a} violates the Hasse bound; count is wrong"
            )
        traces.append(n)
    return traces


def trace_of_frobenius(
    curve: CurveModel,
    ell: int,
    *,
    naive_limit: int = NAIVE_COUNT_LIMIT,
    max_points: int = BSGS_MAX_POINTS,
) -> int:
    """a_ell = ell + 1 - #E(F_ell), checked against the Hasse bound: a batch of one."""
    return _unwrap(
        traces_of_frobenius(curve, [ell], naive_limit=naive_limit, max_points=max_points)
    )


def is_ordinary(curve: CurveModel, p: int, *, naive_limit: int = NAIVE_COUNT_LIMIT) -> bool:
    """True iff p >= 5 is a good prime with a_p not divisible by p."""
    if p < 5:
        raise ValueError(f"ordinariness test requires p >= 5, got {p}")
    if reduction_type(curve, p) is ReductionType.BAD:
        raise ValueError(f"bad reduction at {p}: ordinariness undefined")
    return trace_of_frobenius(curve, p, naive_limit=naive_limit) % p != 0
