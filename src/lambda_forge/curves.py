"""Rational elliptic curves as coefficient backends: a_ell by point counting.

A weight-2 newform attached to an elliptic curve E/Q has Fourier
coefficients a_ell = ell + 1 - #E(F_ell) at good primes.  Two counting
strategies are provided and cross-validated against each other:

* ``count_points_naive`` - quadratic-character summation over x (char > 3),
  or full enumeration of the long Weierstrass equation (char 2, 3);
* ``count_points_bsgs`` - a baby-step giant-step walk over the Hasse
  interval for random points of the curve and its quadratic twist, whose
  point orders narrow the candidate group orders until exactly one survives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd as math_gcd, isqrt, lcm
from enum import Enum
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


# Affine points are (x, y) tuples; None is the point at infinity.
def _ec_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        num = (3 * x1 * x1 + a) % p
        den = (2 * y1) % p
    else:
        num = (y2 - y1) % p
        den = (x2 - x1) % p
    lam = num * pow(den, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def _ec_neg(P, p):
    return None if P is None else (P[0], (-P[1]) % p)


def _ec_mul(k, P, a, p):
    if k < 0:
        k, P = -k, _ec_neg(P, p)
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, a, p)
        P = _ec_add(P, P, a, p)
        k >>= 1
    return R


def _random_point(a, b, p, rng):
    while True:
        x = rng.randrange(p)
        f = (x * x % p * x + a * x + b) % p
        y = sqrt_mod(f, p)
        if y is not None:
            return (x, y)


def _window_order(P, a, p, lo, hi):
    """ord(P), or the only multiple of ord(P) in [lo, hi], by one baby-step giant-step walk.

    The window must contain the group order, so it holds at least one
    multiple of ord(P).  If ord(P) <= m, the baby-step count, O recurs in
    the baby steps at j = ord(P).  Otherwise the giant steps visit the
    multiples of ord(P) in the window in increasing order, and the first
    two differ by ord(P).  If the walk finds only one, that multiple is the
    group order itself and is returned in place of ord(P): the multiples of
    the returned value in the window are exactly those of ord(P), which is
    all the candidate sieve in :func:`count_points_bsgs` needs.
    """
    width = hi - lo
    m = isqrt(width) + 1
    baby: dict = {}
    R = None
    for j in range(m):
        baby[R] = j
        R = _ec_add(R, P, a, p)
        if R is None:
            return j + 1
    # R = m*P and the m baby steps are distinct: look for the u in [0, width]
    # with u*P = -lo*P, u = i*m + j, at most one in each block of m
    step = _ec_neg(R, p)
    T = _ec_mul(-lo, P, a, p)
    first = None
    for base in range(0, width + 1, m):
        j = baby.get(T)
        if j is not None and base + j <= width:
            if first is not None:
                return base + j - first
            first = base + j
        T = _ec_add(T, step, a, p)
    if first is None:
        raise PointCountError(f"no annihilator of a point in [{lo}, {hi}] mod {p}; bug")
    return lo + first


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


def count_points_bsgs(curve: CurveModel, ell: int, *, max_points: int = BSGS_MAX_POINTS) -> int:
    """#E(F_ell) via random point orders on the curve and its quadratic twist.

    The group order N lies in the Hasse interval around ell + 1.  Orders of
    random points on E force N into multiples of their lcm; orders on the
    twist do the same for 2*ell + 2 - N.  Sampling alternates sides until a
    single candidate survives.  Sampling is deterministic per (curve, ell),
    and ambiguity after ``max_points`` points raises instead of guessing.
    """
    _require_countable(curve, ell)
    if ell < 5:
        raise ValueError("BSGS counting needs ell >= 5; use count_points_naive")

    a, b = curve.short_model(ell)
    s = isqrt(4 * ell)
    lo, hi = ell + 1 - s, ell + 1 + s
    total = 2 * ell + 2

    c = 2
    while pow(c, (ell - 1) // 2, ell) != ell - 1:
        c += 1
    at, bt = a * c * c % ell, b * c % ell * c % ell * c % ell

    rng = random.Random(f"ec-order:{ell}:{a}:{b}")
    lcm_curve, lcm_twist = 1, 1
    two_torsion = two_torsion_twist = 0  # computed lazily on first ambiguity
    for trial in range(max_points):
        if trial % 2 == 0:
            P = _random_point(a, b, ell, rng)
            lcm_curve = lcm(lcm_curve, _window_order(P, a, ell, lo, hi))
        else:
            P = _random_point(at, bt, ell, rng)
            lcm_twist = lcm(lcm_twist, _window_order(P, at, ell, total - hi, total - lo))
        first = lo + (-lo) % lcm_curve
        cands = [n for n in range(first, hi + 1, lcm_curve) if (total - n) % lcm_twist == 0]
        if len(cands) > 1:
            # point orders alone cannot separate: both groups have small
            # exponent; bring in the exact 2-torsion structure.  Every value
            # folded into the lcms so far is an exact point order: a sole
            # multiple in a window would have left one candidate.
            if not two_torsion:
                two_torsion = 1 + _count_cubic_roots(a, b, ell)
                two_torsion_twist = 1 + _count_cubic_roots(at, bt, ell)
            cands = [
                n
                for n in cands
                if _structure_compatible(n, lcm_curve, two_torsion, ell)
                and _structure_compatible(total - n, lcm_twist, two_torsion_twist, ell)
            ]
        if len(cands) == 1:
            return cands[0]
        if not cands:
            raise PointCountError(f"candidate set empty at ell={ell}; bug")
    raise PointCountError(
        f"group order ambiguous at ell={ell} after {max_points} points: "
        "refusing to guess"
    )


def trace_of_frobenius(
    curve: CurveModel,
    ell: int,
    *,
    naive_limit: int = NAIVE_COUNT_LIMIT,
    max_points: int = BSGS_MAX_POINTS,
) -> int:
    """a_ell = ell + 1 - #E(F_ell), checked against the Hasse bound."""
    if ell <= naive_limit:
        n = count_points_naive(curve, ell, limit=naive_limit)
    else:
        n = count_points_bsgs(curve, ell, max_points=max_points)
    a = ell + 1 - n
    if a * a > 4 * ell:
        raise PointCountError(f"a_{ell} = {a} violates the Hasse bound; count is wrong")
    return a


def is_ordinary(curve: CurveModel, p: int, *, naive_limit: int = NAIVE_COUNT_LIMIT) -> bool:
    """True iff p >= 5 is a good prime with a_p not divisible by p."""
    if p < 5:
        raise ValueError(f"ordinariness test requires p >= 5, got {p}")
    if reduction_type(curve, p) is ReductionType.BAD:
        raise ValueError(f"bad reduction at {p}: ordinariness undefined")
    return trace_of_frobenius(curve, p, naive_limit=naive_limit) % p != 0
