import math
import random
import time
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lambda_forge import curves
from lambda_forge.arith import PrimeRange, is_prime
from lambda_forge.curves import (
    BSGS_MAX_POINTS,
    MAX_COUNTED_ELL,
    MESTRE_BOUND,
    NAIVE_COUNT_LIMIT,
    CurveModel,
    _baby_count,
    _bsgs_counts,
    _candidates,
    _hasse_window,
    _random_points,
    _short_counts,
    _short_model,
    _stream_keys,
    _window_orders,
    count_points_bsgs,
    count_points_naive,
    is_ordinary,
    trace_of_frobenius,
    traces_of_frobenius,
)
from lambda_forge.errors import PointCountError, ResourceLimitError
from lambda_forge.residual import screen_p

from conftest import CURVE_11A1, CURVE_37A1, CURVE_389A1, short_curve


def exhaustive_count(curve: CurveModel, ell: int) -> int:
    """Oracle: scan every (x, y) pair against the long Weierstrass equation."""
    a1, a2, a3, a4, a6 = (c % ell for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    n = 1
    for x in range(ell):
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % ell == 0:
                n += 1
    return n


# --- the scalar draws and walk, kept as the reference for the lane-batched ones


MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix(z: int) -> int:
    """splitmix64's output function on one 64-bit word."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def stream_key(ell: int, a: int, b: int) -> int:
    """The key of the point stream at ell for the short model (a, b)."""
    return splitmix(splitmix(splitmix(ell) ^ a) ^ b)


class SplitMixStream:
    """A point stream one candidate at a time: candidate k is splitmix64 at key + (k + 1) * gamma.

    ``used`` counts the candidates taken; randrange(p) takes the top
    p.bit_length() bits of each in turn until one is below p.
    """

    def __init__(self, key: int, used: int = 0):
        self.key, self.used = key, used

    def candidate(self, p: int) -> int:
        self.used += 1
        return splitmix((self.key + self.used * GAMMA) & MASK) >> (64 - p.bit_length())

    def randrange(self, p: int) -> int:
        while (x := self.candidate(p)) >= p:
            pass
        return x


def _random_point(a, b, p, rng, trial=0):
    """The next point of rng's stream on this trial's side, one x at a time, and its A.

    x is taken when d = x^3 + ax + b is 0, or a square on a curve trial
    (even), a non-square on a twist trial (odd); the point is (dx, d^2) on
    y^2 = x^3 + ad^2 x + bd^3, with A = ad^2, or (x, 0) with A = a at d = 0.
    """
    side = p - 1 if trial % 2 else 1
    while True:
        x = rng.randrange(p)
        d = (x * x % p * x + a * x + b) % p
        if d == 0:
            return (x, 0), a
        if pow(d, (p - 1) // 2, p) == side:
            return (d * x % p, d * d % p), a * d * d % p


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


def _window_order(P, a, p, lo, hi):
    """ord(P), or the only multiple of ord(P) in [lo, hi], by one scalar walk with a dict."""
    width = hi - lo
    m = isqrt(width) + 1
    baby: dict = {}
    R = None
    for j in range(m):
        baby[R] = j
        R = _ec_add(R, P, a, p)
        if R is None:
            return j + 1
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


def walk(lanes) -> list[int]:
    """The batched walk on lanes (P, a, p, lo, hi), passed as columns of one dtype."""
    points, a, p, lo, hi = zip(*lanes)
    dtype = np.int64 if max(p) < curves._INT64_PRIME_LIMIT else object
    x, y = np.array(points, dtype).reshape(-1, 2).T
    return _window_orders(x, y, *(np.array(v, dtype) for v in (a, p, lo, hi))).tolist()


def window_order(P, a, p, lo, hi) -> int:
    """The batched walk on one lane."""
    (order,) = walk([(P, a, p, lo, hi)])
    return order


def order_by_addition(P, a, p) -> int:
    """Oracle: the order of P, by adding P to itself until O."""
    Q, n = P, 1
    while Q is not None:
        Q, n = _ec_add(Q, P, a, p), n + 1
    return n


# lanes of every size in one batch: tiny windows, the naive range, near 1e8
WALK_PRIMES = (
    list(PrimeRange(5, 50))
    + list(PrimeRange(50, 30000))[::40]
    + list(PrimeRange(10**8 - 600, 10**8))
)
# the primes of the refusal parity check, with a few near 1e6
GROUPING_PRIMES = list(PrimeRange(5, 5000)) + list(PrimeRange(10**6, 10**6 + 300))
# the differential check's primes: refusals are common below 3000 at few points
DIFFERENTIAL_PRIMES = list(PrimeRange(5, 3000))[::3] + list(PrimeRange(10**6, 10**6 + 1000))
# the draws' primes: 3 mod 4 and 1 mod 4, small and near 1e6, one above 2^31
# and one of two words
BIG_PRIME = next(q for q in range(2**31, 2**31 + 100) if is_prime(q))
DRAW_PRIMES = [5, 7, 11, 13, 17, 97, 10007, 65537, 999983, 1000003, 7340033, BIG_PRIME, 2**40 + 15]
# the stream's primes: each just above a power of two, where randrange rejects
# nearly half its candidates, up to the largest counted prime below 2^62
STREAM_PRIMES = [5, 17, 257, 65537, BIG_PRIME, 2**32 + 15, 2**40 + 15, 2**62 - 57]
# the first round's primes: the refusal-prone small ones and a run near 1e6
FIRST_ROUND_PRIMES = list(PrimeRange(5, 5000)) + list(PrimeRange(10**6, 10**6 + 3000))


def describe(entry):
    """A count, or the type and message of a refusal."""
    return f"{type(entry).__name__}: {entry}" if isinstance(entry, Exception) else entry


class TestCurveModel:
    def test_discriminant_recomputed(self, curve_11a1):
        assert curve_11a1.discriminant == -161051  # -11^5

    def test_known_discriminants(self, curve_37a1, curve_389a1):
        assert curve_37a1.discriminant == 37
        assert curve_389a1.discriminant == 389

    def test_discriminant_mismatch_rejected(self):
        with pytest.raises(ValueError, match="discriminant"):
            CurveModel(0, -1, 1, -10, -20, conductor=11, discriminant=-161050)

    def test_singular_model_rejected(self):
        # y^2 = x^3: cusp
        with pytest.raises(ValueError, match="singular"):
            CurveModel(0, 0, 0, 0, 0, conductor=1)

    def test_short_model_preserves_counts(self, curve_11a1):
        for ell in (5, 13, 101):
            short = short_curve(*_short_model(*curve_11a1.c_invariants(), ell))
            assert exhaustive_count(curve_11a1, ell) == exhaustive_count(short, ell)


class TestReductionType:
    """The bad primes are the stated conductor's; the model checks them against its discriminant."""

    def test_conductor_prime_missing_from_discriminant(self):
        # 11a1 has discriminant -11^5: 7 and 13 cannot divide its conductor
        for conductor in (77, 143, 7 * 11**2):
            with pytest.raises(ValueError, match="coprime to the discriminant"):
                CurveModel(0, -1, 1, -10, -20, conductor=conductor)
        assert CurveModel(0, -1, 1, -10, -20, conductor=121).conductor == 121

    @pytest.mark.parametrize(
        "u, named",
        [
            pytest.param(2, 2, id="2"),
            pytest.param(13, 13, id="13"),
            pytest.param(2503, 2503, id="2503"),
            pytest.param(26, 2, id="26"),
            pytest.param(1_000_003, 1_000_003**12, id="u>1e6"),
        ],
    )
    def test_non_minimal_model_refused(self, u, named):
        # 11a1 scaled by u has conductor 11 and discriminant -11^5 u^12: it is
        # singular mod the primes of u, which the message names from the least,
        # or u^12 whole when none is below 10^6
        with pytest.raises(ValueError, match=rf"singular mod {named}, which does not divide the conductor 11:"):
            CurveModel(0, -u**2, u**3, -10 * u**4, -20 * u**6, conductor=11)

    def test_every_test_curve_loads(self, curve_11a1, curve_37a1, curve_389a1, curve_x3x1):
        # the shipped configs are loaded by test_config.py::test_shipped_configs_load
        loaded = [curve_11a1, curve_37a1, curve_389a1, curve_x3x1]
        loaded += [CurveModel(0, 0, 0, -1, 0, conductor=32), CurveModel(0, 0, 0, 0, 1, conductor=36)]
        for curve in loaded:  # trial division: each prime of the discriminant is a bad prime
            assert all(curve.conductor % q == 0 for q in PrimeRange(2, 400) if curve.discriminant % q == 0)


class TestNaiveCount:
    def test_nine_points_over_f5(self, curve_x3x1):
        # x^3 + x + 1 over F_5: QRs are {1, 4}; two points per residue value
        assert count_points_naive(curve_x3x1, 5) == 9

    def test_matches_exhaustive_scan_char2_char3(self, curve_37a1):
        for ell in (2, 3):
            assert count_points_naive(curve_37a1, ell) == exhaustive_count(curve_37a1, ell)

    def test_x3_minus_x_over_f7(self):
        curve = CurveModel(0, 0, 0, -1, 0, conductor=32)
        assert count_points_naive(curve, 7) == exhaustive_count(curve, 7)

    def test_matches_exhaustive_scan_sample(self, curve_11a1):
        for ell in (5, 13, 19, 31, 47, 71):
            assert count_points_naive(curve_11a1, ell) == exhaustive_count(curve_11a1, ell)

    def test_rejects_bad_reduction(self, curve_11a1):
        with pytest.raises(ValueError, match="bad reduction"):
            count_points_naive(curve_11a1, 11)

    def test_rejects_above_threshold(self, curve_11a1):
        with pytest.raises(ValueError, match="threshold"):
            count_points_naive(curve_11a1, 100_003)


class TestBsgs:
    def test_agrees_with_naive_on_a_window(self, curve_11a1):
        for ell in PrimeRange(5, 400):
            if ell == 11:
                continue
            assert count_points_bsgs(curve_11a1, ell) == count_points_naive(curve_11a1, ell)

    def test_deterministic(self, curve_389a1):
        assert count_points_bsgs(curve_389a1, 100_003) == count_points_bsgs(curve_389a1, 100_003)

    def test_random_short_curves_against_naive(self):
        rng = random.Random(999)
        primes = [p for p in PrimeRange(5, 3000)]
        for _ in range(300):
            ell = rng.choice(primes)
            a, b = rng.randrange(ell), rng.randrange(ell)
            if (4 * a**3 + 27 * b * b) % ell == 0:
                continue
            curve = short_curve(a, b)
            assert count_points_bsgs(curve, ell) == count_points_naive(curve, ell)

    def test_refused_past_the_count_bound(self, curve_11a1):
        # a count near 2^62 takes seconds; one past it is refused at once
        start = time.perf_counter()
        for ell in (2**62 + 169, 10**21 + 117):
            with pytest.raises(ResourceLimitError,
                               match=f"point counting is capped at ell <= 2\\^62, got {ell}$"):
                count_points_bsgs(curve_11a1, ell)
        batch = traces_of_frobenius(curve_11a1, [13, 2**62 + 169, 101])
        assert batch[0] == 4 and batch[2] == 2
        assert isinstance(batch[1], ResourceLimitError)
        assert time.perf_counter() - start < 2

    def test_the_count_bound_is_inclusive(self, curve_11a1):
        # with no points to draw, an accepted ell is left ambiguous, not refused
        below, above = 2**62 - 57, 2**62 + 169  # the primes next to 2^62
        assert MAX_COUNTED_ELL == 2**62
        accepted, refused = _bsgs_counts(curve_11a1, [below, above], 0)
        assert isinstance(accepted, PointCountError)
        assert isinstance(refused, ResourceLimitError)

    def test_ambiguity_is_an_error_not_a_guess(self, curve_389a1):
        # one point's order can have several multiples in the Hasse window:
        # 251 is the least prime where one point leaves 389a ambiguous
        (entry,) = _bsgs_counts(curve_389a1, [251], 1)
        assert isinstance(entry, PointCountError) and "ambiguous" in str(entry)
        assert count_points_bsgs(curve_389a1, 251) == count_points_naive(curve_389a1, 251)

    def test_ambiguity_above_the_naive_limit(self):
        # two points leave 3011 ambiguous on y^2 = x^3 + 3x + 14, the least
        # prime above the naive limit where two points leave any
        # y^2 = x^3 + ax + b with 0 <= a, b < 16 ambiguous; more points settle it
        curve = short_curve(3, 14)
        (entry,) = _bsgs_counts(curve, [3011], 2)
        assert isinstance(entry, PointCountError) and "ambiguous" in str(entry)
        assert count_points_bsgs(curve, 3011) == count_points_naive(curve, 3011, limit=3011)

    def test_mestre_bound_is_sharp_at_229(self):
        # on y^2 = x^3 + 1 at 229 the exponents of the curve and of its twist
        # each have two or more multiples in the Hasse window, so no number of
        # points settles either side: 229 is counted by summation
        ell, a, b = 229, 0, 1
        assert MESTRE_BOUND == ell
        c = next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) == ell - 1)
        lo, hi = _hasse_window(ell)
        for A, B in ((a, b), (a * c * c % ell, b * c**3 % ell)):  # the curve, its twist by c
            points = [(x, y) for x in range(ell) for y in range(ell)
                      if (y * y - x**3 - A * x - B) % ell == 0]
            exponent = math.lcm(*(order_by_addition(P, A, ell) for P in points))
            assert len(range(lo + (-lo) % exponent, hi + 1, exponent)) >= 2
        (entry,) = _short_counts([ell], [(a, b)], BSGS_MAX_POINTS)
        assert isinstance(entry, PointCountError) and "ambiguous" in str(entry)
        curve = short_curve(a, b)
        assert _bsgs_counts(curve, [ell], BSGS_MAX_POINTS) == [count_points_naive(curve, ell)]

    def test_every_short_curve_at_233(self):
        # 233, the least prime above MESTRE_BOUND: BSGS_MAX_POINTS points
        # settle every nonsingular y^2 = x^3 + ax + b, in one batch of lanes,
        # each counted as count_points_naive sums it
        ell = 233
        x = np.arange(ell)
        is_qr = np.zeros(ell, bool)
        is_qr[x * x % ell] = True
        models, expected = [], []
        for a in range(ell):
            f = (x**3 + a * x + x[:, None]) % ell  # row b: x^3 + ax + b
            chi = np.where(f == 0, 0, np.where(is_qr[f], 1, -1))
            for b in range(ell):
                if (4 * a**3 + 27 * b * b) % ell:
                    models.append((a, b))
                    expected.append(ell + 1 + int(chi[b].sum()))
        assert _short_counts([ell] * len(models), models, BSGS_MAX_POINTS) == expected
        for a, b in models[::997]:
            curve = short_curve(a, b)
            assert _bsgs_counts(curve, [ell], BSGS_MAX_POINTS) == [count_points_naive(curve, ell)]

    @settings(max_examples=150, deadline=None)
    @given(ell=st.sampled_from(list(PrimeRange(5, 20000))), a=st.integers(0), b=st.integers(0))
    def test_equals_naive_on_random_short_curves(self, ell, a, b):
        a, b = a % ell, b % ell
        assume((4 * a**3 + 27 * b * b) % ell != 0)
        curve = short_curve(a, b)
        assert count_points_bsgs(curve, ell) == count_points_naive(curve, ell, limit=ell)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_grouping_never_changes_a_count_or_refusal(self, data):
        curve = CurveModel(**data.draw(st.sampled_from([CURVE_11A1, CURVE_37A1, CURVE_389A1])))
        ells = data.draw(st.lists(st.sampled_from(GROUPING_PRIMES), min_size=1, max_size=16))
        max_points = data.draw(st.sampled_from([1, 2, 40]))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(ells) - 1)))))
        parts = []
        for lo, hi in zip([0] + cuts, cuts + [len(ells)]):
            parts += _bsgs_counts(curve, ells[lo:hi], max_points)
        whole = _bsgs_counts(curve, ells, max_points)
        assert list(map(describe, parts)) == list(map(describe, whole))

    @pytest.mark.parametrize("max_points", [1, 2, 3])
    @pytest.mark.parametrize("name", ["curve_11a1", "curve_37a1", "curve_389a1"])
    def test_batched_equals_scalar_draws_and_walks(self, name, max_points, request):
        curve = request.getfixturevalue(name)
        ells = [ell for ell in DIFFERENTIAL_PRIMES if curve.discriminant % ell]
        batched = _bsgs_counts(curve, ells, max_points)
        assert list(map(describe, batched)) == list(map(describe, scalar_counts(curve, ells, max_points)))

    @pytest.mark.parametrize("max_points", [0, 1, 2, 40])
    @pytest.mark.parametrize("name", ["curve_11a1", "curve_37a1", "curve_389a1"])
    def test_first_round_equals_scalar_reference(self, name, max_points, request):
        # trial 0 settles most primes on columns, the later trials the rest
        curve = request.getfixturevalue(name)
        ells = [ell for ell in FIRST_ROUND_PRIMES if curve.discriminant % ell]
        batched = _bsgs_counts(curve, ells, max_points)
        assert list(map(describe, batched)) == list(map(describe, scalar_counts(curve, ells, max_points)))

    @pytest.mark.parametrize("name", ["curve_11a1", "curve_37a1", "curve_389a1"])
    def test_never_refuses_from_the_limit_to_1e5(self, name, request):
        curve = request.getfixturevalue(name)
        primes = PrimeRange(NAIVE_COUNT_LIMIT + 1, 10**5)
        ells = [ell for ell in primes if curve.discriminant % ell]
        sample = set(random.Random(curve.conductor).sample(ells, 30))
        for ell, n in zip(ells, _bsgs_counts(curve, ells, BSGS_MAX_POINTS)):
            assert not isinstance(n, Exception), n  # a refusal is a PointCountError entry
            if ell in sample:
                assert n == count_points_naive(curve, ell, limit=ell)


def scalar_counts(curve, ells, max_points):
    """_bsgs_counts one ell at a time, each point drawn by _random_point and walked by _window_order.

    Up to 229 ell is counted by summation.  Above it the even trials fold
    their walk results into the curve's lcm, the odd ones into the twist's;
    a trial whose lcm has one multiple in the Hasse window settles ell at
    it, or at 2 ell + 2 minus it on the twist.
    """
    entries = []
    for ell in ells:
        if ell <= 229:
            entries.append(count_points_naive(curve, ell, limit=ell))
            continue
        a, b = _short_model(*curve.c_invariants(), ell)
        s = isqrt(4 * ell)
        lo, hi = ell + 1 - s, ell + 1 + s
        rng = SplitMixStream(stream_key(ell, a, b))
        lcms = [1, 1]
        entry = PointCountError(
            f"group order ambiguous at ell={ell} after {max_points} points: refusing to guess"
        )
        for trial in range(max_points):
            P, A = _random_point(a, b, ell, rng, trial)
            try:
                order = _window_order(P, A, ell, lo, hi)
            except PointCountError as exc:
                entry = exc
                break
            side = trial % 2
            lcms[side] = math.lcm(lcms[side], order)
            multiples = range(lo + (-lo) % lcms[side], hi + 1, lcms[side])
            if len(multiples) == 1:
                entry = multiples[0] if side == 0 else 2 * ell + 2 - multiples[0]
                break
        entries.append(entry)
    return entries


def last_draw(key, skip, used, ell):
    """The last x a stream of this key took, reading from its candidate skip up to used."""
    rng = SplitMixStream(key, skip)
    while rng.used < used:
        x = rng.randrange(ell)
    return x


class TestRandomPoints:
    """The batched draws take the scalar loop's x and its point on the trial's side."""

    @settings(max_examples=60, deadline=None)
    @given(
        trial=st.integers(0, 3),
        lanes=st.lists(
            st.tuples(
                st.sampled_from(DRAW_PRIMES),
                st.integers(0, 2**64),
                st.integers(0, 2**64),
                st.integers(0, MASK),
                st.integers(0, 6),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    # on a twist trial: a lane whose first draw is a root of its cubic, and
    # one above 2^31, on object arrays
    @example(trial=1, lanes=[(10007, 3, 0, 0, 0, True), (BIG_PRIME, 3, 5, 1, 0, False)])
    def test_batched_draws_equal_scalar_reference(self, trial, lanes):
        keys, skips, a_s, b_s, ps, expected = [], [], [], [], [], []
        for ell, a, b, key, skip, root_first in lanes:
            a, b = a % ell, b % ell
            rng = SplitMixStream(key)
            for _ in range(skip):
                rng.randrange(ell)
            position = rng.used
            if root_first:
                # make the next draw a root of the cubic: d = 0, so (x, 0)
                x = SplitMixStream(key, position).randrange(ell)
                b = -(x * x * x + a * x) % ell
            point, A = _random_point(a, b, ell, rng, trial)
            keys.append(key)
            skips.append(position)
            a_s.append(a)
            b_s.append(b)
            ps.append(ell)
            expected.append((point, A, rng.used))
        dtype = np.int64 if max(ps) < curves._INT64_PRIME_LIMIT else object
        bits = np.array([ell.bit_length() for ell in ps], np.uint64)
        x, y, A_s, used = _random_points(
            np.array(keys, np.uint64), np.array(skips, np.int64),
            *(np.array(v, dtype) for v in (a_s, b_s, ps)), bits, trial,
        )
        points, A_s, used = list(zip(x.tolist(), y.tolist())), A_s.tolist(), used.tolist()
        assert list(zip(points, A_s, used)) == expected
        # (dx, d^2) lies on y^2 = x^3 + ad^2 x + bd^3, d of the trial's character;
        # at d = 0, (x, 0) lies on the curve
        for (X, Y), A, key, skip, n, a, b, ell in zip(points, A_s, keys, skips, used, a_s, b_s, ps):
            x = last_draw(key, skip, n, ell)
            d = (x**3 + a * x + b) % ell
            assert d == 0 or pow(d, (ell - 1) // 2, ell) == (ell - 1 if trial % 2 else 1)
            assert A == (a * d * d % ell if d else a)
            assert (Y * Y - (X**3 + A * X + (b * d**3 if d else b))) % ell == 0

    def test_every_short_curve_at_5_and_7(self, monkeypatch):
        # one side can have no x of its character but the roots of its cubic:
        # #E = 2 at 5, and #E = 4 with three roots at 7; a draw that refused
        # d = 0 would read on forever there.  Counts there are sums, so the
        # draws and walks of trials 0-3 are called directly, all curves at once
        candidates = curves._candidates

        def bounded(keys, skips, bits, count, dtype):
            assert count <= 1 << 12, "a lane read thousands of candidates for one point"
            return candidates(keys, skips, bits, count, dtype)

        monkeypatch.setattr(curves, "_candidates", bounded)
        start = time.perf_counter()
        seen = set()
        for ell in (5, 7):
            models = [(a, b) for a in range(ell) for b in range(ell) if (4 * a**3 + 27 * b * b) % ell]
            a_s, b_s = np.array(models).T
            lanes = np.full(len(models), ell)
            bits = np.full(len(models), ell.bit_length(), np.uint64)
            lo, hi = (np.full(len(models), end) for end in _hasse_window(ell))
            counts = [count_points_naive(short_curve(a, b), ell) for a, b in models]
            keys, used = _stream_keys(lanes, a_s, b_s), np.zeros(len(models), np.int64)
            for trial in range(4):
                x, y, A, used = _random_points(keys, used, a_s, b_s, lanes, bits, trial)
                orders = _window_orders(x, y, A, lanes, lo, hi).tolist()
                for n, order in zip(counts, orders):
                    side = 2 * ell + 2 - n if trial % 2 else n
                    assert order > 0 and side % order == 0, (ell, n, trial, order)
            for (a, b), n in zip(models, counts):
                roots = sum((x**3 + a * x + b) % ell == 0 for x in range(ell))
                seen.add((ell, min(n, 2 * ell + 2 - n), roots))
        assert {(5, 2, 1), (7, 4, 3)} <= seen
        assert time.perf_counter() - start < 10

    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.sampled_from(STREAM_PRIMES),
        key=st.integers(0, MASK),
        taken=st.integers(0, 40),
        count=st.integers(1, 8),
    )
    def test_bulk_candidates_are_the_randrange_stream(self, ell, key, taken, count):
        # read from any offset, the candidates are the tail of those read from
        # 0, and those below ell are the scalar stream's randrange draws
        dtype = np.int64 if ell < 2**31 else object
        keys, bits = np.array([key], np.uint64), np.array([ell.bit_length()], np.uint64)
        whole = _candidates(keys, np.array([0]), bits, taken + count, dtype)
        tail = _candidates(keys, np.array([taken]), bits, count, dtype)
        assert tail.tolist() == whole[:, taken:].tolist()
        rng = SplitMixStream(key)
        assert whole[0].tolist() == [rng.candidate(ell) for _ in range(taken + count)]
        rng = SplitMixStream(key, taken)
        below = [v for v in tail[0].tolist() if v < ell]
        assert below == [rng.randrange(ell) for _ in below]
        assert all(type(v) is int for v in tail[0].tolist())

    def test_every_short_model_below_1e6_has_its_own_key(self):
        models = set()
        for curve in (CURVE_11A1, CURVE_37A1, CURVE_389A1):
            c4, c6 = CurveModel(**curve).c_invariants()
            models.update((ell, *_short_model(c4, c6, ell)) for ell in PrimeRange(5, 10**6)
                          if curve["conductor"] % ell)
        ells, a, b = zip(*models)
        keys = _stream_keys(ells, a, b)
        assert len(set(keys.tolist())) == len(models) > 3 * 78_000
        for model, key in list(zip(models, keys.tolist()))[::5000]:
            assert key == stream_key(*model)

    @pytest.mark.parametrize("ell", [5, 17, 10007, 65537, BIG_PRIME, 2**40 + 15, 2**62 - 57])
    def test_candidates_below_ell_are_uniform(self, ell):
        # chi-squared over 16 bins (5 at ell = 5) of the draws of 64 streams;
        # at 15 degrees of freedom P(chi^2 > 50) < 1e-5
        dtype = np.int64 if ell < 2**31 else object
        keys = _stream_keys([ell] * 64, range(64), [1] * 64)
        raw = _candidates(keys, np.zeros(64, np.int64), np.full(64, ell.bit_length(), np.uint64),
                          512, dtype)
        draws = [v for v in raw.ravel().tolist() if v < ell]
        assert len(draws) > 64 * 512 // 2
        bins = min(ell, 16)
        seen = np.bincount([v * bins // ell for v in draws], minlength=bins)
        # bin j holds the v with j <= v * bins / ell < j + 1
        width = np.diff([-(-j * ell // bins) for j in range(bins + 1)]).astype(float)
        expected = len(draws) * width / ell
        chi2 = float(((seen - expected) ** 2 / expected).sum())
        assert chi2 < (50 if bins == 16 else 25)


class TestWindowOrder:
    """The walk returns ord(P), or the group order when the Hasse window holds one multiple."""

    @staticmethod
    def window(ell):
        s = isqrt(4 * ell)
        return ell + 1 - s, ell + 1 + s

    def test_order_below_baby_step_count(self):
        # y^2 = x^3 - x: (0, 0) has order 2, found in the baby steps
        ell = 10007
        lo, hi = self.window(ell)
        assert window_order((0, 0), -1 % ell, ell, lo, hi) == 2

    def test_sole_multiple_is_the_group_order(self, curve_11a1):
        ell = 1_000_003
        a, b = _short_model(*curve_11a1.c_invariants(), ell)
        P, A = _random_point(a, b, ell, random.Random(0))
        lo, hi = self.window(ell)
        n = count_points_naive(curve_11a1, ell, limit=ell)
        assert order_by_addition(P, A, ell) > hi - lo  # so n is the only multiple
        assert window_order(P, A, ell, lo, hi) == n

    def test_against_point_orders(self):
        rng = random.Random(5)
        primes = list(PrimeRange(5, 3000))
        seen = set()
        lanes = []
        for _ in range(400):
            ell = rng.choice(primes)
            a, b = rng.randrange(ell), rng.randrange(ell)
            if (4 * a**3 + 27 * b * b) % ell == 0:
                continue
            lanes.append((*_random_point(a, b, ell, rng), ell, *self.window(ell), a, b))
        # one batch of mixed primes
        walked = walk([lane[:5] for lane in lanes])
        for (P, A, ell, lo, hi, a, b), got in zip(lanes, walked):
            order = order_by_addition(P, A, ell)
            multiples = [n for n in range(lo, hi + 1) if n % order == 0]
            if len(multiples) == 1:
                n = count_points_naive(short_curve(a, b), ell)
                assert got == multiples[0] == n
                seen.add("sole multiple")
            else:
                assert got == order
                seen.add("baby steps" if order <= isqrt(hi - lo) + 1 else "giant steps")
        assert seen == {"sole multiple", "baby steps", "giant steps"}


    @settings(max_examples=60, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.sampled_from(WALK_PRIMES),
                st.integers(0, 2**64),
                st.integers(0, 2**64),
                st.integers(0, 2**32),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_batched_walk_equals_scalar_reference(self, lanes):
        batch = []
        for ell, a, b, seed, hit_o in lanes:
            a, b = a % ell, b % ell
            if (4 * a**3 + 27 * b * b) % ell == 0:
                continue
            P, A = _random_point(a, b, ell, random.Random(seed))
            lo, hi = self.window(ell)
            if hit_o and ell < 10**5:
                # shift the window so that the group order is lo + t*m: the
                # giant walk meets O at step t, then steps from O and doubles
                n = count_points_naive(short_curve(a, b), ell, limit=ell)
                shifted = n - (isqrt(hi - lo) + 1) * (1 + seed % 2)
                if shifted > 0:
                    lo, hi = shifted, shifted + hi - lo
            batch.append((P, A, ell, lo, hi))
        assume(batch)
        expected = []
        for lane in batch:
            try:
                expected.append(_window_order(*lane))
            except PointCountError:
                expected.append(0)
        assert walk(batch) == expected

    def test_orders_the_baby_rows_show(self):
        # with M babies, ord(P) <= M recurs as O; beyond M an odd order shows
        # as jP = -kP (equal x), an even one as y(jP) = 0, and 2M + 1 as
        # (2M + 1)P = O; one batch per prime, so that M is that prime's
        rng = random.Random(11)
        seen = set()
        for ell in PrimeRange(50, 400):
            lo, hi = self.window(ell)
            babies = _baby_count(hi - lo)
            lanes = []
            for _ in range(12):
                a, b = rng.randrange(ell), rng.randrange(ell)
                if (4 * a**3 + 27 * b * b) % ell:
                    lanes.append((*_random_point(a, b, ell, rng), ell, lo, hi))
            expected = [_window_order(*lane) for lane in lanes]
            assert walk(lanes) == expected
            for P, A, *_ in lanes:
                n = order_by_addition(P, A, ell)
                if n <= babies:
                    seen.add("O")
                elif n <= 2 * babies:
                    seen.add("y = 0" if n % 2 == 0 else "x-collision")
                else:
                    seen.add("(2M + 1)P = O" if n == 2 * babies + 1 else "giant steps")
        assert seen == {"O", "x-collision", "y = 0", "(2M + 1)P = O", "giant steps"}

    def test_giant_step_hits_o(self, curve_11a1):
        ell = 10007
        a, b = _short_model(*curve_11a1.c_invariants(), ell)
        n = count_points_naive(curve_11a1, ell, limit=ell)
        P, A = _random_point(a, b, ell, random.Random(0))
        assert order_by_addition(P, A, ell) == n
        m = isqrt(2 * isqrt(4 * ell)) + 1
        # T_1 = -(lo + m)P = O, then T_2 = O + step and T_3 = step + step
        lo = n - m
        hi = lo + 2 * isqrt(4 * ell)
        assert _window_order(P, A, ell, lo, hi) == window_order(P, A, ell, lo, hi) == n

    def test_object_path_above_2_to_31(self):
        big = next(q for q in range(2**31, 2**31 + 100) if is_prime(q))
        huge = next(q for q in range(2**40, 2**40 + 100) if is_prime(q))
        rng = random.Random(7)
        batch = []
        for ell in (big, 101, huge):
            a, b = rng.randrange(ell), rng.randrange(ell)
            batch.append((*_random_point(a, b, ell, rng), ell, *self.window(ell)))
        assert walk(batch) == [_window_order(*lane) for lane in batch]

    @pytest.mark.parametrize("lanes", [1, 4, 9, 13])
    def test_batches_are_equal(self, lanes, monkeypatch):
        # at most 4 lanes a batch: 9 lanes walk as 3 + 3 + 3, not as 4 + 4 + 1
        rng = random.Random(lanes)
        batch = []
        while len(batch) < lanes:
            ell = rng.choice((1009, 10007))
            a, b = rng.randrange(ell), rng.randrange(ell)
            if (4 * a**3 + 27 * b * b) % ell:
                batch.append((*_random_point(a, b, ell, rng), ell, *self.window(ell)))
        whole = walk(batch)  # one batch at the default budget
        width = max(hi - lo for *_, lo, hi in batch)
        babies = _baby_count(width)
        steps = babies + 1 + min(width // (2 * babies + 1) + 1, curves._GIANT_BLOCK)
        monkeypatch.setattr(curves, "_WALK_BYTES", 4 * 8 * curves._WORDS_PER_STEP * steps)
        sizes = []
        one_batch = curves._walk

        def spy(x, *rest):
            sizes.append(len(x))
            return one_batch(x, *rest)

        monkeypatch.setattr(curves, "_walk", spy)
        assert walk(batch) == whole
        assert len(sizes) == -(-lanes // 4)
        assert sum(sizes) == lanes and max(sizes) - min(sizes) <= 1


class TestTrace:
    def test_minus_three_at_five(self, curve_x3x1):
        assert trace_of_frobenius(curve_x3x1, 5) == -3

    def test_known_coefficients_11a1(self, curve_11a1):
        # q-expansion of the level-11 newform
        known = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 23: -1, 101: 2}
        for ell, a in known.items():
            assert trace_of_frobenius(curve_11a1, ell) == a

    def test_hasse_bound_over_range(self, curve_11a1):
        for ell in PrimeRange(5, 2000):
            if ell == 11:
                continue
            a = trace_of_frobenius(curve_11a1, ell)
            assert a * a <= 4 * ell

    def test_group_order_positive(self, curve_11a1):
        for ell in PrimeRange(2, 500):
            if ell == 11:
                continue
            assert ell + 1 - trace_of_frobenius(curve_11a1, ell) >= 1

    def test_batch_entries_match_single_calls(self, monkeypatch):
        # both engines, a bad prime and a refusal in one batch: y^2 = x^3 + 3x + 14
        # has bad reduction at 5, and two points leave 3011 ambiguous
        monkeypatch.setattr(curves, "BSGS_MAX_POINTS", 2)
        curve = short_curve(3, 14)
        ells = [2, 7, 11, 5, 2999, 3001, 3011, 100_003]
        batch = traces_of_frobenius(curve, ells)
        for ell, entry in zip(ells, batch):
            try:
                expected = trace_of_frobenius(curve, ell)
            except (ValueError, PointCountError) as exc:
                expected = exc
            assert describe(entry) == describe(expected)
        assert isinstance(batch[3], ValueError) and isinstance(batch[6], PointCountError)

    def test_dispatch_threshold(self, curve_11a1):
        # both engines, same answer, far above the crossover
        assert count_points_naive(curve_11a1, 99_991, limit=10**5) == count_points_bsgs(
            curve_11a1, 99_991
        )

    def test_one_dispatcher_sums_to_its_bound_and_walks_the_rest(self, curve_11a1, monkeypatch):
        # traces_of_frobenius sums every ell up to NAIVE_COUNT_LIMIT, read at call
        # time, and count_points_bsgs every ell up to MESTRE_BOUND = 229; both
        # walk the rest
        calls = {"summed": [], "walked": []}
        naive, short = curves.count_points_naive, curves._short_counts

        def spy_naive(curve, ell, *, limit):
            calls["summed"].append(ell)
            return naive(curve, ell, limit=limit)

        def spy_short(ells, models, max_points):
            calls["walked"].extend(ells)
            return short(ells, models, max_points)

        monkeypatch.setattr(curves, "count_points_naive", spy_naive)
        monkeypatch.setattr(curves, "_short_counts", spy_short)
        monkeypatch.setattr(curves, "NAIVE_COUNT_LIMIT", 307)
        ells = [227, 229, 233, 293, 307, 311, 5003]
        traces = traces_of_frobenius(curve_11a1, ells)
        assert calls == {"summed": [227, 229, 233, 293, 307], "walked": [311, 5003]}
        assert traces == [ell + 1 - naive(curve_11a1, ell, limit=ell) for ell in ells]
        for seen in calls.values():
            seen.clear()
        counts = [count_points_bsgs(curve_11a1, ell) for ell in ells]
        assert calls == {"summed": [227, 229], "walked": [233, 293, 307, 311, 5003]}
        assert counts == [ell + 1 - a for ell, a in zip(ells, traces)]


class TestIsOrdinary:
    def test_ordinary(self, curve_x3x1):
        assert is_ordinary(curve_x3x1, 5)  # a_5 = -3

    def test_supersingular(self):
        curve = CurveModel(0, 0, 0, 0, 1, conductor=36)  # y^2 = x^3 + 1
        assert trace_of_frobenius(curve, 5) == 0
        assert not is_ordinary(curve, 5)

    def test_bad_reduction_rejected(self, curve_11a1):
        with pytest.raises(ValueError):
            is_ordinary(curve_11a1, 11)

    @settings(max_examples=200, deadline=None)
    @given(curve=st.sampled_from([
        CurveModel(**CURVE_11A1),
        CurveModel(**CURVE_37A1),
        CurveModel(**CURVE_389A1),
    ]), p=st.integers(0, 200))
    @example(curve=CurveModel(**CURVE_11A1), p=9)
    @example(curve=CurveModel(**CURVE_11A1), p=25)
    def test_agrees_with_screen_p(self, curve, p):
        """One rule: is_ordinary refuses exactly where screen-p leaves ordinarity unevaluated."""
        good, ordinary = screen_p(curve, p).checks[1:]
        assert ordinary.name == "ordinary-at-p"
        if p < 5 or not is_prime(p):
            assert ordinary.detail == "not evaluated (p is not a prime >= 5)"
        if "(bad reduction)" in ordinary.detail:
            assert not good.passed and not good.detail.startswith("not evaluated")
        if ordinary.detail.startswith("not evaluated"):
            with pytest.raises(ValueError):
                is_ordinary(curve, p)
        else:
            assert is_ordinary(curve, p) is ordinary.passed
