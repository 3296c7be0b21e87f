import random
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lambda_forge.arith import PrimeRange
from lambda_forge.curves import (
    NAIVE_COUNT_LIMIT,
    CurveModel,
    ReductionType,
    _ec_add,
    _random_point,
    _window_order,
    count_points_bsgs,
    count_points_naive,
    is_ordinary,
    reduction_type,
    trace_of_frobenius,
)
from lambda_forge.errors import NonMinimalModelWarning, PointCountError


def exhaustive_count(curve: CurveModel, ell: int) -> int:
    """Oracle: scan every (x, y) pair against the long Weierstrass equation."""
    a1, a2, a3, a4, a6 = (c % ell for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    n = 1
    for x in range(ell):
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % ell == 0:
                n += 1
    return n


def order_by_addition(P, a, p) -> int:
    """Oracle: the order of P, by adding P to itself until O."""
    Q, n = P, 1
    while Q is not None:
        Q, n = _ec_add(Q, P, a, p), n + 1
    return n


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
            a, b = curve_11a1.short_model(ell)
            short = CurveModel(0, 0, 0, a, b, conductor=1)
            assert exhaustive_count(curve_11a1, ell) == exhaustive_count(short, ell)


class TestReductionType:
    def test_bad_at_conductor_prime(self, curve_11a1):
        assert reduction_type(curve_11a1, 11) is ReductionType.BAD

    def test_good_away_from_conductor(self, curve_11a1):
        assert reduction_type(curve_11a1, 7) is ReductionType.GOOD

    def test_non_minimal_model_warns(self, curve_11a1):
        # rescale by u = 2: discriminant gains 2^12, conductor stays odd
        scaled = CurveModel(0, -4, 8, -160, -1280, conductor=11)
        assert scaled.discriminant == (2**12) * curve_11a1.discriminant
        with pytest.warns(NonMinimalModelWarning):
            verdict = reduction_type(scaled, 2)
        assert verdict is ReductionType.GOOD

    def test_conductor_prime_missing_from_discriminant(self, curve_11a1):
        wrong = CurveModel(0, -1, 1, -10, -20, conductor=77)
        with pytest.raises(ValueError, match="inconsistent"):
            reduction_type(wrong, 7)


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

    def test_rejects_singular_equation(self):
        scaled = CurveModel(0, -4, 8, -160, -1280, conductor=11)  # non-minimal at 2
        with pytest.raises(ValueError, match="singular"):
            count_points_naive(scaled, 2)


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
            curve = CurveModel(0, 0, 0, a, b, conductor=1)
            assert count_points_bsgs(curve, ell) == count_points_naive(curve, ell)

    def test_ambiguity_is_an_error_not_a_guess(self, curve_389a1):
        # with the structure refinement unavailable (max_points=1 forces a
        # single sample) the order at this prime stays ambiguous
        with pytest.raises(PointCountError):
            count_points_bsgs(curve_389a1, 11, max_points=1)

    def test_ambiguity_above_the_naive_limit(self, curve_11a1):
        # two points leave 3499 ambiguous on 11a; more points settle it
        with pytest.raises(PointCountError, match="ambiguous"):
            count_points_bsgs(curve_11a1, 3499, max_points=2)
        assert count_points_bsgs(curve_11a1, 3499) == 3400
        assert count_points_naive(curve_11a1, 3499, limit=3499) == 3400

    @settings(max_examples=150, deadline=None)
    @given(ell=st.sampled_from(list(PrimeRange(5, 20000))), a=st.integers(0), b=st.integers(0))
    def test_equals_naive_on_random_short_curves(self, ell, a, b):
        a, b = a % ell, b % ell
        assume((4 * a**3 + 27 * b * b) % ell != 0)
        curve = CurveModel(0, 0, 0, a, b, conductor=1)
        assert count_points_bsgs(curve, ell) == count_points_naive(curve, ell, limit=ell)

    @pytest.mark.parametrize("name", ["curve_11a1", "curve_37a1", "curve_389a1"])
    def test_never_refuses_from_the_limit_to_1e5(self, name, request):
        curve = request.getfixturevalue(name)
        primes = PrimeRange(NAIVE_COUNT_LIMIT + 1, 10**5)
        ells = [ell for ell in primes if curve.discriminant % ell]
        sample = set(random.Random(curve.conductor).sample(ells, 30))
        for ell in ells:
            n = count_points_bsgs(curve, ell)  # a refusal raises PointCountError
            if ell in sample:
                assert n == count_points_naive(curve, ell, limit=ell)


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
        assert _window_order((0, 0), -1 % ell, ell, lo, hi) == 2

    def test_sole_multiple_is_the_group_order(self, curve_11a1):
        ell = 1_000_003
        a, b = curve_11a1.short_model(ell)
        P = _random_point(a, b, ell, random.Random(0))
        lo, hi = self.window(ell)
        n = count_points_naive(curve_11a1, ell, limit=ell)
        assert order_by_addition(P, a, ell) > hi - lo  # so n is the only multiple
        assert _window_order(P, a, ell, lo, hi) == n

    def test_against_point_orders(self):
        rng = random.Random(5)
        primes = list(PrimeRange(5, 3000))
        seen = set()
        for _ in range(400):
            ell = rng.choice(primes)
            a, b = rng.randrange(ell), rng.randrange(ell)
            if (4 * a**3 + 27 * b * b) % ell == 0:
                continue
            P = _random_point(a, b, ell, rng)
            lo, hi = self.window(ell)
            order = order_by_addition(P, a, ell)
            multiples = [n for n in range(lo, hi + 1) if n % order == 0]
            got = _window_order(P, a, ell, lo, hi)
            if len(multiples) == 1:
                n = count_points_naive(CurveModel(0, 0, 0, a, b, conductor=1), ell)
                assert got == multiples[0] == n
                seen.add("sole multiple")
            else:
                assert got == order
                seen.add("baby steps" if order <= isqrt(hi - lo) + 1 else "giant steps")
        assert seen == {"sole multiple", "baby steps", "giant steps"}


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

    def test_dispatch_threshold(self, curve_11a1):
        # both paths, same answer, straddling the configured limit
        lo = trace_of_frobenius(curve_11a1, 99_991, naive_limit=10**5)
        hi = trace_of_frobenius(curve_11a1, 99_991, naive_limit=10**4)
        assert lo == hi


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
