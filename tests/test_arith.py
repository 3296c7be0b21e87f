import random
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import arith
from lambda_forge.arith import (
    MAX_SIEVE_BOUND,
    PrimeRange,
    PrimeStream,
    are_prime,
    factorize,
    is_prime,
    sieve_primes,
)
from lambda_forge.errors import ResourceLimitError

WINDOW = 1 << 18  # the sieve segment width are_prime sieves by
SMALL_PRIMES = list(PrimeRange(2, 10**4))
# Carmichael numbers, strong base-2 pseudoprimes (2047, and 3,215,031,751,
# the least one to bases 2, 3, 5 and 7) and values on either side of the
# sieve cap
AWKWARD = [561, 1105, 41041, 2047, 3_215_031_751, 2**31 - 1, 1_000_000_001,
           MAX_SIEVE_BOUND - 1, MAX_SIEVE_BOUND, MAX_SIEVE_BOUND + 1]


def trial_division_primes(lo: int, hi: int) -> list[int]:
    """Independent oracle: primality by trial division."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin test of odd n > 2 to base a, written out independently."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestSieve:
    def test_textbook_window(self):
        assert list(PrimeRange(2, 12)) == [2, 3, 5, 7, 11]

    def test_empty_window(self):
        assert list(PrimeRange(14, 16)) == []

    def test_million_window_against_trial_division(self):
        got = list(PrimeRange(10**6, 10**6 + 100))
        assert got == trial_division_primes(10**6, 10**6 + 100)

    def test_exact_match_to_ten_thousand(self):
        assert list(PrimeRange(2, 10**4)) == trial_division_primes(2, 10**4)

    def test_segment_boundaries(self):
        # windows straddling the internal segment size must not lose primes
        base = 2 * (1 << 17)
        got = list(PrimeRange(base - 50, base + 50))
        assert got == trial_division_primes(base - 50, base + 50)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            list(sieve_primes(PrimeRange(2, 10**9)))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            PrimeRange(1, 10)
        with pytest.raises(ValueError):
            PrimeRange(10, 10)


class TestPrimeStream:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, MAX_SIEVE_BOUND - 1),
        st.integers(1, 3 * WINDOW),
        st.lists(st.tuples(st.booleans(), st.integers(0, 50000)), max_size=12),
    )
    def test_takes_concatenate_to_the_range(self, lo, width, calls):
        prime_range = PrimeRange(lo, min(lo + width, MAX_SIEVE_BOUND))
        primes = list(prime_range)
        stream = PrimeStream(prime_range)
        taken = []
        for take, n in calls:
            left = len(primes) - len(taken)
            if take:
                chunk = stream.take(n)
                assert chunk.dtype == np.int64 and len(chunk) == min(n, left)
                taken += chunk.tolist()
            elif left < n:  # fewer remain: exactly those
                assert stream.ahead(n) == left
            else:
                assert n <= stream.ahead(n) <= left
        taken += stream.take(len(primes)).tolist()
        assert taken == primes
        assert (len(stream.take(1)), stream.ahead(1)) == (0, 0)

    def test_resource_limit_at_the_first_take(self):
        stream = PrimeStream(PrimeRange(2, MAX_SIEVE_BOUND + 1))
        with pytest.raises(ResourceLimitError):
            stream.take(1)


class TestIsPrime:
    def test_against_trial_division(self):
        expected = set(trial_division_primes(2, 2000))
        for n in range(2, 2000):
            assert is_prime(n) == (n in expected)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large(self):
        assert is_prime(1_000_003)
        assert not is_prime(1_000_001)  # 101 * 9901

    def test_matches_sieve_to_two_million(self):
        primes = set(PrimeRange(2, 2 * 10**6))
        assert [n for n in range(2 * 10**6 + 1) if is_prime(n) != (n in primes)] == []

    def test_four_base_bound(self):
        # 3,215,031,751 = 151 * 751 * 28351 is a strong pseudoprime to the
        # bases 2, 3, 5 and 7, so those four alone must stop below it
        n = 3_215_031_751
        assert 151 * 751 * 28351 == n
        assert all(strong_probable_prime(n, a) for a in (2, 3, 5, 7))
        assert not is_prime(n)
        assert is_prime(2**31 - 1)  # below the bound
        assert is_prime(2**32 - 5)  # above it
        assert not is_prime((2**16 + 1) * (2**16 + 3))

    def test_twelve_base_bound(self):
        # psi_12 is a strong pseudoprime to the twelve prime bases up to 37, so
        # base 41 must catch it; psi_13 passes all thirteen, so it is refused
        psi12 = 318_665_857_834_031_151_167_461
        psi13 = 3_317_044_064_679_887_385_961_981
        assert 399_165_290_221 * 798_330_580_441 == psi12
        assert 1_287_836_182_261 * 2_575_672_364_521 == psi13
        twelve = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        assert all(strong_probable_prime(psi12, a) for a in twelve)
        assert not strong_probable_prime(psi12, 41)
        assert all(strong_probable_prime(psi13, a) for a in (*twelve, 41))
        assert not is_prime(psi12)
        assert are_prime([7, psi12, 2**61 - 1]).tolist() == [True, False, True]
        for refused in (psi13, psi13 + 2, 2**89 - 1):
            with pytest.raises(ResourceLimitError, match=f"primality of {refused}"):
                is_prime(refused)
            with pytest.raises(ResourceLimitError, match=f"primality of {refused}"):
                are_prime([7, refused])


class TestArePrime:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-10, 2**40),
        st.integers(2, MAX_SIEVE_BOUND),  # sparse: most sit alone in their window
        st.integers(MAX_SIEVE_BOUND - 200, MAX_SIEVE_BOUND + 200),
        st.sampled_from(SMALL_PRIMES).map(lambda q: q * q),
        st.sampled_from(AWKWARD),
    ), max_size=40))
    def test_matches_is_prime(self, values):
        assert are_prime(values).tolist() == [is_prime(n) for n in values]

    @settings(max_examples=20, deadline=None)
    @given(window=st.integers(0, MAX_SIEVE_BOUND // WINDOW - 1),
           extra=st.integers(-1, 1),
           sparse=st.lists(st.integers(2, MAX_SIEVE_BOUND), max_size=60),
           data=st.data())
    def test_sparse_windows_beside_a_dense_one(self, window, extra, sparse, data):
        # one window holds about the cut-over count, the rest are spread thin
        start = window * WINDOW + 1
        dense = list(range(start, start + 2 * (arith._MIN_SIEVED_VALUES + extra), 2))
        values = data.draw(st.permutations(dense + sparse))
        assert are_prime(values).tolist() == [is_prime(n) for n in values]

    @settings(max_examples=40, deadline=None)
    @given(window=st.integers(1, MAX_SIEVE_BOUND // WINDOW), before=st.integers(1, 400),
           after=st.integers(1, 400), data=st.data())
    def test_dense_run_across_window_boundary(self, window, before, after, data):
        edge = window * WINDOW
        values = data.draw(st.permutations(range(edge - before, edge + after)))
        assert are_prime(values).tolist() == [is_prime(n) for n in values]

    def test_awkward_values(self):
        assert are_prime(AWKWARD).tolist() == [is_prime(n) for n in AWKWARD]
        assert not are_prime([3_215_031_751, 41041, 2047]).any()
        assert are_prime([2**31 - 1]).all()

    @pytest.mark.parametrize("values", [
        (9, 7, 2**61 - 1, 1),
        np.array([4, 2**61 - 1, MAX_SIEVE_BOUND + 7, 2**64 - 59], dtype=object),
        [5, 2**63 + 1, 2**64 - 59, -(2**64), 1_000_003],
    ], ids=["tuple", "object_array", "past_int64"])
    def test_any_collection_of_ints(self, values):
        assert are_prime(values).tolist() == [is_prime(n) for n in values]

    def test_empty_and_unsorted(self):
        assert are_prime([]).tolist() == []
        assert are_prime([9, 7, -7, 5, 4, 3, 2, 1, 0]).tolist() == [
            False, True, False, True, False, True, True, False, False]

    def test_sieves_only_occupied_windows(self, monkeypatch):
        ranges = []
        sieve = arith._sieve_segments

        def spy(prime_range):
            ranges.append(prime_range)
            return sieve(prime_range)

        monkeypatch.setattr(arith, "_sieve_segments", spy)
        dense = arith._MIN_SIEVED_VALUES
        values = [5, 7, 99_999_989, *range(50_000_017, 50_000_017 + dense), *range(9, 9 + dense)]
        assert are_prime(values).tolist() == [is_prime(n) for n in values]
        assert len(ranges) == 2  # the lone 99,999,989 goes to is_prime
        for r in ranges:
            assert r.hi - r.lo < WINDOW
            assert any(r.lo <= n <= r.hi for n in values)

    def test_lone_values_are_not_sieved(self, monkeypatch):
        ranges = []
        sieve = arith._sieve_segments
        monkeypatch.setattr(arith, "_sieve_segments", lambda r: ranges.append(r) or sieve(r))
        values = random.Random(5).sample(range(2, MAX_SIEVE_BOUND), 300)
        assert are_prime(values).tolist() == [is_prime(n) for n in values]
        assert ranges == []


def test_factorize_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**7)
        fac = factorize(n, trial_bound=n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_trial_bound():
    # 1000003 * 1000033 has no factor below the bound and is not prime
    n = 1000003 * 1000033
    with pytest.raises(ResourceLimitError):
        factorize(n, trial_bound=1000)
    # but a prime cofactor is accepted
    assert factorize(2 * 1000003, trial_bound=1000) == [(2, 1), (1000003, 1)]


def test_factorize_divides_by_blocks_of_sieved_primes(monkeypatch):
    ranges, products = [], []
    sieve = arith._sieve_segments
    monkeypatch.setattr(arith, "_sieve_segments", lambda r: ranges.append(r) or sieve(r))
    monkeypatch.setattr(arith, "gcd", lambda rem, block: products.append(block) or gcd(rem, block))
    # a small level sieves the primes to its square root, in one segment
    assert factorize(407, trial_bound=10**6) == [(11, 1), (37, 1)]
    assert factorize(1_649_236_298, trial_bound=10**6) == [
        (2, 1), (23, 1), (37, 1), (47, 1), (53, 1), (389, 1)]
    assert ranges == [PrimeRange(2, 20), PrimeRange(2, 40610)]
    # 11 times the 7,000 primes from 1,000,003 on, a 139,998-bit level: the 11 is
    # divided out and the cofactor refused, after one gcd of the whole remainder a
    # block of primes, not a division by every odd number to the bound
    n = 11 * prod(PrimeStream(PrimeRange(1_000_003, 2_000_000)).take(7000).tolist())
    products.clear()
    with pytest.raises(ResourceLimitError,
                       match=f"^primality of {arith.int_text(n // 11)} is not decided"):
        factorize(n, trial_bound=10**6)
    assert len(products) <= 50  # 78,498 primes to 10**6


def test_int_text_counts_the_digits_past_100():
    assert arith.int_text(10**100 - 1) == "9" * 100
    assert arith.int_text(-(10**99)) == "-1" + "0" * 99
    for k in (100, 101, 4400, 50_000):
        assert arith.int_text(10**k) == f"<a {k + 1:,}-digit integer>"
        assert arith.int_text(-(10**k)) == f"<a {k + 1:,}-digit integer>"
        if k > 100:
            assert arith.int_text(10**k - 1) == f"<a {k:,}-digit integer>"


def test_refusals_of_a_huge_n_give_its_digit_count():
    # past 4,300 digits Python will not print n; the messages count its digits
    n = 10**4400 * 1000003 * 1000033
    with pytest.raises(ResourceLimitError, match=(
            "^cofactor 1000036000099 of <a 4,413-digit integer> not factorable by trial "
            "division below 1000$")):
        factorize(n, trial_bound=1000)
    with pytest.raises(ResourceLimitError, match="^primality of <a 4,401-digit integer> is not"):
        is_prime(10**4400 + 1)
