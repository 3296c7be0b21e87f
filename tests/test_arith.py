import random

import pytest

from lambda_forge.arith import PrimeRange, factorize, is_prime, sieve_primes
from lambda_forge.errors import ResourceLimitError


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


def test_factorize_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**7)
        fac = factorize(n)
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
