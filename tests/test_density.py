from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import (
    CoefficientTable,
    FormContext,
    empirical_density,
    enumerate_gl2_classes,
    exact_densities,
)
from lambda_forge.arith import PrimeRange
from lambda_forge.density import _make_report
from lambda_forge.errors import HypothesisViolation, ResourceLimitError
from lambda_forge.residual import classify_chunks


def brute_gl2_census(p: int):
    """Independent oracle: the same census via explicit eigenvalue factoring."""
    gl2 = 0
    y = yp = 0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    det = (a * d - b * c) % p
                    if det == 0:
                        continue
                    gl2 += 1
                    tr = (a + d) % p
                    # roots of X^2 - tr X + det, if split
                    roots = [x for x in range(p) if (x * x - tr * x + det) % p == 0]
                    if len(roots) != 2:
                        continue  # non-split or repeated: never in Y or Y'
                    r, s = roots
                    if 1 in (r, s):
                        other = s if r == 1 else r
                        if other not in (0, 1, p - 1):
                            y += 1
                    if p - 1 in (r, s):
                        other = s if r == p - 1 else r
                        if other not in (0, 1, p - 1):
                            yp += 1
    return gl2, y, yp


class TestGl2Enumeration:
    def test_p5_exact_values(self):
        report = enumerate_gl2_classes(5)
        assert report.gl2_order == 480
        assert report.torus_order == 16
        assert report.count_Y == 60
        assert report.count_Y_prime == 60
        assert report.ratio_Y == Fraction(1, 8)
        assert report.ratio_Y_prime == Fraction(1, 8)

    def test_p7_exact_values(self):
        report = enumerate_gl2_classes(7)
        assert report.gl2_order == 2016
        assert report.count_Y == 224
        assert report.ratio_Y == Fraction(1, 9)

    def test_against_independent_census(self):
        for p in (5, 7):
            gl2, y, yp = brute_gl2_census(p)
            report = enumerate_gl2_classes(p)
            assert (report.gl2_order, report.count_Y, report.count_Y_prime) == (gl2, y, yp)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_closed_form_identity(self, p):
        report = enumerate_gl2_classes(p)
        assert report.gl2_order == (p * p - 1) * (p * p - p)
        # count = (p-3) * |GL2| / |T| as an exact integer identity
        assert report.count_Y * (p - 1) ** 2 == (p - 3) * report.gl2_order
        assert report.count_Y == report.count_Y_prime
        assert report.ratio_Y == Fraction(p - 3, (p - 1) ** 2)

    def test_range_limits(self):
        with pytest.raises(ResourceLimitError):
            enumerate_gl2_classes(17)
        with pytest.raises(ValueError):
            enumerate_gl2_classes(9)
        with pytest.raises(ValueError):
            enumerate_gl2_classes(3)


class TestExactDensities:
    def test_p5(self):
        assert exact_densities(5) == (Fraction(1, 10), Fraction(1, 8))

    def test_p7(self):
        assert exact_densities(7) == (Fraction(2, 21), Fraction(1, 9))

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 101])
    def test_reduced_and_bounded(self, p):
        pi, omega = exact_densities(p)
        assert 0 < pi < 1 and 0 < omega < 1
        # Fraction normalizes; check the relation between the two families
        assert pi == omega * Fraction(p - 1, p)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            exact_densities(3)
        with pytest.raises(ValueError):
            exact_densities(15)


class TestEmpirical:
    def test_requires_surjectivity(self, ctx_p5):
        with pytest.raises(HypothesisViolation, match=(
                "^density verification needs the asserted surjectivity of the mod-p image; "
                "config asserts surjective_mod_p = false$")):
            empirical_density(ctx_p5, PrimeRange(2, 1000))

    def test_tiny_sample_is_underpowered(self, ctx_default):
        pi, omega = empirical_density(ctx_default, PrimeRange(2, 100))
        assert pi.verdict == "Underpowered"
        assert omega.verdict == "Underpowered"

    def test_verdict_cuts_at_the_constants(self):
        # density 1/10: 300 primes expect exactly MIN_EXPECTED_HITS = 30 hits, 299 fewer
        assert _make_report("Pi", Fraction(1, 10), 299, 30).verdict == "Underpowered"
        assert _make_report("Pi", Fraction(1, 10), 300, 30).verdict == "Consistent"
        # se = sqrt(0.09 / 300): 45 hits is z = 2.89, 46 hits z = 3.08 against the 3.0 band
        assert _make_report("Pi", Fraction(1, 10), 300, 45).verdict == "Consistent"
        assert _make_report("Pi", Fraction(1, 10), 300, 46).verdict == "Inconsistent"

    def test_moderate_sweep_consistent(self, ctx_default):
        pi, omega = empirical_density(ctx_default, PrimeRange(2, 50_000))
        assert pi.verdict == "Consistent"
        assert omega.verdict == "Consistent"
        assert pi.exact_density == Fraction(2, 21)
        assert omega.exact_density == Fraction(1, 9)
        assert pi.sample_primes == omega.sample_primes
        assert pi.empirical == Fraction(pi.hits, pi.sample_primes)

    def test_deterministic(self, ctx_default):
        first = empirical_density(ctx_default, PrimeRange(2, 20_000))
        second = empirical_density(ctx_default, PrimeRange(2, 20_000))
        assert first == second

    def test_skipped_primes_out_of_denominator(self, ctx_default):
        pi, _ = empirical_density(ctx_default, PrimeRange(2, 100))
        n_classifiable = sum(1 for _ in PrimeRange(2, 100)) - 2  # drop 7 and 11
        assert pi.sample_primes == n_classifiable


@st.composite
def hasse_tables(draw):
    """(full, gapped, prime_range): two table contexts at p in {5, 7, 11, 13} and a range.

    ``full`` has a random Hasse-bounded a_ell at every prime to a random top
    (p-ordinary at p); ``gapped`` is the same table less some of its primes
    with ell = +-1 mod p.  The range lies inside the table.
    """
    p = draw(st.sampled_from([5, 7, 11, 13]))
    level = draw(st.sampled_from([1, 6, 17, 35, 77]).filter(lambda n: n % p))
    top = draw(st.integers(p + 1, 5000))
    rng = draw(st.randoms(use_true_random=False))
    rows = {ell: rng.randint(-isqrt(4 * ell), isqrt(4 * ell)) for ell in PrimeRange(2, top)}
    if rows[p] % p == 0:
        rows[p] = 1
    gaps = {ell for ell in rows if ell % p in (1, p - 1) and rng.random() < 0.3}
    lo = draw(st.integers(2, top - 1))
    contexts = [
        FormContext(level=level, p=p, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                    backend=CoefficientTable(list(table), list(table.values()), level=level))
        for table in (rows, {ell: a for ell, a in rows.items() if ell not in gaps})
    ]
    return (*contexts, PrimeRange(lo, draw(st.integers(lo + 1, top))))


class TestSelfSweep:
    """The sweep of empirical_density fetches fewer a_ell, and counts the same."""

    @settings(max_examples=60, deadline=None)
    @given(hasse_tables())
    def test_equals_the_counts_of_the_classification(self, tables):
        full, gapped, prime_range = tables
        classified = empirical_density(full, prime_range, chunks=classify_chunks(full, prime_range))
        assert empirical_density(full, prime_range) == classified
        # no verdict depends on a_ell at ell = +-1 mod p, so gaps there change nothing
        assert empirical_density(gapped, prime_range) == classified
