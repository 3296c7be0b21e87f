import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import Verdict, bk_rank_bounds, classify_prime, lambda_transfer, sigma_ell
from lambda_forge.arith import PrimeRange, is_prime
from lambda_forge.errors import HypothesisViolation, ResourceLimitError
from lambda_forge.iwasawa import S_ELL_EXPONENT_CAP, d_ells, s_ells, sigma_columns
from lambda_forge.residual import FrobeniusClass, classify_chunks, column_dtype


def brute_s_ell(p: int, ell: int, cap: int = 30) -> int:
    """Oracle: scan exponents m and keep the largest with ell^(p-1) = 1 mod p^(m+1)."""
    best = 0
    for m in range(cap + 1):
        if pow(ell, p - 1, p ** (m + 1)) == 1:
            best = m
    return p**best


def brute_d_ell(c1: int, c2: int, ell: int, p: int) -> int:
    """Oracle: repeated long division of 1 + c1*X + c2*X^2 by (1 - ell*X) over F_p."""
    coeffs = [1, c1 % p, c2 % p]  # ascending: c0 + c1 X + c2 X^2
    mult = 0
    for _ in range(3):
        # value at X = 1/ell is zero iff (1 - ell X) divides
        inv = pow(ell, -1, p)
        value = sum(c * pow(inv, i, p) for i, c in enumerate(coeffs)) % p
        if value != 0:
            break
        # divide c0 + c1 X + ... by (1 - ell X): synthetic division from the top
        neg_inv = (-pow(ell, -1, p)) % p  # root of divisor is 1/ell; leading coeff -ell
        quotient = [0] * (len(coeffs) - 1)
        rem = list(coeffs)
        for i in range(len(coeffs) - 1, 0, -1):
            q = rem[i] * pow(-ell, -1, p) % p
            quotient[i - 1] = q
            rem[i] = 0
            rem[i - 1] = (rem[i - 1] - q) % p
        assert rem[0] % p == 0
        coeffs = quotient
        mult += 1
    return mult


def scalar_s_ell(p: int, ell: int) -> int:
    """Reference: raise the modulus one power of p at a time, up to the cap."""
    m = 0
    while pow(ell, p - 1, p ** (m + 2)) == 1:
        m += 1
        if m > S_ELL_EXPONENT_CAP:
            raise ResourceLimitError(
                f"s_ell exponent exceeds cap {S_ELL_EXPONENT_CAP} at ell={ell}, p={p}"
            )
    return p**m


def column(p: int, *values: int) -> np.ndarray:
    """Values as a column of the dtype the sweep gives primes up to their maximum."""
    return np.array(values, column_dtype(p, max(map(abs, values), default=0)))


def s_of(p: int, ell: int) -> int:
    return s_ells(p, column(p, ell)).tolist()[0]


def d_of(c1: int, c2: int, ell: int, p: int) -> int:
    return d_ells(p, column(p, ell), column(p, c1), column(p, c2)).tolist()[0]


def scalar_d_ell(c1: int, c2: int, ell: int, p: int) -> int:
    """Reference: evaluate 1 + c1*X + c2*X^2 at 1/ell, then its quotient by (X - 1/ell)."""
    x0 = pow(ell, -1, p)
    if (1 + c1 * x0 + c2 * x0 * x0) % p != 0:
        return 0
    return 2 if ((c1 + c2 * x0) % p + c2 * x0) % p == 0 else 1


# ell = 1 mod 5^22, so ell^4 = 1 mod 5^22 and the exponent passes the cap of 20
CAP_ELL = 1 + 16 * 5**22


@st.composite
def sigma_rows(draw):
    """(p, ells, c1, c2): ells prime to p, rich in ell^(p-1) = 1 mod p^2 and mod p^3.

    Such ells are the p-th (or p^2-th) powers of some y mod p^2 (or p^3);
    at p = 5 the list may hold 443 (s = 125) and CAP_ELL.  p runs on both
    sides of the int64 bound of the columns, and far past it.
    """
    p = draw(st.sampled_from([5, 7, 11, 55103, 55109, 2**61 - 1]))
    ells = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["any", "mod p^2", "mod p^3"]))
        k = draw(st.integers(0, 1000))
        if kind == "any":
            ell = draw(st.integers(2, 10**12))
        else:
            e = 1 if kind == "mod p^2" else 2
            ell = pow(draw(st.integers(2, 10**6)), p**e, p ** (e + 1)) + k * p ** (e + 1)
        ells.append(ell + 1 if ell % p == 0 else ell)
    if p == 5:
        for special in (443, CAP_ELL):
            if draw(st.booleans()):
                ells.insert(draw(st.integers(0, len(ells))), special)
    coefficient = st.integers(-10**6, 10**6)
    return p, ells, [draw(coefficient) for _ in ells], [draw(coefficient) for _ in ells]


class TestColumns:
    @settings(max_examples=200, deadline=None)
    @given(sigma_rows())
    def test_equal_scalar_loops(self, rows):
        p, ells, c1, c2 = rows
        dtype = column_dtype(p, max(ells))
        expected_d = [scalar_d_ell(a % p, b % p, ell, p) for ell, a, b in zip(ells, c1, c2)]
        col, c1, c2 = (np.array(values, dtype) for values in (ells, c1, c2))
        assert d_ells(p, col, c1, c2).tolist() == expected_d
        try:
            expected_s = [scalar_s_ell(p, ell) for ell in ells]
        except ResourceLimitError as exc:
            for kernel in (lambda: s_ells(p, col), lambda: sigma_ell(p, col, c1, c2)):
                with pytest.raises(ResourceLimitError, match=re.escape(str(exc))):
                    kernel()
        else:
            assert s_ells(p, col).tolist() == expected_s
            expected_sigma = [s * d for s, d in zip(expected_s, expected_d)]
            columns = sigma_ell(p, col, c1, c2)
            assert [c.tolist() for c in columns] == [expected_s, expected_d, expected_sigma]

    def test_cap_raised_at_the_first_ell_past_it(self):
        ells = np.array([2, 443, 7, CAP_ELL, CAP_ELL + 2 * 5**23])
        assert scalar_s_ell(5, 443) == 125
        with pytest.raises(ResourceLimitError, match=f"at ell={CAP_ELL}, p=5"):
            s_ells(5, ells)
        assert s_ells(5, ells[:3]).tolist() == [1, 125, 5]

    def test_sigma_columns_equal_per_prime_data(self, ctx_default):
        rows = []
        expected = []
        for chunk in classify_chunks(ctx_default, PrimeRange(2, 5000)):
            rows += zip(*(col.tolist() for col in sigma_columns(chunk)))
            for fc in chunk.classes():
                if fc.verdict is not Verdict.SKIPPED:
                    s = scalar_s_ell(7, fc.ell)
                    d = scalar_d_ell(-fc.trace_mod_p % 7, fc.det_mod_p, fc.ell, 7)
                    expected.append((fc.ell, s, d, s * d))
        assert rows == expected
        assert {s for _, s, _, _ in expected} >= {1, 7}


class TestSEll:
    def test_p5_ell2(self):
        assert s_of(5, 2) == 1  # 16 = 1 mod 5 but not mod 25

    def test_p5_ell7_named_regression(self):
        # 7^4 = 2401 = 96*25 + 1, and 2401 mod 125 = 26
        assert s_of(5, 7) == 5

    def test_generic_prime_gives_one(self):
        assert s_of(7, 2) == 1
        assert s_of(11, 2) == 1

    def test_wieferich_pair_11_3(self):
        # 3^5 = 243 = 2*121 + 1, so 3^10 = 1 mod 11^2 and s jumps to 11
        assert s_of(11, 3) == 11
        assert s_of(11, 3) == brute_s_ell(11, 3)

    def test_ell_equal_p_rejected(self):
        with pytest.raises(ValueError):
            s_of(5, 5)

    def test_cap_is_an_error_not_truncation(self):
        # 443 = -57 mod 125 and 57^2 = -1 mod 125, so 443^4 = 1 mod 125: m >= 2
        assert s_of(5, 443) == brute_s_ell(5, 443)
        assert s_of(5, 443) >= 25
        # ell = 1 mod 5^22, so ell^4 = 1 mod 5^22 and m passes the cap of 20
        ell = 1 + 16 * 5**22
        assert is_prime(ell)
        with pytest.raises(ResourceLimitError, match=f"exceeds cap {S_ELL_EXPONENT_CAP} "):
            s_of(5, ell)

    def test_brute_force_scan(self):
        rng = random.Random(5)
        primes = list(PrimeRange(2, 3000))
        pairs = []
        for _ in range(300):
            p = rng.choice([5, 7, 11])
            ell = rng.choice(primes)
            if ell != p:
                pairs.append((p, ell))
        for p in (5, 7, 11):
            ells = [ell for q, ell in pairs if q == p]
            assert s_ells(p, column(p, *ells)).tolist() == [brute_s_ell(p, ell) for ell in ells]


class TestEulerFactors:
    """Factors 1 + c1*X + c2*X^2 as d_ells sees them; a classified prime's is (-t, ell)."""

    def test_pi_factor_is_split_product(self, ctx_p5):
        fc = classify_prime(ctx_p5, 2)
        c1, c2 = -fc.trace_mod_p, fc.det_mod_p
        # (1 - X)(1 - 2X) = 1 - 3X + 2X^2 = 1 + 2X + 2X^2 mod 5
        assert (c1 % 5, c2 % 5) == (2, 2)
        assert d_of(c1, c2, 2, 5) == 1  # 1/2 = 3 is one of the two distinct roots 1, 3

    def test_omega_factor_is_split_product(self):
        fc = FrobeniusClass(ell=3, trace_mod_p=3, det_mod_p=3,
                            verdict=Verdict.OMEGA, reasons=())
        c1, c2 = -fc.trace_mod_p, fc.det_mod_p
        # (1 + X)(1 + 3X) = 1 + 4X + 3X^2 mod 7: roots -1 and -1/3, never 1/3
        assert (c1 % 7, c2 % 7) == (4, 3)
        assert d_of(c1, c2, 3, 7) == 0

    def test_zero_trace_drops_linear_term(self):
        # 1 + 4X^2 = (1 - X)(1 + X) mod 5, and 1/19 = 4 = -1 mod 5 is a simple root
        fc = FrobeniusClass(ell=19, trace_mod_p=0, det_mod_p=4,
                            verdict=Verdict.NEITHER, reasons=())
        assert d_of(-fc.trace_mod_p, fc.det_mod_p, 19, 5) == 1
        assert d_of(0, 4, 19, 5) == brute_d_ell(0, 4, 19, 5)

    def test_ramified_factors(self):
        # 1 - X has the root 1 = 1/ell only at ell = 1 mod p; 1 + X only at ell = -1 mod p
        assert [d_of(-1, 0, ell, 5) for ell in (2, 3, 11, 19)] == [0, 0, 1, 0]
        assert [d_of(1, 0, ell, 5) for ell in (2, 3, 11, 19)] == [0, 0, 0, 1]


class TestDEll:
    def test_simple_root(self):
        assert d_of(2, 2, 2, 5) == 1  # (1 - X)(1 - 2X) mod 5

    def test_no_root(self):
        assert d_of(4, 3, 3, 7) == 0  # (1 + X)(1 + 3X) mod 7

    def test_double_root(self):
        # (1 - 3X)^2 = 1 + X + 2X^2 mod 7
        assert d_of(1, 2, 3, 7) == 2

    def test_against_division_oracle(self):
        rng = random.Random(99)
        for _ in range(500):
            p = rng.choice([5, 7, 11, 13])
            ell = rng.choice([q for q in (2, 3, 7, 13, 19, 23, 29) if q != p])
            c1, c2 = rng.randrange(p), rng.randrange(p)
            assert d_of(c1, c2, ell, p) == brute_d_ell(c1, c2, ell, p)


class TestSigma:
    def test_pi_prime_for_base_form(self, ctx_p5):
        fc = classify_prime(ctx_p5, 2)
        columns = sigma_ell(5, column(5, 2), column(5, -fc.trace_mod_p), column(5, 2))
        assert [col.tolist() for col in columns] == [[1], [1], [1]]

    def test_pi_prime_for_newly_ramified_form(self):
        _, d, sigma = sigma_ell(5, column(5, 2), column(5, -1), column(5, 0))
        assert (d.tolist(), sigma.tolist()) == ([0], [0])

    def test_omega_prime_zero_even_with_large_s(self):
        # ell = 7, p = 5: s = 5 but d = 0, so sigma = 0
        fc = FrobeniusClass(ell=7, trace_mod_p=2, det_mod_p=2,
                            verdict=Verdict.OMEGA, reasons=())
        s, _, sigma = sigma_ell(5, column(5, 7), column(5, -fc.trace_mod_p), column(5, 7))
        assert s.tolist() == [5]
        assert sigma.tolist() == [0]


def transfer_columns(n_pi: int, n_omega: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (sigma_g, sigma_f): 1 -> 0 at each Pi prime, 0 -> 0 at each Omega prime."""
    return column(7, *[1] * n_pi, *[0] * n_omega), column(7, *[0] * (n_pi + n_omega))


class TestLambdaTransfer:
    def test_three_pi_five_omega(self, ctx_default):
        sigma_g, sigma_f = transfer_columns(3, 5)
        assert lambda_transfer(ctx_default, sigma_g, sigma_f) == ctx_default.lambda_g + 3

    def test_empty_sum_is_identity(self, ctx_default):
        sigma_g, sigma_f = transfer_columns(0, 0)
        assert lambda_transfer(ctx_default, sigma_g, sigma_f) == ctx_default.lambda_g

    def test_single_pi_prime(self, ctx_default):
        assert lambda_transfer(ctx_default, *transfer_columns(1, 0)) == 1

    def test_returns_a_python_int(self, ctx_default):
        assert type(lambda_transfer(ctx_default, *transfer_columns(2, 1))) is int

    def test_requires_mu_zero(self, curve_11a1):
        from lambda_forge import FormContext

        ctx = FormContext(level=11, p=7, lambda_g=0, mu_zero=False,
                          surjective_mod_p=True, backend=curve_11a1)
        with pytest.raises(HypothesisViolation, match="config asserts mu_zero = false"):
            lambda_transfer(ctx, *transfer_columns(0, 0))

    def test_permutation_invariance(self, ctx_default):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(0, 6)
            r = rng.randrange(0, 5)
            sigma_g, sigma_f = transfer_columns(n, r)
            order = rng.sample(range(n + r), n + r)
            assert lambda_transfer(ctx_default, sigma_g[order], sigma_f[order]) == n


class TestRankBounds:
    def test_exact_for_small_lambda(self):
        assert bk_rank_bounds(0) == {"exact": 0}
        assert bk_rank_bounds(1) == {"exact": 1}

    def test_candidate_sets(self):
        assert "exact" not in bk_rank_bounds(4)
        assert bk_rank_bounds(4)["candidates"] == [0, 2, 4]
        assert bk_rank_bounds(5)["candidates"] == [1, 3, 5]

    def test_parity(self):
        for lam in range(12):
            rank = bk_rank_bounds(lam)
            candidates = rank["candidates"] if lam > 1 else [rank["exact"]]
            assert all(c % 2 == lam % 2 for c in candidates)
            assert max(candidates) == lam
