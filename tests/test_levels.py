from pathlib import Path

import numpy as np
import pytest

from lambda_forge import (
    CoefficientTable,
    FormContext,
    Verdict,
    build_level_set,
    carayol_check,
    classify_range,
    enumerate_level_sets,
    levels,
    plan_target_lambda,
)
from lambda_forge.arith import PrimeRange, sieve_primes
from lambda_forge.config import build_context, load_config
from lambda_forge.errors import ResourceLimitError, ScarcityError
from lambda_forge.iwasawa import sigma_ell
from lambda_forge.levels import EXISTENCE_ASSERTED, EXISTENCE_IDENTITY
from lambda_forge.residual import FrobeniusClass, column_dtype


@pytest.fixture(scope="module")
def stream_500(ctx_default):
    return list(classify_range(ctx_default, PrimeRange(2, 500)))


def carayol_ctx() -> FormContext:
    """Table-backed context at p = 5 crafted for the admissibility cases."""
    table = CoefficientTable(
        coefficients={2: -2, 5: 1, 13: 0, 19: 0, 31: 2}, level=11
    )
    return FormContext(level=11, p=5, lambda_g=0, mu_zero=True,
                       surjective_mod_p=False, backend=table)


class TestEnumerate:
    def test_first_set_uses_smallest_pi_prime(self, ctx_default, stream_500):
        pi_pool = [fc.ell for fc in stream_500 if fc.verdict is Verdict.PI]
        sets = enumerate_level_sets(ctx_default, stream_500, n=1, r=0, limit=3)
        assert sets[0].pi_primes == (pi_pool[0],)
        assert sets[0].n_f == 11 * pi_pool[0]
        assert [s.pi_primes[0] for s in sets] == pi_pool[:3]

    def test_identity_set(self, ctx_default, stream_500):
        (identity,) = enumerate_level_sets(ctx_default, stream_500, n=0, r=0, limit=1)
        assert identity.n_sigma == 1
        assert identity.n_f == 11
        assert identity.predicted_lambda == ctx_default.lambda_g
        assert identity.existence == EXISTENCE_IDENTITY

    def test_lambda_independent_of_omega_choice(self, ctx_default, stream_500):
        sets = enumerate_level_sets(ctx_default, stream_500, n=2, r=1, limit=5)
        assert len({s.predicted_lambda for s in sets}) == 1
        assert sets[0].predicted_lambda == ctx_default.lambda_g + 2
        assert len({s.omega_primes for s in sets}) == 5
        assert all(s.existence == EXISTENCE_ASSERTED for s in sets)
        assert all(s.predicted_mu == 0 for s in sets)

    def test_level_arithmetic(self, ctx_default, stream_500):
        for level_set in enumerate_level_sets(ctx_default, stream_500, n=2, r=2, limit=4):
            prod = 1
            for q in level_set.pi_primes + level_set.omega_primes:
                prod *= q
            assert level_set.n_sigma == prod
            assert level_set.n_f == 11 * prod

    def test_scarcity(self, ctx_default, stream_500):
        with pytest.raises(ScarcityError, match="supplied"):
            enumerate_level_sets(ctx_default, stream_500, n=200, r=0)

    def test_overflow_past_2_to_63(self, ctx_default):
        # three Pi-type primes near 4.3e6 push N_f past 2^63
        fabricated = []
        for q in sieve_primes(PrimeRange(4_300_000, 4_400_000)):
            if q % 7 in (0, 1, 6) or pow(q, 6, 49) == 1:
                continue
            fabricated.append(
                FrobeniusClass(ell=q, trace_mod_p=(1 + q) % 7, det_mod_p=q % 7,
                               verdict=Verdict.PI, reasons=()))
            if len(fabricated) == 3:
                break
        with pytest.raises(ResourceLimitError, match="2\\^63"):
            enumerate_level_sets(ctx_default, fabricated, n=3, r=0, limit=1)

    def test_wrong_verdict_rejected(self, ctx_default, stream_500):
        omega = next(fc for fc in stream_500 if fc.verdict is Verdict.OMEGA)
        with pytest.raises(ValueError, match="verdict"):
            build_level_set(ctx_default, (omega,), ())

    @pytest.mark.parametrize("klass", [
        FrobeniusClass(11, 5, 4, Verdict.PI, ()),  # ell = N_g: no lambda increase to predict
        FrobeniusClass(7, 1, 0, Verdict.PI, ()),  # ell = p: s_ell is undefined
    ], ids=["ell-divides-level", "ell-equals-p"])
    def test_prime_dividing_ngp_refused(self, ctx_default, klass):
        with pytest.raises(ValueError, match=f"level-raising prime {klass.ell} divides N_g \\* p"):
            build_level_set(ctx_default, (klass,), ())
        with pytest.raises(ValueError, match=f"prime {klass.ell} divides"):
            build_level_set(ctx_default, (), (klass,))


def hand_made_classes(p: int) -> tuple[tuple[FrobeniusClass, ...], tuple[FrobeniusClass, ...]]:
    """Pi classes at 5, 13, 17 and an Omega class at 19, with the traces of their types."""
    pi = tuple(FrobeniusClass(ell, (1 + ell) % p, ell % p, Verdict.PI, ()) for ell in (5, 13, 17))
    return pi, (FrobeniusClass(19, -20 % p, 19 % p, Verdict.OMEGA, ()),)


class TestTransferPastTheInt64Bound:
    """Past p = 55108 the transfer runs on object columns of exact integers."""

    @pytest.mark.parametrize("p, dtype", [(55109, object), (7, np.int64)])
    def test_three_pi_primes_raise_lambda_by_three(self, monkeypatch, p, dtype):
        ctx = FormContext(level=6, p=p, lambda_g=2, mu_zero=True, surjective_mod_p=False,
                          backend=CoefficientTable({p: 1}, level=6))
        seen = []

        def spy(p, ells, c1, c2):
            seen.append(ells.dtype)
            return sigma_ell(p, ells, c1, c2)

        monkeypatch.setattr(levels, "sigma_ell", spy)
        level_set = build_level_set(ctx, *hand_made_classes(p))
        assert column_dtype(p, 19) is dtype
        assert seen == [np.dtype(dtype)] * 2  # sigma(g), then sigma(f)
        assert level_set.predicted_lambda == 5
        assert type(level_set.predicted_lambda) is int
        assert level_set.predicted_mu == 0
        assert level_set.n_f == 6 * 5 * 13 * 17 * 19


class TestPlan:
    def test_target_three(self, ctx_default):
        level_set = plan_target_lambda(ctx_default, 3, 0, 2000)
        assert level_set.predicted_lambda == 3
        assert len(level_set.pi_primes) == 3
        assert level_set.omega_primes == ()

    def test_stability_set(self, ctx_default):
        # target = lambda_g: no Pi primes, Omega primes keep lambda fixed
        level_set = plan_target_lambda(ctx_default, 0, 2, 500)
        assert level_set.pi_primes == ()
        assert len(level_set.omega_primes) == 2
        assert level_set.predicted_lambda == ctx_default.lambda_g

    def test_below_lambda_g_rejected(self, curve_37a1):
        ctx = FormContext(level=37, p=5, lambda_g=1, mu_zero=True,
                          surjective_mod_p=True, backend=curve_37a1)
        with pytest.raises(ValueError, match="raise"):
            plan_target_lambda(ctx, 0, 0, 100)

    def test_empty_request_rejected(self, ctx_default):
        with pytest.raises(ValueError, match="at least one"):
            plan_target_lambda(ctx_default, 0, 0, 100)

    @pytest.mark.parametrize("target, r", [(1, -1), (0, -2)])
    def test_negative_omega_count_rejected(self, ctx_default, target, r):
        with pytest.raises(ValueError, match=f"omega count must be >= 0, got {r}"):
            plan_target_lambda(ctx_default, target, r, 100)

    def test_scarcity_quotes_densities(self, ctx_default):
        with pytest.raises(ScarcityError) as exc:
            plan_target_lambda(ctx_default, 6, 0, 120)
        assert "2/21" in str(exc.value)
        assert "1/9" in str(exc.value)

    def test_planned_primes_are_smallest(self, ctx_default, stream_500=None):
        level_set = plan_target_lambda(ctx_default, 2, 1, 500)
        pool = list(classify_range(ctx_default, PrimeRange(2, 500)))
        pi_pool = [fc.ell for fc in pool if fc.verdict is Verdict.PI]
        omega_pool = [fc.ell for fc in pool if fc.verdict is Verdict.OMEGA]
        assert level_set.pi_primes == tuple(pi_pool[:2])
        assert level_set.omega_primes == tuple(omega_pool[:1])


@pytest.mark.parametrize("config", ["default.cfg", "curve37a.cfg", "curve389a.cfg"])
def test_plans_start_no_pool(config, two_cores, pools_started):
    # every request of the benchmark's plan mix finds its primes in the first
    # chunk of the sweep, which is fetched in-process
    ctx = build_context(load_config(Path(__file__).resolve().parents[1] / "configs" / config))
    for target in range(ctx.lambda_g + 1, ctx.lambda_g + 4):
        for r in (0, 1, 2):
            planned = plan_target_lambda(ctx, target, r, 100_000, workers=2)
            assert pools_started == []
            assert planned == plan_target_lambda(ctx, target, r, 100_000, workers=1)


class TestCarayol:
    def test_case_1_admissible(self):
        ctx = carayol_ctx()
        report = carayol_check(ctx, 22)  # extra prime 2, t = 3: 2*9 = 18 = 3 = (1+2)^2*2 mod 5
        assert report.verdict == "admissible"
        (prime,) = report.primes
        assert prime.ell == 2 and prime.alpha == 1
        assert prime.satisfied_cases == ("1",)

    def test_trace_identity_violation(self):
        ctx = carayol_ctx()
        # ell = 13 = 3 mod 5 with a_13 = 0: 13*0 != (1+13)^2*13 mod 5, no other case
        report = carayol_check(ctx, 11 * 13)
        assert report.verdict == "inadmissible"
        assert report.primes[0].status == "violation"

    def test_case_2a(self):
        ctx = carayol_ctx()
        # ell = 19 = -1 mod 5 with trace 0 at alpha = 2
        report = carayol_check(ctx, 11 * 19 * 19)
        assert report.verdict == "admissible"
        assert report.primes[0].satisfied_cases == ("2a",)

    def test_case_2b(self):
        # ell = 19 exactly divides the base level and 19 = -1 mod 5
        table = CoefficientTable(coefficients={5: 1}, level=38)
        ctx = FormContext(level=38, p=5, lambda_g=0, mu_zero=True,
                          surjective_mod_p=False, backend=table)
        report = carayol_check(ctx, 38 * 19)
        assert report.verdict == "admissible"
        assert report.primes[0].satisfied_cases == ("2b",)

    def test_case_3a(self):
        ctx = carayol_ctx()
        # ell = 31 = 1 mod 5 at alpha = 2, no trace needed
        report = carayol_check(ctx, 11 * 31 * 31)
        assert report.verdict == "admissible"
        assert report.primes[0].satisfied_cases == ("3a",)

    def test_case_3b_overlap_flagged_ambiguous(self):
        ctx = carayol_ctx()
        # ell = 31 = 1 mod 5 at alpha = 1 with a_31 = 2: both case 1 and 3b hold
        report = carayol_check(ctx, 11 * 31)
        (prime,) = report.primes
        assert set(prime.satisfied_cases) == {"1", "3b"}
        assert prime.ambiguous

    def test_unknown_when_coefficient_missing(self):
        ctx = carayol_ctx()
        report = carayol_check(ctx, 11 * 23)  # no a_23 in the table
        assert report.verdict == "unknown"
        assert report.primes[0].status == "unknown"

    def test_gap_leaves_later_primes_decided(self):
        ctx = carayol_ctx()
        # no a_23 in the table, a_31 = 2: the gap is unknown, 31 still decided
        report = carayol_check(ctx, 11 * 23 * 31)
        assert [prime.ell for prime in report.primes] == [23, 31]
        assert [prime.status for prime in report.primes] == ["unknown", "admissible"]
        assert set(report.primes[1].satisfied_cases) == {"1", "3b"}
        assert report.verdict == "unknown"

    def test_structural_rejection(self):
        ctx = carayol_ctx()
        report = carayol_check(ctx, 26)  # not a multiple of 11
        assert report.verdict == "inadmissible_structural"
        assert report.primes == ()

    def test_level_divisible_by_p_rejected(self):
        ctx = carayol_ctx()
        with pytest.raises(ValueError, match="divisible by p"):
            carayol_check(ctx, 55)

    def test_base_level_vacuously_admissible(self):
        ctx = carayol_ctx()
        assert carayol_check(ctx, 11).verdict == "admissible"

    def test_every_planned_level_is_admissible(self, ctx_default):
        level_set = plan_target_lambda(ctx_default, 2, 1, 500)
        report = carayol_check(ctx_default, level_set.n_f)
        assert report.verdict == "admissible"
        for prime in report.primes:
            assert "1" in prime.satisfied_cases
            assert prime.alpha == 1
