from itertools import combinations, islice, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lambda_forge import (
    CoefficientTable,
    FormContext,
    Verdict,
    build_level_set,
    carayol_check,
    classify_chunks,
    levels,
    plan_target_lambda,
)
from lambda_forge.arith import PrimeRange, sieve_primes
from lambda_forge.config import build_context, load_config
from lambda_forge.errors import ResourceLimitError, ScarcityError
from lambda_forge.iwasawa import sigma_ell
from lambda_forge.levels import EXISTENCE_ASSERTED, EXISTENCE_IDENTITY
from lambda_forge.residual import classify_chunk, column_dtype, resolve_workers


def columns(rows) -> tuple[list[int], list[int]]:
    """(ell, trace) pairs as the (ells, a_ells) columns build_level_set takes."""
    return [ell for ell, _ in rows], [t for _, t in rows]


def level_sets(ctx: FormContext, rows: dict, n: int, r: int, limit: int) -> list:
    """The lexicographically first ``limit`` level sets with n Pi and r Omega primes."""
    choices = product(combinations(rows[Verdict.PI], n), combinations(rows[Verdict.OMEGA], r))
    return [build_level_set(ctx, columns(pi), columns(omega))
            for pi, omega in islice(choices, limit)]


@pytest.fixture(scope="module")
def rows_500(ctx_default) -> dict[Verdict, list[tuple[int, int]]]:
    """The Pi and Omega primes below 500 as (ell, a_ell mod p) pairs, ascending."""
    rows = {Verdict.PI: [], Verdict.OMEGA: []}
    for chunk in classify_chunks(ctx_default, PrimeRange(2, 500)):
        for ell, t, verdict in zip(chunk.ells.tolist(), chunk.trace_mod_p.tolist(),
                                   chunk.verdicts()):
            if verdict in rows:
                rows[verdict].append((ell, t))
    return rows


def carayol_ctx() -> FormContext:
    """Table-backed context at p = 5 crafted for the admissibility cases."""
    table = CoefficientTable(
        coefficients={2: -2, 5: 1, 13: 0, 19: 0, 31: 2}, level=11
    )
    return FormContext(level=11, p=5, lambda_g=0, mu_zero=True,
                       surjective_mod_p=False, backend=table)


class TestEnumerate:
    """Level sets enumerated here, over the classified columns, and each built
    by build_level_set from its (ell, a_ell) columns."""

    def test_first_set_uses_smallest_pi_prime(self, ctx_default, rows_500):
        pi_pool, _ = columns(rows_500[Verdict.PI])
        sets = level_sets(ctx_default, rows_500, n=1, r=0, limit=3)
        assert sets[0].pi_primes == (pi_pool[0],)
        assert sets[0].n_f == 11 * pi_pool[0]
        assert [s.pi_primes[0] for s in sets] == pi_pool[:3]
        assert plan_target_lambda(ctx_default, 1, 0, 500) == sets[0]

    def test_identity_set(self, ctx_default):
        identity = build_level_set(ctx_default, ([], []), ([], []))
        assert identity.pi_primes == identity.omega_primes == ()
        assert identity.n_sigma == 1
        assert identity.n_f == 11
        assert identity.predicted_lambda == ctx_default.lambda_g
        assert identity.existence == EXISTENCE_IDENTITY

    def test_lambda_independent_of_omega_choice(self, ctx_default, rows_500):
        sets = level_sets(ctx_default, rows_500, n=2, r=1, limit=5)
        assert len({s.predicted_lambda for s in sets}) == 1
        assert sets[0].predicted_lambda == ctx_default.lambda_g + 2
        assert len({s.omega_primes for s in sets}) == 5
        assert all(s.existence == EXISTENCE_ASSERTED for s in sets)
        assert all(s.predicted_mu == 0 for s in sets)

    def test_level_arithmetic(self, ctx_default, rows_500):
        for level_set in level_sets(ctx_default, rows_500, n=2, r=2, limit=4):
            prod = 1
            for q in level_set.pi_primes + level_set.omega_primes:
                prod *= q
            assert level_set.n_sigma == prod
            assert level_set.n_f == 11 * prod

    def test_overflow_past_2_to_63(self, ctx_default):
        # three Pi-type primes near 4.3e6 push N_f past 2^63
        ells = []
        for q in sieve_primes(PrimeRange(4_300_000, 4_400_000)):
            if q % 7 in (0, 1, 6) or pow(q, 6, 49) == 1:
                continue
            ells.append(q)
            if len(ells) == 3:
                break
        traces = [(1 + q) % 7 for q in ells]
        chunk = classify_chunk(ells, range(3), np.array(traces), 7)
        assert chunk.verdicts().tolist() == [Verdict.PI] * 3  # refused for the level alone
        with pytest.raises(ResourceLimitError, match="2\\^63"):
            build_level_set(ctx_default, (ells, traces), ([], []))

    def test_wrong_verdict_rejected(self, ctx_default, rows_500):
        (omega,), (pi,) = rows_500[Verdict.OMEGA][:1], rows_500[Verdict.PI][:1]
        with pytest.raises(ValueError, match=f"prime {omega[0]} has verdict Verdict.OMEGA, "
                                             "expected Verdict.PI"):
            build_level_set(ctx_default, columns([omega]), ([], []))
        with pytest.raises(ValueError, match=f"prime {pi[0]} has verdict Verdict.PI"):
            build_level_set(ctx_default, ([], []), columns([pi]))
        # 2 is Neither on 11a at p = 7 (a_2 = -2): a trace no family has
        with pytest.raises(ValueError, match="prime 2 has verdict Verdict.NEITHER"):
            build_level_set(ctx_default, ([2], [-2]), ([], []))

    @pytest.mark.parametrize("ell, trace", [
        (11, 5),  # ell = N_g: no lambda increase to predict
        (7, 1),  # ell = p: s_ell is undefined
    ], ids=["ell-divides-level", "ell-equals-p"])
    def test_prime_dividing_ngp_refused(self, ctx_default, ell, trace):
        with pytest.raises(ValueError, match=f"level-raising prime {ell} divides N_g \\* p"):
            build_level_set(ctx_default, ([ell], [trace]), ([], []))
        with pytest.raises(ValueError, match=f"prime {ell} divides"):
            build_level_set(ctx_default, ([], []), ([ell], [trace]))

    def test_duplicate_prime_refused(self, ctx_default, rows_500):
        pi = columns(rows_500[Verdict.PI][:1] * 2)
        with pytest.raises(ValueError, match="duplicate primes"):
            build_level_set(ctx_default, pi, ([], []))


def hand_made_columns(p: int) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]]:
    """Pi primes 5, 17, 23 and the Omega prime 19, with the traces of their families."""
    pi = [5, 17, 23]
    return (pi, [(1 + ell) % p for ell in pi]), ([19], [-20 % p])


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
        level_set = build_level_set(ctx, *hand_made_columns(p))
        assert column_dtype(p, 23) is dtype
        assert seen == [np.dtype(dtype)] * 2  # sigma(g), then sigma(f)
        assert level_set.predicted_lambda == 5
        assert type(level_set.predicted_lambda) is int
        assert level_set.predicted_mu == 0
        assert level_set.n_f == 6 * 5 * 17 * 19 * 23
        assert level_set.pi_primes == (5, 17, 23)
        assert type(level_set.pi_primes[0]) is int


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

    def test_planned_primes_are_smallest(self, ctx_default, rows_500):
        level_set = plan_target_lambda(ctx_default, 2, 1, 500)
        assert level_set.pi_primes == tuple(columns(rows_500[Verdict.PI][:2])[0])
        assert level_set.omega_primes == tuple(columns(rows_500[Verdict.OMEGA][:1])[0])


# Holds 2,262 primes: past the first chunk a 2-worker sweep of it starts a pool.
PICK_SCAN = 20_000


@pytest.fixture(scope="module", params=[7, 41], ids=["p7", "p41"])
def one_classification(request, curve_11a1):
    """11a at p, and one classify_chunk of every prime below PICK_SCAN.

    The sweep's chunks hold the primes from the 1st, 65th, 193rd and 449th
    on.  At p = 7 the first Pi primes are the 12th, 21st, 43rd, 51st, 59th,
    61st and 73rd; at p = 41 the 48th, 117th, 235th, 256th and 277th, and
    the first Omega primes the 12th, 30th, 49th, 160th and 167th.
    """
    ctx = FormContext(level=11, p=request.param, lambda_g=0, mu_zero=True,
                      surjective_mod_p=True, backend=curve_11a1)
    ells = np.fromiter(PrimeRange(2, PICK_SCAN), np.int64)
    fetched = np.flatnonzero(~ctx.divides_ngp(ells))
    a_ells, error = ctx.coefficient_column(ells[fetched])
    assert error is None
    return ctx, classify_chunk(ells, fetched, a_ells, ctx.p)


def first_rows(chunk, verdict: Verdict, k: int) -> tuple[list[int], list[int]]:
    """The first k rows of this verdict, as (ells, traces) columns."""
    rows = np.flatnonzero(chunk.verdicts() == verdict)[:k]
    return chunk.ells[rows].tolist(), chunk.trace_mod_p[rows].tolist()


def level_set_or_refusal(build):
    try:
        return build()
    except ResourceLimitError as exc:  # a level past 2^63, reached at the same prime
        return str(exc)


@pytest.mark.usefixtures("two_cores")
@pytest.mark.parametrize("threads", ["1", "2"])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(0, 5), r=st.integers(0, 5))
@example(n=7, r=0)  # p = 7: stops at the 73rd prime, in the second chunk
@example(n=3, r=0)  # p = 41: the third chunk
@example(n=0, r=4)  # p = 41: the second chunk
@example(n=4, r=3)
def test_plan_picks_across_chunks(one_classification, monkeypatch, threads, n, r):
    # plan's primes are the first n Pi and r Omega rows of one classification
    ctx, chunk = one_classification
    if max(n, r) == 0:
        return
    monkeypatch.setenv("LAMBDA_FORGE_THREADS", threads)
    planned = level_set_or_refusal(lambda: plan_target_lambda(
        ctx, ctx.lambda_g + n, r, PICK_SCAN, workers=resolve_workers()))
    expected = level_set_or_refusal(lambda: build_level_set(
        ctx, first_rows(chunk, Verdict.PI, n), first_rows(chunk, Verdict.OMEGA, r)))
    assert planned == expected


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
