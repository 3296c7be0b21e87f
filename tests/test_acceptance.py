"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The empirical density sweep (criterion 3) scans primes to 2e6 and
takes a few minutes; everything else is fast.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, islice, product
from math import isqrt

import numpy as np

from lambda_forge import (
    CoefficientTable,
    CurveModel,
    FormContext,
    Verdict,
    bk_rank_bounds,
    build_level_set,
    carayol_check,
    classify_chunks,
    count_points_bsgs,
    count_points_naive,
    empirical_density,
    enumerate_gl2_classes,
    exact_densities,
    lambda_transfer,
    sigma_ell,
)
from lambda_forge.arith import PrimeRange, sieve_primes
from lambda_forge.iwasawa import s_ells
from lambda_forge.residual import _VERDICTS, resolve_workers

from conftest import CURVE_11A1, CURVE_37A1, CURVE_389A1


def report(criterion: str, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] {criterion}: PASS" + (f"  ({detail})" if detail else ""))


def test_criterion_1_gl2_class_density_identity():
    """Exhaustive GL2 census gives ratio_Y = ratio_Y' = (p-3)/(p-1)^2, exactly."""
    t0 = time.perf_counter()
    expected_counts = {5: (480, 60), 7: (2016, 224)}
    for p in (5, 7, 11, 13):
        census = enumerate_gl2_classes(p)
        target = Fraction(p - 3, (p - 1) ** 2)
        assert census.ratio_Y == target
        assert census.ratio_Y_prime == target
        assert census.count_Y == census.count_Y_prime
        if p in expected_counts:
            assert (census.gl2_order, census.count_Y) == expected_counts[p]
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"census took {elapsed:.2f}s, budget is 2s"
    report("criterion 1 (GL2 class-density identity, p in {5,7,11,13})",
           f"{elapsed:.2f}s")


def test_criterion_2_exact_density_formulas():
    assert exact_densities(5) == (Fraction(1, 10), Fraction(1, 8))
    assert exact_densities(7) == (Fraction(2, 21), Fraction(1, 9))
    for p, (pi, omega) in ((5, exact_densities(5)), (7, exact_densities(7))):
        assert pi.numerator == p - 3 or (p - 3) % pi.numerator == 0  # reduced form
        assert 0 < pi < omega < 1
    report("criterion 2 (exact density formulas at p=5, p=7)")


def test_criterion_3_chebotarev_empirical(ctx_default):
    """Pi and Omega frequencies to 2e6 sit within 3 standard errors."""
    t0 = time.perf_counter()
    workers = resolve_workers()
    pi, omega = empirical_density(
        ctx_default, PrimeRange(2, 2_000_000), workers=workers
    )
    elapsed = time.perf_counter() - t0
    assert pi.exact_density == Fraction(2, 21)
    assert omega.exact_density == Fraction(1, 9)
    assert pi.verdict == "Consistent", f"z = {pi.z_score:.2f}"
    assert omega.verdict == "Consistent", f"z = {omega.z_score:.2f}"
    assert abs(pi.z_score) <= 3.0
    assert abs(omega.z_score) <= 3.0
    assert elapsed < 600, f"sweep took {elapsed:.0f}s, budget is 10 minutes"
    report(
        "criterion 3 (Chebotarev check to 2e6 at p=7)",
        f"Pi z={pi.z_score:+.2f}, Omega z={omega.z_score:+.2f}, "
        f"{pi.sample_primes} primes, {elapsed:.0f}s, {workers} workers",
    )


def test_criterion_4_closed_form_sigma_pipeline(ctx_default):
    """Every Pi/Omega prime below 1e5: sigma(g) and sigma(f) match the closed forms."""
    p = ctx_default.p
    verdicts = np.array(_VERDICTS, object)
    n_pi = n_omega = 0
    for chunk in classify_chunks(ctx_default, PrimeRange(2, 100_000),
                                 workers=resolve_workers()):
        for verdict, sign in ((Verdict.PI, 1), (Verdict.OMEGA, -1)):
            rows = verdicts[chunk.codes] == verdict
            ells, t = chunk.ells[rows], chunk.trace_mod_p[rows]
            # Pi: (1 - X)(1 - ell X), trace 1 + ell; Omega: (1 + X)(1 + ell X), trace -(1 + ell)
            assert ((t - sign * (1 + ells)) % p == 0).all()
            s, d, sigma = sigma_ell(p, ells, -t, ells)
            if verdict is Verdict.PI:
                n_pi += len(ells)
                assert (s == 1).all() and (d == 1).all() and (sigma == 1).all()
            else:
                n_omega += len(ells)
                assert (sigma == 0).all()
            # the newly ramified factor 1 - X (Pi) or 1 + X (Omega)
            ramified = sigma_ell(p, ells, np.full_like(ells, -sign), np.zeros_like(ells))
            assert (ramified[2] == 0).all()
    assert n_pi > 500 and n_omega > 500  # the families are not accidentally empty
    report("criterion 4 (closed-form sigma values below 1e5)",
           f"{n_pi} Pi primes, {n_omega} Omega primes")


def _transfer_ctx(lambda_g: int, cache={}) -> FormContext:
    if lambda_g not in cache:
        cache[lambda_g] = FormContext(
            level=6, p=7, lambda_g=lambda_g, mu_zero=True, surjective_mod_p=False,
            backend=CoefficientTable([7], [1], level=6),
        )
    return cache[lambda_g]


def _transfer(ctx: FormContext, rows: list[tuple[int, int, int]]) -> int:
    """lambda_f from rows (ell, s_ell, d_ell(g)), with d_ell(f) = 0 at each."""
    s = np.array([row[1] for row in rows], np.int64)
    d = np.array([row[2] for row in rows], np.int64)
    return lambda_transfer(ctx, s * d, s * 0)


def test_criterion_5_transfer_arithmetic():
    """1000 randomized transfer evaluations: lambda_f = lambda_g + n, always."""
    rng = random.Random(20240801)
    pi_pool = [37, 79, 107, 149, 163, 191, 233, 277]
    omega_pool = [5, 47, 89, 151, 173, 257, 331, 353]
    checked = 0
    for _ in range(1000):
        lambda_g = rng.randrange(0, 11)
        n = rng.randrange(0, 6)
        r = rng.randrange(0, 6)
        ctx = _transfer_ctx(lambda_g)
        pi_ells = rng.sample(pi_pool, n)
        omega_ells = rng.sample(omega_pool, r)
        rows = [(e, 1, 1) for e in pi_ells] + [(e, rng.choice([1, 7]), 0) for e in omega_ells]
        rng.shuffle(rows)
        result = _transfer(ctx, rows)
        assert result == lambda_g + n
        if r and len(omega_pool) > r:
            # swapping one Omega prime for an unused one changes nothing
            unused = next(e for e in omega_pool if e not in omega_ells)
            swapped = [(unused, 1, 0) if row[0] == omega_ells[0] else row for row in rows]
            assert _transfer(ctx, swapped) == lambda_g + n
        if n == 0 and r == 0:
            assert result == lambda_g  # identity case
        checked += 1
    assert checked == 1000
    report("criterion 5 (transfer arithmetic, 1000 randomized cases)")


# --- criterion 6: Carayol, by intent-based synthesis ------------------------


def _hasse_representative(t: int, ell: int, p: int) -> int:
    """Some a with a = t mod p and |a| <= 2*sqrt(ell) (needs ell > p^2/16)."""
    bound = isqrt(4 * ell)
    a = t % p
    while a > bound:
        a -= p
    assert abs(a) <= bound
    return a


def _synthesize_scenario(rng, p, residue_pools):
    """Build a proposed level whose per-prime verdicts are known by construction."""
    base_special = rng.choice([None, "minus", "plus"])
    base_primes = rng.sample([q for q in (2, 3, 11, 13, 17, 19, 23) if q != p], 2)
    level = base_primes[0] * base_primes[1]
    special = None
    if base_special:
        special = rng.choice(residue_pools[base_special])
        level *= special

    coeffs = {p: 1}
    intents = []  # (ell, alpha, expected_cases, expected_status)
    n_extra = rng.randrange(1, 4)
    used = set(base_primes + ([special] if special else []))
    choices = ["case1", "violation1", "case2a", "violation2a", "case3a",
               "case3b", "ambiguous", "unknown", "violation_alpha"]
    if base_special == "minus":
        choices.append("case2b")
    if base_special == "plus":
        choices.append("case3b_base")
    for _ in range(n_extra):
        intent = rng.choice(choices)
        if intent == "case2b":
            intents.append((special, 1, ("2b",), "admissible"))
            choices.remove("case2b")
            continue
        if intent == "case3b_base":
            intents.append((special, 1, ("3b",), "admissible"))
            choices.remove("case3b_base")
            continue
        pool_name = {
            "case2a": "minus", "violation2a": "minus",
            "case3a": "plus", "case3b": "plus", "ambiguous": "plus",
        }.get(intent, "generic")
        ell = rng.choice([q for q in residue_pools[pool_name] if q not in used])
        used.add(ell)
        if intent == "case1":
            sign = rng.choice([1, -1])
            coeffs[ell] = _hasse_representative(sign * (1 + ell), ell, p)
            intents.append((ell, 1, ("1",), "admissible"))
        elif intent == "violation1":
            t = rng.choice([t for t in range(p)
                            if t not in ((1 + ell) % p, (-(1 + ell)) % p)])
            coeffs[ell] = _hasse_representative(t, ell, p)
            intents.append((ell, 1, (), "violation"))
        elif intent == "case2a":
            coeffs[ell] = 0
            intents.append((ell, 2, ("2a",), "admissible"))
        elif intent == "violation2a":
            t = rng.randrange(1, p)
            coeffs[ell] = _hasse_representative(t, ell, p)
            intents.append((ell, 2, (), "violation"))
        elif intent == "case3a":
            coeffs[ell] = rng.randrange(-3, 4)
            intents.append((ell, 2, ("3a",), "admissible"))
        elif intent == "case3b":
            t = rng.choice([t for t in range(p) if t not in (2, p - 2)])
            coeffs[ell] = _hasse_representative(t, ell, p)
            intents.append((ell, 1, ("3b",), "admissible"))
        elif intent == "ambiguous":
            # ell = 1 mod p with trace +-2: both case 1 and case 3b hold
            coeffs[ell] = _hasse_representative(rng.choice([2, p - 2]), ell, p)
            intents.append((ell, 1, ("1", "3b"), "admissible"))
        elif intent == "unknown":
            intents.append((ell, 1, None, "unknown"))
        else:  # violation_alpha: alpha = 2 away from the +-1 residue classes
            coeffs[ell] = rng.randrange(-3, 4)
            intents.append((ell, 2, (), "violation"))

    proposed = level
    for ell, alpha, _, _ in intents:
        for _ in range(alpha):
            proposed *= ell
    return level, coeffs, intents, proposed


def test_criterion_6_carayol_consistency(ctx_default):
    # part 1: every prime placed in a level set passes case (1), in the first 8
    # sets of 2 Pi and 1 Omega prime below 700, in lexicographic order
    rows = {Verdict.PI: [], Verdict.OMEGA: []}  # (ell, a_ell mod p) pairs
    for chunk in classify_chunks(ctx_default, PrimeRange(2, 700)):
        verdicts = chunk.verdicts()
        for verdict, family in rows.items():
            picked = verdicts == verdict
            family += zip(chunk.ells[picked].tolist(), chunk.trace_mod_p[picked].tolist())
    choices = product(combinations(rows[Verdict.PI], 2), combinations(rows[Verdict.OMEGA], 1))
    level_sets = [build_level_set(ctx_default, tuple(zip(*pi)), tuple(zip(*omega)))
                  for pi, omega in islice(choices, 8)]
    assert len(level_sets) == 8
    for level_set in level_sets:
        check = carayol_check(ctx_default, level_set.N_f)
        assert check.verdict == "admissible"
        for prime in check.primes:
            assert prime.alpha == 1
            assert "1" in prime.satisfied_cases

    # part 2: 1000 synthesized scenarios with outcomes known by construction
    rng = random.Random(614)
    pools_by_p = {}
    for p in (5, 7, 11, 13):
        primes = list(sieve_primes(PrimeRange(p * p, 4000)))
        pools_by_p[p] = {
            "minus": [q for q in primes if q % p == p - 1],
            "plus": [q for q in primes if q % p == 1],
            "generic": [q for q in primes if q % p not in (0, 1, p - 1)],
        }
    scenarios = 0
    while scenarios < 1000:
        p = rng.choice([5, 7, 11, 13])
        level, coeffs, intents, proposed = _synthesize_scenario(rng, p, pools_by_p[p])
        ctx = FormContext(
            level=level, p=p, lambda_g=0, mu_zero=True, surjective_mod_p=False,
            backend=CoefficientTable(list(coeffs), list(coeffs.values()), level=level),
        )
        result = carayol_check(ctx, proposed)
        by_ell = {pr.ell: pr for pr in result.primes}
        expected_statuses = []
        for ell, alpha, cases, status in intents:
            prime_report = by_ell[ell]
            assert prime_report.alpha == alpha
            assert prime_report.status == status, (p, ell, intents)
            if cases is not None:
                assert prime_report.satisfied_cases == cases, (p, ell, intents)
                assert prime_report.ambiguous == (len(cases) > 1)
            expected_statuses.append(status)
        if "violation" in expected_statuses:
            assert result.verdict == "inadmissible"
        elif "unknown" in expected_statuses:
            assert result.verdict == "unknown"
        else:
            assert result.verdict == "admissible"
        scenarios += 1
    report("criterion 6 (Carayol: planner consistency + 1000 synthesized levels)")


def test_criterion_7_s_ell_oracle():
    def brute(p, ell):
        best = 0
        for m in range(25):
            if pow(ell, p - 1, p ** (m + 1)) == 1:
                best = m
        return p**best

    # named regression: 7^4 = 2401 = 1 mod 25 but 2401 = 26 mod 125
    assert s_ells(5, np.array([7])).tolist() == [5]

    checked = 0
    for p in (5, 7, 11):
        ells = [ell for ell in sieve_primes(PrimeRange(2, 10_000)) if ell != p]
        for ell, s in zip(ells, s_ells(p, np.array(ells)).tolist()):
            assert s == brute(p, ell), (p, ell)
            checked += 1
    report("criterion 7 (s_ell against brute-force scan)", f"{checked} pairs")


def test_criterion_8_point_count_cross_validation():
    t0 = time.perf_counter()
    curves = [CurveModel(**data) for data in (CURVE_11A1, CURVE_37A1, CURVE_389A1)]
    checked = 0
    for curve in curves:
        for ell in sieve_primes(PrimeRange(5, 10_000)):
            if curve.conductor % ell == 0:
                continue
            naive = count_points_naive(curve, ell, limit=ell)  # past the dispatch switchover
            bsgs = count_points_bsgs(curve, ell)
            assert naive == bsgs, (curve.conductor, ell, naive, bsgs)
            a = ell + 1 - naive
            assert a * a <= 4 * ell
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"cross-validation took {elapsed:.1f}s, budget is 30s"
    report("criterion 8 (naive vs BSGS on three curves)",
           f"{checked} counts, {elapsed:.1f}s")


def test_criterion_9_bk_rank_bounds():
    assert bk_rank_bounds(0) == {"exact": 0}
    assert bk_rank_bounds(1) == {"exact": 1}
    assert bk_rank_bounds(4) == {"candidates": [0, 2, 4]}
    assert bk_rank_bounds(5) == {"candidates": [1, 3, 5]}
    report("criterion 9 (Bloch-Kato rank bounds)")
