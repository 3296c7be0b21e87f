import concurrent.futures
import functools
import io
import json
import multiprocessing
import os
import pickle
import random
import re
import time
from collections import Counter
from itertools import islice
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_forge import (
    CoefficientTable,
    CurveModel,
    FormContext,
    FrobeniusClass,
    Verdict,
    arith,
    classify_prime,
    classify_range,
    cli,
    curves,
    plan_target_lambda,
    residual,
    screen_p,
)
from lambda_forge.arith import PrimeRange, sieve_primes
from lambda_forge.curves import (
    NAIVE_COUNT_LIMIT,
    _bsgs_counts,
    _listed,
    _short_model,
    count_points_naive,
)
from lambda_forge.errors import CoverageError, PointCountError
from lambda_forge.forms import _column, a_ells
from lambda_forge.residual import (
    _INT64_P_LIMIT,
    classify_chunk,
    classify_chunks,
    resolve_workers,
    tee_to_csv,
)

from conftest import short_curve

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def _frobenius_class(ell: int, a: int, p: int) -> FrobeniusClass:
    """Reference: the class at an unramified prime ell, one congruence test at a time."""
    t = a % p
    d = ell % p

    reasons = ["coprime-to-Ngp=pass"]
    res_ok = d not in (1, p - 1)
    if res_ok:
        reasons.append("mod-p-class=pass")
    else:
        reasons.append(f"mod-p-class=fail(ell={'+1' if d == 1 else '-1'} mod p)")

    pi_trace = t == (1 + ell) % p
    omega_trace = t == (-(1 + ell)) % p
    if pi_trace:
        reasons.append("trace=pi")
    elif omega_trace:
        reasons.append("trace=omega")
    else:
        reasons.append("trace=neither")

    verdict = Verdict.NEITHER
    if res_ok and pi_trace:
        if pow(ell, p - 1, p * p) != 1:
            reasons.append("wieferich=pass")
            verdict = Verdict.PI
        else:
            reasons.append("wieferich=fail(ell^(p-1)=1 mod p^2)")
    else:
        reasons.append("wieferich=n/a")
        if res_ok and omega_trace:
            verdict = Verdict.OMEGA
    return FrobeniusClass(ell, t, d, verdict, tuple(reasons))


def _skipped(ell: int) -> FrobeniusClass:
    return FrobeniusClass(ell, None, None, Verdict.SKIPPED, ("divides-Ngp",))


def classify_mapping(ells, coefficients, p):
    """classify_chunk on ascending ells, the classified ones given as a map ell -> a_ell."""
    exposed = [i for i, ell in enumerate(ells) if ell in coefficients]
    return classify_chunk(ells, exposed, _column([coefficients[ells[i]] for i in exposed]), p)


# The largest prime whose chunk columns are int64, the least past it, and a
# prime far past it; every other p of the parity property is small.
P_INT64, P_OBJECT, P_HUGE = 55103, 55109, 2**61 - 1


@st.composite
def mixed_chunks(draw):
    """(ells, coefficients, p): ascending ells, some skipped, rich in the boundary cases.

    Each ell is drawn as any integer, or as +1 or -1 mod p, or as a Wieferich
    type ell (ell^(p-1) = 1 mod p^2, the p-th power of some y mod p^2).  Its
    a_ell is drawn with a Pi trace, an Omega trace or any trace, and may be
    negative.  With ``wide`` the ells run past 2^62, so the columns are
    dtype=object at any p.
    """
    p = draw(st.sampled_from([5, 7, 11, 13, P_INT64, P_OBJECT, P_HUGE]))
    top = 2**70 if draw(st.booleans()) else 10**9
    rows = {}
    for _ in range(draw(st.integers(1, 30))):
        k = draw(st.integers(0, top // (p * p) + 1))
        kind = draw(st.sampled_from(["any", "+1", "-1", "wieferich"]))
        if kind == "any":
            ell = draw(st.integers(2, top))
        elif kind == "wieferich":
            ell = pow(draw(st.integers(2, min(p - 2, 10**6))), p, p * p) + k * p * p
        else:
            ell = (1 if kind == "+1" else p - 1) + k * p
        trace = draw(st.sampled_from(["pi", "omega", "any"]))
        base = {"pi": (1 + ell) % p, "omega": -(1 + ell) % p, "any": draw(st.integers(0, p - 1))}
        a = base[trace] + p * draw(st.integers(-3, 3))
        rows[ell] = None if draw(st.integers(0, 9)) == 0 else a
    ells = sorted(rows)
    return ells, {ell: rows[ell] for ell in ells if rows[ell] is not None}, p


class TestClassifyChunk:
    @settings(max_examples=200, deadline=None)
    @given(mixed_chunks())
    @example(([2], {2: P_HUGE - 3}, P_HUGE))  # an Omega row whose roots overflow int64
    def test_equals_scalar_reference(self, chunk):
        ells, coefficients, p = chunk
        expected = [
            _frobenius_class(ell, coefficients[ell], p) if ell in coefficients else _skipped(ell)
            for ell in ells
        ]
        assert list(classify_mapping(ells, coefficients, p).classes()) == expected

    @settings(max_examples=100, deadline=None)
    @given(mixed_chunks())
    def test_only_the_mod_p_class_test_fixes_a_verdict_before_a_ell(self, chunk):
        # a row that fails it is Neither at the Pi and Omega traces (at any other trace
        # every row is Neither), and a row that passes it is Omega at its Omega trace
        ells, _, p = chunk
        passes = (residual.mod_p_class(np.array(ells, dtype=object) % p, p) == 0).tolist()
        for trace in (1, -1):
            coefficients = {ell: trace * (1 + ell) % p for ell in ells}
            verdicts = [fc.verdict for fc in classify_mapping(ells, coefficients, p).classes()]
            assert all(v is Verdict.NEITHER for v, ok in zip(verdicts, passes) if not ok)
        assert [v is Verdict.OMEGA for v in verdicts] == passes

    def test_columns_switch_to_objects_past_the_bound(self):
        assert _INT64_P_LIMIT**4 < 2**63 <= (_INT64_P_LIMIT + 1) ** 4
        assert classify_mapping([2, 3], {2: 1, 3: 0}, P_INT64).ells.dtype == "int64"
        assert classify_mapping([2, 3], {2: 1, 3: 0}, P_OBJECT).ells.dtype == object
        assert classify_mapping([2, 2**62 + 135], {2: 1}, 7).ells.dtype == object

    def test_wieferich_type_ells(self):
        # 79 = 2^7 mod 49 and 97 = 6^7 mod 49, so ell^6 = 1 mod 49 for both; 79 = 2 mod 7
        # passes the class test and fails only the Wieferich one, 97 = -1 mod 7 fails first
        coefficients = {79: 80 % 7, 97: 98 % 7 - 7}
        classes = list(classify_mapping([79, 97], coefficients, 7).classes())
        assert classes == [_frobenius_class(ell, a, 7) for ell, a in coefficients.items()]
        assert [fc.reasons[1:] for fc in classes] == [
            ("mod-p-class=pass", "trace=pi", "wieferich=fail(ell^(p-1)=1 mod p^2)"),
            ("mod-p-class=fail(ell=-1 mod p)", "trace=pi", "wieferich=n/a"),
        ]

    @pytest.mark.parametrize("ells, pi, t, message", [
        ([2, 3, 13], [False, True, True], [3, 0, 0],
         "claimed eigenvalue 1 is not a root of X^2-0X+3 mod 5"),
        ([2, 11, 13], [True, True, False], [3, 2, 0], "repeated eigenvalue at ell=11, p=5"),
    ], ids=["not-a-root", "repeated"])
    def test_recheck_raises_at_the_first_bad_row(self, ells, pi, t, message):
        ell = np.array(ells)
        columns = [np.array(pi), np.zeros(3, bool), ell, np.array(t), ell % 5]
        with pytest.raises(AssertionError, match=re.escape(message)):
            residual._check_split_factorizations(*columns, 5)

    @settings(max_examples=200, deadline=None)
    @given(mixed_chunks())
    def test_json_rows_are_the_dumped_classes(self, chunk):
        # the reference: each row as a FrobeniusClass dict, spelled out here, dumped
        # in a report's list
        classified = classify_mapping(*chunk)
        rows = [
            dict(ell=fc.ell, trace_mod_p=fc.trace_mod_p, det_mod_p=fc.det_mod_p,
                 verdict=fc.verdict.value, reasons=list(fc.reasons))
            for fc in classified.classes()
        ]
        reference = json.dumps({"rows": rows}, sort_keys=True, indent=2)
        assert '{\n  "rows": [\n    ' + classified.json_rows() + "\n  ]\n}" == reference

    def test_counts_and_csv_rows(self):
        chunk = classify_mapping([2, 3, 5, 13, 17], {2: 3, 3: 1, 13: 4, 17: 0}, 5)
        assert chunk.counts() == {Verdict.PI: 2, Verdict.OMEGA: 1, Verdict.NEITHER: 1,
                                  Verdict.SKIPPED: 1}
        assert chunk.verdicts().tolist() == [Verdict.PI, Verdict.OMEGA, Verdict.SKIPPED,
                                             Verdict.PI, Verdict.NEITHER]
        assert chunk.csv_rows() == (
            "2,3,PiMember\n3,1,OmegaMember\n5,,Skipped\n13,4,PiMember\n17,0,Neither\n"
        )


def single_prime_ctx(p: int, ell: int, a: int, level: int, a_p: int) -> FormContext:
    rows = dict(sorted({ell: a, p: a_p}.items()))
    table = CoefficientTable(list(rows), list(rows.values()), level=level)
    return FormContext(level=level, p=p, lambda_g=0, mu_zero=True,
                       surjective_mod_p=False, backend=table)


class TestClassifyPrime:
    def test_pi_member(self, ctx_p5):
        # a_2 = -2 = 3 mod 5 = 1 + 2; 2 not +-1 mod 5; 2^4 = 16 != 1 mod 25
        fc = classify_prime(ctx_p5, 2)
        assert fc.verdict is Verdict.PI
        assert fc.trace_mod_p == 3
        assert fc.det_mod_p == 2
        assert "wieferich=pass" in fc.reasons

    def test_omega_member(self):
        # p = 7, a_3 = 3 = -(1 + 3) mod 7; 3 not +-1 mod 7
        ctx = single_prime_ctx(p=7, ell=3, a=3, level=10, a_p=1)
        fc = classify_prime(ctx, 3)
        assert fc.verdict is Verdict.OMEGA
        assert fc.trace_mod_p == 3

    def test_excluded_residue_class(self):
        # ell = 11 = 1 mod 5: excluded whatever the trace is
        ctx = single_prime_ctx(p=5, ell=11, a=4, level=23, a_p=1)
        fc = classify_prime(ctx, 11)
        assert fc.verdict is Verdict.NEITHER
        assert any(r.startswith("mod-p-class=fail") for r in fc.reasons)

    def test_wieferich_type_failure(self, ctx_p5):
        # a_7 = -2 = 3 = 1 + 7 mod 5, but 7^4 = 2401 = 1 mod 25
        fc = classify_prime(ctx_p5, 7)
        assert fc.verdict is Verdict.NEITHER
        assert fc.trace_mod_p == 3
        assert any(r.startswith("wieferich=fail") for r in fc.reasons)

    def test_ramified_prime_rejected(self, ctx_p5):
        with pytest.raises(ValueError):
            classify_prime(ctx_p5, 11)
        with pytest.raises(ValueError):
            classify_prime(ctx_p5, 5)

    def test_det_is_ell_mod_p(self, ctx_default):
        for ell in (2, 3, 5, 13, 37):
            assert classify_prime(ctx_default, ell).det_mod_p == ell % 7

    def test_purity(self, ctx_default):
        assert classify_prime(ctx_default, 37) == classify_prime(ctx_default, 37)

    def test_no_omega_wieferich_condition(self):
        # an Omega prime is admitted even when ell^(p-1) = 1 mod p^2:
        # the mod-p^2 test only gates the Pi family
        p = 5
        for ell in PrimeRange(2, 2000):
            if pow(ell, p - 1, p * p) == 1 and (-(1 + ell)) % p not in (0, 1, p - 1):
                a = (-(1 + ell)) % p
                while a * a > 4 * ell:
                    a -= p
                ctx = single_prime_ctx(p=p, ell=ell, a=a, level=6, a_p=2)
                assert classify_prime(ctx, ell).verdict is Verdict.OMEGA
                return
        pytest.fail("no Wieferich-type prime found in range")


class TestMutualExclusivity:
    def test_randomized(self):
        rng = random.Random(2024)
        primes = [ell for ell in PrimeRange(2, 500)]
        for _ in range(400):
            p = rng.choice([5, 7, 11, 13])
            ell = rng.choice(primes)
            if ell == p or 6 % ell == 0:
                continue
            bound = isqrt(4 * ell)
            a = rng.randrange(-bound, bound + 1)
            ctx = single_prime_ctx(p=p, ell=ell, a=a, level=6, a_p=1 if p != 5 else 2)
            fc = classify_prime(ctx, ell)
            pi_trace = fc.trace_mod_p == (1 + ell) % p
            omega_trace = fc.trace_mod_p == (-(1 + ell)) % p
            if fc.verdict is Verdict.PI:
                assert not omega_trace
            if fc.verdict is Verdict.OMEGA:
                assert not pi_trace

    def test_char_poly_splits_on_positive_verdicts(self, ctx_default):
        for fc in classify_range(ctx_default, PrimeRange(2, 3000)):
            if fc.verdict in (Verdict.PI, Verdict.OMEGA):
                p = 7
                t, d = fc.trace_mod_p, fc.det_mod_p
                roots = [x for x in range(p) if (x * x - t * x + d) % p == 0]
                assert len(roots) == 2  # distinct eigenvalues
                if fc.verdict is Verdict.PI:
                    assert sorted(roots) == sorted([1, fc.ell % p])
                else:
                    assert sorted(roots) == sorted([p - 1, (-fc.ell) % p])


class TestPointCountOracle:
    """Pi and Omega traces against point counts, independent of the classifier.

    a_ell = 1 + ell mod p exactly when p divides #E(F_ell) = ell + 1 - a_ell,
    and a_ell = -(1 + ell) mod p exactly when p divides the order of the
    quadratic twist, ell + 1 + a_ell, here counted on the twist itself.
    """

    @staticmethod
    def counts(curve, ell):
        a, b = _short_model(*curve.c_invariants(), ell)
        c = next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) == ell - 1)
        twist = short_curve(a * c * c % ell, b * c**3 % ell)
        return count_points_naive(curve, ell, limit=ell), count_points_naive(twist, ell, limit=ell)

    def test_traces_match_group_orders(self, ctx_default):
        p = ctx_default.p
        verdicts = Counter()
        for fc in classify_range(ctx_default, PrimeRange(5, 12000)):
            if fc.verdict is Verdict.SKIPPED:
                continue
            n, n_twist = self.counts(ctx_default.backend, fc.ell)
            assert n + n_twist == 2 * fc.ell + 2
            assert (fc.trace_mod_p == (1 + fc.ell) % p) == (n % p == 0), fc
            assert (fc.trace_mod_p == -(1 + fc.ell) % p) == (n_twist % p == 0), fc
            if fc.verdict is Verdict.PI:
                assert n % p == 0
            if fc.verdict is Verdict.OMEGA:
                assert n_twist % p == 0
            verdicts[fc.verdict] += 1
        assert verdicts[Verdict.PI] > 20 and verdicts[Verdict.OMEGA] > 20


@pytest.fixture(scope="module")
def serial_to_20000(ctx_default):
    """The classification of 2..20000 from one batch of coefficients, without classify_range."""
    ells = list(sieve_primes(PrimeRange(2, 20000)))
    exposed = [ell for ell in ells if not ctx_default.divides_ngp(ell)]
    coefficients = dict(zip(exposed, a_ells(ctx_default, exposed)))
    return [
        _frobenius_class(ell, coefficients[ell], ctx_default.p) if ell in coefficients
        else _skipped(ell)
        for ell in ells
    ]


class TestClassifyRange:
    def test_deterministic(self, ctx_default):
        first = list(classify_range(ctx_default, PrimeRange(2, 500)))
        second = list(classify_range(ctx_default, PrimeRange(2, 500)))
        assert first == second

    def test_all_skipped_window(self, ctx_default):
        out = list(classify_range(ctx_default, PrimeRange(7, 11)))
        assert [fc.ell for fc in out] == [7, 11]
        assert all(fc.verdict is Verdict.SKIPPED for fc in out)
        assert all(fc.trace_mod_p is None for fc in out)

    @settings(max_examples=25, deadline=None)
    @given(
        bounds=st.lists(st.integers(2, 20000), min_size=2, max_size=2, unique=True).map(sorted),
        workers=st.sampled_from([1, 2]),
    )
    def test_parallel_equals_serial(self, ctx_default, serial_to_20000, bounds, workers):
        lo, hi = bounds
        expected = [fc for fc in serial_to_20000 if lo <= fc.ell <= hi]
        assert list(classify_range(ctx_default, PrimeRange(lo, hi), workers=workers)) == expected

    def test_counts_match_independent_rerun(self, ctx_default):
        stream = list(classify_range(ctx_default, PrimeRange(2, 5000)))
        pi = sum(1 for fc in stream if fc.verdict is Verdict.PI)
        omega = sum(1 for fc in stream if fc.verdict is Verdict.OMEGA)
        pi2 = omega2 = 0
        for ell in PrimeRange(2, 5000):
            if 77 % ell == 0:
                continue
            fc = classify_prime(ctx_default, ell)
            pi2 += fc.verdict is Verdict.PI
            omega2 += fc.verdict is Verdict.OMEGA
        assert (pi, omega) == (pi2, omega2)

    def test_csv_export_shape(self, ctx_default):
        buf = io.StringIO()
        list(tee_to_csv(classify_chunks(ctx_default, PrimeRange(2, 50)), buf))
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "ell,trace_mod_p,verdict"
        assert lines[1] == "2,5,Neither"
        assert "7,,Skipped" in lines


def fetch_nothing(ctx: FormContext, ells: np.ndarray) -> np.ndarray:
    """A sweep's ``rows`` that fetches no coefficient, so that only the primes move."""
    return np.zeros(len(ells), dtype=bool)


@pytest.fixture
def sieved(monkeypatch) -> list[int]:
    """The least value of each segment of primes the sieve yields during the test, in order."""
    seen = []
    sieve = arith._sieve_segments

    def spy(prime_range):
        for segment in sieve(prime_range):
            seen.append(int(segment[0]))
            yield segment

    monkeypatch.setattr(arith, "_sieve_segments", spy)
    return seen


def stream_until(error, first: int, ctx: FormContext, to: int, workers: int):
    """The message of the error a sweep raises at ``first``, and the rows before it."""
    seen = []
    with pytest.raises(error, match=rf"\b{first}\b") as info:
        for fc in classify_range(ctx, PrimeRange(2, to), workers=workers):
            seen.append(fc)
    return str(info.value), seen


@pytest.mark.usefixtures("two_cores")
class TestSweepPipeline:
    def test_early_stop_in_parallel(self, ctx_default, pools_started):
        t0 = time.perf_counter()
        stream = classify_range(ctx_default, PrimeRange(2, 10**6), workers=2)
        primes = sieve_primes(PrimeRange(2, 10**6))
        # the first chunk (64 primes) is fetched in-process; the pool starts past it
        assert [fc.ell for fc in islice(stream, 64)] == list(islice(primes, 64))
        assert pools_started == []
        assert [fc.ell for fc in islice(stream, 136)] == list(islice(primes, 136))
        assert pools_started == [2]
        stream.close()
        assert time.perf_counter() - t0 < 5.0  # the whole sweep takes about 25 s
        assert multiprocessing.active_children() == []

    def test_each_segment_is_sieved_once(self, ctx_default, pools_started, sieved):
        stream = residual.coefficient_chunks(ctx_default, PrimeRange(2, 10**8), workers=2)
        assert len(next(stream).ells) == residual._FIRST_CHUNK
        stream.close()
        # the lone 2, then one segment of odds: the rest of the range is never sieved
        assert sieved == [2, 3]
        sieved.clear()
        # plan at its usual targets stops inside the first chunk too
        assert plan_target_lambda(ctx_default, 2, 0, 10**8, workers=2).pi_primes == (37, 73)
        assert sieved == [2, 3] and pools_started == []
        # a whole sweep sieves each segment once, at any worker count
        sieved.clear()
        primes = list(PrimeRange(2, 10**6))  # the range's segments, each sieved once here
        segments = sieved.copy()
        assert len(segments) == 5
        for workers, pools in ((1, []), (2, [2])):
            sieved.clear()
            chunks = residual.coefficient_chunks(ctx_default, PrimeRange(2, 10**6),
                                                 workers=workers, rows=fetch_nothing)
            assert [ell for chunk in chunks for ell in chunk.ells.tolist()] == primes
            assert sieved == segments and pools_started == pools
        # a range of fewer primes than the first chunk is one chunk
        chunks = residual.coefficient_chunks(ctx_default, PrimeRange(2, 100), workers=2)
        assert [len(chunk.ells) for chunk in chunks] == [25]

    @pytest.mark.parametrize("gaps", [
        (3001,), (1999, 3001), pytest.param(None, id="ambiguous-bsgs"), (101,),
    ])
    def test_error_order(self, gaps, monkeypatch, pools_started):
        """The stream stops at the first failing prime, whatever the worker count.

        ``gaps`` are primes missing from a coefficient table (a CoverageError;
        at 101 it falls in the first chunk); None is 11a1 counted with one BSGS
        point a prime, which leaves the group order ambiguous at 3041 first (a
        PointCountError, raised in a pool worker at 2 workers).
        """
        to = 4000
        if gaps is None:
            monkeypatch.setattr(curves, "BSGS_MAX_POINTS", 1)
            backend = CurveModel(0, -1, 1, -10, -20, conductor=11)
            first, error, to = 3041, PointCountError, 20000
        else:
            rng = random.Random(7)
            coeffs = {}
            for ell in sieve_primes(PrimeRange(2, 4000)):
                if ell not in gaps:
                    bound = isqrt(4 * ell)
                    coeffs[ell] = 3 if ell == 7 else rng.randint(-bound, bound)
            backend = CoefficientTable(list(coeffs), list(coeffs.values()), level=11)
            first, error = gaps[0], CoverageError
        ctx = FormContext(level=11, p=7, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                          backend=backend)

        serial = stream_until(error, first, ctx, to, 1)
        assert [fc.ell for fc in serial[1]] == list(sieve_primes(PrimeRange(2, first - 1)))
        assert stream_until(error, first, ctx, to, 2) == serial
        assert pools_started == ([2] if gaps is None else [])  # a table never starts one
        assert multiprocessing.active_children() == []

    def test_curve_error_in_the_first_chunk_starts_no_pool(self, monkeypatch, pools_started):
        # counted by BSGS with one point above 229, where summation stops, 11a1
        # is ambiguous at 239 first
        monkeypatch.setattr(curves, "NAIVE_COUNT_LIMIT", 229)
        monkeypatch.setattr(curves, "BSGS_MAX_POINTS", 1)
        ctx = FormContext(level=11, p=7, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                          backend=CurveModel(0, -1, 1, -10, -20, conductor=11))
        serial = stream_until(PointCountError, 239, ctx, 20000, 1)
        assert [fc.ell for fc in serial[1]] == list(sieve_primes(PrimeRange(2, 238)))
        assert stream_until(PointCountError, 239, ctx, 20000, 2) == serial
        assert pools_started == []

    @pytest.mark.parametrize("past_first, workers, pools", [
        (2 * 1024 - 1, 2, []),  # one prime short of two full chunks: the sweep stays here
        (2 * 1024, 2, [2]),
        (2 * 1024 - 1, 8, []),
        (3 * 1024, 8, [3]),  # 8 workers asked for, a worker per full chunk started
    ])
    def test_a_pool_gets_a_worker_per_full_chunk(
        self, ctx_default, pools_started, monkeypatch, past_first, workers, pools
    ):
        assert residual._MIN_CHUNK == 1024
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        total = residual._FIRST_CHUNK + past_first
        last = next(islice(sieve_primes(PrimeRange(2, 10**5)), total - 1, None))
        prime_range = PrimeRange(2, last)
        pooled = list(classify_range(ctx_default, prime_range, workers=workers))
        assert pools_started == pools
        assert pooled == list(classify_range(ctx_default, prime_range, workers=1))

    def test_a_failing_chunk_is_cut_before_its_prime(self):
        # 1999 is missing from the table: the chunk holding it ends at 1997, then the error
        coeffs = {ell: 1 for ell in sieve_primes(PrimeRange(2, 4000)) if ell != 1999}
        ctx = FormContext(level=11, p=7, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                          backend=CoefficientTable(list(coeffs), list(coeffs.values()), level=11))
        rows = []
        with pytest.raises(CoverageError, match=r"\b1999\b"):
            for chunk in classify_chunks(ctx, PrimeRange(2, 4000)):
                rows += chunk.ells.tolist()
        assert rows == list(sieve_primes(PrimeRange(2, 1998)))


@st.composite
def gapped_tables(draw):
    """(ctx, rows, hi): a table with gaps and ramified rows, and a sweep bound.

    The table runs over the primes to a drawn top, each missing with a drawn
    probability (sometimes 0).  Rows at primes dividing the level hold any
    value, at times one past 2^63, which makes the a_ell column dtype=object.
    The sweep bound may lie past the top of the table.
    """
    level = draw(st.sampled_from([11, 11 * 13, 2 * 3 * 11, 37]))
    p = draw(st.sampled_from([q for q in (5, 7, 17) if level % q]))
    top = draw(st.integers(p, 3000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gap_rate = draw(st.sampled_from([0.0, 0.002, 0.02]))
    rows = {}
    for ell in sieve_primes(PrimeRange(2, top)):
        if level % ell == 0:
            rows[ell] = rng.choice([0, 2**63 + 5, -(10**30), rng.randint(-99, 99)])
        elif ell == p or rng.random() >= gap_rate:
            bound = isqrt(4 * ell)
            rows[ell] = rng.randint(-bound, bound)
            while ell == p and rows[ell] % p == 0:
                rows[ell] = rng.randint(-bound, bound)
    ctx = FormContext(level=level, p=p, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                      backend=CoefficientTable(list(rows), list(rows.values()), level=level))
    return ctx, rows, draw(st.integers(3, top + 200))


def entries(values):
    return [(type(v).__name__, str(v)) if isinstance(v, Exception) else v for v in values]


class TestColumnLookups:
    """A table answers from its columns what a dict of its rows answers."""

    @settings(max_examples=40, deadline=None)
    @given(table=gapped_tables())
    def test_columns_equal_a_dict_reference(self, table):
        ctx, rows, hi = table
        ells = list(sieve_primes(PrimeRange(2, hi))) + [2**64 + 13]
        reference = [rows[ell] if ell in rows else CoverageError(ell) for ell in ells]
        gap = next(i for i, a in enumerate(reference) if isinstance(a, Exception))
        column, error = ctx.coefficient_column(ells)
        assert entries([*column.tolist(), error]) == entries(reference[: gap + 1])
        assert error.ell == ells[gap]

        expected, error = [], None
        for ell in ells[:-1]:
            if ctx.divides_ngp(ell):
                expected.append(_skipped(ell))
            elif ell in rows:
                expected.append(_frobenius_class(ell, rows[ell], ctx.p))
            else:
                error = CoverageError(ell)
                break
        for workers in (1, 2):
            seen, raised = [], None
            try:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
                    for chunk in classify_chunks(ctx, PrimeRange(2, hi), workers=workers):
                        seen += chunk.classes()
            except CoverageError as exc:
                raised = exc
            assert seen == expected
            assert entries([raised]) == entries([error])
            assert getattr(raised, "ell", None) == getattr(error, "ell", None)


@pytest.mark.usefixtures("two_cores")
class TestPoolTraffic:
    """Pool workers only fetch coefficients; every class is built in the parent."""

    def test_parent_classifies_every_prime_once(self, ctx_default, monkeypatch):
        classified = Counter()
        chunk_classifier = residual.classify_chunk  # what the sweep calls per chunk

        def counting(ells, exposed, a_ells, p):
            classified.update(ells[exposed].tolist())
            return chunk_classifier(ells, exposed, a_ells, p)

        monkeypatch.setattr(residual, "classify_chunk", counting)
        # 2,262 primes: enough for a pool at 2 workers
        stream = list(classify_range(ctx_default, PrimeRange(2, 20000), workers=2))
        assert set(classified.values()) == {1}
        assert sorted(classified) == [fc.ell for fc in stream if fc.verdict is not Verdict.SKIPPED]
        assert len(classified) == sum(1 for _ in PrimeRange(2, 20000)) - 2  # 7 and 11 skipped

    def test_only_a_curve_is_swept_on_a_pool(self, ctx_default, pools_started):
        # a table's coefficients are one searchsorted gather a chunk: a pool would
        # only add its traffic
        ells = list(PrimeRange(2, 20000))
        table = CoefficientTable(ells, [1] * len(ells), level=11)
        ctx_table = FormContext(level=11, p=7, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                                backend=table)
        for ctx, pools in ((ctx_table, []), (ctx_default, [2])):
            pools_started.clear()
            pooled = list(classify_range(ctx, PrimeRange(2, 20000), workers=2))
            assert pools_started == pools
            assert pooled == list(classify_range(ctx, PrimeRange(2, 20000), workers=1))

    def test_worker_returns_a_few_bytes_a_prime(self, ctx_default, monkeypatch):
        # the worker's reply is the int64 column and error of coefficient_column, as they are
        chunk = np.fromiter(islice(sieve_primes(PrimeRange(10**6, 2 * 10**6)), residual._MAX_CHUNK),
                            np.int64)
        monkeypatch.setattr(residual, "_worker_ctx", ctx_default)
        column, error = returned = residual._coefficients_in_worker(chunk)
        assert (column.dtype, len(column), error) == (np.int64, len(chunk), None)
        assert len(pickle.dumps(returned)) < 8 * len(chunk) + 256


def reference_chunk_lengths(total: int, workers: int) -> tuple[list[int], list[int]]:
    """Oracle: the chunk lengths and pools of a curve sweep of ``total`` primes.

    This is how the sweep cut its chunks when it counted the whole range
    before its second chunk: a pool of one worker for every full
    ``_MIN_CHUNK`` primes past the first chunk, if that leaves two or more,
    and chunks that double from ``_FIRST_CHUNK`` up to ``_MAX_CHUNK``, each
    holding at most 1 / (2 * workers) of the primes left, but none below
    ``_MIN_CHUNK`` except the last.
    """
    workers = max(1, min(workers, (total - residual._FIRST_CHUNK) // residual._MIN_CHUNK))
    lengths = []
    size = residual._FIRST_CHUNK
    while total > 0:
        n = min(total, size)
        if workers > 1:
            n = min(n, max(residual._MIN_CHUNK, -(-total // (2 * workers))))
        lengths.append(n)
        total -= n
        size = min(2 * size, residual._MAX_CHUNK)
    return lengths, [workers] if workers > 1 else []


def swept_chunk_lengths(ctx, prime_range, workers) -> tuple[list[int], list[int]]:
    """The chunk lengths and pools of a sweep on 64 cores that fetches no coefficient.

    The pool is a stand-in that runs each chunk at once, in this process.
    """
    pools = []

    class SerialPool:
        def __init__(self, *, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, *, wait, cancel_futures):
            pass

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        mp.setattr(residual, "_worker_ctx", None)
        chunks = residual.coefficient_chunks(ctx, prime_range, workers=workers, rows=fetch_nothing)
        return [len(chunk.ells) for chunk in chunks], pools


@functools.cache
def primes_past_90() -> list[int]:
    return list(PrimeRange(90, 10**6))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 75000), st.integers(1, 64))
@example(0, 1)
@example(64, 2)
@example(65, 2)
@example(20000, 2)  # the guided cap cuts 3,992, 2,994, ... and stops at _MIN_CHUNK
def test_chunk_lengths(ctx_default, total, workers):
    # the first total primes past 90 (89 and 97 are prime), so that one holds none too
    prime_range = PrimeRange(90, primes_past_90()[total - 1] if total else 96)
    swept = swept_chunk_lengths(ctx_default, prime_range, workers)
    assert swept == reference_chunk_lengths(total, workers)
    lengths = swept[0]
    ramp = [min(residual._FIRST_CHUNK << i, residual._MAX_CHUNK) for i in range(len(lengths))]
    # the first chunk alone decides whether a sweep that stops early starts a pool
    assert lengths[:1] == ([min(total, residual._FIRST_CHUNK)] if total else [])
    # the guided cap cuts no chunk but the last below the ramp or _MIN_CHUNK
    assert all(min(r, residual._MIN_CHUNK) <= n <= r for n, r in zip(lengths[:-1], ramp))
    assert all(0 < n <= r for n, r in zip(lengths, ramp))
    if workers == 1:  # nothing to balance: every chunk but the last follows the ramp
        assert lengths[:-1] == ramp[:-1]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_chunk_lengths_to_the_sieve_cap(ctx_default, workers):
    # the look-ahead stays short of the range's end for most of the sweep
    swept = swept_chunk_lengths(ctx_default, PrimeRange(2, 10**8), workers)
    assert swept == reference_chunk_lengths(5_761_455, workers)  # the primes below 1e8


class TestResolveWorkers:
    @pytest.fixture(autouse=True)
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.delenv("LAMBDA_FORGE_THREADS", raising=False)

    def test_env_capped(self, monkeypatch):
        monkeypatch.setenv("LAMBDA_FORGE_THREADS", "10000")
        assert resolve_workers() == 3

    def test_env_below_cap(self, monkeypatch):
        monkeypatch.setenv("LAMBDA_FORGE_THREADS", "2")
        assert resolve_workers() == 2

    def test_workers_flag_wins_over_env(self, monkeypatch, capsys):
        monkeypatch.setenv("LAMBDA_FORGE_THREADS", "2")
        seen = []
        sweep = cli.classify_chunks

        def spy(ctx, prime_range, *, workers):
            seen.append(workers)
            return sweep(ctx, prime_range, workers=workers)

        monkeypatch.setattr(cli, "classify_chunks", spy)
        for flag in (["--workers", "1"], []):
            assert cli.main(["classify", "--config", str(DEFAULT_CFG),
                             "--from", "2", "--to", "50", *flag]) == cli.EXIT_OK
        assert seen == [1, 2]

    def test_fallback_is_affinity(self):
        assert resolve_workers() == 3


class TestScreenP:
    def test_mechanical_pass(self, curve_x3x1):
        report = screen_p(curve_x3x1, 5)  # a_5 = -3, conductor 496 coprime to 5
        assert report.eligible_mechanically
        assert "surjective_mod_p" in report.asserted_only
        assert "mu_zero" in report.asserted_only

    def test_supersingular_fails_ordinarity(self):
        curve = CurveModel(0, 0, 0, 0, 1, conductor=36)
        report = screen_p(curve, 5)
        assert not report.eligible_mechanically
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["ordinary-at-p"]

    def test_p_dividing_level_fails(self, curve_11a1):
        report = screen_p(curve_11a1, 11)
        assert not report.eligible_mechanically
        failing = [c.name for c in report.checks if not c.passed]
        assert "good-reduction-at-p" in failing

    def test_always_returns_report(self, curve_11a1):
        assert screen_p(curve_11a1, 4).checks  # not prime, still a report

    def test_undecided_primality_is_not_evaluated(self, curve_11a1):
        psi13 = 3_317_044_064_679_887_385_961_981  # passes every Miller-Rabin base to 41
        report = screen_p(curve_11a1, psi13)
        assert not report.eligible_mechanically
        assert [c.passed for c in report.checks] == [False, False, False]
        detail = report.checks[0].detail
        assert detail.startswith(f"not evaluated (primality of {psi13} is not decided")
        assert all(c.detail == detail for c in report.checks)

    def test_p_past_the_count_bound_is_not_evaluated(self, curve_11a1):
        start = time.perf_counter()
        report = screen_p(curve_11a1, 10**21 + 117)
        assert time.perf_counter() - start < 2
        assert [c.passed for c in report.checks] == [True, True, False]
        assert report.checks[-1].detail == (
            f"not evaluated (point counting is capped at ell <= 2^62, got {10**21 + 117})")

    def test_ambiguous_point_count_is_not_evaluated(self, curve_11a1, monkeypatch):
        # one point a prime leaves the group order at 3041 ambiguous, the least
        # such prime above the naive limit: a PointCountError
        *settled, entry = _listed(*_bsgs_counts(curve_11a1, list(PrimeRange(NAIVE_COUNT_LIMIT + 1, 3041)), 1))
        assert not any(isinstance(n, Exception) for n in settled)
        assert isinstance(entry, PointCountError)
        monkeypatch.setattr(curves, "BSGS_MAX_POINTS", 1)
        report = screen_p(curve_11a1, 3041)
        ordinary = report.checks[-1]
        assert (ordinary.name, ordinary.passed) == ("ordinary-at-p", False)
        assert ordinary.detail.startswith("not evaluated (group order ambiguous at ell=3041")
        assert [c.passed for c in report.checks[:2]] == [True, True]


def test_verdict_vocabulary_is_stable():
    assert {v.value for v in Verdict} == {"PiMember", "OmegaMember", "Neither", "Skipped"}
