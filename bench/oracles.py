"""Correctness checks that do not depend on recorded digests.

Everything here is written from the paper's definitions, not imported from
``lambda_forge``, so a bug in the package cannot hide itself: a plain sieve,
the Pi/Omega congruences on (a_ell mod p, ell mod p), and the local
invariants s_ell and d_ell.  Each ``check_*`` function takes the bytes an
invocation wrote and returns ``None`` when they pass, or a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction


def primes_upto(n: int) -> list[int]:
    """All primes <= n (Eratosthenes on a bytearray)."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for q in range(2, int(n**0.5) + 1):
        if mark[q]:
            mark[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [i for i in range(n + 1) if mark[i]]


def verdict(ell: int, trace: int, p: int) -> str:
    """Pi/Omega class of Frobenius at an unramified ell from (trace, det) mod p."""
    det = ell % p
    if det in (1, p - 1):
        return "Neither"
    if trace == (1 + ell) % p:
        return "PiMember" if pow(ell, p - 1, p * p) != 1 else "Neither"
    if trace == (-1 - ell) % p:
        return "OmegaMember"
    return "Neither"


def s_ell(ell: int, p: int) -> int:
    """p**m for the largest m with ell**(p-1) = 1 mod p**(m+1)."""
    m = 0
    while pow(ell, p - 1, p ** (m + 2)) == 1:
        m += 1
    return p**m


def d_ell(ell: int, trace: int, p: int) -> int:
    """Multiplicity of 1/ell as a root of 1 - trace*X + ell*X^2 mod p."""
    x0 = pow(ell, -1, p)
    c1, c2 = -trace % p, ell % p
    if (1 + c1 * x0 + c2 * x0 * x0) % p:
        return 0
    return 2 if (2 * c2 * x0 + c1) % p == 0 else 1


def table_outputs(coeffs: dict[int, int], level: int, p: int, hi: int) -> tuple[bytes, bytes]:
    """Expected ``classify --format csv`` and ``sigma --format csv`` bytes for a table."""
    classify = ["ell,trace_mod_p,verdict"]
    sigma = ["ell,s,d,sigma"]
    for ell in primes_upto(hi):
        if level % ell == 0 or ell == p:
            classify.append(f"{ell},,Skipped")
            continue
        t = coeffs[ell] % p
        classify.append(f"{ell},{t},{verdict(ell, t, p)}")
        s, d = s_ell(ell, p), d_ell(ell, t, p)
        sigma.append(f"{ell},{s},{d},{s * d}")
    return ("\n".join(classify) + "\n").encode(), ("\n".join(sigma) + "\n").encode()


def equals(expected: bytes, what: str):
    def check(out: bytes) -> str | None:
        if out == expected:
            return None
        return f"{what}: output differs from the reference model ({len(out)} vs {len(expected)} bytes)"

    return check


def check_classify_json(level: int, p: int, hi: int):
    """Rows cover exactly the primes <= hi, and each verdict follows from its trace."""
    primes = primes_upto(hi)

    def check(out: bytes) -> str | None:
        report = json.loads(out)
        rows = report["classification"]
        if [r["ell"] for r in rows] != primes:
            return f"classify: rows are not the {len(primes)} primes <= {hi}"
        counts = {"PiMember": 0, "OmegaMember": 0, "Neither": 0, "Skipped": 0}
        for r in rows:
            ell = r["ell"]
            if level % ell == 0 or ell == p:
                want = "Skipped"
            else:
                want = verdict(ell, r["trace_mod_p"], p)
                if r["det_mod_p"] != ell % p:
                    return f"classify: det_mod_p wrong at ell={ell}"
            if r["verdict"] != want:
                return f"classify: verdict {r['verdict']} at ell={ell}, expected {want}"
            counts[want] += 1
        if report["counts"] != counts:
            return f"classify: counts {report['counts']} do not match the rows {counts}"
        return None

    return check


def check_density_json(level: int, p: int, bound: int, hits: dict[str, int] | None):
    """Sample size, exact densities, a consistent verdict and, if known, the hit counts."""
    n = sum(1 for ell in primes_upto(bound) if level % ell and ell != p)
    exact = {"pi": Fraction(p - 3, p * (p - 1)), "omega": Fraction(p - 3, (p - 1) ** 2)}

    def check(out: bytes) -> str | None:
        report = json.loads(out)
        for fam, density in exact.items():
            r = report[fam]
            if r["sample_primes"] != n:
                return f"verify-density: {fam} sample {r['sample_primes']} != {n} unramified primes"
            if Fraction(r["exact_density"]) != density:
                return f"verify-density: {fam} exact density {r['exact_density']} != {density}"
            if r["verdict"] != "Consistent":
                return f"verify-density: {fam} verdict {r['verdict']}"
            if hits is not None and r["hits"] != hits[fam]:
                return f"verify-density: {fam} hits {r['hits']} != recorded {hits[fam]}"
        return None

    return check


def check_plan_json(level: int, lambda_g: int, target: int, omega: int):
    """Level set shape: n = target - lambda_g Pi primes, r Omega primes, N_f = N_g * primes."""

    def check(out: bytes) -> str | None:
        r = json.loads(out)
        pi, om = r["pi_primes"], r["omega_primes"]
        if len(pi) != target - lambda_g or len(om) != omega:
            return f"plan: got {len(pi)} Pi / {len(om)} Omega primes for target {target}, r={omega}"
        prod = 1
        for ell in pi + om:
            prod *= ell
        if r["N_sigma"] != prod or r["N_f"] != level * prod:
            return f"plan: N_f {r['N_f']} != {level} * product of chosen primes"
        if r["predicted_lambda"] != target:
            return f"plan: predicted lambda {r['predicted_lambda']} != target {target}"
        return None

    return check


def check_carayol_admissible(out: bytes) -> str | None:
    verdict_ = json.loads(out)["verdict"]
    return None if verdict_ == "admissible" else f"carayol: planned level is {verdict_}"
