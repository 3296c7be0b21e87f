#!/usr/bin/env python3
"""Classifying primes by the Frobenius conjugacy class of the residual
representation.

For the fixed form g and working prime p, a prime ell coprime to N_g * p
has Frobenius trace a_ell mod p and determinant ell mod p.  Two families
matter for level raising:

  Pi:    Frobenius ~ diag(ell, 1),  ell not +-1 mod p, and additionally
         ell^(p-1) != 1 mod p^2 (one prime above ell in the cyclotomic tower);
  Omega: Frobenius ~ diag(-ell, -1), ell not +-1 mod p.

Raising the level by a Pi prime bumps the lambda-invariant by one; an
Omega prime leaves it unchanged.
"""

import json
from collections import Counter

import numpy as np

from lambda_forge import PrimeRange, Verdict, classify_chunks
from lambda_forge.config import build_context, load_config

ctx = build_context(load_config("configs/default.cfg"))
print(f"form: level {ctx.level}, p = {ctx.p}, a_p = {ctx.a_p} (ordinary)")
print()

# a sweep classifies whole chunks of primes at once, as numpy columns
bound = 20_000
chunks = list(classify_chunks(ctx, PrimeRange(2, bound)))

print("the first few primes, with the congruence tests that decided them:")
# the rows of the first chunk as the classify command prints them
rows = {row["ell"]: row for row in json.loads(f"[{chunks[0].json_rows()}]")}
for ell in [2, 3, 5, 13, 29, 37, 43, 47]:
    row = rows[ell]
    print(f"  ell = {ell:>3}: trace = {row['trace_mod_p']}, det = {row['det_mod_p']}  "
          f"-> {row['verdict']:<12} [{', '.join(row['reasons'])}]")
print()

counts = Counter()
for chunk in chunks:
    counts.update(chunk.counts())
classifiable = sum(v for k, v in counts.items() if k is not Verdict.SKIPPED)
print(f"classification of all primes up to {bound}:")
for verdict in (Verdict.PI, Verdict.OMEGA, Verdict.NEITHER, Verdict.SKIPPED):
    print(f"  {verdict.value:<12} {counts[verdict]:>6}")
print()

pi_frac = counts[Verdict.PI] / classifiable
omega_frac = counts[Verdict.OMEGA] / classifiable
p = ctx.p
print("observed fractions vs the exact class densities:")
print(f"  Pi:    {pi_frac:.4f}   vs (p-3)/(p(p-1)) = {(p - 3) / (p * (p - 1)):.4f}")
print(f"  Omega: {omega_frac:.4f}   vs (p-3)/(p-1)^2  = {(p - 3) / (p - 1) ** 2:.4f}")
print()

ells = np.concatenate([chunk.ells for chunk in chunks])
verdicts = np.concatenate([chunk.verdicts() for chunk in chunks])
print(f"first ten Pi primes:    {ells[verdicts == Verdict.PI][:10].tolist()}")
print(f"first ten Omega primes: {ells[verdicts == Verdict.OMEGA][:10].tolist()}")
