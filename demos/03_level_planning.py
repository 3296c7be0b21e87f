#!/usr/bin/env python3
"""Planning raised levels with a prescribed lambda-invariant.

Multiplying the level of g by n distinct Pi primes and r distinct Omega
primes produces (by level raising, attached as an asserted certificate) a
congruent newform f with

    lambda_p(f) = lambda_p(g) + n,    mu_p(f) = 0,

independent of r and of which specific primes were chosen.  Each planned
level is checked against the per-prime admissibility conditions, and the
lambda-invariant is converted into Bloch-Kato Selmer rank information.
"""

import json

from lambda_forge import (
    a_ell,
    bk_rank_bounds,
    build_level_set,
    carayol_check,
    plan_target_lambda,
)
from lambda_forge.config import build_context, load_config
from lambda_forge.residual import json_value

ctx = build_context(load_config("configs/default.cfg"))
print(f"base form: level {ctx.level}, p = {ctx.p}, certified lambda_g = {ctx.lambda_g}")
print()

print("planned level sets for target lambda = 0..4 (smallest usable primes):")
for target in range(5):
    omega_count = 1 if target == ctx.lambda_g else 0  # keep max(n, r) > 0
    level_set = plan_target_lambda(ctx, target, omega_count, scan_bound=5000)
    rank = bk_rank_bounds(level_set.predicted_lambda)
    if "exact" in rank:
        rank_text = f"rank = {rank['exact']}"
    else:
        rank_text = f"rank in {tuple(rank['candidates'])}"
    print(f"  target {target}: Pi {str(level_set.pi_primes):<18} "
          f"Omega {str(level_set.omega_primes):<8} N_f = {level_set.N_f:<12} {rank_text}")
print()

print("several level sets predicting the same invariant (n = 2, any Omega prime):")
# the two smallest Pi primes with each of the four smallest Omega primes; a
# level set is built from each family's columns of primes and coefficients
planned = plan_target_lambda(ctx, 2, 4, scan_bound=700)
pi = (planned.pi_primes, [a_ell(ctx, ell) for ell in planned.pi_primes])
for omega in planned.omega_primes:
    level_set = build_level_set(ctx, pi, ([omega], [a_ell(ctx, omega)]))
    print(f"  Pi {level_set.pi_primes} + Omega {level_set.omega_primes}: "
          f"N_f = {level_set.N_f}, predicted lambda = {level_set.predicted_lambda}")
print()

level_set = plan_target_lambda(ctx, 2, 0, scan_bound=5000)
print(f"admissibility of the planned level {level_set.N_f} = 11 * "
      f"{' * '.join(str(q) for q in level_set.pi_primes)}:")
print(json.dumps(carayol_check(ctx, level_set.N_f), indent=2, sort_keys=True, default=json_value))
print()

print("an inadmissible level for contrast (13 is neither a Pi nor an Omega prime here):")
report = carayol_check(ctx, ctx.level * 13)
print(f"  level {report.level}: {report.verdict}"
      f" ({report.primes[0].detail})")
