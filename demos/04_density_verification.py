#!/usr/bin/env python3
"""Verifying the density claims two independent ways.

Exact side: the Pi and Omega families correspond to explicit unions of
semisimple conjugacy classes of GL2(F_p); an exhaustive census of all p^4
matrices confirms the class proportion (p-3)/(p-1)^2 as an exact rational
identity, and the extra nonsplitting condition on Pi scales it by (p-1)/p.

Empirical side: by Chebotarev, prime frequencies converge to those
proportions (given the asserted surjectivity of the residual image), so a
sieved sweep with a 3-sigma band is a real test of the whole pipeline.
"""

import time

from lambda_forge import PrimeRange, empirical_density, enumerate_gl2_classes, exact_densities
from lambda_forge.config import build_context, load_config
from lambda_forge.residual import resolve_workers

print("exhaustive GL2(F_p) census (all p^4 matrices):")
for p in (5, 7, 11, 13):
    census = enumerate_gl2_classes(p)
    print(f"  p = {p:>2}: |GL2| = {census.gl2_order:>6}, #Y = #Y' = {census.count_Y:>5}, "
          f"ratio = {census.ratio_Y} = (p-3)/(p-1)^2")
print()

print("exact Dirichlet densities (Pi, Omega):")
for p in (5, 7, 11, 13):
    pi, omega = exact_densities(p)
    print(f"  p = {p:>2}: Pi = {str(pi):>6}, Omega = {str(omega):>6}")
print()

ctx = build_context(load_config("configs/default.cfg"))
bound = 300_000
workers = resolve_workers()
print(f"empirical sweep on the default configuration (p = {ctx.p}) to {bound:,} "
      f"with {workers} workers:")
t0 = time.time()
pi_report, omega_report = empirical_density(ctx, PrimeRange(2, bound), workers=workers)
elapsed = time.time() - t0
for rep in (pi_report, omega_report):
    print(f"  {rep.set_name:<6} exact {str(rep.exact_density):>5}  "
          f"observed {rep.hits}/{rep.sample_primes} = {float(rep.empirical):.5f}  "
          f"z = {rep.z_score:+.2f}  -> {rep.verdict}")
print(f"  ({elapsed:.1f}s; the acceptance suite pushes the same check to 2,000,000)")
