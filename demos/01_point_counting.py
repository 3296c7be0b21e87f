#!/usr/bin/env python3
"""Counting points on elliptic curves over prime fields, two ways.

The coefficient backend of this package is an elliptic curve: the Fourier
coefficient a_ell of the attached weight-2 newform is ell + 1 - #E(F_ell).
At or below the measured crossover ``curves.NAIVE_COUNT_LIMIT`` the count
is a direct quadratic-character sum; above it, a baby-step giant-step
search pins the group order inside the Hasse interval.  This script shows
both engines agreeing, the Hasse bound holding, and the ordinariness test
that gates the working prime p.
"""

from lambda_forge import (
    CurveModel,
    PrimeRange,
    count_points_bsgs,
    count_points_naive,
    is_ordinary,
    trace_of_frobenius,
)

# the default curve of the shipped configuration: conductor 11, rank 0
curve = CurveModel(0, -1, 1, -10, -20, conductor=11)
print(f"curve: y^2 + y = x^3 - x^2 - 10x - 20   (conductor {curve.conductor})")
print(f"discriminant (recomputed): {curve.discriminant} = -11^5")
print()

print("small primes, both engines:")
print(f"{'ell':>8} {'#E(F_ell)':>10} {'a_ell':>6} {'naive':>6} {'bsgs':>6}")
for ell in [5, 13, 101, 1009, 4999]:
    naive = count_points_naive(curve, ell, limit=ell)  # 4999 is past the switchover
    bsgs = count_points_bsgs(curve, ell)
    a = ell + 1 - naive
    print(f"{ell:>8} {naive:>10} {a:>6} {naive:>6} {bsgs:>6}")
    assert naive == bsgs
print()

print("a large prime (naive would need a table of that size; BSGS is instant):")
ell = 1_500_007
a = trace_of_frobenius(curve, ell)
print(f"  a_{ell} = {a},  |a| <= 2*sqrt(ell) = {int((4 * ell) ** 0.5)}")
print()

print("Hasse bound sweep over the first thousand primes:")
worst = 0.0
for ell in PrimeRange(2, 8000):
    if ell == 11:
        continue
    a = trace_of_frobenius(curve, ell)
    worst = max(worst, abs(a) / (2 * ell**0.5))
print(f"  max |a_ell| / 2*sqrt(ell) observed: {worst:.4f}  (always < 1)")
print()

print("ordinariness of candidate working primes (p must not divide a_p):")
for p in [5, 7, 13, 19]:
    a = trace_of_frobenius(curve, p)
    print(f"  p = {p:>2}: a_p = {a:>3}  ->  {'ordinary' if is_ordinary(curve, p) else 'supersingular'}")
