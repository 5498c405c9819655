#!/usr/bin/env python3
# Walk through the basic objects: a pair of sets in dyadic windows, the set
# of pairs with a large gcd, its exact density, and the product bounds the
# library evaluates.

from fractions import Fraction

from gcdlab import (
    GcdInstance,
    build_omega_gcd,
    chase_diagonal_bound,
    count_pairs_geq_fast,
    count_pairs_geq_naive,
    gcd_census,
    theorem1_bound,
)

print("=" * 72)
print("1. A tiny instance, counted two ways")
print("=" * 72)

A = [100, 110, 120, 150, 180]
B = [60, 84, 90, 96]
inst = GcdInstance.build(A, B, D=6, X=100, Y=60)
omega = build_omega_gcd(inst)
print(f"A = {A}")
print(f"B = {B}")
print(f"pairs with gcd >= 6: {len(omega)} of {inst.size_product()}")
print(f"density delta = {omega.delta} (exact rational, never a float)")

naive = count_pairs_geq_naive(A, B, 6)
fast = count_pairs_geq_fast(A, B, 6)
print(f"naive double loop: {naive}, divisor recursion: {fast}  (always equal)")

print()
print("the full gcd distribution behind the fast census:")
for d, count in gcd_census(A, B):
    print(f"  gcd = {d:3d}: {count} pairs")

print()
print("=" * 72)
print("2. The product bound")
print("=" * 72)
# the headline bound 1000^(1 + #small primes) * delta^(-2-eps) * XY/D^2 is
# astronomically generous at desk scale; we evaluate it anyway
bound, _, holds = theorem1_bound(inst, omega.delta)
print(f"|A||B| = {inst.size_product()}")
print(f"bound  = {bound:.3e}  (holds: {holds})")

print()
print("=" * 72)
print("3. The trivial diagonal bound")
print("=" * 72)
# pairwise gcd >= D forces gaps >= D, so a set in [X, 2X] has at most
# floor(X/D) + 1 elements; multiples of D attain it
diag = list(range(100, 201, 10))
holds, cap = chase_diagonal_bound(diag, 100, 10)
print(f"multiples of 10 in [100, 200]: {len(diag)} elements, cap {cap}, holds: {holds}")

sparse = [100, 140, 180]
holds, cap = chase_diagonal_bound(sparse, 100, Fraction(20))
print(f"{sparse} at D = 20: cap {cap}, holds: {holds}")
