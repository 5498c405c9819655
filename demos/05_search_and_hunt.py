#!/usr/bin/env python3
# Extremal search on small windows and the violation hunter.  The search is
# exact (the closed sets of the gcd >= D relation, agreeing with plain
# enumeration in the tests); the hunter sweeps the diagonal gap bound
# exhaustively and fires seeded structured instances at the delta'^-2
# product bound.

from fractions import Fraction

from gcdlab import SearchSpace, exhaustive_max, hunt_violations, max_pairwise_compatible

print("=" * 72)
print("1. Exact extremal sets")
print("=" * 72)
res = exhaustive_max(SearchSpace(X=4, Y=4, D=2))
print(f"X = Y = 4, D = 2: best A = {res.best_a}, best B = {res.best_b}, "
      f"|A||B| = {res.max_product}")

res = exhaustive_max(SearchSpace(X=12, Y=12, D=3))
print(f"X = Y = 12, D = 3: product {res.max_product} with A = {res.best_a}")

print()
print("the delta-threshold variant (at least half of all pairs good):")
res = exhaustive_max(SearchSpace(X=8, Y=8, D=2, delta_target=Fraction(1, 2)))
print(f"X = Y = 8, D = 2, delta >= 1/2: product {res.max_product}")

print()
print("=" * 72)
print("2. Diagonal sharpness")
print("=" * 72)
for X, D in ((6, 2), (12, 3), (16, 4)):
    best = max_pairwise_compatible(X, D)
    print(f"X = {X:2d}, D = {D}: largest pairwise-compatible set {best} "
          f"(size {len(best)} = floor(X/D) + 1 = {X // D + 1})")

print()
print("=" * 72)
print("3. The violation hunt")
print("=" * 72)
violations = hunt_violations(scale_limit=16, seed=0, n_structured=2000)
print(f"diagonal sweep to scale 16 plus 2000 structured instances: "
      f"{len(violations)} violations")
print("an empty list is the expected outcome: both bounds are theorems, so a")
print("violation would falsify the implementation, not the mathematics")
