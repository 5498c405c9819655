#!/usr/bin/env python3
# Concentration numerics: measures on Z^2 dominated by c * lambda^|i-j| *
# x_i * y_j concentrate near a diagonal point (k, k) once c is small.  This
# demo runs the exact minimal-c verdict, the tail and six-region
# decomposition, and the same verdict on a measure derived from real
# valuations.  Masses and densities are integers over a total throughout.

import random
from fractions import Fraction

from gcdlab import (
    GcdInstance,
    Measure2D,
    WeightPair,
    best_center,
    build_omega_gcd,
    concentration_report,
    min_admissible_c_interval,
    sigma_decomposition,
    tail_mass,
    valuation_measure,
)
from gcdlab.measure import capped_admissible_config, random_admissible_config, sweep_extremes

print("=" * 72)
print("1. Hand-built measures")
print("=" * 72)

# counts over a total of 20; x_i = alpha_i^(3/5) at epsilon = 1/2, alpha over 20 too
mu = Measure2D.from_dict({(0, 0): 12, (0, 1): 5, (3, 3): 3})
w = WeightPair.from_densities({0: 18, 3: 2}, {0: 16, 1: 3, 3: 1})
for lam in (Fraction(4, 5), Fraction(2, 5), Fraction(1, 10)):
    lo, hi, ok, c = min_admissible_c_interval(mu, w, lam)
    print(f"lambda = {lam}: minimal admissible c = {c:8.4f} in [{lo:.6f}, {hi:.6f}], >= 1/9: {ok}")

k = best_center(mu)
print(f"best center k = {k}, tail mass {tail_mass(mu, k)}/{mu.total}")
sig = sigma_decomposition(mu, k)
print(f"six-region masses around ({k}, {k}), over {mu.total}: {list(sig.sigma)}")

print()
print("=" * 72)
print("2. The c >= 1/9 floor on random admissible configurations")
print("=" * 72)
rng = random.Random(2024)
sweep = sweep_extremes(
    [random_admissible_config(rng) for _ in range(2000)], epsilon=Fraction(1, 2)
)
print(
    f"smallest minimal-c over 2000 seeded configurations: {sweep.min_c:.6f}"
    f" (floor 1/9 = {1/9:.6f}; decided exactly as c^5 >= 9^-5: {sweep.c_lower_ok})"
)

# the lemma leaves the tail constant unspecified, so the capped family's
# largest tail/lambda^(q+eps) is an observation per lambda, not a check
print("capped family (c <= 1), 200 seeded configurations per lambda:")
rng = random.Random(2025)
for lam in (Fraction(4, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)):
    configs = [(*capped_admissible_config(rng, lam), lam) for _ in range(200)]
    sweep = sweep_extremes(configs, epsilon=Fraction(1, 2))
    print(
        f"  lambda = {float(lam):<4}: largest c = {sweep.max_c:.6f} (<= 1: {sweep.c_upper_ok}),"
        f" largest tail/lambda^3 = {sweep.max_ratio:.4f}"
    )

print()
print("=" * 72)
print("3. Exact mode on a valuation-derived measure")
print("=" * 72)
A = list(range(100, 201, 10))
inst = GcdInstance.build(A, A, D=10, X=100, Y=100)
omega = build_omega_gcd(inst)
for p in (2, 5):
    rep = concentration_report(*valuation_measure(omega, p))
    lo, hi = rep.c_interval
    print(
        f"p = {p}: lambda = {rep.lam:.4f}, c in [{lo:.6f}, {hi:.6f}] "
        f"(certified >= 1/9: {rep.c_lower_ok}), k = {rep.k}, "
        f"tail = {rep.tail:.4f}, tail/lambda^(q+eps) = {rep.ratio:.4f}"
    )
