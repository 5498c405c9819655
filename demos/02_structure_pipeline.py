#!/usr/bin/env python3
# The structural pipeline: search for a modulus N concentrating all the
# valuations, filter the pair set down to the pivotal pairs, decompose each
# element into its defect a = N * a_plus / a_minus, and extract the witness
# pair that certifies the delta'^-2 product bound.

from fractions import Fraction

from gcdlab import (
    GcdInstance,
    build_omega_gcd,
    defect_census,
    find_modulus,
    quad_identity,
    witness_chain,
)

print("=" * 72)
print("1. Modulus search on multiples of 10")
print("=" * 72)

A = list(range(100, 201, 10))
inst = GcdInstance.build(A, A, D=10, X=100, Y=100)
omega = build_omega_gcd(inst)
si = find_modulus(inst, omega)
print(f"A = B = multiples of 10 in [100, 200], delta = {omega.delta}")
print(f"N = {si.n.value} = {dict(si.n.factors)}")
print(f"pivotal pairs: {len(si.omega_prime)} of {len(omega)}  (fraction {si.fraction})")
print("the 1/2 guarantee binds only minimal counterexamples; real instances")
print("like this one can land below it, which is why the fraction is reported")

print()
print("=" * 72)
print("2. Defects relative to N")
print("=" * 72)
# only elements appearing in a pivotal pair have all valuations of a/N in
# {-1, 0, 1}; those are exactly the elements the argument ever decomposes,
# and the structured instance holds each one's defect
a_prime = [a for a, row in zip(si.omega_prime.A, si.omega_prime.rows) if row]
print(f"A' = elements with a pivotal partner: {[el.value for el in a_prime]}")
print(f"{'a':>6} {'a+':>6} {'a-':>6} {'a*':>6}")
for a in a_prime:
    d = si.defects[a]
    print(f"{a.value:>6} {d.a_plus:>6} {d.a_minus:>6} {d.a_star:>6}")

print()
print("every pivotal pair satisfies a* b* = ab/gcd(a,b)^2, prime by prime:")
# the second pivotal pair in row-major order: by index in A, then in B
a, b = [
    (a, b)
    for a, row in zip(si.omega_prime.A, si.omega_prime.rows)
    for j, b in enumerate(si.omega_prime.B)
    if row >> j & 1
][1]
print(f"take (a, b) = ({a.value}, {b.value}):")
for row in quad_identity(a, b, si.n).witnesses:
    print(
        f"  p = {row.p:2d}: v_p(a*) + v_p(b*) = {row.v_a_star + row.v_b_star}"
        f" = |v_p(a/N) - v_p(b/N)| = {abs(row.v_a_over_n - row.v_b_over_n)}"
    )

print()
print("=" * 72)
print("3. The defect census: at most 2T elements have a* <= T")
print("=" * 72)
for T in (1, 2, 4, 8, 16, 32):
    c = defect_census(a_prime, si.n, 100, T)
    print(f"T = {T:3d}: count {c.count:3d} <= {c.bound}  (range caps ok: {c.range_ok})")

print()
print("=" * 72)
print("4. Witness extraction")
print("=" * 72)
chain = witness_chain(si)
m, dp = len(si.omega_prime), si.delta_prime  # m = delta' |A||B|
print(f"delta' = {dp}")
print(f"high-degree set size {chain.tilde_a_size} >= {Fraction(m, 4 * len(inst.B))}")
a_lower, b_lower = Fraction(m, 8 * len(inst.B)), Fraction(m, 8 * len(inst.A))
print(f"witness a = {inst.A[chain.ia].value} with a* = {chain.a_star} >= {a_lower}")
print(f"witness b = {inst.B[chain.ib].value} with b* = {chain.b_star} >= {b_lower}")
scale = inst.X * inst.Y / (inst.D * inst.D)
print(f"a* b* = {chain.a_star * chain.b_star} <= 4XY/D^2 = {4 * scale}")
bound = 1000 * scale / (dp * dp)
print(f"|A||B| = {inst.size_product()} <= 1000 delta'^-2 XY/D^2 = {float(bound):.1f}")
print(f"verdict: holds = {chain.holds}, chain verified = {chain.chain_ok}")
