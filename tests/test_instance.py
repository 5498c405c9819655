import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab.arith import divisors, factorize
from gcdlab.instance import (
    GcdInstance,
    InstanceError,
    _least_divisors_geq,
    build_omega_gcd,
    build_omega_ratio,
    chase_diagonal_bound,
    count_pairs_geq_fast,
    count_pairs_geq_naive,
    instance_from_json,
    instance_to_json,
    PairSet,
    prime_sets,
    theorem1_bound,
    theorem51_bound,
)
from pairset_views import edges


def test_build_omega_examples():
    inst = GcdInstance.build([1, 2, 3, 4], [1, 2, 3, 4], 2, 1, 1, check_ranges=False)
    om = build_omega_gcd(inst)
    pairs = {(a.value, b.value) for a, b in edges(om)}
    assert pairs == {(2, 2), (2, 4), (4, 2), (4, 4), (3, 3)}
    assert om.delta == Fraction(5, 16)

    inst1 = GcdInstance.build([1, 2, 3, 4], [1, 2, 3, 4], 1, 1, 1, check_ranges=False)
    assert build_omega_gcd(inst1).delta == 1

    inst2 = GcdInstance.build([4, 6, 8], [4, 6, 8], 2, 4, 4)
    assert build_omega_gcd(inst2).delta == 1


def _omega_cases():
    rng = random.Random(29)
    for _ in range(30):
        A = sorted({rng.randint(1, 10**4) for _ in range(rng.randint(1, 40))})
        B = sorted({rng.randint(1, 10**4) for _ in range(rng.randint(1, 40))})
        for D in (1, Fraction(5, 2), 3, 17, 500, 2 * 10**4):
            yield A, B, D
    # the element 1, prime powers, and a D above every gcd
    yield [1, 2, 4, 8, 16], [1, 3, 8, 9, 27, 32], 4
    yield [1, 2, 4, 8, 16], [1, 3, 8, 9, 27, 32], 1
    yield [2**k for k in range(12)], [3**k * 2 for k in range(8)], 17
    yield [49, 343, 2401], [7, 49, 77], Fraction(7, 3)
    yield [97, 101], [103, 107], 98
    # more than 128 rows, so row_bits decodes the grid's text
    yield list(range(2, 160)), [6, 10, 15, 21, 35, 77], 3
    # remark2-style sets of multiples of D, and a few non-multiples
    for D in (6, 10, 12):
        A = list(range(10 * D, 20 * D + 1, D)) + [10 * D + 1]
        B = list(range(12 * D, 24 * D + 1, D)) + [13 * D - 1]
        yield A, B, D
        yield A, B, D + 1
    # values near 10^12 with two prime factors above 2^11
    ps = [999979, 999983, 1000003, 1000033, 1000037]
    near = sorted({p * q for p in ps for q in ps} | {487 * 2053 * p for p in ps})
    for D in (2053, 487 * 2053 + 1, 10**6 + 40):
        yield near, near[::2], D


def test_omega_views_match_naive_census():
    for A, B, D in _omega_cases():
        inst = GcdInstance.build(A, B, D, min(A), min(B), check_ranges=False)
        om = build_omega_gcd(inst)
        t = math.ceil(D)
        naive = [(a, b) for a in om.A for b in om.B if math.gcd(a.value, b.value) >= t]
        assert list(edges(om)) == naive, (A, B, D)
        assert len(om) == count_pairs_geq_naive(A, B, D)
        pairs = set(edges(om))
        assert om.row_bits() == [
            sum(1 << j for j, b in enumerate(om.B) if (a, b) in pairs) for a in om.A
        ]
        assert om.col_bits() == [
            sum(1 << i for i, a in enumerate(om.A) if (a, b) in pairs) for b in om.B
        ]
        Q = Fraction(D) * 3
        ratio = build_omega_ratio(A, B, Q)
        naive = [
            (a, b)
            for a in ratio.A
            for b in ratio.B
            if a.value * b.value <= Q * math.gcd(a.value, b.value) ** 2
        ]
        assert list(edges(ratio)) == naive, (A, B, Q)


def test_masked_copy_keeps_the_grid_and_predicate():
    # len() of a PairSet is its pair count, so NamedTuple._replace (which
    # checks len() against the field count) cannot make these copies
    inst = GcdInstance.build([4, 6, 8], [4, 6, 8, 9], 2, 4, 4, check_ranges=False)
    om = build_omega_gcd(inst)
    assert len(om) != 5
    grid = edges(PairSet(om.A, om.B, (1 << 12) - 1))
    for bits in (0, 1, om.bits, om.bits & 0b101101, (1 << 12) - 1):
        sub = om.masked(bits)
        assert sub == PairSet(om.A, om.B, bits)
        assert len(sub) == bits.bit_count() != 5
        assert list(edges(sub)) == [e for k, e in enumerate(grid) if bits >> k & 1]
    with pytest.raises(TypeError):
        om._replace(bits=1)


def test_spread_times_a_column_mask_is_the_cells():
    inst = GcdInstance.build([4, 6, 8, 9, 10], [4, 6, 8], 2, 4, 4, check_ranges=False)
    om = build_omega_gcd(inst)
    grid = edges(PairSet(om.A, om.B, (1 << 15) - 1))
    for rows in range(1 << 5):
        for cols in range(1 << 3):
            cells = edges(PairSet(om.A, om.B, om.spread(rows) * cols))
            assert list(cells) == [
                e for k, e in enumerate(grid) if rows >> (k // 3) & 1 and cols >> (k % 3) & 1
            ]


@pytest.mark.slow
def test_least_divisors_geq_match_definition():
    # the divisors d >= t of n whose proper divisors are all < t, i.e. whose
    # largest proper divisor m(d) is < t; d is in for t in (m(d), d] only,
    # so the wanted list changes only at t = m(d) + 1 and t = d + 1
    for n in range(1, 2001):
        divs = divisors(n)
        largest = {d: max((e for e in divs if e < d and d % e == 0), default=0) for d in divs}
        changes = {largest[d] + 1 for d in divs} | {d + 1 for d in divs}
        factors = factorize(n).factors
        for t in range(1, n + 2):
            if t in changes:
                want = [d for d in divs if d >= t and largest[d] < t]
            assert sorted(_least_divisors_geq(factors, t)) == want, (n, t)


def predicate_holds(om, holds) -> bool:
    """Every pair (a, b) of om has holds(a.value, b.value)."""
    return all(holds(a.value, b.value) for a, b in edges(om))


def test_omega_predicate_reverified():
    inst = GcdInstance.build([4, 6, 8], [4, 6, 8], 2, 4, 4)
    assert predicate_holds(build_omega_gcd(inst), lambda a, b: math.gcd(a, b) >= 2)
    assert predicate_holds(
        build_omega_ratio([2, 3, 6], [2, 3, 6], 6), lambda a, b: a * b <= 6 * math.gcd(a, b) ** 2
    )


def test_census_examples():
    assert count_pairs_geq_fast([1, 2, 3, 4], [1, 2, 3, 4], 2) == 5
    assert count_pairs_geq_fast([6, 12], [9, 18], 3) == 4
    # gcd can never exceed the smaller element
    assert count_pairs_geq_fast([5, 9], [7, 11], 23) == 0
    assert count_pairs_geq_naive([5, 9], [7, 11], 23) == 0


def test_census_oracle_equivalence_sample():
    rng = random.Random(23)
    for _ in range(30):
        A = sorted({rng.randint(1, 10**6) for _ in range(rng.randint(1, 64))})
        B = sorted({rng.randint(1, 10**6) for _ in range(rng.randint(1, 64))})
        for D in (2, 5, 17, 1000):
            assert count_pairs_geq_fast(A, B, D) == count_pairs_geq_naive(A, B, D)


def test_census_non_integral_threshold():
    # gcd >= 2.5 is the same census as gcd >= 3
    A = [4, 6, 9, 10]
    assert count_pairs_geq_fast(A, A, Fraction(5, 2)) == count_pairs_geq_naive(A, A, 3)


def test_delta_monotone_in_threshold():
    rng = random.Random(31)
    for _ in range(20):
        A = sorted({rng.randint(1, 500) for _ in range(12)})
        B = sorted({rng.randint(1, 500) for _ in range(12)})
        counts = [count_pairs_geq_fast(A, B, D) for D in range(1, 40)]
        assert all(x >= y for x, y in zip(counts, counts[1:]))


def test_prime_sets_examples():
    ps, psml = prime_sets([12, 35], 5)
    assert ps == frozenset({2, 3, 5, 7})
    assert psml == frozenset({2, 3, 5})
    assert prime_sets([1], 5) == (frozenset(), frozenset())
    assert prime_sets([2**10], 2) == (frozenset({2}), frozenset({2}))


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(min_value=1, max_value=5000), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
def test_prime_sets_monotone_in_p0(S, p0a, p0b):
    lo, hi = min(p0a, p0b), max(p0a, p0b)
    ps, small_lo = prime_sets(S, lo)
    _, small_hi = prime_sets(S, hi)
    assert small_lo <= small_hi <= ps


def test_theorem1_bound_examples():
    # (bound, log10 bound, holds)
    i1 = GcdInstance.build([1], [1], 1, 1, 1, check_ranges=False)
    assert theorem1_bound(i1, Fraction(1)) == (pytest.approx(1000.0), pytest.approx(3.0), True)

    i2 = GcdInstance.build([12], [18], 5, 10, 10, p0=3, check_ranges=False)
    bound, log10_bound, _ = theorem1_bound(i2, Fraction(1))
    assert bound == pytest.approx(4e9) and log10_bound == pytest.approx(math.log10(4e9))

    i3 = GcdInstance.build([1], [1], 1, 1, 1, epsilon=0.5, check_ranges=False)
    bound, _, holds = theorem1_bound(i3, Fraction(1, 2))
    assert bound == pytest.approx(1000 * 2**2.5) and holds


def test_theorem1_with_given_small_primes_matches_its_own_scan():
    rng = random.Random(83)
    for _ in range(30):
        A = rng.sample(range(500, 1001), rng.randint(1, 12))
        B = rng.sample(range(700, 1401), rng.randint(1, 12))
        inst = GcdInstance.build(A, B, rng.randint(1, 50), 500, 700, p0=rng.choice((0, 3, 30)))
        psml = prime_sets(inst.A + inst.B, inst.p0)[1]
        delta = Fraction(rng.randint(1, 9), 10)
        assert theorem1_bound(inst, delta, psml) == theorem1_bound(inst, delta)


def test_theorem1_verdict_is_exact_at_the_bound():
    # 1000 * (1/4)^-2.5 * XY/D^2 = 32000 XY: with Y = 1/32000 the bound is
    # X itself, and a size of 1 meets X = 1 but not X one part in 10^12 less
    for X, expect in ((Fraction(1), True), (1 - Fraction(1, 10**12), False)):
        inst = GcdInstance.build([1], [1], 1, X, Fraction(1, 32000), p0=0, check_ranges=False)
        assert theorem1_bound(inst, Fraction(1, 4))[2] is expect


def test_theorem1_rejects_zero_delta():
    inst = GcdInstance.build([1], [1], 1, 1, 1, check_ranges=False)
    with pytest.raises(ValueError):
        theorem1_bound(inst, Fraction(0))


def test_theorem1_no_overflow_at_many_small_primes():
    # 150 small primes would overflow a float bound; log form must survive
    from gcdlab.arith import primes_up_to

    A = primes_up_to(1000)[:150]
    inst = GcdInstance.build(A, A, 1, min(A), min(A), p0=1000, check_ranges=False)
    bound, log10_bound, holds = theorem1_bound(inst, Fraction(1, 100))
    assert holds and bound == math.inf and math.isfinite(log10_bound)


def test_chase_examples():
    assert chase_diagonal_bound([4, 6, 8], 4, 2) == (True, 3)
    assert chase_diagonal_bound([6], 6, 3) == (True, 3)
    # recomputed from the definitions: all pairwise gcds are 2, 3, 5 >= 2
    assert chase_diagonal_bound([6, 10, 15], 6, 2) == (True, 4)


def test_chase_rejects_low_gcd():
    with pytest.raises(ValueError):
        chase_diagonal_bound([4, 9], 4, 2)


def test_theorem51_examples():
    delta, bound, holds = theorem51_bound([2], [2], 1)
    assert delta == 1 and holds
    assert bound == pytest.approx(1000**2 / 4)

    delta, bound, holds = theorem51_bound([2, 3, 6], [2, 3, 6], 6)
    assert delta == 1 and holds

    delta, bound, holds = theorem51_bound([30], [77], 100)
    assert delta == 0 and holds and math.isinf(bound)


def test_theorem51_rejects_non_squarefree():
    with pytest.raises(ValueError):
        theorem51_bound([4], [3], 10)


def test_remark3_density_law_at_scale():
    # multiples of k with X/k = 1000: the share of pairs with gcd >= m*k
    # stays above 1/(2m) for m <= 10
    k, X = 3, 3000
    A = list(range(X, 2 * X + 1, k))
    assert len(A) >= 1000
    for m in range(1, 11):
        got = Fraction(count_pairs_geq_fast(A, A, m * k), len(A) ** 2)
        assert got >= Fraction(1, 2 * m), (m, got)


def test_build_validates_fields():
    with pytest.raises(InstanceError, match="A"):
        GcdInstance.build([], [2], 1, 2, 2)
    with pytest.raises(InstanceError, match="outside"):
        GcdInstance.build([5, 30], [7], 2, 5, 7)
    with pytest.raises(InstanceError, match="epsilon"):
        GcdInstance.build([2], [2], 1, 2, 2, epsilon=1.0)
    with pytest.raises(InstanceError, match="denominator 10000 above 1000"):
        GcdInstance.build([2], [2], 1, 2, 2, epsilon=0.0001)
    with pytest.raises(InstanceError, match="D"):
        GcdInstance.build([2], [2], 5, 2, 2)


def fraction_range_error(inst):
    """The message of validate_ranges as a Fraction comparison per element,
    or None when the instance passes."""
    for name, S, R in (("A", inst.A, inst.X), ("B", inst.B, inst.Y)):
        if R <= 0:
            return f"field {'X' if name == 'A' else 'Y'}: {R} must be positive"
        for i, el in enumerate(S):
            if not R <= el.value <= 2 * R:
                return f"field {name}[{i}]: {el.value} outside [{R}, {2 * R}]"
    if inst.D < 1:
        return f"field D: {inst.D} must be >= 1"
    if inst.D > min(inst.X, inst.Y):
        return f"field D: {inst.D} exceeds min(X, Y) = {min(inst.X, inst.Y)}"
    return None


def range_error(inst):
    try:
        inst.validate_ranges()
    except InstanceError as exc:
        return str(exc)
    return None


def test_integer_range_check_matches_fraction_comparison():
    rng = random.Random(61)
    ranges = [Fraction(7, 2), Fraction(10, 3), Fraction(1, 2), Fraction(4), Fraction(13)]
    ranges += [Fraction(rng.randint(2, 400), rng.choice([1, 1, 2, 3, 7])) for _ in range(40)]
    outcomes = Counter()
    for X in ranges:
        lo, hi = math.ceil(X), math.floor(2 * X)
        # the bounds themselves and one beyond each, on either side
        for A, B in ([lo], [hi]), ([lo - 1], [lo]), ([hi + 1], [hi]), ([lo, hi], [lo - 1, hi + 1]):
            A, B = [v for v in A if v > 0] or [lo], [v for v in B if v > 0] or [lo]
            inst = GcdInstance.build(A, B, 1, X, X, check_ranges=False)
            assert range_error(inst) == fraction_range_error(inst), (X, A, B)
            outcomes[range_error(inst) is None] += 1
        for _ in range(5):
            Y = rng.choice(ranges)
            A = rng.sample(range(max(1, lo - 2), hi + 3), rng.randint(1, min(6, hi - lo + 3)))
            B = [rng.randint(max(1, math.ceil(Y) - 1), math.floor(2 * Y) + 1) for _ in range(4)]
            D = rng.choice([1, Fraction(1, 2), min(X, Y), min(X, Y) + 1])
            inst = GcdInstance.build(A, B, D, X, Y, check_ranges=False)
            # unsorted sides, so the reported index is not always the end's
            inst = inst._replace(A=tuple(rng.sample(inst.A, len(inst.A))))
            assert range_error(inst) == fraction_range_error(inst), (X, Y, A, B, D)
            outcomes[range_error(inst) is None] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes


def test_integer_range_check_at_the_boundaries():
    # ceil(R) and floor(2R) are accepted and one step beyond each is not,
    # and D is accepted from 1 up to min(X, Y), as the Fraction comparisons say
    tiny = Fraction(1, 10**9)
    for R in (Fraction(23, 10), Fraction(7, 2), Fraction(10, 3), Fraction(5), Fraction(99, 98)):
        lo, hi = math.ceil(R), math.floor(2 * R)
        for v in (lo - 1, lo, hi, hi + 1):
            inst = GcdInstance.build([max(v, 1)], [lo], 1, R, R, check_ranges=False)
            assert (range_error(inst) is None) == (R <= max(v, 1) <= 2 * R)
            assert range_error(inst) == fraction_range_error(inst), (R, v)
        for D in (1 - tiny, Fraction(1), R, R + tiny):
            inst = GcdInstance.build([lo], [math.ceil(R + 1)], D, R, R + 1, check_ranges=False)
            assert (range_error(inst) is None) == (1 <= D <= R), (R, D)
            assert range_error(inst) == fraction_range_error(inst), (R, D)


def test_range_inference_is_checked():
    inst = GcdInstance.build([10, 15, 20], [10, 20], 5)
    assert inst.X == 10 and inst.Y == 10
    with pytest.raises(InstanceError, match="dyadic"):
        GcdInstance.build([10, 21], [10, 20], 5)


def test_instance_file_roundtrip():
    inst = GcdInstance.build([100, 110, 120], [100, 120], 10, 100, 100, epsilon=0.25, p0=7)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back == inst
    assert instance_to_json(back) == text


def test_instance_file_inference_and_big_ints():
    big = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
    text = instance_to_json(
        GcdInstance.build([big, 2 * big], [big], big, check_ranges=True)
    )
    back = instance_from_json(text)
    assert back.A[0].value == big
    assert instance_to_json(back) == text


def test_instance_file_diagnostics():
    with pytest.raises(InstanceError, match="JSON"):
        instance_from_json("nope")
    with pytest.raises(InstanceError, match="field A"):
        instance_from_json('{"A": [], "B": ["2"], "D": "1"}')
    with pytest.raises(InstanceError, match=r"field B\[0\]"):
        instance_from_json('{"A": ["2"], "B": ["x"], "D": "1"}')
    with pytest.raises(InstanceError, match="field D"):
        instance_from_json('{"A": ["2"], "B": ["2"]}')
    with pytest.raises(InstanceError, match="epsilon"):
        instance_from_json('{"A": ["2"], "B": ["2"], "D": "1", "epsilon": "half"}')


def test_delta_stored_exact():
    inst = GcdInstance.build([1, 2, 3], [1, 2, 3], 2, 1, 1, check_ranges=False)
    om = build_omega_gcd(inst)
    assert isinstance(om.delta, Fraction)
    assert om.delta == Fraction(2, 9)
