import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gcdlab.cli as cli
from gcdlab.arith import divisors, factorize, primorial
from gcdlab.instance import (
    GcdInstance,
    InstanceError,
    _least_divisors_geq,
    _omega_rows,
    build_omega_gcd,
    build_omega_ratio,
    chase_diagonal_bound,
    count_pairs_geq_fast,
    count_pairs_geq_naive,
    decimal_fraction,
    epsilon_fraction,
    gcd_census,
    instance_from_json,
    instance_to_json,
    PairSet,
    _elements,
    prime_sets,
    read_instance,
    theorem1_bound,
    theorem51_bound,
)
from pairset_views import edges

GOLDEN = Path(__file__).resolve().parent / "golden"


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
    # a tall pair set: 158 rows against 6 columns
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
        assert om.rows == tuple(
            sum(1 << j for j, b in enumerate(om.B) if (a, b) in pairs) for a in om.A
        )
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


def test_row_count_equals_the_grid_and_the_naive_census():
    # stats counts _omega_rows one at a time; structure keeps them as Omega's rows
    goldens = map(read_instance, sorted(GOLDEN.glob("*.instance.json")))
    cases = [(inst.A, inst.B, inst.D) for inst in goldens]
    rng = random.Random(37)
    A = sorted({rng.randint(500, 1000) for _ in range(40)})
    B = sorted({rng.randint(700, 1400) for _ in range(30)})
    cases += [
        (A, B, Fraction(7, 2)),  # a fractional D
        (A, B, Fraction(41, 3)),
        ([7, 11, 13], [17, 19], 2),  # an empty pair set
        ([12], [18], 6),  # one-element sides
        ([12], [18], 7),
        ([1], [1], 1),
        (list(range(2, 200)), B, 3),  # 198 rows
    ]
    for A, B, D in cases:
        inst = GcdInstance.build(A, B, D, 1, 1, check_ranges=False)
        rows, om = list(_omega_rows(inst.A, inst.B, inst.D)), build_omega_gcd(inst)
        assert sum(r.bit_count() for r in rows) == len(om) == count_pairs_geq_naive(A, B, D)


def test_pair_set_len_and_equality_read_the_rows():
    # len() of a PairSet is its pair count, so NamedTuple._replace (which
    # checks len() against the field count) cannot make copies
    inst = GcdInstance.build([4, 6, 8], [4, 6, 8, 9], 2, 4, 4, check_ranges=False)
    om = build_omega_gcd(inst)
    assert len(om) == 10 and om.rows == (0b0111, 0b1111, 0b0111)
    every = edges(PairSet(om.A, om.B, (0b1111,) * 3))
    for rows in ((0, 0, 0), (1, 0, 0), om.rows, (0b0101, 0b0101, 0), (0b1111,) * 3):
        sub = PairSet(om.A, om.B, rows)
        assert (sub == om) == (rows == om.rows) and sub == PairSet(inst.A, inst.B, rows)
        assert len(sub) == sum(r.bit_count() for r in rows) != 3
        assert list(edges(sub)) == [e for k, e in enumerate(every) if rows[k // 4] >> k % 4 & 1]
    with pytest.raises(TypeError):
        om._replace(rows=(1, 0, 0))


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


def test_gcd_census_is_the_distribution_of_pairwise_gcds():
    rng = random.Random(37)
    cases = [([12, 18, 12, 30], [8, 18, 45])]  # 12 twice: each copy counts
    for _ in range(20):
        A = [rng.randint(1, 2000) for _ in range(rng.randint(1, 30))]
        B = [rng.randint(1, 2000) for _ in range(rng.randint(1, 30))]
        cases.append((A, B + B[:2]))
    for A, B in cases:
        census = gcd_census(A, B)
        assert census == tuple(sorted(Counter(math.gcd(a, b) for a in A for b in B).items()))
        for D in (1, 2, 7, 100):
            assert sum(e for d, e in census if d >= D) == count_pairs_geq_naive(A, B, D)


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


def test_prime_sets_reads_as_the_census_helpers_do():
    for args, message in (
        (([12, 18], -1), "field p0: -1 is not a natural number"),
        (([12, 18], 2.5), "field p0: 2.5 is not a natural number"),
        (([True, 12], 5), "field S[0]: True is not a decimal integer"),
        (([12.0], 5), "field S[0]: 12.0 is not a decimal integer"),
        (({12, 18}, 5), "field S: expected a nonempty array of decimal strings"),
    ):
        with pytest.raises(InstanceError) as exc:
            prime_sets(*args)
        assert str(exc.value) == message
    # digit text and FactoredNats read as their values
    assert prime_sets(["12", factorize(35)], 5) == prime_sets([12, 35], 5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sets(st.integers(min_value=1, max_value=5000), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
def test_prime_sets_monotone_in_p0(S, p0a, p0b):
    lo, hi = min(p0a, p0b), max(p0a, p0b)
    ps, small_lo = prime_sets(sorted(S), lo)
    _, small_hi = prime_sets(sorted(S), hi)
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
    # recomputed from the definitions: all pairwise gcds are 5, 2, 3 >= 2
    assert chase_diagonal_bound([10, 15, 18], 9, 2) == (True, 5)


def test_chase_rejects_low_gcd():
    with pytest.raises(ValueError, match=r"precondition violated: gcd\(4, 7\) = 1 < 2"):
        chase_diagonal_bound([4, 7], 4, 2)


def test_chase_reads_a_as_its_distinct_values():
    # a repeat is one element: no zero gap, and it is counted once
    assert chase_diagonal_bound([6, 6], 6, 6) == (True, 2)
    assert chase_diagonal_bound([8, 4, 6, 4, 8], 4, 2) == (True, 3)


def test_chase_refuses_an_element_outside_the_window():
    # the bound is about sets in [X, 2X]: 18 > 12 is refused, not counted
    with pytest.raises(ValueError, match=r"^element 18 outside \[6, 12\]$"):
        chase_diagonal_bound([6, 12, 18, 24], 6, 6)
    # the window is exact at a fractional X: 7 < 15/2 is outside [15/2, 15]
    with pytest.raises(ValueError, match=r"^element 7 outside \[15/2, 15\]$"):
        chase_diagonal_bound([7, 14], "7.5", 7)
    assert chase_diagonal_bound([8, 15], "7.5", 1) == (True, 8)


def test_factored_items_count_as_their_values():
    # the naive census and the diagonal bound read a FactoredNat by int()
    A, B = [12, 18, 20, 35], [6, 14, 15, 21, 30]
    fA, fB = [factorize(v) for v in A], [factorize(v) for v in B]
    for D in (1, 2, Fraction(5, 2), 3, 7):
        want = count_pairs_geq_naive(A, B, D)
        assert count_pairs_geq_naive(fA, fB, D) == count_pairs_geq_naive(fA, B, D) == want
    chain = [12, 18, 24]
    want = chase_diagonal_bound(chain, 12, 6)
    assert chase_diagonal_bound([factorize(v) for v in chain], 12, 6) == want == (True, 3)
    with pytest.raises(ValueError, match=r"gcd\(4, 7\) = 1 < 2"):
        chase_diagonal_bound([factorize(4), factorize(7)], 4, 2)


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
    # the instance file hands epsilon and p0 to build, which checks both
    for p0 in (-1, True, 2.0):
        with pytest.raises(InstanceError, match=f"^field p0: {p0!r} is not a natural number$"):
            GcdInstance.build([2], [2], 1, 2, 2, p0=p0)
    with pytest.raises(InstanceError, match="^field epsilon: 'half' is not a number$"):
        GcdInstance.build([2], [2], 1, 2, 2, epsilon="half")
    with pytest.raises(InstanceError, match="D"):
        GcdInstance.build([2], [2], 5, 2, 2)


def test_epsilon_is_read_once_into_an_exact_fraction():
    # a float by its decimal text, a Fraction as it is, checked on its
    # numerator and denominator with the float's messages
    assert GcdInstance.build([2], [2], 1, 2, 2, epsilon=0.1).epsilon == Fraction(1, 10)
    third = Fraction(1, 3)
    assert epsilon_fraction(third) is third
    assert GcdInstance.build([2], [2], 1, 2, 2).epsilon == Fraction(1, 2)
    for bad, message in (
        (Fraction(3, 2), "field epsilon: 3/2 not strictly inside (0, 1)"),
        (Fraction(0), "field epsilon: 0 not strictly inside (0, 1)"),
        (Fraction(-1, 2), "field epsilon: -1/2 not strictly inside (0, 1)"),
        (Fraction(1, 1001), "field epsilon: 1/1001 has denominator 1001 above 1000"),
        (float("nan"), "field epsilon: nan not strictly inside (0, 1)"),
        (1, "field epsilon: 1 not strictly inside (0, 1)"),
    ):
        with pytest.raises(InstanceError) as exc:
            epsilon_fraction(bad)
        assert str(exc.value) == message


def test_an_epsilon_no_float_names_reads_back():
    # epsilon is written as a number when that number reads back as epsilon,
    # and as the text "a/b" otherwise (1/3 used to be written as
    # 0.3333333333333333, which the reader refused)
    for eps, written in (
        (Fraction(1, 2), 0.5),
        (Fraction(999, 1000), 0.999),
        (Fraction(1, 3), "1/3"),
        (Fraction(2, 7), "2/7"),
        (Fraction(1, 999), "1/999"),
    ):
        inst = GcdInstance.build([12, 18], [12, 24], 6, epsilon=eps)
        text = instance_to_json(inst)
        assert json.loads(text)["epsilon"] == written
        assert instance_from_json(text) == inst
    # the text form is checked as a number is, with the text in the message
    for text, message in (
        ("3/2", "field epsilon: 3/2 not strictly inside (0, 1)"),
        ("1/1001", "field epsilon: 1/1001 has denominator 1001 above 1000"),
        ("1/0", "field epsilon: '1/0' is not a number"),
        ("nan", "field epsilon: 'nan' is not a number"),
    ):
        with pytest.raises(InstanceError) as exc:
            instance_from_json(json.dumps({"A": ["2"], "B": ["2"], "D": "1", "epsilon": text}))
        assert str(exc.value) == message


@pytest.mark.slow
def test_every_accepted_epsilon_echoes_the_float_it_was_read_from():
    # a report echoes float(eps): for each a/d with d <= 1000 and 0 < a/d < 1
    # whose float the parser accepts, that is the float itself.  a/d and its
    # lowest terms are one rational, so one float: the loop visits lowest
    # terms and counts the d // q pairs (a, d) behind each p/q
    accepted = 0
    for q in range(2, 1001):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            x = p / q
            try:
                eps = epsilon_fraction(x)
            except InstanceError:
                continue
            assert repr(float(eps)) == repr(x), (p, q)
            accepted += 1000 // q
    assert accepted == 12608


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
    # int() would read 12.7 as 12 and true as 1; JSON integers and decimal strings stay valid
    for bad in ("12.7", "true", "false", "12.0"):
        with pytest.raises(InstanceError, match=rf"field A\[0\]: {bad.title()} is not a decimal"):
            instance_from_json(f'{{"A": [{bad}, 18], "B": ["12"], "D": "1"}}')
    inst = instance_from_json('{"A": [12, "18"], "B": ["12"], "D": "1"}')
    assert [a.value for a in inst.A] == [12, 18]
    with pytest.raises(InstanceError, match="field D"):
        instance_from_json('{"A": ["2"], "B": ["2"]}')
    with pytest.raises(InstanceError, match="epsilon"):
        instance_from_json('{"A": ["2"], "B": ["2"], "D": "1", "epsilon": "half"}')
    # int() would also read '1_2', ' 12 ' and Arabic-Indic digits as 12
    for bad in ("1_2", " 12 ", "\u0661\u0662", "-12", "+12", ""):
        with pytest.raises(InstanceError) as exc:
            instance_from_json(json.dumps({"A": [bad, "18"], "B": ["12"], "D": "1"}))
        assert str(exc.value) == f"field A[0]: {bad!r} is not a decimal integer"
    # json.loads alone would keep the last of a repeated key
    with pytest.raises(InstanceError, match="^field A: given more than once$"):
        instance_from_json('{"A": ["12"], "A": ["18"], "B": ["12"], "D": "1"}')
    with pytest.raises(InstanceError, match="^field p0: given more than once$"):
        instance_from_json('{"A": ["12"], "B": ["12"], "D": "1", "p0": 3, "p0": 5}')


def test_a_library_call_is_read_as_a_file_is():
    # each value below reaches build as a file's JSON value would, and fails
    # with the file's message
    for fields, message in (
        ({"D": "1_0"}, "field D: '1_0' is not a number"),
        ({"A": [True]}, "field A[0]: True is not a decimal integer"),
        ({"A": [12.7]}, "field A[0]: 12.7 is not a decimal integer"),
        ({"A": "12"}, "field A: expected a nonempty array of decimal strings"),
        ({"A": [0]}, "field A[0]: 0 must be >= 1"),
        ({"D": None}, "field D: missing"),
    ):
        doc = {"A": [12, 18], "B": [12, 24], "D": 6, **fields}
        for read in (
            lambda: instance_from_json(json.dumps(doc)),
            lambda: GcdInstance.build(doc["A"], doc["B"], doc["D"]),
        ):
            with pytest.raises(InstanceError) as exc:
                read()
            assert str(exc.value) == message
    with pytest.raises(InstanceError, match="^field Q: '6_0' is not a number$"):
        theorem51_bound([2, 3], [2, 3], "6_0")
    # theorem51_bound reads epsilon and p0 as build does
    assert theorem51_bound([2, 3], [2, 3], 6, epsilon=0.5) == theorem51_bound(
        [2, 3], [2, 3], 6, epsilon=Fraction(1, 2)
    )
    with pytest.raises(InstanceError, match="^field p0: -1 is not a natural number$"):
        theorem51_bound([2, 3], [2, 3], 6, p0=-1)
    with pytest.raises(InstanceError, match="^field Q: '6_0' is not a number$"):
        build_omega_ratio([2], [3], "6_0")
    # a float is read by its decimal text, not as the binary double
    inst = GcdInstance.build([12, 18], [12, 24], 2, 2.3, 12, check_ranges=False)
    assert inst.X == Fraction(23, 10)


def test_the_census_helpers_read_as_build_does():
    # the census keeps repeats, so only the item checks are shared with build
    for call, message in (
        (lambda: count_pairs_geq_naive(["1_2"], [18], 2), "field A[0]: '1_2' is not a decimal integer"),
        (lambda: count_pairs_geq_naive([12.7], [18], 2), "field A[0]: 12.7 is not a decimal integer"),
        (lambda: gcd_census([True], [3]), "field A[0]: True is not a decimal integer"),
        (lambda: gcd_census([3], [0]), "field B[0]: 0 must be >= 1"),
        (lambda: count_pairs_geq_fast([12], [18], "1_0"), "field D: '1_0' is not a number"),
        (lambda: count_pairs_geq_naive([12], [18], "1_0"), "field D: '1_0' is not a number"),
        (lambda: chase_diagonal_bound([4, 6], "4_0", 2), "field X: '4_0' is not a number"),
        (lambda: chase_diagonal_bound([4, 6], 4, "2_0"), "field D: '2_0' is not a number"),
    ):
        with pytest.raises(InstanceError) as exc:
            call()
        assert str(exc.value) == message
    # digit text and FactoredNats read as their values
    assert count_pairs_geq_fast(["12"], [factorize(18)], "6") == 1
    assert chase_diagonal_bound(["4", "6", "8"], "4", "2") == (True, 3)


def test_elements_dedupes_mixed_items_by_value():
    # repeats, digit text and FactoredNats of one value are one element
    twelve = factorize(12)
    got = _elements([18, "12", twelve, 12, "18", factorize(7), "7", 18], "A")
    assert got == (factorize(7), twelve, factorize(18))
    # a FactoredNat item is kept as it is, not factorized again
    p = primorial(50)
    got = _elements([p, str(2 * p.value), p.value], "B")
    assert got == (p, factorize(2 * p.value)) and got[0] is p
    for S, message in (
        ([12, "1_2"], "field A[1]: '1_2' is not a decimal integer"),
        ([12, 0], "field A[1]: 0 must be >= 1"),
        ([twelve, 12.0], "field A[1]: 12.0 is not a decimal integer"),
        ([12, True], "field A[1]: True is not a decimal integer"),
        ([], "field A: expected a nonempty array of decimal strings"),
        ({12}, "field A: expected a nonempty array of decimal strings"),
        (
            [12, 2**89 - 1, "12"],
            f"field A: cannot prove {2**89 - 1} prime: it is a strong probable prime to the"
            " bases up to 41, which decide only n < 3317044064679887385961981",
        ),
    ):
        with pytest.raises(InstanceError) as exc:
            _elements(S, "A")
        assert str(exc.value) == message


def test_delta_stored_exact():
    inst = GcdInstance.build([1, 2, 3], [1, 2, 3], 2, 1, 1, check_ranges=False)
    om = build_omega_gcd(inst)
    assert isinstance(om.delta, Fraction)
    assert om.delta == Fraction(2, 9)


# number text of every kind an instance file may hold: the grammar's three
# forms, and spaces, signs, '_', exponents, non-ASCII digits, zero
# denominators and values past int()'s 4300-digit limit
_DIGITS = st.integers(0, 200).map(str)
NUMBER_TEXT = st.one_of(
    _DIGITS,
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    st.builds("{}.{}".format, _DIGITS, _DIGITS),
    st.lists(
        st.sampled_from([*"0123456789", " ", "+", "-", "_", "e", ".", "/", "\u0661", "\uff15"]),
        max_size=8,
    ).map("".join),
    st.sampled_from(["1e400", "nan", "9" * 5000, "1/" + "7" * 5000, "0." + "3" * 5000]),
)


def _grammar_value(text: str):
    """Fraction(text) if text is ASCII digits, digits.digits or digits/digits
    with a nonzero denominator, within int()'s digit limit; else None."""
    head, sep, tail = text.partition("/") if "/" in text else text.partition(".")
    parts = (head, tail) if sep else (head,)
    if len(text) > 4300 or not all(p.isascii() and p.isdigit() for p in parts):
        return None
    return None if sep == "/" and int(tail) == 0 else Fraction(text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=NUMBER_TEXT)
def test_number_text_reads_as_its_fraction_or_not_at_all(text):
    expected = _grammar_value(text)
    try:
        got = decimal_fraction(text)
    except ValueError:
        got = None
    assert got == expected, text
    # an instance file's D, X, Y and epsilon text is read the same way; X and
    # Y are inferred as 10^20, so only a D below 1 fails the range check
    doc = json.dumps({"A": ["1" + "0" * 20], "B": ["1" + "0" * 20], "D": text})
    if expected is None:
        with pytest.raises(InstanceError, match=f"^field D: {re.escape(repr(text))} is not a "):
            instance_from_json(doc)
    elif expected < 1:
        with pytest.raises(InstanceError, match=f"^field D: {expected} must be >= 1$"):
            instance_from_json(doc)
    else:
        assert instance_from_json(doc).D == expected


_GOLDEN_INSTANCE = Path(__file__).resolve().parent / "golden" / "remark2.instance.json"
# a value the golden file could hold (X, Y and A's elements lie near 60, D
# is 6, epsilon 1/2), or any other
_FIELD_VALUE = st.one_of(
    st.sampled_from(["6", "60", "66", "5/2", "0.25", 6, 60, 0.25]),
    NUMBER_TEXT,
    st.integers(-5, 200),
    st.floats(),
    st.booleans(),
    st.none(),
)
_ELEMENT = st.one_of(st.integers(60, 120).map(str), _FIELD_VALUE)


@st.composite
def instance_doc(draw):
    """The remark2 golden instance with up to three fields redrawn."""
    doc = json.loads(_GOLDEN_INSTANCE.read_text())
    for key in draw(st.lists(st.sampled_from(sorted(doc)), unique=True, max_size=3)):
        doc[key] = draw(st.lists(_ELEMENT, max_size=4) if key in ("A", "B") else _FIELD_VALUE)
    return doc


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=instance_doc())
def test_a_malformed_instance_file_ends_in_an_exit_code_and_one_line(doc, tmp_path, capsys):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["stats", str(path)])  # a traceback fails the test
    out = capsys.readouterr()
    assert code in (0, 1, 2), doc
    if code == 2:
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1, doc
    else:
        assert out.err == "" and out.out, doc


def _outcome(read):
    try:
        return read()
    except InstanceError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(doc=instance_doc())
def test_a_file_and_a_library_call_read_the_same_values_alike(doc):
    from_file = _outcome(lambda: instance_from_json(json.dumps(doc)))
    A, B, D, X, Y = map(doc.get, "ABDXY")
    eps, p0 = doc.get("epsilon", 0.5), doc.get("p0", 100)
    from_call = _outcome(lambda: GcdInstance.build(A, B, D, X, Y, epsilon=eps, p0=p0))
    assert from_file == from_call, doc
