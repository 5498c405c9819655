import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab.arith import factorize, is_squarefree, rational_valuations
from gcdlab.families import remark2_family
from gcdlab.instance import GcdInstance, PairSet, build_omega_gcd, read_instance
from gcdlab.modulus import _cells, _per_prime_masks, prime_table
from gcdlab.structure import (
    DefectError,
    InternalConsistencyError,
    StructuredInstance,
    check_pivotal,
    defect,
    defect_census,
    defect_census_sweep,
    extract_witnesses,
    find_modulus,
    quad_identity_check,
    quad_identity_witnesses,
    valuation_measure,
    witness_chain,
)
from gcdlab.verify import random_pivotal_triple, random_structured_set
from pairset_views import edges

GOLDEN = Path(__file__).resolve().parent / "golden"


def sums_to_one(vm) -> bool:
    """alpha, beta and mu of a valuation measure each sum to exactly 1."""
    one = Fraction(1)
    return (
        sum(vm.alpha.values()) == one
        and sum(vm.beta.values()) == one
        and sum(vm.mu.values()) == one
    )


def test_valuation_measure_example():
    inst = GcdInstance.build([2, 3, 4], [2, 6], 2, 2, 2, check_ranges=False)
    om = build_omega_gcd(inst)
    assert {(a.value, b.value) for a, b in edges(om)} == {
        (2, 2), (2, 6), (4, 2), (4, 6), (3, 6),
    }
    vm = valuation_measure(inst, om, 2)
    assert vm.alpha == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    assert vm.beta == {1: Fraction(1)}
    assert vm.mu == {(0, 1): Fraction(1, 5), (1, 1): Fraction(2, 5), (2, 1): Fraction(2, 5)}
    assert sums_to_one(vm)


def test_valuation_measure_point_cases():
    # all elements coprime to p: mass sits at (0, 0)
    inst = GcdInstance.build([3, 5], [3, 5], 1, 3, 3)
    om = build_omega_gcd(inst)
    vm = valuation_measure(inst, om, 2)
    assert vm.mu == {(0, 0): Fraction(1)}
    # all elements sharing v_p = 1: mass at (1, 1)
    inst2 = GcdInstance.build([6, 10], [6, 10], 2, 6, 6)
    om2 = build_omega_gcd(inst2)
    vm2 = valuation_measure(inst2, om2, 2)
    assert vm2.mu == {(1, 1): Fraction(1)}


def test_valuation_measure_sums_random():
    rng = random.Random(41)
    for _ in range(50):
        A = sorted({rng.randint(10, 20) for _ in range(rng.randint(1, 6))})
        B = sorted({rng.randint(10, 20) for _ in range(rng.randint(1, 6))})
        inst = GcdInstance.build(A, B, 1, 10, 10)
        om = build_omega_gcd(inst)
        for p in (2, 3, 5):
            assert sums_to_one(valuation_measure(inst, om, p))


def _v(p: int, n: int) -> int:
    k = 0
    while n % p == 0:
        n, k = n // p, k + 1
    return k


def test_valuation_measure_matches_grouped_edges():
    # oracle: alpha, beta and mu are the counts of A, B and the pairs of
    # Omega grouped by their valuations, with keys in increasing order;
    # 101 divides no element below 202, and 11 often none
    rng = random.Random(2078)
    for _ in range(120):
        X = rng.choice((16, 64, 120, 300))
        A = rng.sample(range(X, 2 * X + 1), rng.randint(1, 12))
        B = rng.sample(range(X, 2 * X + 1), rng.randint(1, 12))
        inst = GcdInstance.build(A, B, rng.randint(1, 8), X, X, check_ranges=False)
        om = build_omega_gcd(inst)
        if not om:
            continue
        for p in (2, 3, 5, 7, 11, 101):
            vm = valuation_measure(inst, om, p)
            pairs = [(_v(p, a.value), _v(p, b.value)) for a, b in edges(om)]
            groups = {
                "alpha": (len(inst.A), Counter(_v(p, a.value) for a in inst.A)),
                "beta": (len(inst.B), Counter(_v(p, b.value) for b in inst.B)),
                "mu": (len(om), Counter(pairs)),
            }
            for name, (total, counts) in groups.items():
                want = {k: Fraction(c, total) for k, c in sorted(counts.items())}
                got = getattr(vm, name)
                assert list(got.items()) == list(want.items()), (A, B, p, name)


def test_valuation_measure_rejects_empty():
    inst = GcdInstance.build([3], [5], 1, 3, 5, check_ranges=False)
    empty = PairSet(inst.A, inst.B, 0)
    with pytest.raises(ValueError):
        valuation_measure(inst, empty, 2)


def test_check_pivotal_examples():
    assert check_pivotal(12, 18, 6)
    assert not check_pivotal(4, 9, 6)
    assert check_pivotal(6, 6, 6)


def test_find_modulus_two_powers():
    inst = GcdInstance.build([2, 4], [2, 4], 1, 2, 2)
    ms = find_modulus(inst, build_omega_gcd(inst))
    assert ms.n.value == 2  # k = 1 and k = 2 tie at 3 pairs; smallest wins
    assert len(ms.omega_prime) == 3
    assert ms.fraction == Fraction(3, 4)


def test_find_modulus_constant_set():
    inst = GcdInstance.build([12], [12], 12, 12, 12)
    ms = find_modulus(inst, build_omega_gcd(inst))
    assert ms.n.value == 12
    assert ms.fraction == 1


def test_find_modulus_short_cofactor_window():
    # multiples of D with X/D < D: N locks onto D times the smallest
    # cofactor; the pivotal fraction lands below 1/2 on these non-minimal
    # instances (computed, not asserted against the 1/2 of the minimal case)
    for X, D, expect_n, expect_frac in [
        (50, 10, 50, Fraction(1, 4)),
        (24, 6, 36, Fraction(7, 25)),
    ]:
        A = list(range(X, 2 * X + 1, D))
        inst = GcdInstance.build(A, A, D, X, X)
        ms = find_modulus(inst, build_omega_gcd(inst))
        assert ms.n.value == expect_n
        assert ms.fraction == expect_frac


def _oracle_instances():
    """Seeded random instances, then remark2 shapes with and without one
    element swapped for a non-multiple of D."""
    rng = random.Random(47)
    for _ in range(20):
        A = sorted({rng.randint(8, 40) for _ in range(rng.randint(2, 7))})
        B = sorted({rng.randint(8, 40) for _ in range(rng.randint(2, 7))})
        yield GcdInstance.build(A, B, rng.randint(1, 4), min(A), min(B), check_ranges=False)
    for X, Y, D in ((60, 40, 6), (100, 100, 10), (48, 72, 4)):
        A, B, _ = remark2_family(X, Y, D)
        yield GcdInstance.build(A, B, D, X, Y)
        yield GcdInstance.build(sorted(set(A[1:]) | {X + 1}), B, D, X, Y)


def _kept_by(om, p, k) -> list:
    """The pairs of om kept at p by k, from the definition."""
    return [
        (a, b) for a, b in edges(om) if abs(a.valuation(p) - k) + abs(b.valuation(p) - k) <= 1
    ]


def _ranges(om) -> dict[int, range]:
    """{p: range of v_p over A u B} for every prime of A u B, in order."""
    pool = sorted({p for el in om.A + om.B for p in el.primes()})
    vals = {p: [el.valuation(p) for el in om.A + om.B] for p in pool}
    return {p: range(min(v), max(v) + 1) for p, v in vals.items()}


def test_per_prime_masks_match_bruteforce():
    # masks are built for the binding primes alone, and a prime is dropped
    # exactly when its lowest k keeps every pair
    dropped = kept = 0
    for inst in _oracle_instances():
        om = build_omega_gcd(inst)
        ranges = _ranges(om)
        masks = _per_prime_masks(om, om.row_bits(), prime_table(om))
        binding = [p for p, *_ in masks]
        assert binding == [p for p, r in ranges.items() if _kept_by(om, p, r[0]) != list(edges(om))]
        for p, lo, hi, by_k in masks:
            assert range(lo, hi + 1) == ranges[p] and list(by_k) == list(ranges[p])
            for k in ranges[p]:
                assert list(edges(om.masked(by_k[k]))) == _kept_by(om, p, k)
        dropped += len(ranges) - len(binding)
        kept += len(binding)
    assert dropped and kept


def test_cells_equal_the_product():
    # a spread has bit i*width for each row i; _cells sums shifted copies of
    # it in place of the product when the columns, or their complement, are
    # at most width/60
    rng = random.Random(59)
    for width in (7, 61, 130, 300):
        A, B = range(10, 30), range(width, 2 * width)
        om = build_omega_gcd(GcdInstance.build(A, B, 1, 10, width, check_ranges=False))
        for _ in range(30):
            rows = rng.getrandbits(om.n_left)
            spread = om.spread(rows)
            assert spread == sum(1 << (i * width) for i in range(om.n_left) if rows >> i & 1)
            few = sum(1 << j for j in rng.sample(range(width), rng.randint(0, width // 60 + 1)))
            for cols in (few, (1 << width) - 1 - few, rng.getrandbits(width)):
                assert _cells(spread, cols, width) == spread * cols


def _reference_modulus(om):
    """(N, Omega' bits) over every prime of A u B: the first k vector in
    lexicographic order that keeps the most pairs, from every k vector."""
    nB = len(om.B)
    cell = {(a, b): 1 << (i * nB + j) for i, a in enumerate(om.A) for j, b in enumerate(om.B)}
    pool, ranges = zip(*_ranges(om).items())
    kept = [{k: sum(cell[e] for e in _kept_by(om, p, k)) for k in r} for p, r in zip(pool, ranges)]
    best, best_bits = None, None
    for ks in itertools.product(*ranges):
        bits = om.bits
        for by_k, k in zip(kept, ks):
            bits &= by_k[k]
        if best is None or bits.bit_count() > best_bits.bit_count():
            best, best_bits = ks, bits
    n = prod(p**k for p, k in zip(pool, best))
    assert best_bits == sum(cell[e] for e in edges(om) if check_pivotal(*e, n))
    return n, best_bits


def _golden_instances():
    """The five instances of the report goldens."""
    names = ("remark2", "remark2_swapped", "remark2_greedy", "sparse", "bigint")
    return [read_instance(GOLDEN / f"{name}.instance.json") for name in names]


def _k_vectors(om) -> int:
    """How many k vectors the reference search tries on om."""
    return prod(len(r) for r in _ranges(om).values())


def _search_instances():
    """Seeded small instances whose valuation ranges multiply to at most
    3000, so that every k vector can be tried, plus the oracle and golden
    instances within that."""
    rng = random.Random(71)
    out = []
    while len(out) < 150:
        X, Y = rng.randint(4, 40), rng.randint(4, 40)
        A = sorted({rng.randint(X, 2 * X) for _ in range(rng.randint(1, 7))})
        B = sorted({rng.randint(Y, 2 * Y) for _ in range(rng.randint(1, 7))})
        if rng.random() < 0.3:
            m = rng.choice([2, 3, 4, 6, 9])
            A, B = [a * m for a in A], [b * m for b in B]
        inst = GcdInstance.build(A, B, rng.randint(1, 5), min(A), min(B), check_ranges=False)
        om = build_omega_gcd(inst)
        if om and _k_vectors(om) <= 3000:
            out.append((inst, om))
    more = [(inst, build_omega_gcd(inst)) for inst in [*_oracle_instances(), *_golden_instances()]]
    return out + [(inst, om) for inst, om in more if om and _k_vectors(om) <= 3000]


def test_find_modulus_equals_the_reference_search():
    for inst, om in _search_instances():
        ms = find_modulus(inst, om)
        assert (ms.n.value, ms.omega_prime.bits) == _reference_modulus(om)


def test_a_free_prime_takes_its_lowest_k():
    # every pair joins v_2 = 1 (A) to v_2 = 0 (B), so k = 0 and k = 1 both
    # keep all of them at p = 2: 2 binds nowhere, takes its lowest k = 0,
    # and N is odd
    inst = GcdInstance.build([6, 10, 14, 22], [9, 15, 21, 26, 33], 3, 6, 9, check_ranges=False)
    om = build_omega_gcd(inst)
    assert prime_table(om)[2][0] == 0  # lo = 0 at p = 2
    assert _kept_by(om, 2, 0) == _kept_by(om, 2, 1) == list(edges(om))
    binding = _per_prime_masks(om, om.row_bits(), prime_table(om))
    assert 2 not in [p for p, *_ in binding]
    exact = find_modulus(inst, om)
    assert exact.n.value % 2 == 1
    assert (exact.n.value, exact.omega_prime.bits) == _reference_modulus(om)


def test_find_modulus_keeps_exactly_the_pivotal_pairs():
    for inst in list(_oracle_instances()) + _golden_instances():
        om = build_omega_gcd(inst)
        if not om:
            continue
        ms = find_modulus(inst, om)
        manual = [e for e in edges(om) if check_pivotal(e[0], e[1], ms.n)]
        assert list(edges(ms.omega_prime)) == manual


def _large_instances():
    """The golden instances and a seeded 80x80 sparse set near 10^4 that
    have too many k vectors for the reference search."""
    rng = random.Random(53)
    A = sorted(rng.sample(range(9000, 18001), 80))
    B = sorted(rng.sample(range(12000, 24001), 80))
    more = [(inst, build_omega_gcd(inst)) for inst in _golden_instances()]
    more.append((inst := GcdInstance.build(A, B, 8, 9000, 12000), build_omega_gcd(inst)))
    return [(inst, om) for inst, om in more if _k_vectors(om) > 3000]


def test_find_modulus_is_locally_optimal():
    # from the definition: changing one prime's k to another value of its
    # range never keeps more pairs than the N found
    cases = _large_instances()
    assert len(cases) == 5
    for inst, om in cases:
        ms = find_modulus(inst, om)
        ranges = _ranges(om)
        ks = {p: ms.n.valuation(p) for p in ranges}
        vals = {el: dict(el.factors) for el in om.A + om.B}

        def kept(a, b, p, k):
            return abs(vals[a].get(p, 0) - k) + abs(vals[b].get(p, 0) - k) <= 1

        fails = {}  # pair -> the primes where N loses it
        for a, b in edges(om):
            near = vals[a].keys() | vals[b].keys() | {p for p, k in ks.items() if k}
            fails[a, b] = {p for p in near if not kept(a, b, p, ks[p])}
        best = len(ms.omega_prime)
        assert best == sum(not f for f in fails.values())
        for p, r in ranges.items():
            movable = [e for e, f in fails.items() if f <= {p}]
            for k in r:
                assert sum(kept(a, b, p, k) for a, b in movable) <= best, (p, k)


def test_defect_examples():
    d = defect(12, 6)
    assert (d.a_plus, d.a_minus, d.a_star) == (2, 1, 2)
    d = defect(3, 6)
    assert (d.a_plus, d.a_minus, d.a_star) == (1, 2, 2)
    d = defect(6, 6)
    assert (d.a_plus, d.a_minus, d.a_star) == (1, 1, 1)


def test_defect_rejects_high_valuation():
    with pytest.raises(DefectError):
        defect(24, 6)  # v_2(24/6) = 2


def test_defect_roundtrip_and_coprimality():
    rng = random.Random(47)
    for _ in range(500):
        a, b, N = random_pivotal_triple(rng)
        for v in (a, b):
            d = defect(v, N)
            assert N * d.a_plus == v * d.a_minus  # recover a from (a+, a-, N)
            assert gcd(d.a_plus, d.a_minus) == 1
            assert d.a_star == d.a_plus * d.a_minus
            assert is_squarefree(d.a_star)


def reference_valuations(a, N) -> dict[int, int]:
    """{p: v_p(a/N)} built in a dict and sorted: the kernels' reference."""
    vals = dict(factorize(a).factors)
    for p, e in factorize(N).factors:
        v = vals.get(p, 0) - e
        if v:
            vals[p] = v
        else:
            vals.pop(p, None)
    return dict(sorted(vals.items()))


def reference_defect(a, N) -> tuple[int, int]:
    a_plus = a_minus = 1
    for p, v in reference_valuations(a, N).items():
        if v == 1:
            a_plus *= p
        elif v == -1:
            a_minus *= p
        else:
            raise DefectError(f"v_{p}({a}/{N}) = {v} outside {{-1, 0, 1}}")
    return a_plus, a_minus


_KERNEL_PRIMES = (2, 3, 5, 7, 11, 1000003)


@st.composite
def near_triples(draw):
    """(a, b, N) with each exponent of a and b within 2 of N's, so that
    pivotal pairs, non-pivotal pairs and undefined defects all occur."""
    width = len(_KERNEL_PRIMES)
    n_exp = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
    shifts = st.sampled_from((0, 0, 0, 1, -1, 2, -2))

    def near():
        d = draw(st.lists(shifts, min_size=width, max_size=width))
        return prod(p ** max(e + x, 0) for p, e, x in zip(_KERNEL_PRIMES, n_exp, d))

    return near(), near(), prod(p**e for p, e in zip(_KERNEL_PRIMES, n_exp))


@settings(max_examples=500, deadline=None)
@given(near_triples())
def test_merge_kernels_equal_the_dict_reference(triple):
    a, b, N = triple
    va, vb = reference_valuations(a, N), reference_valuations(b, N)
    assert list(rational_valuations(a, N).items()) == list(va.items())
    assert list(rational_valuations(b, N).items()) == list(vb.items())
    for x in (a, b):
        try:
            expect = reference_defect(x, N)
        except DefectError as exc:
            with pytest.raises(DefectError) as info:
                defect(x, N)
            assert str(info.value) == str(exc)
        else:
            assert tuple(defect(x, N)) == expect
    pivotal = all(abs(va.get(p, 0)) + abs(vb.get(p, 0)) <= 1 for p in va.keys() | vb.keys())
    assert check_pivotal(a, b, N) == pivotal
    if pivotal:
        assert quad_identity_check(a, b, N)
        rows = quad_identity_witnesses(a, b, N)
        assert [(r.p, r.v_a_over_n, r.v_b_over_n) for r in rows] == [
            (p, va.get(p, 0), vb.get(p, 0)) for p in sorted(va.keys() | vb.keys())
        ]
        assert all(r.ok for r in rows)
    else:
        for kernel in (quad_identity_check, quad_identity_witnesses):
            with pytest.raises(ValueError, match="is not pivotal"):
                kernel(a, b, N)


def test_quad_identity_examples():
    assert quad_identity_check(12, 18, 6)
    assert quad_identity_check(6, 6, 6)
    # sampled valid triple, frozen: a = 30030, b = 510510/77 with N = 2310
    a, b, N = 2310 * 13, 2310 * 17 // 7, 2310
    assert check_pivotal(a, b, N)
    assert quad_identity_check(a, b, N)


def test_quad_identity_rejects_non_pivotal():
    # (14, 21, 6) collides at p = 7: both valuations are +1
    assert not check_pivotal(14, 21, 6)
    with pytest.raises(ValueError):
        quad_identity_check(14, 21, 6)


def test_quad_identity_per_prime_table():
    rows = quad_identity_witnesses(12, 18, 6)
    assert all(r.ok for r in rows)
    assert {r.p for r in rows} == {2, 3}


def test_quad_identity_sampled_sweep():
    rng = random.Random(53)
    for _ in range(1000):
        a, b, N = random_pivotal_triple(rng)
        assert check_pivotal(a, b, N)
        assert quad_identity_check(a, b, N)
        assert all(r.ok for r in quad_identity_witnesses(a, b, N))


def test_defect_census_examples():
    c = defect_census([6], 6, 6, 1)
    assert c.count == 1 and c.holds and c.bound == 2

    # {12, 15, 18} in [12, 24] with N = 6: defects 2, 10, 3
    c = defect_census([12, 15, 18], 6, 12, 3)
    assert c.count == 2
    assert c.holds and c.range_ok
    assert {a: defect(a, 6).a_star for a in (12, 15, 18)} == {12: 2, 15: 10, 18: 3}


def test_defect_census_rejects_bad_window():
    with pytest.raises(ValueError, match="outside"):
        defect_census([12, 30], 6, 12, 3)


def test_defect_census_property_sweep():
    rng = random.Random(59)
    for _ in range(100):
        S, N, X = random_structured_set(rng)
        star_max = max(defect(a, N).a_star for a in S)
        T = Fraction(1)
        while T <= 2 * star_max:
            c = defect_census(S, N, X, T)
            assert c.holds and c.range_ok
            T *= 2


def test_defect_census_sweep_equals_per_t_census():
    rng = random.Random(61)
    cases = [random_structured_set(rng) for _ in range(60)]
    cases += [([12, 15, 18], 6, 12), ([10, 11, 12, 14, 15, 20], 10, 10), ([7, 10, 12, 14], 6, 7)]
    cases += [([6], 6, 6), ([6, 12], 6, 6)]  # largest a_star a power of two
    # the same sets below 2 min(S), against a non-integer X: any X strictly
    # inside [max(S)/2, min(S)]
    for S, N, _ in cases[:60]:
        S = [a for a in S if a < 2 * min(S)]
        lo, hi = Fraction(max(S), 2), Fraction(min(S))
        cases.append((S, N, lo + (hi - lo) * Fraction(rng.randint(1, 6), 7)))
    assert sum(Fraction(X).denominator > 1 for _, _, X in cases) >= 50
    for S, N, X in cases:
        defects = {a: defect(a, N) for a in S}
        top = 2 * max(d.a_star for d in defects.values())
        sweep = defect_census_sweep(S, N, X)
        grid = [c.bound / 2 for c in sweep]
        assert grid == [Fraction(2**k, 2) for k in range(len(grid))]
        assert grid[-1] <= top < 2 * grid[-1]
        for T, c in zip(grid, sweep):
            assert c == defect_census(S, N, X, T)
            # recounted from the definitions with Fraction comparisons
            counted = [d for d in defects.values() if d.a_star <= T]
            assert c.count == len(counted) and c.holds == (len(counted) <= 2 * T)
            assert c.range_ok == all(
                d.a_plus**2 <= 2 * X * T / N and d.a_minus**2 <= Fraction(N) * T / X
                for d in counted
            )
        # thresholds off the grid, where T, 2XT/N and NT/X are not integers
        for T in (Fraction(1, 3), Fraction(5, 2), Fraction(22, 7), Fraction(top, 3)):
            counted = [d for d in defects.values() if d.a_star <= T]
            assert defect_census(S, N, X, T) == (
                len(counted),
                2 * T,
                len(counted) <= 2 * T,
                all(
                    d.a_plus**2 <= 2 * X * T / N and d.a_minus**2 <= Fraction(N) * T / X
                    for d in counted
                ),
            )


def test_extract_witnesses_remark2():
    A = list(range(100, 201, 10))
    inst = GcdInstance.build(A, A, 10, 100, 100)
    si = find_modulus(inst, build_omega_gcd(inst))
    rep = extract_witnesses(si)
    assert rep.holds and rep.chain_ok
    assert rep.a_star >= rep.a_star_lower
    assert rep.b_star >= rep.b_star_lower
    assert Fraction(rep.quad_product) <= rep.quad_cap


def test_extract_witnesses_single_pair():
    inst = GcdInstance.build([4], [6], 2, 4, 6, check_ranges=False)
    si = find_modulus(inst, build_omega_gcd(inst))
    rep = extract_witnesses(si)
    assert rep.delta_prime == 1
    assert (rep.a, rep.b) == (4, 6)
    assert rep.holds and rep.chain_ok


def test_extract_witnesses_random_sweep():
    from gcdlab.search import random_structured_instance

    rng = random.Random(61)
    for _ in range(100):
        si = random_structured_instance(rng)
        rep = extract_witnesses(si)
        assert rep.holds and rep.chain_ok


def fraction_verdicts(si, chain):
    """(quad_cap, prop_bound, holds, chain_ok) of chain's pair as the
    Fraction expressions that the integer verdicts replaced."""
    inst, m, rows = si.base, len(si.omega_prime), si.omega_prime.row_bits()
    nA, nB, size = len(inst.A), len(inst.B), inst.size_product()
    tilde = sum(1 for r in rows if 4 * nA * r.bit_count() >= m)
    quad_cap = 4 * inst.X * inst.Y / (inst.D * inst.D)
    prop_bound = quad_cap * Fraction(250 * size * size, m * m)
    a_star = si.defects[inst.A[chain.ia]].a_star
    b_star = si.defects[inst.B[chain.ib]].a_star
    chain_ok = (
        4 * nB * tilde >= m
        and 4 * nA * rows[chain.ia].bit_count() >= m
        and rows[chain.ia] >> chain.ib & 1 == 1
        and a_star * b_star <= quad_cap
    )
    return quad_cap, prop_bound, size <= prop_bound, chain_ok


def assert_integer_verdicts_match(si):
    chain = witness_chain(si)
    quad_cap, prop_bound, holds, chain_ok = fraction_verdicts(si, chain)
    assert (chain.holds, chain.chain_ok) == (holds, chain_ok)
    if chain_ok:
        rep = extract_witnesses(si)
        assert (rep.quad_cap, rep.prop_bound, rep.holds, rep.chain_ok) == (
            quad_cap, prop_bound, holds, True
        )
    else:
        with pytest.raises(InternalConsistencyError, match="failed to verify"):
            extract_witnesses(si)
    return chain


def test_integer_witness_verdicts_match_the_fraction_expressions():
    from gcdlab.search import random_structured_instance

    rng = random.Random(1919)
    for _ in range(500):
        assert_integer_verdicts_match(random_structured_instance(rng))
    # X, Y and D that are not integers; X, Y move neither Omega' nor the pair
    hand = [
        GcdInstance.build([3, 4], [4, 5, 6, 7], Fraction(3, 2), Fraction(23, 10), Fraction(7, 2)),
        GcdInstance.build([12, 15, 18, 20], [14, 21, 24], Fraction(5, 2), Fraction(53, 5), 12),
        GcdInstance.build([4, 6, 8], [4, 6, 8], Fraction(7, 2), 1, 1, check_ranges=False),
    ]
    seen = set()
    for inst in hand:
        si = find_modulus(inst, build_omega_gcd(inst))
        chain = assert_integer_verdicts_match(si)
        m, size = len(si.omega_prime), inst.size_product()
        # the X at which a* b* = 4XY/D^2, and the X at which |A||B| =
        # 1000 delta'^-2 XY/D^2, exactly, and just either side of each
        x_quad = Fraction(chain.a_star * chain.b_star) * inst.D**2 / (4 * inst.Y)
        x_holds = Fraction(m * m) * inst.D**2 / (1000 * size * inst.Y)
        for X in (x_quad, x_holds, Fraction(1, 3), Fraction(23, 10)):
            for x in (X, X - Fraction(1, 10**9), X + Fraction(1, 10**9)):
                if x > 0:
                    c = assert_integer_verdicts_match(si._replace(base=inst._replace(X=x)))
                    seen.add((c.chain_ok, c.holds))
    # a passing chain forces the bound (a* b* >= m^2 / (64|A||B|)), so
    # chain_ok without holds cannot occur
    assert seen == {(True, True), (False, True), (False, False)}


def test_structured_instance_rejects_non_pivotal_edges():
    inst = GcdInstance.build([4, 9], [4, 9], 1, 4, 4, check_ranges=False)
    om = build_omega_gcd(inst)
    # the pair (4, 9) alone: v_2(4/6) = 1 and v_2(9/6) = -1 sum to 2
    bad = PairSet(om.A, om.B, 1 << 1)  # cell (A[0], B[1])
    assert [(a.value, b.value) for a, b in edges(bad)] == [(4, 9)]
    with pytest.raises(ValueError, match="pivotal"):
        StructuredInstance.build(inst, om, factorize(6), bad)


def test_structured_instance_accepts_exactly_the_pivotal_subsets():
    # Omega' built by hand (no pair, each pair alone, all pairs, seeded random
    # subsets) against moduli with primes outside A u B (7, 11) and exponents
    # outside the valuation range (2^4, 3^3, and N = 1)
    A, B = [6, 8, 9, 10, 12], [6, 7, 9, 12, 14, 15]
    inst = GcdInstance.build(A, B, 1, 6, 6, check_ranges=False)
    om = build_omega_gcd(inst)
    n_cells = len(A) * len(B)
    assert len(om) == n_cells
    rng = random.Random(67)
    masks = [0, om.bits] + [1 << k for k in range(n_cells)]
    masks += [rng.getrandbits(n_cells) & rng.getrandbits(n_cells) for _ in range(60)]
    for N in (1, 6, 7, 12, 16, 18, 27, 42, 66, 462, 432):
        verdicts = set()
        for mask in masks:
            sub = PairSet(inst.A, inst.B, mask)
            pivotal = all(check_pivotal(a, b, N) for a, b in edges(sub))
            verdicts.add(pivotal)
            if pivotal:
                si = StructuredInstance.build(inst, om, factorize(N), sub)
                elements = {el for pair in edges(sub) for el in pair}
                assert si.defects == {el: defect(el, N) for el in elements}
            else:
                with pytest.raises(ValueError, match="pivotal"):
                    StructuredInstance.build(inst, om, factorize(N), sub)
        assert verdicts == {True, False}


def pair_walk_error(omega_prime, n) -> str | None:
    """The ValueError text of the pair-by-pair pivotality check over
    edges(omega_prime), or None when Omega' is pivotal for n."""
    pairs = edges(omega_prime)
    for el in sorted({el for pair in pairs for el in pair}):
        try:
            defect(el, n)
        except DefectError as exc:
            return f"{el} in omega_prime is not pivotal for N = {n}: {exc}"
    for a, b in pairs:
        if gcd(defect(a, n).a_star, defect(b, n).a_star) != 1:
            return f"pair ({a}, {b}) in omega_prime is not pivotal for N = {n}"
    return None


def has_defect(el, n) -> bool:
    try:
        defect(el, n)
    except DefectError:
        return False
    return True


def test_corrupted_omega_prime_reports_the_pair_walks_first_offender():
    # against the N found, N times p and N over p for two of its primes:
    # every pair of Omega between elements with a defect (clashes over many
    # rows), then Omega' plus random pairs of Omega outside it
    rng = random.Random(73)
    messages = set()
    for inst in _oracle_instances():
        om = build_omega_gcd(inst)
        if not om:
            continue
        si = find_modulus(inst, om)
        outside = om.bits & ~si.omega_prime.bits
        ns = [si.n]
        ns += [factorize(si.n.value * p) for p, _ in si.n.factors[:2]]
        ns += [factorize(si.n.value // p) for p, _ in si.n.factors[:2]]
        for n in ns:
            rows = sum(1 << i for i, a in enumerate(om.A) if has_defect(a, n))
            cols = sum(1 << j for j, b in enumerate(om.B) if has_defect(b, n))
            corrupted = [om.bits & om.spread(rows) * cols]
            corrupted += [
                si.omega_prime.bits | outside & rng.getrandbits(len(om.A) * len(om.B))
                for _ in range(10)
            ]
            for bits in corrupted:
                sub = om.masked(bits)
                expect = pair_walk_error(sub, n)
                if expect is None:
                    StructuredInstance.build(inst, om, n, sub)
                    continue
                with pytest.raises(ValueError) as info:
                    StructuredInstance.build(inst, om, n, sub)
                assert str(info.value) == expect
                messages.add(expect.startswith("pair"))
    assert messages == {True, False}  # clashing pairs and undefined defects both occur
