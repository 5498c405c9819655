import hashlib
import math
import random
from fractions import Fraction

import pytest

from gcdlab.search import (
    SearchResult,
    SearchSpace,
    exhaustive_max,
    hunt_violations,
    max_pairwise_compatible,
    random_structured_instance,
)
from gcdlab.verify import random_structured_set


def exhaustive_max_bruteforce(space: SearchSpace) -> SearchResult:
    """Independent oracle: plain enumeration with the optimal counterpart
    side computed from the definition.  Only for small spaces."""
    space.check()
    ua, ub = space.universes()
    if space.mode != "exact-delta-1":
        raise ValueError("oracle covers the exact-delta-1 mode")
    best = 0
    best_pair = ((), ())
    for mask in range(1, 1 << len(ua)):
        sub = tuple(v for i, v in enumerate(ua) if mask >> i & 1)
        if space.force_equal:
            if all(
                math.gcd(sub[i], sub[j]) >= space.D
                for i in range(len(sub))
                for j in range(i + 1, len(sub))
            ) and len(sub) ** 2 > best:
                best = len(sub) ** 2
                best_pair = (sub, sub)
            continue
        bmax = tuple(b for b in ub if all(math.gcd(a, b) >= space.D for a in sub))
        if len(sub) * len(bmax) > best:
            best = len(sub) * len(bmax)
            best_pair = (sub, bmax)
    return SearchResult(best_pair[0], best_pair[1], best)


def test_acceptance_witness():
    res = exhaustive_max(SearchSpace(X=4, Y=4, D=2))
    assert res.max_product == 9
    assert set(res.best_a) == {4, 6, 8} and set(res.best_b) == {4, 6, 8}


def test_no_constraint_gives_full_intervals():
    res = exhaustive_max(SearchSpace(X=5, Y=7, D=1))
    assert res.max_product == 6 * 8


def test_degenerate_window():
    for D in (3, 5, 8):
        res = exhaustive_max(SearchSpace(X=D, Y=D, D=D))
        assert res.max_product == 4
        assert set(res.best_a) == {D, 2 * D}


def test_bnb_equals_bruteforce():
    for X, Y, D in [
        (3, 3, 2), (4, 5, 2), (5, 4, 3), (6, 6, 4), (7, 5, 2),
        (8, 8, 5), (9, 7, 3), (10, 10, 6), (10, 6, 4),
    ]:
        fast = exhaustive_max(SearchSpace(X=X, Y=Y, D=D))
        slow = exhaustive_max_bruteforce(SearchSpace(X=X, Y=Y, D=D))
        assert fast.max_product == slow.max_product, (X, Y, D)
        diag_fast = exhaustive_max(SearchSpace(X=X, Y=X, D=D, force_equal=True))
        diag_slow = exhaustive_max_bruteforce(SearchSpace(X=X, Y=X, D=D, force_equal=True))
        assert diag_fast.max_product == diag_slow.max_product, ("diag", X, D)


def test_bipartite_side_can_exceed_diagonal_cap():
    # A = {10, 12, 15, 20} vs B = {60} is feasible at D = 10 although the A
    # side exceeds floor(X/D) + 1 = 2, so the diagonal gap bound is not a
    # valid per-side prune in bipartite mode; the search must still agree
    # with plain enumeration on such windows
    A, b = [10, 12, 15, 20], 60
    assert all(math.gcd(a, b) >= 10 for a in A)
    assert len(A) > 10 // 10 + 1
    fast = exhaustive_max(SearchSpace(X=10, Y=60, D=10, exhaustive_limit=70))
    slow = exhaustive_max_bruteforce(SearchSpace(X=10, Y=60, D=10, exhaustive_limit=70))
    assert fast.max_product == slow.max_product


def test_threshold_mode_exact_matches_definition():
    # every (A, B) enumerated, on square and on non-square universes
    for X, Y, D, target in (
        (4, 4, 2, Fraction(1, 2)),
        (3, 6, 2, Fraction(1, 3)),
        (6, 4, 2, Fraction(1, 4)),
        (4, 5, 3, Fraction(1, 2)),
        (5, 3, 2, Fraction(2, 3)),
    ):
        sp = SearchSpace(X=X, Y=Y, D=D, delta_target=target, mode="threshold-delta")
        res = exhaustive_max(sp)
        ua, ub = list(range(X, 2 * X + 1)), list(range(Y, 2 * Y + 1))
        best = 0
        for am in range(1, 1 << len(ua)):
            A = [v for i, v in enumerate(ua) if am >> i & 1]
            for bm in range(1, 1 << len(ub)):
                B = [v for i, v in enumerate(ub) if bm >> i & 1]
                good = sum(1 for a in A for b in B if math.gcd(a, b) >= D)
                if Fraction(good) >= target * len(A) * len(B):
                    best = max(best, len(A) * len(B))
        assert res.max_product == best
        good = sum(1 for a in res.best_a for b in res.best_b if math.gcd(a, b) >= D)
        assert len(res.best_a) * len(res.best_b) == best and good >= target * best


def test_threshold_mode_result_is_feasible():
    sp = SearchSpace(X=6, Y=6, D=3, delta_target=Fraction(2, 3), mode="threshold-delta")
    res = exhaustive_max(sp)
    good = sum(1 for a in res.best_a for b in res.best_b if math.gcd(a, b) >= 3)
    assert Fraction(good) >= Fraction(2, 3) * len(res.best_a) * len(res.best_b)


def test_threshold_mode_above_cap_is_rejected():
    half = Fraction(1, 2)
    for X, Y in ((13, 4), (4, 13), (15, 15), (20, 20)):
        sp = SearchSpace(X=X, Y=Y, D=3, delta_target=half, mode="threshold-delta")
        with pytest.raises(ValueError, match="exact only for X, Y <= 12"):
            exhaustive_max(sp)
    SearchSpace(X=12, Y=12, D=3, delta_target=half, mode="threshold-delta").check()


def test_threshold_mode_needs_a_density_in_the_unit_interval():
    for target in (None, Fraction(0), Fraction(-1, 2), Fraction(2), Fraction(11, 10)):
        sp = SearchSpace(X=4, Y=4, D=2, delta_target=target, mode="threshold-delta")
        with pytest.raises(ValueError, match=r"delta_target in \(0, 1\]"):
            sp.check()
    SearchSpace(X=4, Y=4, D=2, delta_target=Fraction(1), mode="threshold-delta").check()
    # the exact-delta-1 mode reads no target, so it takes none
    with pytest.raises(ValueError, match="applies only to threshold-delta"):
        SearchSpace(X=4, Y=4, D=2, delta_target=Fraction(1, 2)).check()


def test_universe_cap_enforced():
    with pytest.raises(ValueError, match="universe too large"):
        exhaustive_max(SearchSpace(X=40, Y=5, D=2))
    with pytest.raises(ValueError):
        exhaustive_max(SearchSpace(X=5, Y=5, D=2, force_equal=True, mode="nonsense"))
    for X, Y in ((-3, 5), (5, 0)):  # an empty universe has no extremal set
        with pytest.raises(ValueError, match="X and Y must be >= 1"):
            exhaustive_max(SearchSpace(X=X, Y=Y, D=1))


def test_diagonal_sharpness_at_multiples():
    # for X a multiple of D the gap bound floor(X/D) + 1 is attained, and
    # the multiples-of-D set is a witness
    for X, D in [(6, 2), (12, 3), (16, 4), (15, 5)]:
        best = max_pairwise_compatible(X, D)
        assert len(best) == X // D + 1
        witness = list(range(X, 2 * X + 1, D))
        assert len(witness) == X // D + 1
        assert all(
            math.gcd(a, b) >= D for a in witness for b in witness if a != b
        )


def test_structured_instance_generator():
    rng = random.Random(83)
    for _ in range(20):
        si = random_structured_instance(rng)
        assert len(si.omega_prime) >= 1
        assert si.omega_prime.delta <= si.omega.delta


def test_hunt_small_run_clean():
    assert hunt_violations(scale_limit=10, seed=7, n_structured=150) == []


def test_hunt_takes_the_diagonal_verdict_from_chase_diagonal_bound(monkeypatch):
    import gcdlab.search as search

    monkeypatch.setattr(search, "chase_diagonal_bound", lambda A, X, D: (False, 0))
    found = hunt_violations(scale_limit=3, n_structured=0)
    assert len(found) == 6  # every (X, D) with 1 <= D <= X <= 3
    assert {v.kind for v in found} == {"diagonal-gap-bound"}
    assert all(v.detail["allowed"] == 0 for v in found)


def test_hunt_violation_detail_carries_the_product_bound(monkeypatch):
    # a chain that raises, fails or does not hold is recorded with the bound
    # 1000 XY / (delta'^2 D^2) in its detail
    import gcdlab.search as search
    from gcdlab.structure import InternalConsistencyError, witness_chain

    def raising(si):
        raise InternalConsistencyError("forced")

    def failing(si):
        return witness_chain(si)._replace(chain_ok=False)

    def not_holding(si):
        return witness_chain(si)._replace(holds=False)

    for fake in (raising, failing, not_holding):
        monkeypatch.setattr(search, "witness_chain", fake)
        found = hunt_violations(scale_limit=2, seed=3, n_structured=5)
        rng = random.Random(3)
        assert len(found) == 5
        for v in found:
            si = random_structured_instance(rng)
            inst, d = si.base, si.delta_prime
            bound = 1000 * inst.X * inst.Y / (d * d * inst.D * inst.D)
            assert v.kind == "structured-product-bound"
            assert v.detail["N"] == si.n.value and v.detail["delta_prime"] == str(d)
            assert v.detail["bound"] == str(bound)


def test_hunt_is_deterministic():
    a = hunt_violations(scale_limit=6, seed=11, n_structured=40)
    b = hunt_violations(scale_limit=6, seed=11, n_structured=40)
    assert a == b


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_hunt_and_census_draws_are_pinned():
    # the random calls behind each draw are part of the contract: the first
    # 500 hunt draws at the battery's seed 6006, each as "A B D X Y N bits"
    # with bits the Omega' grid bits, and the first 200 defect-census sets
    # (S, N, X) at seed 3003
    def line(si):
        inst = si.base
        A, B = [a.value for a in inst.A], [b.value for b in inst.B]
        return f"{A} {B} {inst.D} {inst.X} {inst.Y} {si.n.value} {si.omega_prime.bits}"

    rng = random.Random(6006)
    lines = [line(random_structured_instance(rng)) for _ in range(500)]
    assert lines[:3] == [
        "[6, 9, 10, 12] [4, 6] 3 6 4 6 138",
        "[40, 41, 42, 55] [24, 30, 31, 32, 37, 39, 41, 42, 46, 47] 2 31 24 42 438304768",
        "[9, 14, 15, 18] [48, 50, 52, 59, 63, 72, 73, 74] 9 9 39 9 268435472",
    ]
    assert _sha256(lines) == "254d22779d205ec08271e555130ee185b6b0f5c06159c6d17997fe98cc454f86"
    rng = random.Random(3003)
    sets = [repr(random_structured_set(rng)) for _ in range(200)]
    assert sets[0] == "([438746, 794486, 820820, 877492], 438746, 438746)"
    assert _sha256(sets) == "d67cc46ee8f9b04765715917679ecfc7358d3b05e87451077d75a47642f6a032"
