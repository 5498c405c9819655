"""Acceptance battery: every criterion at its stated size and time budget,
one pass/fail line per criterion on stdout (run with -s to watch live)."""

import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from gcdlab import verify
from gcdlab.families import sec5_family
from gcdlab.measure import SweepExtremes, random_measure
from gcdlab.structure import DefectCensus, quad_identity
from gcdlab.verify import (
    check_census_oracle,
    check_concentration,
    check_defect_census,
    check_measure_partition,
    check_quad_identity,
    check_search_and_hunt,
    check_sec5,
    random_census_instance,
    random_pivotal_triple,
    random_structured_set,
)


def report(number: int, result, limit: float) -> None:
    verdict = "PASS" if result.ok and result.elapsed < limit else "FAIL"
    print(
        f"ACCEPTANCE {number} {result.name}: {verdict} "
        f"({result.elapsed:.1f}s of {limit:.0f}s budget)"
    )
    if not result.ok:
        print(f"  detail: {result.detail}")
    assert result.ok, result.detail
    assert result.elapsed < limit, f"{result.name} exceeded {limit}s"


def test_criterion_1_census_oracle():
    # 200 seeded instances, |A|,|B| <= 64, elements <= 1e6, four thresholds,
    # exact equality against the naive double loop
    report(1, check_census_oracle(n_instances=200), 10.0)


def test_criterion_2_defect_identity():
    # product identity and its per-prime form on 1e4 seeded pivotal triples
    report(2, check_quad_identity(n_triples=10**4), 10.0)


def test_criterion_3_defect_census():
    # count of defects <= T never above 2T on a log grid over 1e3 sets,
    # with the range caps on every counted element
    report(3, check_defect_census(n_sets=10**3), 30.0)


def test_criterion_4_concentration():
    # c >= 1/9 on 1e4 seeded admissible configurations and 1/9 <= c <= 1 on
    # the capped family, decided in integers, plus certified verdicts on
    # valuation measures
    report(4, check_concentration(), 60.0)


def test_criterion_5_primorial_family():
    # ratio cap X^2 and |A| >= X for X in [2, 40]; sizes 3, 5, 13 at 2, 4, 7
    report(5, check_sec5(x_max=40), 60.0)


@pytest.mark.slow
def test_criterion_6_sharpness_and_hunt():
    # exhaustive witness {4, 6, 8} at X = Y = 4, D = 2; clean diagonal sweep
    # to scale 16; clean structured hunt over 1e4 instances
    report(6, check_search_and_hunt(scale_limit=16, n_structured=10**4), 300.0)


def test_a_wrong_search_witness_fails_the_sharpness_check(monkeypatch):
    from gcdlab.search import SearchResult

    # a pair with the right product but not {4, 6, 8} on both sides
    wrong = SearchResult((4, 6, 8), (4, 5, 6), 9)
    monkeypatch.setattr(verify, "exhaustive_max", lambda space: wrong)
    res = check_search_and_hunt(n_structured=0)
    assert not res.ok
    assert res.detail["failures"] == [{"reason": "search witness", "result": 9}]


# Each test below breaks the one function a check calls, on gcdlab.verify,
# and asserts that the check fails with the record of that failure.


def test_a_wrong_census_fails_the_census_oracle(monkeypatch):
    # one pair of gcd 10^9 counts 1 at every threshold
    monkeypatch.setattr(verify, "gcd_census", lambda A, B: ((10**9, 1),))
    A, B = random_census_instance(random.Random(5))
    naive = sum(1 for a in A for b in B if gcd(a, b) >= 2)
    res = check_census_oracle(seed=5, n_instances=1)
    assert not res.ok
    assert res.detail["mismatches"][0] == {
        "instance": 0, "D": 2, "fast": 1, "rows": naive, "naive": naive
    }


def test_a_wrong_row_builder_fails_the_census_oracle(monkeypatch):
    # one extra row with one pair counts 1 too many at every threshold
    rows = verify._omega_rows
    monkeypatch.setattr(verify, "_omega_rows", lambda A, B, D: [*rows(A, B, D), 1])
    A, B = random_census_instance(random.Random(5))
    naive = sum(1 for a in A for b in B if gcd(a, b) >= 2)
    res = check_census_oracle(seed=5, n_instances=1)
    assert not res.ok
    assert res.detail["mismatches"][0] == {
        "instance": 0, "D": 2, "fast": naive, "rows": naive + 1, "naive": naive
    }


def _not_pivotal(quad):
    raise ValueError("not pivotal")


@pytest.mark.parametrize(
    "broken, reason",
    [
        (_not_pivotal, "generator not pivotal"),
        (lambda quad: quad._replace(holds=False), "product identity"),
        (lambda quad: quad._replace(witnesses=(SimpleNamespace(ok=False),)), "per-prime identity"),
    ],
)
def test_a_wrong_quad_identity_fails_the_defect_identity_check(monkeypatch, broken, reason):
    monkeypatch.setattr(verify, "quad_identity", lambda a, b, N: broken(quad_identity(a, b, N)))
    triple = random_pivotal_triple(random.Random(5))
    res = check_quad_identity(seed=5, n_triples=1)
    assert not res.ok
    assert res.detail["failures"] == [{"triple": triple, "reason": reason}]


def test_a_census_over_2t_fails_the_defect_census_check(monkeypatch):
    over = DefectCensus(count=3, bound=Fraction(2), holds=False, range_ok=True)
    monkeypatch.setattr(verify, "defect_census_sweep", lambda S, N, X: (over,))
    _, N, _ = random_structured_set(random.Random(5))
    res = check_defect_census(seed=5, n_sets=1)
    assert not res.ok
    assert res.detail["failures"] == [{"set_index": 0, "N": N, "T": "1", "count": 3}]


def test_a_c_below_one_ninth_fails_the_concentration_check(monkeypatch):
    low = SweepExtremes(min_c=0.1, c_lower_ok=False, max_c=0.5, c_upper_ok=True, max_ratio=1.0)
    monkeypatch.setattr(verify, "sweep_extremes", lambda configs, epsilon: low)
    res = check_concentration(n_random=1, n_exact=0)
    assert not res.ok
    assert res.detail["failures"][:2] == [
        {"family": "random", "c": 0.1, "reason": "c below 1/9"},
        {"family": "capped, lambda = 0.8", "c": 0.1, "reason": "c below 1/9"},
    ]


def test_a_certified_c_below_one_ninth_fails_the_concentration_check(monkeypatch):
    certified_low = (0.1, 0.2, False, 0.15)
    monkeypatch.setattr(verify, "min_admissible_c_interval", lambda mu, w, lam, eps: certified_low)
    res = check_concentration(n_random=1, n_exact=1)
    assert not res.ok
    assert res.detail["failures"] == [
        {"exact_config": 0, "interval": (0.1, 0.2), "reason": "certified c < 1/9"}
    ]


def test_a_wrong_family_fails_the_sec5_check(monkeypatch):
    _, report = sec5_family(2)
    monkeypatch.setattr(verify, "sec5_family", lambda X: ([1], report._replace(checks_passed=())))
    res = check_sec5(x_max=2)
    assert not res.ok
    assert res.detail["failures"] == [
        {"X": 2, "reason": "ratio above X^2"},
        {"X": 2, "reason": "|A| = 1 < X"},
        {"X": 2, "reason": "|A| = 1 != 3"},
    ]


def test_a_violation_fails_the_sharpness_check(monkeypatch):
    found = SimpleNamespace(detail={"instance": "a violation"})
    monkeypatch.setattr(verify, "hunt_violations", lambda scale, seed, n_structured: [found])
    res = check_search_and_hunt(scale_limit=2, n_structured=0)
    assert not res.ok
    assert res.detail["failures"] == [{"reason": "violations", "count": 1}]
    assert res.detail["violations"] == [{"instance": "a violation"}]


def test_a_wrong_partition_fails_the_measure_partition_check(monkeypatch):
    monkeypatch.setattr(verify, "sigma_decomposition", lambda mu, k: SimpleNamespace(total=-1))
    lo, _ = random_measure(random.Random(5)).coordinate_range()
    res = check_measure_partition(seed=5, n_measures=1)
    assert not res.ok
    assert res.detail["failures"][0] == {"measure": 0, "k": lo - 1, "reason": "partition sum"}


def test_criterion_7_measure_partition():
    # six-region split sums exactly to the total for every center over
    # 1e3 random measures; best_center is an argmin by exhaustive comparison
    report(7, check_measure_partition(n_measures=10**3), 10.0)
