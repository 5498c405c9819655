"""Acceptance battery: every criterion at its stated size and time budget,
one pass/fail line per criterion on stdout (run with -s to watch live)."""

import pytest

from gcdlab.verify import (
    check_census_oracle,
    check_concentration,
    check_defect_census,
    check_measure_partition,
    check_quad_identity,
    check_search_and_hunt,
    check_sec5,
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
    report(1, check_census_oracle(n_instances=200, d_values=(2, 5, 17, 1000)), 10.0)


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


def test_criterion_7_measure_partition():
    # six-region split sums exactly to the total for every center over
    # 1e3 random measures; best_center is an argmin by exhaustive comparison
    report(7, check_measure_partition(n_measures=10**3), 10.0)
