"""Shared verification engine: seeded generators plus the full battery of
checks run by the acceptance suite and the `verify all` subcommand.

Each check returns a CheckResult; sizes default to the full battery and
scale down in quick mode.  All randomness flows through explicit seeds, so
any failure is replayable.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .arith import divisors, is_squarefree, radical
from .families import sec5_family
from .instance import count_pairs_geq_fast, count_pairs_geq_naive
from .measure import (
    best_center,
    capped_admissible_config,
    concentration_report,
    from_valuation_measure,
    random_admissible_config,
    random_measure,
    sigma_decomposition,
    sweep_extremes,
    tail_mass,
)
from .search import (
    SearchSpace,
    exhaustive_max,
    hunt_violations,
    random_structured_instance,
)
from .structure import (
    check_pivotal,
    defect_census_sweep,
    quad_identity_check,
    quad_identity_witnesses,
    valuation_measure,
)

__all__ = [
    "CheckResult",
    "check_census_oracle",
    "check_concentration",
    "check_defect_census",
    "check_measure_partition",
    "check_quad_identity",
    "check_search_and_hunt",
    "check_sec5",
    "random_census_instance",
    "random_pivotal_triple",
    "random_structured_set",
    "run_all",
]

_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the concentration check's generators: the random family is drawn from
# Random(seed), the capped family (per lambda) from Random(seed + 1)
_CONCENTRATION_SEED = 20260809
_CONCENTRATION_EPSILON = 0.5
_CAPPED_LAMBDAS = tuple(map(Fraction, ("0.8", "0.4", "0.2", "0.1", "0.05")))
_CAPPED_PER_LAMBDA = 200


class CheckResult(NamedTuple):
    name: str
    ok: bool
    elapsed: float
    detail: dict


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def random_census_instance(rng: random.Random, *, max_side: int = 64, max_value: int = 10**6):
    A = sorted({rng.randint(1, max_value) for _ in range(rng.randint(1, max_side))})
    B = sorted({rng.randint(1, max_value) for _ in range(rng.randint(1, max_side))})
    return A, B


def random_pivotal_triple(rng: random.Random) -> tuple[int, int, int]:
    """(a, b, N) with |v_p(a/N)| + |v_p(b/N)| <= 1 at every prime, by giving
    a and b disjoint defect-prime supports (minus-primes drawn from N)."""
    n_primes = sorted(rng.sample(_PRIME_POOL, rng.randint(0, 5)))
    N = 1
    for p in n_primes:
        N *= p ** rng.randint(1, 3)
    n_set = set(n_primes)
    k_a, k_b = rng.randint(0, 4), rng.randint(0, 4)
    chosen = rng.sample(_PRIME_POOL, k_a + k_b)

    def build(side) -> int:
        num, den = 1, 1
        for p in side:
            if p in n_set and rng.random() < 0.5:
                den *= p
            else:
                num *= p
        return N * num // den

    return build(chosen[:k_a]), build(chosen[k_a:]), N


def random_structured_set(rng: random.Random, *, max_size: int = 30):
    """(S, N, X) with X = N, S inside [N, 2N], and every element of the form
    N * u / v with u, v squarefree, coprime, v | N."""
    n_primes = sorted(rng.sample(_PRIME_POOL, rng.randint(1, 4)))
    N = 1
    for p in n_primes:
        N *= p ** rng.randint(1, 2)
    sf_divs = divisors(radical(N))
    S = {N}
    target = rng.randint(3, max_size)
    for _ in range(12 * target):
        if len(S) >= target:
            break
        v = rng.choice(sf_divs)
        u = rng.randint(v, 2 * v)
        # v | rad(N) | N, so N * u / v is an integer
        if math.gcd(u, v) != 1 or not is_squarefree(u):
            continue
        S.add(N * u // v)
    return sorted(S), N, N


# ---------------------------------------------------------------------------
# Checks (acceptance battery)
# ---------------------------------------------------------------------------


def check_census_oracle(
    seed: int = 1001, n_instances: int = 200, d_values=(2, 5, 17, 1000)
) -> CheckResult:
    """Fast census equals the naive double loop, exactly, on every seeded
    instance and threshold."""
    start = time.perf_counter()
    rng = random.Random(seed)
    mismatches = []
    pairs_total = 0
    for idx in range(n_instances):
        A, B = random_census_instance(rng)
        pairs_total += len(A) * len(B)
        for D in d_values:
            fast = count_pairs_geq_fast(A, B, D)
            naive = count_pairs_geq_naive(A, B, D)
            if fast != naive:
                mismatches.append({"instance": idx, "D": D, "fast": fast, "naive": naive})
    return CheckResult(
        "census-oracle-equivalence",
        not mismatches,
        time.perf_counter() - start,
        {
            "instances": n_instances,
            "d_values": list(d_values),
            "pairs_total": pairs_total,
            "mismatches": mismatches[:5],
        },
    )


def check_quad_identity(seed: int = 2002, n_triples: int = 10**4) -> CheckResult:
    """a* b* = ab/gcd(a,b)^2 exactly for every pivotal triple, including the
    per-prime valuation form."""
    start = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for idx in range(n_triples):
        a, b, N = random_pivotal_triple(rng)
        if not check_pivotal(a, b, N):
            failures.append({"triple": (a, b, N), "reason": "generator not pivotal"})
            continue
        if not quad_identity_check(a, b, N):
            failures.append({"triple": (a, b, N), "reason": "product identity"})
            continue
        if not all(row.ok for row in quad_identity_witnesses(a, b, N)):
            failures.append({"triple": (a, b, N), "reason": "per-prime identity"})
    return CheckResult(
        "defect-identity",
        not failures,
        time.perf_counter() - start,
        {"triples": n_triples, "failures": failures[:5]},
    )


def check_defect_census(seed: int = 3003, n_sets: int = 10**3) -> CheckResult:
    """Count of defects <= T never exceeds 2T on a log grid of T, and every
    counted element obeys the a_plus / a_minus range caps."""
    start = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for idx in range(n_sets):
        S, N, X = random_structured_set(rng)
        for census in defect_census_sweep(S, N, X):
            if not (census.holds and census.range_ok):
                failures.append(
                    {"set_index": idx, "N": N, "T": str(census.bound / 2), "count": census.count}
                )
    return CheckResult(
        "defect-count-census",
        not failures,
        time.perf_counter() - start,
        {"sets": n_sets, "failures": failures[:5]},
    )


def check_concentration(
    seed: int = _CONCENTRATION_SEED,
    n_random: int = 10**4,
    n_exact: int = 50,
) -> CheckResult:
    """c_min >= 1/9 on every seeded admissible configuration, and 1/9 <=
    c_min <= 1 on the capped family, each decided exactly on the family's
    extremes (measure.sweep_extremes); then the certified verdict on
    valuation-derived configurations.  The capped family's largest
    tail/lambda^(q+eps) at each lambda is an observation, not a check: the
    lemma leaves its constant unspecified."""
    start = time.perf_counter()
    epsilon = _CONCENTRATION_EPSILON
    failures, seen_c, max_ratio = [], [], {}
    rng, rng_capped = random.Random(seed), random.Random(seed + 1)
    families = [(None, (random_admissible_config(rng) for _ in range(n_random)))]
    for lam in _CAPPED_LAMBDAS:
        configs = (
            (*capped_admissible_config(rng_capped, lam, epsilon=epsilon), lam)
            for _ in range(_CAPPED_PER_LAMBDA)
        )
        families.append((lam, configs))
    for lam, configs in families:
        sweep = sweep_extremes(configs, epsilon=epsilon)
        seen_c.append(sweep.min_c)
        family = "random" if lam is None else f"capped, lambda = {float(lam)}"
        if not sweep.c_lower_ok:
            failures.append({"family": family, "c": sweep.min_c, "reason": "c below 1/9"})
        if lam is not None:
            max_ratio[str(float(lam))] = sweep.max_ratio
            if not sweep.c_upper_ok:
                failures.append({"family": family, "c": sweep.max_c, "reason": "c above 1"})
    # exact verdicts on valuation-derived configurations
    rng_exact = random.Random(seed + 2)
    for idx in range(n_exact):
        si = random_structured_instance(rng_exact, max_scale=24, max_side=8)
        p = min(p for el in si.base.A + si.base.B for p in el.primes())
        vm = valuation_measure(si.base, si.omega, p)
        mu, w, lam = from_valuation_measure(vm, epsilon=epsilon)
        rep = concentration_report(mu, w, lam, epsilon=epsilon, p=p)
        if not rep.c_lower_ok:
            failures.append(
                {"exact_config": idx, "interval": rep.c_interval, "reason": "certified c < 1/9"}
            )
    return CheckResult(
        "concentration-constants",
        not failures,
        time.perf_counter() - start,
        {
            "configs": n_random,
            "exact_configs": n_exact,
            "min_c_seen": min(seen_c),
            "max_ratio_capped": max_ratio,
            "failures": failures[:5],
        },
    )


def check_sec5(x_max: int = 40) -> CheckResult:
    """Primorial family exactness: ratio cap X^2 and size >= X for every X,
    with the spot sizes 3, 5, 13 at X = 2, 4, 7."""
    start = time.perf_counter()
    failures = []
    spot = {2: 3, 4: 5, 7: 13}
    for X in range(2, x_max + 1):
        A, report = sec5_family(X)
        if "pair-ratio-cap" not in report.checks_passed:
            failures.append({"X": X, "reason": "ratio above X^2"})
        if "size-at-least-X" not in report.checks_passed:
            failures.append({"X": X, "reason": f"|A| = {len(A)} < X"})
        if X in spot and len(A) != spot[X]:
            failures.append({"X": X, "reason": f"|A| = {len(A)} != {spot[X]}"})
    return CheckResult(
        "primorial-family-exactness",
        not failures,
        time.perf_counter() - start,
        {"x_max": x_max, "failures": failures[:5]},
    )


def check_search_and_hunt(
    seed: int = 6006, scale_limit: int = 16, n_structured: int = 10**4
) -> CheckResult:
    """Sharpness witness at X = Y = 4, D = 2, then the full violation hunt:
    diagonal sweep and structured-instance product bound."""
    start = time.perf_counter()
    failures = []
    res = exhaustive_max(SearchSpace(X=4, Y=4, D=2))
    if res.max_product != 9 or set(res.best_a) != {4, 6, 8} or set(res.best_b) != {4, 6, 8}:
        failures.append({"reason": "search witness", "result": res.max_product})
    violations = hunt_violations(scale_limit, seed, n_structured=n_structured)
    if violations:
        failures.append({"reason": "violations", "count": len(violations)})
    return CheckResult(
        "sharpness-and-no-violation",
        not failures,
        time.perf_counter() - start,
        {
            "scale_limit": scale_limit,
            "structured_instances": n_structured,
            "violations": [v.detail for v in violations[:3]],
            "failures": failures[:5],
        },
    )


def check_measure_partition(seed: int = 7007, n_measures: int = 10**3) -> CheckResult:
    """The six regions partition the mass exactly for every center, and
    best_center is a true argmin."""
    start = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for idx in range(n_measures):
        mu = random_measure(rng)
        lo, hi = mu.coordinate_range()
        tails = {}
        for k in range(lo - 1, hi + 2):
            if sigma_decomposition(mu, k).total != mu.total:
                failures.append({"measure": idx, "k": k, "reason": "partition sum"})
            tails[k] = tail_mass(mu, k)
        if tails[best_center(mu)] > min(tails.values()):
            failures.append({"measure": idx, "reason": "best_center not argmin"})
    return CheckResult(
        "measure-partition",
        not failures,
        time.perf_counter() - start,
        {"measures": n_measures, "failures": failures[:5]},
    )


def run_all(*, quick: bool = False, seed_offset: int = 0) -> list[CheckResult]:
    """The full battery (acceptance sizes), or a 10x-smaller quick pass."""
    f = 10 if quick else 1
    return [
        check_census_oracle(seed=1001 + seed_offset, n_instances=max(1, 200 // f)),
        check_quad_identity(seed=2002 + seed_offset, n_triples=10**4 // f),
        check_defect_census(seed=3003 + seed_offset, n_sets=10**3 // f),
        check_concentration(
            seed=_CONCENTRATION_SEED + seed_offset,
            n_random=10**4 // f,
            n_exact=50 // f,
        ),
        check_sec5(x_max=20 if quick else 40),
        check_search_and_hunt(
            seed=6006 + seed_offset,
            scale_limit=12 if quick else 16,
            n_structured=10**4 // f,
        ),
        check_measure_partition(seed=7007 + seed_offset, n_measures=10**3 // f),
    ]
