import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gcdlab.arith import fraction_of
from gcdlab.instance import GcdInstance, build_omega_gcd, epsilon_fraction, read_instance
from gcdlab.measure import (
    Measure2D,
    WeightPair,
    best_center,
    capped_admissible_config,
    concentration_report,
    from_valuation_measure,
    min_admissible_c_interval,
    random_admissible_config,
    random_measure,
    sigma_decomposition,
    sweep_extremes,
    tail_mass,
)
from gcdlab import verify
from gcdlab.search import random_structured_instance
from gcdlab.structure import valuation_measure
from gcdlab.verify import check_concentration

GOLDEN = Path(__file__).resolve().parent / "golden"
HALF = Fraction(1, 2)


def unit(*idx) -> WeightPair:
    """x = y = the uniform unit vector on idx."""
    return WeightPair.from_densities(dict.fromkeys(idx, 1), dict.fromkeys(idx, 1))


def c_min(mu, w, lam) -> float:
    lo, hi, _, c = min_admissible_c_interval(mu, w, lam=lam, epsilon=0.5)
    assert lo <= c <= hi
    return c


def test_min_c_point_mass():
    mu = Measure2D.point_mass(0, 0)
    for lam in (Fraction(1, 20), Fraction(2, 5), Fraction(4, 5)):
        assert c_min(mu, unit(0), lam) == 1.0


def test_min_c_two_point_diagonal():
    # c = (1/2) / x_0^2 with x_0 = (1/2)^(3/5), so c^5 = 2 exactly
    mu = Measure2D.from_dict({(0, 0): 1, (1, 1): 1})
    lo, hi, ok, c = min_admissible_c_interval(mu, unit(0, 1), lam=HALF, epsilon=0.5)
    assert ok and c == pytest.approx(2 ** (1 / 5))
    assert Fraction(lo) ** 5 <= 2 <= Fraction(hi) ** 5


def test_min_c_off_diagonal():
    mu = Measure2D.from_dict({(0, 1): 1})
    w = WeightPair.from_densities({0: 1}, {1: 1})
    assert c_min(mu, w, HALF) == 2.0


def test_min_c_unbounded():
    mu = Measure2D.from_dict({(0, 0): 1, (3, 3): 1})
    with pytest.raises(ValueError, match="unsatisfiable"):
        min_admissible_c_interval(mu, unit(0), lam=HALF)
    with pytest.raises(ValueError, match="unsatisfiable"):
        concentration_report(mu, unit(0), HALF)


def test_lambda_domain():
    mu = Measure2D.point_mass(0, 0)
    for bad in (0, Fraction(-1, 10), Fraction(81, 100), 1, 0.81):
        with pytest.raises(ValueError, match="outside"):
            concentration_report(mu, unit(0), bad)
    # the boundary is included, and the float 0.8 is read as 4/5
    for lam in (Fraction(4, 5), 0.8):
        assert concentration_report(mu, unit(0), lam).c_min == 1.0


def test_tail_mass_examples():
    assert tail_mass(Measure2D.point_mass(5, 5), 5) == 0
    mu = Measure2D.from_dict({(0, 0): 8, (2, 2): 2})
    assert (tail_mass(mu, 0), mu.total) == (2, 10)
    mu2 = Measure2D.from_dict({(0, 0): 5, (0, 1): 3, (5, 7): 2})
    assert (tail_mass(mu2, 0), mu2.total) == (2, 10)


def test_tail_mass_exact_backing():
    mu = Measure2D.from_dict({(0, 0): Fraction(1, 3), (4, 4): Fraction(2, 3)})
    assert Fraction(tail_mass(mu, 0), mu.total) == Fraction(2, 3)


def test_best_center_examples():
    assert best_center(Measure2D.point_mass(7, 7)) == 7
    assert best_center(Measure2D.from_dict({(3, 3): 9, (0, 5): 1})) == 3
    assert best_center(Measure2D.from_dict({(0, 0): 1, (1, 1): 1})) == 0


def test_best_center_is_argmin():
    rng = random.Random(67)
    for _ in range(200):
        mu = random_measure(rng)
        lo, hi = mu.coordinate_range()
        k = best_center(mu)
        tk = tail_mass(mu, k)
        for other in range(lo - 1, hi + 2):
            assert tk <= tail_mass(mu, other)


def full_scan_center(mu: Measure2D) -> int:
    """The reference best_center: every k over [min coord - 1, max coord + 1],
    smallest k on ties."""
    lo, hi = mu.coordinate_range()
    return min(range(lo - 1, hi + 2), key=lambda k: tail_mass(mu, k))


def test_best_center_equals_the_full_scan():
    rng = random.Random(83)
    near = 0
    for n in range(3000):
        span = (1, 2, 6)[n % 3]
        mu = random_measure(rng, span=span)
        if n % 2:  # the same support with probabilities as Fractions
            raw = [rng.randint(1, 20) for _ in mu.weights]
            mu = Measure2D.from_dict(
                {pt: Fraction(v, sum(raw)) for (pt, _), v in zip(mu.weights, raw)}
            )
        k = best_center(mu)
        assert k == full_scan_center(mu)
        near += k >= mu.coordinate_range()[0]
    assert near > 1000  # most measures keep some mass near their center


def test_sigma_examples():
    sig = sigma_decomposition(Measure2D.point_mass(0, 0), 0)
    assert sig.sigma[5] == 1

    mu = Measure2D.from_dict({(0, 0): 5, (0, 1): 3, (5, 7): 2})
    sig = sigma_decomposition(mu, 0)
    assert sig.sigma[5] == 5  # center
    assert sig.sigma[3] == 3  # unit neighbor
    assert sig.sigma[0] == 2  # generic off-diagonal

    sig = sigma_decomposition(Measure2D.from_dict({(1, 1): 1}), 0)
    assert sig.sigma[4] == 1  # punctured diagonal


def test_sigma_partition_random():
    rng = random.Random(71)
    for _ in range(100):
        mu = random_measure(rng)
        lo, hi = mu.coordinate_range()
        for k in range(lo - 1, hi + 2):
            sig = sigma_decomposition(mu, k)
            assert sig.total == mu.total
            assert all(s >= 0 for s in sig.sigma)


def test_measure_validation():
    with pytest.raises(ValueError, match="negative"):
        Measure2D.from_dict({(0, 0): 3, (1, 1): -1})
    with pytest.raises(ValueError, match="no positive entry"):
        Measure2D.from_dict({(0, 0): 0})
    with pytest.raises(TypeError, match="not an int or Fraction"):
        Measure2D.from_dict({(0, 0): 0.7})
    with pytest.raises(ValueError, match="negative"):
        WeightPair.from_densities({0: Fraction(-1, 2)}, {0: 1})
    # probabilities and counts give the same measure, on a common total
    mu = Measure2D.from_dict({(0, 0): Fraction(1, 3), (1, 2): Fraction(1, 2), (2, 2): 0})
    assert mu == Measure2D.from_dict({(0, 0): 2, (1, 2): 3}) == Measure2D(
        (((0, 0), 2), ((1, 2), 3)), 5
    )


def test_interval_encloses_float_value():
    w = WeightPair.from_densities({0: 2, 1: 2, 2: 1}, {0: 2, 1: 2, 2: 1})
    mu = Measure2D.from_dict({(0, 0): 2, (0, 1): 1, (2, 1): 1})
    lo, hi, ok, c_root = min_admissible_c_interval(mu, w, lam=HALF, epsilon=0.5)
    assert ok
    x = {0: 0.4 ** 0.6, 1: 0.4 ** 0.6, 2: 0.2 ** 0.6}  # x_i = alpha_i^(1/q'), q' = 5/3
    c = max(m / 4 / (0.5 ** abs(i - j) * x[i] * x[j]) for (i, j), m in mu.weights)
    assert lo <= c <= hi and lo <= c_root <= hi
    assert hi - lo < 1e-12


def test_interval_point_mass_exact():
    mu = Measure2D.point_mass(0, 0)
    lo, hi, ok, c = min_admissible_c_interval(mu, unit(0), lam=HALF, epsilon=0.5)
    assert lo <= 1.0 <= hi and hi - lo < 1e-14 and ok and c == 1.0


def test_exact_verdict_at_the_floor():
    # a lambda past the lemma's 4/5 (concentration_report refuses it) puts
    # c_min = 1/lambda at the floor 1/9, then 10^-30 below it
    w = WeightPair.from_densities({0: 1}, {1: 1})
    mu = Measure2D.point_mass(0, 1)
    for lam, expect in ((Fraction(9), True), (9 + Fraction(1, 10**30), False)):
        lo, hi, ok, _ = min_admissible_c_interval(mu, w, lam=lam, epsilon=0.5)
        assert ok is expect
        assert Fraction(lo) <= 1 / lam <= Fraction(hi)


def test_a_c_min_past_the_float_range_keeps_an_exact_verdict():
    # c = 20^300 = 10^390: the verdict and the lower end stay exact, and
    # the float ends past the range are infinite
    mu = Measure2D.point_mass(0, 300)
    w = WeightPair.from_densities({0: 1}, {300: 1})
    rep = concentration_report(mu, w, Fraction(1, 20))
    assert rep.c_lower_ok and rep.c_interval == (1.7976931348623157e308, math.inf)
    assert rep.c_min == math.inf
    # the whole mass is tail, so tail / lambda^3 is exactly 20^3
    assert rep.ratio == 8000.0


def mpmath_interval(iv, mu, w, p, eps: Fraction, dps: int = 40):
    """The reference enclosure of c_min: mpmath interval arithmetic at dps
    digits with lambda = p^(-1/(2+eps)), endpoints converted to floats and
    nudged outward."""

    def iv_fraction(q):
        q = fraction_of(q)
        return iv.mpf(q.numerator) / iv.mpf(q.denominator)

    old_dps = iv.dps
    iv.dps = dps
    try:
        lam = iv.mpf(p) ** (iv.mpf(-1) / iv_fraction(2 + eps))
        inv_qp = iv.mpf(1) / iv_fraction((2 + eps) / (1 + eps))
        x = {i: iv_fraction(Fraction(a, w.alpha_total)) ** inv_qp for i, a in w.alpha}
        y = {j: iv_fraction(Fraction(b, w.beta_total)) ** inv_qp for j, b in w.beta}
        lo = hi = None
        for (i, j), m in mu.weights:
            denom = lam ** abs(i - j) * x[i] * y[j]
            ratio = iv_fraction(Fraction(m, mu.total)) / denom
            lo = ratio.a if lo is None else max(lo, ratio.a)
            hi = ratio.b if hi is None else max(hi, ratio.b)
        return (
            math.nextafter(float(lo), -math.inf),
            math.nextafter(float(hi), math.inf),
        )
    finally:
        iv.dps = old_dps


@pytest.mark.slow
def test_exact_enclosure_matches_the_mpmath_reference():
    iv = pytest.importorskip("mpmath").iv
    rng = random.Random(89)
    epsilons = (0.5, 0.25, 0.1, 0.3, 0.75)
    configs = 0
    while configs < 2000:
        si = random_structured_instance(rng, max_scale=24, max_side=8)
        primes = sorted({p for el in si.base.A + si.base.B for p in el.primes()})
        for p in primes[:3]:
            epsilon = epsilons[configs % len(epsilons)]
            eps = epsilon_fraction(epsilon)
            n = 2 * eps.denominator + eps.numerator
            mu, w, _ = from_valuation_measure(valuation_measure(si.base, si.omega, p), epsilon)
            lo, hi, ok, _ = min_admissible_c_interval(mu, w, p=p, epsilon=epsilon)
            # c_min^n exactly: lambda^n = p^-b and x_i^n = alpha_i^(a+b)
            alpha = {i: Fraction(a, w.alpha_total) for i, a in w.alpha}
            beta = {j: Fraction(b, w.beta_total) for j, b in w.beta}
            c_pow = max(
                Fraction(m, mu.total) ** n * p ** (eps.denominator * abs(i - j))
                / (alpha[i] * beta[j]) ** (eps.numerator + eps.denominator)
                for (i, j), m in mu.weights
            )
            assert Fraction(lo) ** n <= c_pow <= Fraction(hi) ** n
            assert ok == (c_pow >= Fraction(1, 9) ** n)
            ref_lo, ref_hi = mpmath_interval(iv, mu, w, p, eps)
            assert lo in (ref_lo, math.nextafter(ref_lo, math.inf)), (p, epsilon)
            assert hi in (ref_hi, math.nextafter(ref_hi, -math.inf)), (p, epsilon)
            assert ok == (not ref_hi < 1 / 9)
            configs += 1


def test_reported_c_min_lies_in_its_interval():
    # c_min comes from the integer root behind c_interval; the float maximum
    # over the rounded x_i fell outside on 225 of these 2,001 configurations
    rng = random.Random(5)
    configs = 0
    while configs < 2001:
        si = random_structured_instance(rng, max_scale=24, max_side=8)
        primes = sorted({p for el in si.base.A + si.base.B for p in el.primes()})
        for p in primes[:3]:
            mu, w, lam = from_valuation_measure(valuation_measure(si.base, si.omega, p))
            rep = concentration_report(mu, w, lam, p=p)
            lo, hi = rep.c_interval
            assert lo <= rep.c_min <= hi, (configs, p)
            configs += 1


def test_valuation_bridge_reads_epsilon_as_its_decimal():
    # at epsilon = 0.55 the binary value of the float gives another q'
    inst = read_instance(GOLDEN / "remark2.instance.json")
    vm = valuation_measure(inst, build_omega_gcd(inst), 3)
    mu, w, lam = from_valuation_measure(vm, epsilon=0.55)
    decimal, binary = Fraction(11, 20), Fraction(0.55)
    assert lam == 3.0 ** (-1.0 / float(2 + decimal))
    inv = {e: 1.0 / float((2 + e) / (1 + e)) for e in (decimal, binary)}
    assert inv[decimal] != inv[binary]
    gamma = 1.0 - max(
        float(a) ** inv[decimal] * float(vm.beta[i]) ** inv[decimal]
        for i, a in vm.alpha.items()
        if i in vm.beta
    )
    assert concentration_report(mu, w, lam, epsilon=0.55, p=3).gamma == gamma


def test_epsilon_near_one_certifies_remark2_in_under_a_second():
    # epsilon = 999/1000 raises to the power n = 2999, the largest the cap allows
    inst = read_instance(GOLDEN / "remark2.instance.json")
    vm = valuation_measure(inst, build_omega_gcd(inst), 2)
    mu, w, lam = from_valuation_measure(vm, epsilon=0.999)
    start = time.perf_counter()
    rep = concentration_report(mu, w, lam, epsilon=0.999, p=2)
    assert time.perf_counter() - start < 1.0
    lo, hi = rep.c_interval
    assert rep.c_lower_ok and 1 / 9 < lo < hi < lo + 1e-15


def test_concentration_lower_bound_sweep():
    rng = random.Random(73)
    configs = [random_admissible_config(rng) for _ in range(2000)]
    assert sweep_extremes(configs).c_lower_ok  # c^5 >= (1/9)^5 at the least c_min
    assert all(min_admissible_c_interval(mu, w, lam=lam)[2] for mu, w, lam in configs[:200])


def test_capped_family_achieves_c_at_most_one():
    rng = random.Random(79)
    for lam in (Fraction(4, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)):
        configs = [(*capped_admissible_config(rng, lam), lam) for _ in range(50)]
        sweep = sweep_extremes(configs, epsilon=0.5)
        assert sweep.c_lower_ok and sweep.c_upper_ok and sweep.max_c <= 1.0
        for mu, w, _ in configs:
            lo, hi, ok, _ = min_admissible_c_interval(mu, w, lam=lam, epsilon=0.5)
            assert ok and lo <= 1.0


def test_sweep_extremes_rejects_an_empty_sweep():
    with pytest.raises(ValueError, match="at least one configuration"):
        sweep_extremes([])


def test_sweep_extremes_match_the_report():
    # one configuration is its own least and largest: the sweep displays the
    # same roots and decides the same verdict as the report
    rng = random.Random(97)
    for _ in range(200):
        mu, w, lam = random_admissible_config(rng)
        sweep = sweep_extremes([(mu, w, lam)], epsilon=0.5)
        rep = concentration_report(mu, w, lam)
        assert sweep.min_c == sweep.max_c == rep.c_min
        assert sweep.max_ratio == rep.ratio
        assert sweep.c_lower_ok == rep.c_lower_ok
        assert rep.ratio == float(Fraction(tail_mass(mu, rep.k), mu.total) / lam**3)


def test_valuation_bridge_point_mass():
    # odd D with X = D: both elements share every odd-prime valuation, so
    # the edge measure is a point mass and the tail vanishes identically
    inst = GcdInstance.build([15, 30], [15, 30], 15, 15, 15)
    om = build_omega_gcd(inst)
    for p in (3, 5):
        vm = valuation_measure(inst, om, p)
        mu, w, lam = from_valuation_measure(vm)
        rep = concentration_report(mu, w, lam, p=p)
        assert rep.tail == 0 and rep.ratio == 0
        assert rep.c_lower_ok
        assert rep.c_interval is not None
        lo, hi = rep.c_interval
        assert lo <= 1.0 <= hi


def test_valuation_bridge_general_instance():
    A = list(range(100, 201, 10))
    inst = GcdInstance.build(A, A, 10, 100, 100)
    om = build_omega_gcd(inst)
    vm = valuation_measure(inst, om, 2)
    mu, w, lam = from_valuation_measure(vm)
    assert lam == pytest.approx(2 ** (-1 / 2.5))
    rep = concentration_report(mu, w, lam, p=2)
    assert rep.c_lower_ok
    assert rep.sigma.total == mu.total


@pytest.mark.parametrize("offset", [2, 9, 13])
def test_concentration_check_passes_at_held_out_seeds(offset):
    # the capped family's largest tail/lambda^3 reaches 56.23 at these
    # offsets, above any maximum a single seed could freeze (55.71 at 0)
    assert check_concentration(seed=20260809 + offset, n_random=1000, n_exact=5).ok


def test_run_all_passes_the_seed_offset_to_the_concentration_check(monkeypatch):
    calls = []

    def record(name):
        return lambda **kwargs: calls.append((name, kwargs))

    for name in verify.__all__:
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, record(name))
    seeds = []
    for offset in (0, 1):
        calls.clear()
        verify.run_all(quick=True, seed_offset=offset)
        (kwargs,) = [kw for name, kw in calls if name == "check_concentration"]
        seeds.append(kwargs["seed"])
    assert seeds == [20260809, 20260810]


def test_a_capped_configuration_with_c_above_one_fails_the_check(monkeypatch):
    # the point mass at (0, 1) with x_0 = y_1 = 1 has c_min = 1/lambda > 1
    def c_above_one(rng, lam, *, epsilon):
        return Measure2D.point_mass(0, 1), WeightPair.from_densities({0: 1}, {1: 1})

    monkeypatch.setattr(verify, "capped_admissible_config", c_above_one)
    result = check_concentration(n_random=10, n_exact=0)
    assert not result.ok
    reasons = {f["reason"] for f in result.detail["failures"]}
    assert reasons == {"c above 1"}
