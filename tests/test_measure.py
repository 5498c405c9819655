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
    calibrate_tail_constant,
    capped_admissible_config,
    concentration_report,
    from_valuation_measure,
    load_calibration,
    min_admissible_c,
    min_admissible_c_interval,
    random_admissible_config,
    random_measure,
    sigma_decomposition,
    tail_mass,
)
from gcdlab.search import random_structured_instance
from gcdlab.structure import valuation_measure

QP = 5 / 3  # conjugate index at epsilon = 1/2
GOLDEN = Path(__file__).resolve().parent / "golden"


def unit_weights(idx):
    n = len(idx)
    v = n ** (-1 / QP)
    return {i: v for i in idx}


def test_min_c_point_mass():
    mu = Measure2D.point_mass(0, 0)
    w = WeightPair.from_weights({0: 1.0}, {0: 1.0}, QP)
    for lam in (0.05, 0.4, 0.8):
        assert min_admissible_c(mu, w, lam) == 1.0


def test_min_c_two_point_diagonal():
    mu = Measure2D.from_dict({(0, 0): 0.5, (1, 1): 0.5})
    w = WeightPair.from_weights(unit_weights([0, 1]), unit_weights([0, 1]), QP)
    c = min_admissible_c(mu, w, 0.5)
    assert c == pytest.approx(2 ** (2 / QP - 1))
    assert c == pytest.approx(2 ** (1 / 5))


def test_min_c_off_diagonal():
    mu = Measure2D.from_dict({(0, 1): 1.0})
    w = WeightPair.from_weights({0: 1.0}, {1: 1.0}, QP)
    assert min_admissible_c(mu, w, 0.5) == pytest.approx(2.0)


def test_min_c_unbounded():
    mu = Measure2D.from_dict({(0, 0): 0.5, (3, 3): 0.5})
    w = WeightPair.from_weights({0: 1.0}, {0: 1.0}, QP)
    assert math.isinf(min_admissible_c(mu, w, 0.5))
    with pytest.raises(ValueError, match="unsatisfiable"):
        concentration_report(mu, w, 0.5)


def test_lambda_domain():
    mu = Measure2D.point_mass(0, 0)
    w = WeightPair.from_weights({0: 1.0}, {0: 1.0}, QP)
    for bad in (0.0, -0.1, 0.81, 1.0):
        with pytest.raises(ValueError):
            min_admissible_c(mu, w, bad)
    assert min_admissible_c(mu, w, 0.8) == 1.0  # boundary included


def test_tail_mass_examples():
    assert tail_mass(Measure2D.point_mass(5, 5), 5) == 0
    mu = Measure2D.from_dict({(0, 0): 0.8, (2, 2): 0.2})
    assert tail_mass(mu, 0) == pytest.approx(0.2)
    mu2 = Measure2D.from_dict({(0, 0): 0.5, (0, 1): 0.3, (5, 7): 0.2})
    assert tail_mass(mu2, 0) == pytest.approx(0.2)


def test_tail_mass_exact_backing():
    mu = Measure2D.from_dict({(0, 0): Fraction(1, 3), (4, 4): Fraction(2, 3)})
    assert tail_mass(mu, 0) == Fraction(2, 3)


def test_best_center_examples():
    assert best_center(Measure2D.point_mass(7, 7)) == 7
    assert best_center(Measure2D.from_dict({(3, 3): 0.9, (0, 5): 0.1})) == 3
    assert best_center(Measure2D.from_dict({(0, 0): 0.5, (1, 1): 0.5})) == 0


def test_best_center_is_argmin():
    rng = random.Random(67)
    for _ in range(200):
        mu = random_measure(rng)
        lo, hi = mu.coordinate_range()
        k = best_center(mu)
        tk = tail_mass(mu, k)
        for other in range(lo - 1, hi + 2):
            assert tk <= tail_mass(mu, other) + 1e-15


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
        if n % 2:  # the same support with exact weights
            raw = [Fraction(rng.randint(1, 20)) for _ in mu.weights]
            mu = Measure2D.from_dict({pt: v / sum(raw) for (pt, _), v in zip(mu.weights, raw)})
        k = best_center(mu)
        assert k == full_scan_center(mu)
        near += k >= mu.coordinate_range()[0]
    assert near > 1000  # most measures keep some mass near their center


def test_sigma_examples():
    w = WeightPair.from_weights({0: 1.0}, {0: 1.0}, QP)
    sig = sigma_decomposition(Measure2D.point_mass(0, 0), w, 0)
    assert sig.sigma[5] == 1

    mu = Measure2D.from_dict({(0, 0): 0.5, (0, 1): 0.3, (5, 7): 0.2})
    sig = sigma_decomposition(mu, w, 0)
    assert sig.sigma[5] == pytest.approx(0.5)  # center
    assert sig.sigma[3] == pytest.approx(0.3)  # unit neighbor
    assert sig.sigma[0] == pytest.approx(0.2)  # generic off-diagonal

    sig = sigma_decomposition(Measure2D.from_dict({(1, 1): 1.0}), w, 0)
    assert sig.sigma[4] == 1  # punctured diagonal


def test_sigma_partition_random():
    rng = random.Random(71)
    w = WeightPair.from_weights({0: 1.0}, {0: 1.0}, QP)
    for _ in range(100):
        mu = random_measure(rng)
        lo, hi = mu.coordinate_range()
        for k in range(lo - 1, hi + 2):
            sig = sigma_decomposition(mu, w, k)
            assert abs(float(sig.total) - float(mu.total_mass)) <= 1e-12
            assert all(s >= 0 for s in sig.sigma)


def test_measure_validation():
    with pytest.raises(ValueError, match="total mass"):
        Measure2D.from_dict({(0, 0): 0.7})
    with pytest.raises(ValueError, match="negative"):
        Measure2D.from_dict({(0, 0): 1.5, (1, 1): -0.5})
    with pytest.raises(ValueError, match="total mass"):
        Measure2D.from_dict({(0, 0): Fraction(1, 3)})
    with pytest.raises(ValueError, match="norm"):
        WeightPair.from_weights({0: 0.5}, {0: 1.0}, QP)


def test_interval_encloses_float_value():
    alpha = {0: Fraction(2, 5), 1: Fraction(2, 5), 2: Fraction(1, 5)}
    w = WeightPair.from_densities(alpha, alpha, Fraction(5, 3))
    mu = Measure2D.from_dict(
        {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (2, 1): Fraction(1, 4)}
    )
    lam = Fraction(1, 2)
    lo, hi, ok, c_root = min_admissible_c_interval(mu, w, lam=lam, epsilon=0.5)
    assert ok
    c = min_admissible_c(mu, w, float(lam))
    assert lo <= c <= hi and lo <= c_root <= hi
    assert hi - lo < 1e-12


def test_interval_point_mass_exact():
    w = WeightPair.from_densities({0: Fraction(1)}, {0: Fraction(1)}, Fraction(5, 3))
    mu = Measure2D.point_mass(0, 0)
    lo, hi, ok, c = min_admissible_c_interval(mu, w, lam=Fraction(1, 2), epsilon=0.5)
    assert lo <= 1.0 <= hi and hi - lo < 1e-14 and ok and c == 1.0


def test_exact_verdict_at_the_floor():
    # a lambda past the lemma's 4/5 (concentration_report refuses it) puts
    # c_min = 1/lambda at the floor 1/9, then 10^-30 below it
    w = WeightPair.from_densities({0: Fraction(1)}, {1: Fraction(1)}, Fraction(5, 3))
    mu = Measure2D.point_mass(0, 1)
    for lam, expect in ((Fraction(9), True), (9 + Fraction(1, 10**30), False)):
        lo, hi, ok, _ = min_admissible_c_interval(mu, w, lam=lam, epsilon=0.5)
        assert ok is expect
        assert Fraction(lo) <= 1 / lam <= Fraction(hi)


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
        x = {i: iv_fraction(a) ** inv_qp for i, a in w.x_pow}
        y = {j: iv_fraction(b) ** inv_qp for j, b in w.y_pow}
        lo = hi = None
        for (i, j), wt in mu.weights:
            denom = lam ** abs(i - j) * x[i] * y[j]
            ratio = iv_fraction(wt) / denom
            lo = ratio.a if lo is None else max(lo, ratio.a)
            hi = ratio.b if hi is None else max(hi, ratio.b)
        return (
            math.nextafter(float(lo), -math.inf),
            math.nextafter(float(hi), math.inf),
        )
    finally:
        iv.dps = old_dps


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
            alpha, beta = dict(w.x_pow), dict(w.y_pow)
            c_pow = max(
                wt**n * p ** (eps.denominator * abs(i - j))
                / (alpha[i] * beta[j]) ** (eps.numerator + eps.denominator)
                for (i, j), wt in mu.weights
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
    _, w, lam = from_valuation_measure(vm, epsilon=0.55)
    decimal, binary = Fraction(11, 20), Fraction(0.55)
    assert w.q_prime == float((2 + decimal) / (1 + decimal))
    assert w.q_prime != float((2 + binary) / (1 + binary))
    assert lam == 3.0 ** (-1.0 / float(2 + decimal))


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
    for _ in range(2000):
        mu, w, lam = random_admissible_config(rng)
        assert min_admissible_c(mu, w, lam) >= 1 / 9 - 1e-9


def test_capped_family_achieves_c_at_most_one():
    rng = random.Random(79)
    for lam in (0.8, 0.4, 0.2, 0.1, 0.05):
        for _ in range(50):
            mu, w = capped_admissible_config(rng, lam)
            c = min_admissible_c(mu, w, lam)
            assert 1 / 9 - 1e-9 <= c <= 1 + 1e-9


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
    assert abs(sum(float(s) for s in rep.sigma.sigma) - 1) < 1e-12


def test_calibration_fixture_reproducible():
    cal = load_calibration()
    redo = calibrate_tail_constant(
        cal["seed"],
        n_random=cal["n_random"],
        family_per_lambda=cal["family_per_lambda"],
        lambda_grid=tuple(cal["lambda_grid"]),
        epsilon=cal["epsilon"],
    )
    assert redo["max_ratio_random"] == cal["max_ratio_random"]
    assert redo["max_ratio_capped"] == cal["max_ratio_capped"]
    assert cal["max_ratio_random"] <= cal["K"]
    assert cal["max_ratio_capped"] <= cal["K_capped"] <= cal["K"]
