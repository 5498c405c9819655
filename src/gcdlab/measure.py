"""Numerics for concentration of finitely supported probability measures on
Z^2 under the hypothesis mu(i,j) <= c * lambda^|i-j| * x_i * y_j with
l^q'-normalized weight sequences x, y.

Two backings coexist: plain floats for sweeps, and exact rationals for
measures coming from valuation statistics.  There x_i = alpha_i^(1/q') is
irrational, but with epsilon = a/b every c_ij^(2b+a) is rational, so the
verdict c_min >= 1/9 is an integer comparison and the reported enclosure of
c_min comes from an integer root: no order decision rests on float noise.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .arith import _iroot, fraction_of
from .instance import epsilon_fraction

__all__ = [
    "ConcentrationReport",
    "LAMBDA_MAX",
    "Measure2D",
    "SigmaDecomposition",
    "WeightPair",
    "best_center",
    "capped_admissible_config",
    "concentration_report",
    "from_valuation_measure",
    "load_calibration",
    "calibrate_tail_constant",
    "min_admissible_c",
    "min_admissible_c_interval",
    "random_admissible_config",
    "random_measure",
    "sigma_decomposition",
    "tail_mass",
]

LAMBDA_MAX = 0.8  # the lemma's hypothesis lambda <= 4/5
NORM_TOL = 1e-12
GUARD = 1e-9
C_FLOOR = Fraction(1, 9)
_ROOT_BITS = 160  # fractional bits of the integer root that encloses c_min

_CALIBRATION_RESOURCE = "concentration_calibration.json"


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction))


class Measure2D(NamedTuple):
    """Finitely supported probability measure on Z^2.

    Weights are floats or exact Fractions; total mass must be 1 exactly in
    the rational backing and within 1e-12 otherwise (from_dict checks it).
    Zero weights are dropped, support is kept sorted.
    """

    weights: tuple[tuple[tuple[int, int], object], ...]

    @classmethod
    def from_dict(cls, mapping) -> "Measure2D":
        mu = cls(
            tuple(((int(i), int(j)), w) for (i, j), w in sorted(mapping.items()) if w != 0)
        )
        total = 0
        for (i, j), w in mu.weights:
            if w < 0:
                raise ValueError(f"negative weight {w} at {(i, j)}")
            total += w
        if mu.is_exact:
            if total != 1:
                raise ValueError(f"total mass {total} != 1")
        elif abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"total mass {total} off 1 by more than {NORM_TOL}")
        return mu

    @classmethod
    def point_mass(cls, i: int, j: int) -> "Measure2D":
        return cls.from_dict({(i, j): Fraction(1)})

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(w) for _, w in self.weights)

    @property
    def total_mass(self):
        return sum(w for _, w in self.weights)

    def coordinate_range(self) -> tuple[int, int]:
        coords = [i for (i, j), _ in self.weights] + [j for (i, j), _ in self.weights]
        return min(coords), max(coords)


class WeightPair(NamedTuple):
    """Nonnegative sequences x, y with unit l^q' norm.

    x_pow/y_pow, when present, hold the exact q'-th powers (the relative
    densities alpha_i, beta_j), which makes the pair exact-comparable."""

    x: tuple[tuple[int, float], ...]
    y: tuple[tuple[int, float], ...]
    q_prime: float
    x_pow: tuple[tuple[int, Fraction], ...] | None = None
    y_pow: tuple[tuple[int, Fraction], ...] | None = None

    @classmethod
    def from_weights(cls, x, y, q_prime: float) -> "WeightPair":
        if q_prime <= 1:
            raise ValueError(f"q' = {q_prime} must exceed 1")
        xs = tuple((int(i), float(v)) for i, v in sorted(x.items()) if v != 0)
        ys = tuple((int(j), float(v)) for j, v in sorted(y.items()) if v != 0)
        for name, seq in (("x", xs), ("y", ys)):
            norm = sum(v**q_prime for _, v in seq)
            if abs(norm - 1.0) > NORM_TOL:
                raise ValueError(f"l^q' norm of {name} is {norm**(1/q_prime)}, not 1")
            if any(v < 0 for _, v in seq):
                raise ValueError(f"{name} has a negative entry")
        return cls(xs, ys, float(q_prime))

    @classmethod
    def from_densities(cls, alpha, beta, q_prime) -> "WeightPair":
        """Exact mode: x_i = alpha_i^(1/q') with sum alpha_i = 1 exactly."""
        qp = fraction_of(q_prime)
        xp = tuple((int(i), fraction_of(v)) for i, v in sorted(alpha.items()) if v != 0)
        yp = tuple((int(j), fraction_of(v)) for j, v in sorted(beta.items()) if v != 0)
        for name, seq in (("alpha", xp), ("beta", yp)):
            if sum(v for _, v in seq) != 1:
                raise ValueError(f"{name} densities must sum to 1 exactly")
            if any(v < 0 for _, v in seq):
                raise ValueError(f"{name} has a negative entry")
        inv = 1.0 / float(qp)
        xs = tuple((i, float(v) ** inv) for i, v in xp)
        ys = tuple((j, float(v) ** inv) for j, v in yp)
        return cls(xs, ys, float(qp), xp, yp)

    @property
    def is_exact(self) -> bool:
        return self.x_pow is not None and self.y_pow is not None


def _check_lambda(lam: float) -> None:
    if not 0 < lam <= LAMBDA_MAX:
        raise ValueError(f"lambda = {lam} outside (0, {LAMBDA_MAX}]")


def min_admissible_c(mu: Measure2D, w: WeightPair, lam: float) -> float:
    """Smallest c with mu(i,j) <= c lambda^|i-j| x_i y_j everywhere, i.e.
    the max of mu(i,j) / (lambda^|i-j| x_i y_j) over the support; inf when
    some support point has x_i y_j = 0."""
    _check_lambda(lam)
    xd, yd = dict(w.x), dict(w.y)
    best = 0.0
    for (i, j), wt in mu.weights:
        denom = lam ** abs(i - j) * xd.get(i, 0.0) * yd.get(j, 0.0)
        if denom == 0.0:
            return math.inf
        best = max(best, float(wt) / denom)
    return best


def _float_down(num: int, shift: int) -> float:
    """The largest float <= num / 2^shift, for a positive int num."""
    excess = max(num.bit_length() - 53, 0)
    return math.ldexp(num >> excess, excess - shift)


def min_admissible_c_interval(
    mu: Measure2D,
    w: WeightPair,
    *,
    lam=None,
    p: int | None = None,
    epsilon: float = 0.5,
) -> tuple[float, float, bool, float]:
    """(lo, hi, ok, c) for exact measures and density-backed weights: a
    certified float enclosure [lo, hi] of the minimal admissible c, whether
    c_min >= 1/9 exactly, and the float c nearest to r 2^-160 (r below),
    which lies in [lo, hi].

    lambda may be given as an exact number, or derived as p^(-1/q) from a
    prime p with q = 2 + epsilon.  With epsilon = a/b and n = 2b + a, each
    c_ij^n = mu_ij^n lambda^(-n|i-j|) (alpha_i beta_j)^-(a+b) is rational
    (lambda^n = p^-b), so R = c_min^n is an exact maximum and ok is
    R 9^n >= 1.  The integer r with r^n <= R 2^(160n) < (r+1)^n gives
    r 2^-160 <= c_min < (r+1) 2^-160; both ends are truncated to floats and
    nudged outward.
    """
    if not (mu.is_exact and w.is_exact):
        raise ValueError("interval mode needs exact measure weights and densities")
    if (lam is None) == (p is None):
        raise ValueError("give exactly one of lam= or p=")
    eps = epsilon_fraction(epsilon)
    a, b = eps.numerator, eps.denominator
    n = 2 * b + a
    lam_n = Fraction(1, p**b) if p is not None else fraction_of(lam) ** n
    xp, yp = dict(w.x_pow), dict(w.y_pow)
    R = Fraction(0)
    for (i, j), wt in mu.weights:
        ai = xp.get(i)
        bj = yp.get(j)
        if ai is None or bj is None:
            return math.inf, math.inf, True, math.inf
        R = max(R, fraction_of(wt) ** n / (lam_n ** abs(i - j) * (ai * bj) ** (a + b)))
    scaled = (R.numerator << _ROOT_BITS * n) // R.denominator
    r = _iroot(scaled, n)
    if not r**n <= scaled < (r + 1) ** n:
        raise ArithmeticError(f"{r} is not the integer {n}-th root of {scaled}")
    return (
        math.nextafter(_float_down(r, _ROOT_BITS), -math.inf),
        math.nextafter(_float_down(r + 1, _ROOT_BITS), math.inf),
        R >= C_FLOOR**n,
        r / (1 << _ROOT_BITS),  # int division rounds correctly
    )


def tail_mass(mu: Measure2D, k: int):
    """Mass outside the L1 ball of radius 1 around (k, k); exact when the
    measure is rational-backed."""
    return sum(w for (i, j), w in mu.weights if abs(i - k) + abs(j - k) >= 2)


def best_center(mu: Measure2D) -> int:
    """The k minimizing tail_mass over [min coord - 1, max coord + 1]
    (outside this range the tail is the whole mass); smallest k on ties.
    Only a k with (k, k) within L1 distance 1 of a support point keeps any
    mass; every other k sums the whole mass as k = lo - 1 does, so it is
    not evaluated."""
    lo, _ = mu.coordinate_range()
    best_k = lo - 1
    best_tail = tail_mass(mu, best_k)
    for k in sorted({k for (i, j), _ in mu.weights if abs(i - j) <= 1 for k in (i, j)}):
        t = tail_mass(mu, k)
        if t < best_tail:
            best_k, best_tail = k, t
    return best_k


def _sigma_class(i: int, j: int, k: int) -> int:
    if i == j:
        return 6 if i == k else 5
    if i == k:
        return 4 if abs(j - k) == 1 else 2
    if j == k:
        return 4 if abs(i - k) == 1 else 3
    return 1


class SigmaDecomposition(NamedTuple):
    """Masses of the six regions partitioning Z^2 around the center (k, k):
    off-diagonal generic, the two axes at distance >= 2, the four unit
    neighbors, the punctured diagonal, and the center itself."""

    k: int
    sigma: tuple
    gamma: float

    @property
    def total(self):
        return sum(self.sigma)


def sigma_decomposition(mu: Measure2D, w: WeightPair, k: int) -> SigmaDecomposition:
    sums = [0, 0, 0, 0, 0, 0]
    for (i, j), wt in mu.weights:
        sums[_sigma_class(i, j, k) - 1] += wt
    xd, yd = dict(w.x), dict(w.y)
    sup = 0.0
    for i, xv in xd.items():
        yv = yd.get(i, 0.0)
        sup = max(sup, xv * yv)
    return SigmaDecomposition(k, tuple(sums), 1.0 - sup)


class ConcentrationReport(NamedTuple):
    c_min: float
    c_interval: tuple[float, float] | None
    c_lower_ok: bool  # c >= 1/9: exact with exact backings, else 1e-9 guarded
    k: int
    tail: float
    ratio: float  # tail / lambda^(q + epsilon)
    sigma: SigmaDecomposition
    lam: float
    q: float
    epsilon: float

    @property
    def gamma(self) -> float:
        return self.sigma.gamma


def concentration_report(
    mu: Measure2D,
    w: WeightPair,
    lam: float,
    q: float | None = None,
    epsilon: float = 0.5,
    *,
    p: int | None = None,
) -> ConcentrationReport:
    """Bundle (c_min, best center, tail, tail/lambda^(q+eps), sigma split).

    c >= 1/9 is the unconditional conclusion whenever the hypothesis is
    satisfiable with the given witness.  With exact backings the verdict is
    an integer comparison, and c_interval and c_min come from one integer
    root (see min_admissible_c_interval); otherwise the verdict carries a
    1e-9 guard.
    When p is given, lambda is taken as exactly p^(-1/q).
    """
    _check_lambda(lam)
    if q is None:
        q = 2.0 + epsilon
    interval = None
    if mu.is_exact and w.is_exact:
        exact_lam = None if p is not None else fraction_of(lam)
        lo, hi, ok, c = min_admissible_c_interval(mu, w, lam=exact_lam, p=p, epsilon=epsilon)
        interval = (lo, hi)
    else:
        c = min_admissible_c(mu, w, lam)
        ok = c >= float(C_FLOOR) - GUARD
    if math.isinf(c):
        raise ValueError("hypothesis unsatisfiable: mu charges a point with x_i y_j = 0")
    k = best_center(mu)
    tail = float(tail_mass(mu, k))
    ratio = tail / lam ** (q + epsilon)
    sig = sigma_decomposition(mu, w, k)
    return ConcentrationReport(c, interval, ok, k, tail, ratio, sig, lam, q, epsilon)


def from_valuation_measure(vm, epsilon: float = 0.5):
    """Bridge from per-prime valuation statistics: the edge measure becomes
    mu, the densities give x_i = alpha_i^(1/q'), and lambda = p^(-1/q).

    Returns (mu, weights, lam); pass p=vm.p to concentration_report for the
    certified verdict.  epsilon is read as its decimal value, as the
    verdict reads it (instance.epsilon_fraction)."""
    eps = epsilon_fraction(epsilon)
    qp = (2 + eps) / (1 + eps)
    mu = Measure2D.from_dict(vm.mu)
    w = WeightPair.from_densities(vm.alpha, vm.beta, qp)
    lam = float(vm.p) ** (-1.0 / float(2 + eps))
    return mu, w, lam


# ---------------------------------------------------------------------------
# Seeded generators and the tail-constant calibration
# ---------------------------------------------------------------------------


def random_measure(rng: random.Random, *, span: int = 6, max_points: int = 8) -> Measure2D:
    """Random float-backed probability measure on [-span, span]^2."""
    n = rng.randint(1, max_points)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    raw = {pt: rng.uniform(0.05, 1.0) for pt in sorted(pts)}
    total = sum(raw.values())
    return Measure2D.from_dict({pt: v / total for pt, v in raw.items()})


def _random_weight_seq(rng: random.Random, span: int, max_points: int, q_prime: float):
    n = rng.randint(1, max_points)
    idx = sorted(rng.sample(range(-span, span + 1), n))
    raw = [rng.uniform(0.05, 1.0) for _ in idx]
    norm = sum(v**q_prime for v in raw) ** (1.0 / q_prime)
    return {i: v / norm for i, v in zip(idx, raw)}


def random_admissible_config(
    rng: random.Random,
    *,
    epsilon: float = 0.5,
    span: int = 5,
    max_points: int = 6,
):
    """Random (mu, weights, lambda) with mu supported inside supp(x) x
    supp(y), so the minimal admissible c is finite."""
    qp = (2.0 + epsilon) / (1.0 + epsilon)
    x = _random_weight_seq(rng, span, max_points, qp)
    y = _random_weight_seq(rng, span, max_points, qp)
    w = WeightPair.from_weights(x, y, qp)
    grid = [(i, j) for i in sorted(x) for j in sorted(y)]
    m = rng.randint(1, min(len(grid), 12))
    pts = sorted(rng.sample(grid, m))
    raw = [rng.uniform(0.05, 1.0) for _ in pts]
    total = sum(raw)
    mu = Measure2D.from_dict({pt: v / total for pt, v in zip(pts, raw)})
    lam = rng.uniform(0.05, LAMBDA_MAX)
    return mu, w, lam


def capped_admissible_config(
    rng: random.Random,
    lam: float,
    *,
    epsilon: float = 0.5,
    span: int = 4,
):
    """(mu, weights) achieving c <= 1: mu is a greedy fill under the cap
    lambda^|i-j| x_i y_j, which is possible whenever the cap's total W is
    at least 1.  Concentration of x, y is escalated until W >= 1; the point
    mass at (0, 0) is the exact boundary fallback."""
    qp = (2.0 + epsilon) / (1.0 + epsilon)
    for attempt in range(12):
        head = 1.0 - 0.5 ** (attempt + 1) * rng.uniform(0.3, 1.0)
        rest = 1.0 - head
        n_side = rng.randint(1, 3)
        x_pow = {0: head}
        for t in range(n_side):
            x_pow[t + 1] = rest / n_side
        norm = sum(x_pow.values()) ** (1.0 / qp)
        x = {i: v ** (1.0 / qp) / norm for i, v in x_pow.items()}
        y = dict(x)
        cap = {}
        for i in x:
            for j in y:
                cap[(i, j)] = lam ** abs(i - j) * x[i] * y[j]
        W = sum(cap.values())
        if W < 1.0 + 1e-9:
            continue
        remaining = 1.0
        weights = {}
        for pt in sorted(cap, key=lambda t: (-cap[t], t)):
            take = min(cap[pt], remaining)
            if take > 0:
                weights[pt] = take
            remaining -= take
            if remaining <= 0:
                break
        total = sum(weights.values())
        mu = Measure2D.from_dict({pt: v / total for pt, v in weights.items()})
        return mu, WeightPair.from_weights(x, y, qp)
    x = {0: 1.0}
    return Measure2D.point_mass(0, 0), WeightPair.from_weights(x, dict(x), qp)


def calibrate_tail_constant(
    seed: int,
    *,
    n_random: int = 10000,
    family_per_lambda: int = 200,
    lambda_grid=(0.8, 0.4, 0.2, 0.1, 0.05),
    epsilon: float = 0.5,
) -> dict:
    """Measure the largest observed tail / lambda^(q+eps) over the seeded
    random-admissible sweep and the capped (c <= 1) family on the lambda
    grid.  The frozen constants are calibration artifacts: the paper's
    concentration statement has an unspecified implied constant, so K (all
    configurations) and K_capped (the c <= 1 family, where the lemma's tail
    scaling is meaningful) just pin these generators at this seed.

    The two sweeps use independent child streams of the seed, so a shorter
    replay of one cannot shift the other."""
    q = 2.0 + epsilon
    rng = random.Random(seed)
    max_random = 0.0
    for _ in range(n_random):
        mu, w, lam = random_admissible_config(rng, epsilon=epsilon)
        tail = float(tail_mass(mu, best_center(mu)))
        max_random = max(max_random, tail / lam ** (q + epsilon))
    rng = random.Random(seed + 1)
    max_capped = 0.0
    for lam in lambda_grid:
        for _ in range(family_per_lambda):
            mu, w = capped_admissible_config(rng, lam, epsilon=epsilon)
            tail = float(tail_mass(mu, best_center(mu)))
            max_capped = max(max_capped, tail / lam ** (q + epsilon))
    observed = max(max_random, max_capped)
    return {
        "seed": seed,
        "epsilon": epsilon,
        "n_random": n_random,
        "family_per_lambda": family_per_lambda,
        "lambda_grid": list(lambda_grid),
        "max_ratio_random": max_random,
        "max_ratio_capped": max_capped,
        # frozen with a hair of headroom so exact replays sit strictly inside
        "K": float(f"{observed * 1.0001:.4g}"),
        "K_capped": float(f"{max_capped * 1.0001:.4g}"),
    }


def load_calibration() -> dict:
    """The committed tail-constant fixture (seed, generator sizes, K)."""
    text = resources.files("gcdlab.data").joinpath(_CALIBRATION_RESOURCE).read_text()
    return json.loads(text)
