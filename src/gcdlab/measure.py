"""Numerics for concentration of finitely supported probability measures on
Z^2 under the hypothesis mu(i,j) <= c * lambda^|i-j| * x_i * y_j with
l^q'-normalized weight sequences x, y and q' = (2 + eps)/(1 + eps).

Every object has one exact form: a measure is integer masses over one
integer total, and each weight sequence is its q'-th powers alpha_i as
integers over a total (x_i = alpha_i^(1/q') is only displayed), so the
valuation measure at a prime p is its counts over |Omega|, |A| and |B|.
With epsilon = a/b every c_ij^(2b+a) is rational: the verdicts c_min >= 1/9
and c_min <= 1 compare cross-multiplied integers, and the reported c_min,
its enclosure and the tail ratio tail / lambda^(q + eps) each come from one
integer root.  Floats are displayed values, and the capped generator's caps,
whose c <= 1 the exact test certifies.

The lemma leaves the tail ratio's constant unspecified, so the ratio is
reported and never checked against a bound.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from typing import NamedTuple

from .arith import _iroot
from .instance import PairSet, decimal_fraction

__all__ = [
    "C_FLOOR",
    "ConcentrationReport",
    "EXACT_BITS_MAX",
    "LAMBDA_MAX",
    "Measure2D",
    "PrimeLambda",
    "SigmaDecomposition",
    "SweepExtremes",
    "WeightPair",
    "best_center",
    "capped_admissible_config",
    "concentration_report",
    "min_admissible_c_interval",
    "random_admissible_config",
    "random_measure",
    "root_float",
    "sigma_decomposition",
    "sweep_extremes",
    "tail_mass",
    "valuation_measure",
]

LAMBDA_MAX = Fraction(4, 5)  # the lemma's hypothesis lambda <= 4/5
C_FLOOR = 9  # the lemma's conclusion c >= 1/9
# the most bits lambda^(n|i - j|) may take in an exact verdict, counted as
# n|i - j| times the bit length of lambda's larger part (b|i - j| for p^-b)
EXACT_BITS_MAX = 10**5
_ROOT_BITS = 160  # fractional bits of the integer root that encloses c_min
_CAPPED_MASS = 10**9  # total mass of a capped configuration


def _over_total(mapping, name: str):
    """Nonnegative ints or Fractions as (sorted ((key, integer), ...), total):
    each value is scaled by the lcm of the denominators, zeros dropped."""
    items = sorted((key, v) for key, v in mapping.items() if v)
    for key, v in items:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{name} at {key}: {v!r} is not an int or Fraction")
        if v < 0:
            raise ValueError(f"{name} has a negative entry {v} at {key}")
    scale = math.lcm(*(v.denominator for _, v in items))
    ints = tuple((key, v.numerator * (scale // v.denominator)) for key, v in items)
    total = sum(m for _, m in ints)
    if not total:
        raise ValueError(f"{name} has no positive entry")
    return ints, total


class Measure2D(NamedTuple):
    """Finitely supported probability measure on Z^2: mu(i, j) = m / total
    for the positive integer masses m in weights, sorted by point."""

    weights: tuple[tuple[tuple[int, int], int], ...]
    total: int

    @classmethod
    def from_dict(cls, mapping) -> "Measure2D":
        """The measure proportional to mapping's nonnegative ints or
        Fractions (counts, or probabilities summing to 1)."""
        return cls(*_over_total(mapping, "mu"))

    @classmethod
    def point_mass(cls, i: int, j: int) -> "Measure2D":
        return cls((((i, j), 1),), 1)

    def coordinate_range(self) -> tuple[int, int]:
        coords = [i for (i, j), _ in self.weights] + [j for (i, j), _ in self.weights]
        return min(coords), max(coords)


class WeightPair(NamedTuple):
    """Nonnegative sequences of unit l^q' norm, kept as their q'-th powers:
    x_i = (alpha_i / alpha_total)^(1/q'), y_j = (beta_j / beta_total)^(1/q'),
    with q' = (2 + eps)/(1 + eps) at the report's epsilon."""

    alpha: tuple[tuple[int, int], ...]
    alpha_total: int
    beta: tuple[tuple[int, int], ...]
    beta_total: int

    @classmethod
    def from_densities(cls, alpha, beta) -> "WeightPair":
        """The pair whose q'-th powers are proportional to alpha and beta
        (nonnegative ints or Fractions)."""
        return cls(*_over_total(alpha, "alpha"), *_over_total(beta, "beta"))


def _c_pow(
    mu: Measure2D, w: WeightPair, ln: int, ld: int, k: int, n: int, e: int
) -> tuple[int, int]:
    """(num, den) with num/den = c_min^n, given lambda^n = (ln/ld)^k and
    x_i^n = (alpha_i / alpha_total)^e: c_ij^n = m^n lambda^(-n|i-j|)
    (alpha_total beta_total)^e / (total^n (alpha_i beta_j)^e).  The maximum
    is taken on cross-multiplied integers; the factors shared by every term
    are applied once at the end.  ValueError when a term's power of lambda
    would pass EXACT_BITS_MAX."""
    alpha, beta = dict(w.alpha), dict(w.beta)
    lam_bits = k * max(ln.bit_length(), ld.bit_length())
    num, den = 0, 1
    for (i, j), m in mu.weights:
        if i not in alpha or j not in beta:
            raise ValueError("hypothesis unsatisfiable: mu charges a point with x_i y_j = 0")
        d = abs(i - j)
        if d * lam_bits > EXACT_BITS_MAX:
            raise ValueError(
                f"lambda^(n|i - j|) at |i - j| = {d} takes {d * lam_bits} bits of exact work,"
                f" above EXACT_BITS_MAX = {EXACT_BITS_MAX}"
            )
        t_num = m**n * ld ** (k * d)
        t_den = ln ** (k * d) * (alpha[i] * beta[j]) ** e
        if t_num * den > num * t_den:
            num, den = t_num, t_den
    return num * (w.alpha_total * w.beta_total) ** e, den * mu.total**n


def _float_down(num: int, shift: int) -> float:
    """The largest float <= num / 2^shift, for a positive int num."""
    excess = max(num.bit_length() - 53, 0)
    return math.ldexp(num >> excess, excess - shift)


def _root_floats(num: int, den: int, n: int) -> tuple[float, float, float]:
    """(lo, hi, c) for the n-th root of num/den >= 0.  The integer r with
    r^n <= num 2^(160n) / den < (r+1)^n gives r 2^-160 <= root <
    (r+1) 2^-160; lo and hi truncate both ends to floats and nudge them
    outward, and c is the float nearest r 2^-160.  Past the float range
    lo is the largest float and hi = c = inf."""
    if not num:
        return 0.0, 0.0, 0.0
    scaled = (num << _ROOT_BITS * n) // den
    r = _iroot(scaled, n)
    if not r**n <= scaled < (r + 1) ** n:
        raise ArithmeticError(f"{r} is not the integer {n}-th root of {scaled}")
    try:
        return (
            math.nextafter(_float_down(r, _ROOT_BITS), -math.inf),
            math.nextafter(_float_down(r + 1, _ROOT_BITS), math.inf),
            r / (1 << _ROOT_BITS),  # int division rounds correctly
        )
    except OverflowError:
        return math.nextafter(math.inf, 0.0), math.inf, math.inf


def root_float(num: int, den: int, n: int) -> float:
    """The float nearest (num/den)^(1/n), for display."""
    return _root_floats(num, den, n)[2]


class PrimeLambda(NamedTuple):
    """lambda = p^(-1/q) at the call's q = 2 + epsilon, as on the valuation
    measure at the prime p: exact as lambda^(2b + a) = p^-b at epsilon = a/b."""

    p: int


def _lambda_form(lam, epsilon: Fraction) -> tuple[int, int, int, int, float]:
    """(ln, ld, k, deg, shown) for lambda at epsilon = a/b, n = 2b + a:
    lambda^n = (ln/ld)^k, the tail ratio's deg-th power is rational, and
    shown is the displayed float.  A rational lambda (an int, a Fraction or
    a float read as its decimal text) has k = n and deg = b; PrimeLambda(p)
    has k = b and deg = n.  ValueError for p < 2 (no p^(-1/q) below 1) or a
    lambda <= 0, each outside the lemma's (0, 4/5]; callers other than
    concentration_report may take a lambda above 4/5."""
    a, b = epsilon.numerator, epsilon.denominator
    if isinstance(lam, PrimeLambda):
        if lam.p < 2:
            raise ValueError(f"lambda = {lam} outside (0, 4/5]")
        return 1, lam.p, b, 2 * b + a, float(lam.p) ** (-1.0 / float(2 + epsilon))
    try:
        exact = decimal_fraction(lam)
    except (TypeError, ValueError):  # also nan and inf
        raise ValueError(f"lambda = {lam!r} is not a number") from None
    if exact <= 0:
        raise ValueError(f"lambda = {lam} outside (0, 4/5]")
    return exact.numerator, exact.denominator, 2 * b + a, b, float(exact)


def min_admissible_c_interval(
    mu: Measure2D, w: WeightPair, lam, epsilon: Fraction = Fraction(1, 2)
) -> tuple[float, float, bool, float]:
    """(lo, hi, ok, c): a certified float enclosure [lo, hi] of the minimal
    admissible c, whether c_min >= 1/9 exactly, and the float c in [lo, hi]
    nearest its integer root (_root_floats).

    lambda is rational or PrimeLambda(p) (_lambda_form).  With epsilon = a/b
    and n = 2b + a, R = c_min^n is an exact rational (x_i^n = alpha_i^(a+b))
    and ok is R 9^n >= 1.  ValueError when mu charges a point with x_i y_j =
    0 (no c is admissible), or past EXACT_BITS_MAX.
    """
    ln, ld, k, _, _ = _lambda_form(lam, epsilon)
    a, b = epsilon.numerator, epsilon.denominator
    n = 2 * b + a
    num, den = _c_pow(mu, w, ln, ld, k, n, a + b)
    lo, hi, c = _root_floats(num, den, n)
    return lo, hi, num * C_FLOOR**n >= den, c


def tail_mass(mu: Measure2D, k: int) -> int:
    """Mass outside the L1 ball of radius 1 around (k, k), over mu.total."""
    return sum(m for (i, j), m in mu.weights if abs(i - k) + abs(j - k) >= 2)


def _best_tail(mu: Measure2D) -> tuple[int, int]:
    """(k, tail_mass(mu, k)) for the k of best_center, in one pass: k keeps
    the mass of the point (k, k) and of each point with |i - j| = 1 and k in
    {i, j}.  With no such point every k keeps nothing, and k = lo - 1."""
    kept: dict[int, int] = {}
    for (i, j), m in mu.weights:
        if -1 <= i - j <= 1:
            kept[i] = kept.get(i, 0) + m
            if i != j:
                kept[j] = kept.get(j, 0) + m
    k, most = min(kept.items(), key=lambda km: (-km[1], km[0]), default=(None, 0))
    if not most:
        k = mu.coordinate_range()[0] - 1
    return k, mu.total - most


def best_center(mu: Measure2D) -> int:
    """The k minimizing tail_mass over [min coord - 1, max coord + 1]
    (outside this range the tail is the whole mass); smallest k on ties."""
    return _best_tail(mu)[0]


def _sigma_class(i: int, j: int, k: int) -> int:
    if i == j:
        return 6 if i == k else 5
    if i == k:
        return 4 if abs(j - k) == 1 else 2
    if j == k:
        return 4 if abs(i - k) == 1 else 3
    return 1


class SigmaDecomposition(NamedTuple):
    """Masses (over the measure's total) of the six regions partitioning Z^2
    around the center (k, k): off-diagonal generic, the two axes at distance
    >= 2, the four unit neighbors, the punctured diagonal, and the center
    itself."""

    k: int
    sigma: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.sigma)


def sigma_decomposition(mu: Measure2D, k: int) -> SigmaDecomposition:
    sums = [0, 0, 0, 0, 0, 0]
    for (i, j), m in mu.weights:
        sums[_sigma_class(i, j, k) - 1] += m
    return SigmaDecomposition(k, tuple(sums))


class ConcentrationReport(NamedTuple):
    c_min: float  # inf past the float range
    c_interval: tuple[float, float]
    c_lower_ok: bool  # c >= 1/9, decided exactly
    k: int
    tail: float
    ratio: float  # tail / lambda^(q + epsilon)
    sigma: SigmaDecomposition
    lam: float
    q: float
    epsilon: Fraction
    gamma: float  # 1 - sup_i x_i y_i


def _ratio_pow(tail: int, total: int, ln: int, ld: int, k: int, e: int) -> tuple[int, int]:
    """(num, den) with num/den = ratio^k, ratio = (tail / total) /
    lambda^(2 + 2 eps), given lambda^(k (2 + 2 eps)) = (ln/ld)^(2e)."""
    return tail**k * ld ** (2 * e), total**k * ln ** (2 * e)


def concentration_report(
    mu: Measure2D, w: WeightPair, lam, epsilon: Fraction = Fraction(1, 2)
) -> ConcentrationReport:
    """Bundle (c_min, best center, tail, tail/lambda^(q+eps), sigma split),
    q = 2 + eps.

    c >= 1/9 is the unconditional conclusion whenever the hypothesis is
    satisfiable with the given witness.  The verdict is an integer
    comparison; c_interval and c_min come from one integer root (see
    min_admissible_c_interval), and so does the ratio.  lam is rational or
    PrimeLambda(p) (_lambda_form), in (0, 4/5], and the displayed lam is the
    float of the lambda the verdict used.
    """
    ln, ld, power, deg, shown = _lambda_form(lam, epsilon)
    a, b = epsilon.numerator, epsilon.denominator
    n, (top, bottom) = 2 * b + a, LAMBDA_MAX.as_integer_ratio()
    if ln**power * bottom**n > ld**power * top**n:  # lambda^n > (4/5)^n
        raise ValueError(f"lambda = {lam} outside (0, 4/5]")
    lo, hi, ok, c = min_admissible_c_interval(mu, w, lam, epsilon)
    k, tail = _best_tail(mu)
    ratio = root_float(*_ratio_pow(tail, mu.total, ln, ld, deg, a + b), deg)
    inv = 1.0 / float((2 + epsilon) / (1 + epsilon))  # x_i = alpha_i^(1/q')
    x = {i: (v / w.alpha_total) ** inv for i, v in w.alpha}
    sup = max((x[j] * (v / w.beta_total) ** inv for j, v in w.beta if j in x), default=0.0)
    sigma, q = sigma_decomposition(mu, k), 2.0 + float(epsilon)
    return ConcentrationReport(
        c, (lo, hi), ok, k, tail / mu.total, ratio, sigma, shown, q, epsilon, 1.0 - sup
    )


def valuation_measure(omega: PairSet, p: int) -> tuple[Measure2D, WeightPair, PrimeLambda]:
    """(mu, weights, PrimeLambda(p)) at the prime p, as integer counts: mu is
    the pairs of omega in each class (v_p(a), v_p(b)) over |omega|, alpha
    and beta the elements of A and of B in each class v_p over |A| and |B|.
    B's indices are grouped into column classes, and each row of omega is
    counted against them; omega must be nonempty."""
    if not omega:
        raise ValueError("omega is empty: the edge measure is undefined")
    va = [a.valuation(p) for a in omega.A]
    cols: dict[int, int] = defaultdict(int)
    for j, b in enumerate(omega.B):
        cols[b.valuation(p)] |= 1 << j
    counts: Counter[tuple[int, int]] = Counter()
    for v, row in zip(va, omega.rows):
        for w, C in cols.items():
            counts[v, w] += (row & C).bit_count()
    alpha = tuple(sorted(Counter(va).items()))
    beta = tuple((j, C.bit_count()) for j, C in sorted(cols.items()))
    mu = Measure2D(tuple((ij, c) for ij, c in sorted(counts.items()) if c), len(omega))
    return mu, WeightPair(alpha, len(va), beta, len(omega.B)), PrimeLambda(p)


class SweepExtremes(NamedTuple):
    min_c: float
    c_lower_ok: bool  # the least c_min >= 1/9, decided exactly
    max_c: float
    c_upper_ok: bool  # the largest c_min <= 1, decided exactly
    max_ratio: float  # the largest tail / lambda^(q + eps) at the best center


def sweep_extremes(configs, epsilon: Fraction = Fraction(1, 2)) -> SweepExtremes:
    """The least and the largest c_min and the largest tail ratio over (mu,
    weights, lambda) configurations with rational lambda.  With epsilon =
    a/b and n = 2b + a, each extreme is kept as an exact c_min^n or
    ratio^b by comparing cross-multiplied integers, the verdicts c >= 1/9
    and c <= 1 are integer comparisons, and root_float displays the values.
    ValueError when configs is empty or a lambda is not a positive int or Fraction."""
    a, b = epsilon.numerator, epsilon.denominator
    n, e = 2 * b + a, a + b
    least, most, top = (1, 0), (0, 1), (0, 1)
    for mu, w, lam in configs:
        if type(lam) not in (int, Fraction) or lam.numerator <= 0:
            raise ValueError(f"sweep_extremes: lambda = {lam!r} is not a positive int or Fraction")
        ln, ld = lam.numerator, lam.denominator
        cn, cd = _c_pow(mu, w, ln, ld, n, n, e)
        rn, rd = _ratio_pow(_best_tail(mu)[1], mu.total, ln, ld, b, e)
        if cn * least[1] < least[0] * cd:
            least = (cn, cd)
        if cn * most[1] > most[0] * cd:
            most = (cn, cd)
        if rn * top[1] > top[0] * rd:
            top = (rn, rd)
    if not least[1]:
        raise ValueError("sweep_extremes needs at least one configuration")
    return SweepExtremes(
        root_float(*least, n),
        least[0] * C_FLOOR**n >= least[1],
        root_float(*most, n),
        most[0] <= most[1],
        root_float(*top, b),
    )


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def random_measure(rng: random.Random, *, span: int = 6, max_points: int = 8) -> Measure2D:
    """Random measure on [-span, span]^2 with integer masses in [50, 1000]."""
    n = rng.randint(1, max_points)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    weights = tuple((pt, rng.randint(50, 1000)) for pt in sorted(pts))
    return Measure2D(weights, sum(m for _, m in weights))


def _random_densities(rng: random.Random):
    idx = sorted(rng.sample(range(-5, 6), rng.randint(1, 6)))
    seq = tuple((i, rng.randint(50, 1000)) for i in idx)
    return seq, sum(v for _, v in seq)


def random_admissible_config(rng: random.Random):
    """Random (mu, weights, lambda) with integer masses and densities in
    [50, 1000], lambda = l/1000 for l in [50, 800], and mu supported inside
    supp(x) x supp(y), so the minimal admissible c is finite."""
    alpha, alpha_total = _random_densities(rng)
    beta, beta_total = _random_densities(rng)
    grid = [(i, j) for i, _ in alpha for j, _ in beta]
    pts = sorted(rng.sample(grid, rng.randint(1, min(len(grid), 12))))
    weights = tuple((pt, rng.randint(50, 1000)) for pt in pts)
    mu = Measure2D(weights, sum(m for _, m in weights))
    w = WeightPair(alpha, alpha_total, beta, beta_total)
    return mu, w, Fraction(rng.randint(50, 800), 1000)


def capped_admissible_config(rng: random.Random, lam, *, epsilon: Fraction = Fraction(1, 2)):
    """(mu, weights) meant to achieve c <= 1: mu greedily fills 10^9 units
    under the caps lambda^|i-j| x_i y_j, each computed in floats and rounded
    down with one unit of margin (the exact test certifies c <= 1).  The
    densities weigh 0 and equally 1..n_side, escalating the weight on 0
    until the caps suffice; the point mass at (0, 0) is the fallback."""
    inv = (1.0 + float(epsilon)) / (2.0 + float(epsilon))  # x_i = alpha_i^(1/q')
    lam = float(lam)
    for attempt in range(12):
        unit = 1000 << (attempt + 1)
        side = rng.randint(300, 1000)
        n_side = rng.randint(1, 3)
        alpha = ((0, n_side * (unit - side)),) + tuple((t, side) for t in range(1, n_side + 1))
        total = n_side * unit
        x = {i: (v / total) ** inv for i, v in alpha}
        cap = {
            (i, j): int(lam ** abs(i - j) * x[i] * x[j] * _CAPPED_MASS) - 1 for i in x for j in x
        }
        if sum(v for v in cap.values() if v > 0) < _CAPPED_MASS:
            continue
        remaining = _CAPPED_MASS
        weights = {}
        for pt in sorted(cap, key=lambda t: (-cap[t], t)):
            weights[pt] = min(cap[pt], remaining)
            remaining -= weights[pt]
            if not remaining:
                break
        mu = Measure2D(tuple(sorted(weights.items())), _CAPPED_MASS)
        return mu, WeightPair(alpha, total, alpha, total)
    return Measure2D.point_mass(0, 0), WeightPair(((0, 1),), 1, ((0, 1),), 1)
