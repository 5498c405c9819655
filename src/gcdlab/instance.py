"""GCD-instance data model: sets in dyadic ranges, the pair set with its
exact density, prime sets, pair censuses (naive double loop as the oracle,
divisor recursion as the fast path), and the bound evaluators.

Densities are exact rationals throughout.  With epsilon = a/b, a bound
at the exponent -2-epsilon holds iff its b-th power does, which is an
integer comparison, so a reported violation is never a rounding artifact;
the bound's value is reported as a float for display only.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import FactoredNat, _divisors_int, factorize, fraction_of, is_squarefree

__all__ = [
    "GcdInstance",
    "InstanceError",
    "PairSet",
    "build_omega_gcd",
    "build_omega_ratio",
    "chase_diagonal_bound",
    "count_pairs_geq_fast",
    "count_pairs_geq_naive",
    "decimal_fraction",
    "epsilon_fraction",
    "gcd_census",
    "instance_from_json",
    "instance_to_json",
    "prime_sets",
    "read_instance",
    "theorem1_bound",
    "theorem51_bound",
]

EPSILON_MAX_DENOMINATOR = 1000  # the largest b of an epsilon = a/b


class InstanceError(ValueError):
    """Invalid instance data, with a field-level diagnostic message."""


def decimal_fraction(x) -> Fraction:
    """The fraction that the shortest decimal text of the float x names
    (0.1 is 1/10, not the binary double nearest it)."""
    return Fraction(repr(float(x)))


@lru_cache(maxsize=256)
def epsilon_fraction(epsilon) -> Fraction:
    """epsilon = a/b as the fraction its decimal text names
    (decimal_fraction), parsed once per distinct epsilon.  InstanceError
    unless 0 < epsilon < 1 and b <= EPSILON_MAX_DENOMINATOR: the exact
    verdicts raise to powers up to 2b + a."""
    if not 0 < epsilon < 1:
        raise InstanceError(f"field epsilon: {epsilon} not strictly inside (0, 1)")
    eps = decimal_fraction(epsilon)
    if eps.denominator > EPSILON_MAX_DENOMINATOR:
        raise InstanceError(
            f"field epsilon: {epsilon} has denominator {eps.denominator}"
            f" above {EPSILON_MAX_DENOMINATOR}"
        )
    return eps


def _coerce_elements(S, name: str) -> tuple[FactoredNat, ...]:
    try:
        elems = sorted({factorize(x) for x in S})
    except ValueError as exc:
        raise InstanceError(f"field {name}: {exc}") from None
    if not elems:
        raise InstanceError(f"field {name}: set must be nonempty")
    return tuple(elems)


class GcdInstance(NamedTuple):
    """The tuple (A, B, X, Y, D, epsilon, p0) with A in [X,2X], B in [Y,2Y]."""

    A: tuple[FactoredNat, ...]
    B: tuple[FactoredNat, ...]
    X: Fraction
    Y: Fraction
    D: Fraction
    epsilon: float = 0.5
    p0: int = 100

    @classmethod
    def build(
        cls,
        A,
        B,
        D,
        X=None,
        Y=None,
        *,
        epsilon: float = 0.5,
        p0: int = 100,
        check_ranges: bool = True,
    ) -> "GcdInstance":
        """Validated constructor.  X (resp. Y) omitted means X = min(A),
        which errors if max(A) > 2*min(A); passing check_ranges=False skips
        the dyadic-range and D <= min(X,Y) checks (test harness use)."""
        A = _coerce_elements(A, "A")
        B = _coerce_elements(B, "B")
        if X is None:
            X = _infer_range(A, "A")
        if Y is None:
            Y = _infer_range(B, "B")
        epsilon_fraction(epsilon)
        if p0 < 0:
            raise InstanceError(f"field p0: {p0} must be a natural number")
        inst = cls(A, B, fraction_of(X), fraction_of(Y), fraction_of(D), float(epsilon), int(p0))
        if check_ranges:
            inst.validate_ranges()
        return inst

    def validate_ranges(self) -> None:
        # every test is on numerators and denominators (a Fraction's is > 0)
        for name, S, R in (("A", self.A, self.X), ("B", self.B, self.Y)):
            rn, rd = R.as_integer_ratio()
            if rn <= 0:
                raise InstanceError(f"field {'X' if name == 'A' else 'Y'}: {R} must be positive")
            # elements are integers: R <= v <= 2R iff ceil(R) <= v <= floor(2R)
            lo, hi = -(-rn // rd), 2 * rn // rd
            for i, el in enumerate(S):
                if not lo <= el.value <= hi:
                    raise InstanceError(
                        f"field {name}[{i}]: {el.value} outside [{R}, {2 * R}]"
                    )
        (dn, dd), X, Y = self.D.as_integer_ratio(), self.X, self.Y
        if dn < dd:
            raise InstanceError(f"field D: {self.D} must be >= 1")
        if dn * X.denominator > X.numerator * dd or dn * Y.denominator > Y.numerator * dd:
            raise InstanceError(
                f"field D: {self.D} exceeds min(X, Y) = {min(self.X, self.Y)}"
            )

    def size_product(self) -> int:
        return len(self.A) * len(self.B)


def _infer_range(S: tuple[FactoredNat, ...], name: str) -> Fraction:
    lo, hi = S[0].value, S[-1].value
    if hi > 2 * lo:
        raise InstanceError(
            f"field {name}: cannot infer a dyadic range, max {hi} > 2*min {2 * lo}"
        )
    return Fraction(lo)


class PairSet(NamedTuple):
    """A set of ordered pairs (a, b) in A x B with its exact density, stored
    as one integer bitset over the grid: bit i*|B| + j is set iff (A[i], B[j])
    is a pair.  Size, density and the row and column bitsets are views of it.

    len() is the number of pairs, not of fields, so _replace and _make
    raise TypeError; masked() builds a copy with other bits.
    """

    A: tuple[FactoredNat, ...]
    B: tuple[FactoredNat, ...]
    bits: int

    @property
    def n_left(self) -> int:
        return len(self.A)

    @property
    def n_right(self) -> int:
        return len(self.B)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def masked(self, bits: int) -> "PairSet":
        """The pair set over the same grid with the given bits."""
        return PairSet(self.A, self.B, bits)

    @property
    def delta(self) -> Fraction:
        return Fraction(len(self), self.n_left * self.n_right)

    def row_bits(self) -> list[int]:
        """Row i of the grid as an integer: bit j is set iff (A[i], B[j])
        is a pair.  Each shift copies the grid, so the shifts cost |A|
        copies of it and decoding its binary text costs a few: up to 128
        rows the shifts are faster (they break even near 256)."""
        n, m = len(self.B), len(self.A)
        if m <= 128:
            mask = (1 << n) - 1
            return [self.bits >> k & mask for k in range(0, m * n, n)]
        s = format(self.bits, f"0{m * n}b")
        return [int(s[k : k + n], 2) for k in range(0, len(s), n)][::-1]

    def col_bits(self) -> list[int]:
        """Column j of the grid as an integer: bit i is set iff (A[i], B[j])
        is a pair."""
        s, n = format(self.bits, f"0{self.n_left * self.n_right}b"), self.n_right
        # character len(s) - 1 - k is bit k, so column j reads from n - 1 - j
        return [int(s[n - 1 - j :: n], 2) for j in range(n)]

    def spread(self, rows: int) -> int:
        """The grid mask of bit 0 of each row i set in rows; times a mask C
        below 2^|B| it is carry-free, the cells (A[i], B[j]) with j in C."""
        width = len(self.B)
        grid = bytearray(-(-len(self.A) * width // 8))
        while rows:
            k = ((rows & -rows).bit_length() - 1) * width
            grid[k >> 3] |= 1 << (k & 7)
            rows &= rows - 1
        return int.from_bytes(grid, "little")


def _gcd_threshold(D) -> int:
    # gcds are integers, so gcd >= D is the same test as gcd >= ceil(D)
    return max(1, math.ceil(fraction_of(D)))


def _least_divisors_geq(factors, t: int) -> list[int]:
    """The divisors d >= t of n = prod p^e over factors whose proper divisors
    are all < t.  gcd(a, b) >= t iff a and b share one: the least divisor of
    gcd(a, b) that is >= t is such a d.

    Each d is s * q^k with q its least prime and s * q^(k-1) < t, so the
    primes are walked in descending order and only the partial products
    still below t are extended.  For t = 2 these are the primes of n."""
    if t <= 1:
        return [1]
    out = []
    below = [1]  # divisors of n over the primes walked so far, all < t
    for p, e in reversed(factors):
        grown = []
        for d in below:
            for _ in range(e):
                d *= p
                if d >= t:
                    out.append(d)
                    break
                grown.append(d)
        below += grown
    return out


def _indices(mask: int) -> list[int]:
    """The indices of the set bits of mask, in increasing order."""
    return [i for i, c in enumerate(reversed(format(mask, "b"))) if c == "1"]


def _join_rows(rows, width: int) -> int:
    """The grid integer with rows[i] on bits [i*width, (i+1)*width), joined
    pairwise so that no intermediate value is larger than the result."""
    while len(rows) > 1:
        rows = [
            rows[k] | rows[k + 1] << width if k + 1 < len(rows) else rows[k]
            for k in range(0, len(rows), 2)
        ]
        width *= 2
    return rows[0]


def build_omega_gcd(inst: GcdInstance) -> PairSet:
    """All pairs (a, b) in A x B with gcd(a, b) >= D, density exact.  Row a
    is the union of the column masks of a's least divisors >= D, so no pair
    is tested."""
    t = _gcd_threshold(inst.D)
    cols: dict[int, int] = defaultdict(int)
    for j, b in enumerate(inst.B):
        for d in _least_divisors_geq(b.factors, t):
            cols[d] |= 1 << j
    rows = []
    for a in inst.A:
        row = 0
        for d in _least_divisors_geq(a.factors, t):
            row |= cols.get(d, 0)
        rows.append(row)
    return PairSet(inst.A, inst.B, _join_rows(rows, len(inst.B)))


def build_omega_ratio(A, B, Q) -> PairSet:
    """All pairs with ab/gcd(a,b)^2 <= Q (the squarefree-theorem predicate)."""
    A = _coerce_elements(A, "A")
    B = _coerce_elements(B, "B")
    Q = fraction_of(Q)
    bvals = [b.value for b in B]
    rows = [
        sum(1 << j for j, b in enumerate(bvals) if Fraction(a * b, math.gcd(a, b) ** 2) <= Q)
        for a in [a.value for a in A]
    ]
    return PairSet(A, B, _join_rows(rows, len(B)))


def _values(S) -> tuple[int, ...]:
    return tuple(sorted(int(x) for x in S))


def count_pairs_geq_naive(A, B, D) -> int:
    """Oracle census: plain double loop over A x B."""
    t = _gcd_threshold(D)
    av, bv = _values(A), _values(B)
    gcd = math.gcd
    return sum(1 for a in av for b in bv if gcd(a, b) >= t)


@lru_cache(maxsize=64)
def _exact_gcd_distribution(
    avals: tuple[int, ...], bvals: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """(d, #pairs with gcd exactly d) for every d with a nonzero count.

    c(d) = (#multiples of d in A) * (#multiples of d in B) counts pairs with
    d | gcd; descending over the common divisors, e(d) = c(d) - sum of e(d')
    over proper multiples d' of d isolates the exact-gcd counts.
    """
    da: Counter[int] = Counter()
    for a in avals:
        for d in _divisors_int(a):
            da[d] += 1
    db: Counter[int] = Counter()
    for b in bvals:
        for d in _divisors_int(b):
            db[d] += 1
    common = sorted(set(da) & set(db))
    cset = set(common)
    pending: dict[int, int] = defaultdict(int)
    exact: dict[int, int] = {}
    for d in reversed(common):
        e = da[d] * db[d] - pending[d]
        if e:
            exact[d] = e
            for d2 in _divisors_int(d):
                if d2 != d and d2 in cset:
                    pending[d2] += e
    return tuple(sorted(exact.items()))


def gcd_census(A, B) -> tuple[tuple[int, int], ...]:
    """Exact distribution of gcd(a, b) over A x B as (value, count) pairs."""
    return _exact_gcd_distribution(_values(A), _values(B))


def count_pairs_geq_fast(A, B, D) -> int:
    """Census by divisor grouping; exactly equals the naive double loop."""
    t = _gcd_threshold(D)
    dist = _exact_gcd_distribution(_values(A), _values(B))
    return sum(e for d, e in dist if d >= t)


def prime_sets(S, p0: int) -> tuple[frozenset[int], frozenset[int]]:
    """(P(S), P_sml(S)): primes dividing some element, and those <= p0."""
    ps = frozenset(p for el in S for p in factorize(el).primes())
    return ps, frozenset(p for p in ps if p <= p0)


def _bound(n_small: int, epsilon: float, delta, scale: Fraction, size: int):
    """(B or inf, log10 B, whether size <= B) for B = 1000^(1+n_small) *
    delta^(-2-epsilon) * scale.  B and log10 B are floats for display; with
    epsilon = a/b the verdict is the exact
    size^b * delta^(2b+a) <= (1000^(1+n_small) * scale)^b."""
    delta, scale = fraction_of(delta), fraction_of(scale)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    log_bound = (
        (1 + n_small) * math.log(1000.0)
        - (2.0 + epsilon) * (math.log(delta.numerator) - math.log(delta.denominator))
        + (math.log(scale.numerator) - math.log(scale.denominator))
    )
    try:
        bound = math.exp(log_bound)
    except OverflowError:
        bound = math.inf
    eps = epsilon_fraction(epsilon)
    a, b = eps.numerator, eps.denominator
    holds = size**b * delta ** (2 * b + a) <= (1000 ** (1 + n_small) * scale) ** b
    return bound, log_bound / math.log(10.0), holds


def theorem1_bound(inst: GcdInstance, delta, small_primes=None) -> tuple[float, float, bool]:
    """(B, log10 B, whether |A||B| <= B) for the main bound B =
    1000^(1+#P_sml(A u B)) * delta^(-2-epsilon) * XY/D^2 (B may be inf);
    the verdict is exact.

    small_primes, if given, is P_sml(A u B) = prime_sets(A + B, p0)[1]: a
    caller that has it spares a scan."""
    if small_primes is None:
        small_primes = prime_sets(inst.A + inst.B, inst.p0)[1]
    scale = inst.X * inst.Y / (inst.D * inst.D)
    return _bound(len(small_primes), inst.epsilon, delta, scale, inst.size_product())


def chase_diagonal_bound(A, X, D) -> tuple[bool, int]:
    """The trivial diagonal bound: pairwise gcd >= D forces gaps >= D, so a
    set in [X, 2X] has at most floor(X/D) + 1 elements.

    Raises ValueError if some pair has gcd < D (caller precondition).
    Returns (holds, max_allowed).
    """
    vals = _values(A)
    X = fraction_of(X)
    D = fraction_of(D)
    t = _gcd_threshold(D)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            g = math.gcd(vals[i], vals[j])
            if g < t:
                raise ValueError(
                    f"precondition violated: gcd({vals[i]}, {vals[j]}) = {g} < {D}"
                )
    for u, v in zip(vals, vals[1:]):
        if v - u < D:
            raise RuntimeError(f"gap {v - u} below {D} despite pairwise gcd >= {D}")
    max_allowed = int(X / D) + 1
    return len(vals) <= max_allowed, max_allowed


def theorem51_bound(A, B, Q, epsilon: float = 0.5, p0: int = 100):
    """Squarefree-set analogue: density of pairs with ab/gcd^2 <= Q, the
    bound 1000^(1+#P_sml) * delta^(-2-eps) * Q/4, and whether it holds.

    Returns (delta, bound, holds); all elements must be squarefree.
    """
    A = _coerce_elements(A, "A")
    B = _coerce_elements(B, "B")
    for name, S in (("A", A), ("B", B)):
        for el in S:
            if not is_squarefree(el):
                raise ValueError(f"element {el.value} of {name} is not squarefree")
    Q = fraction_of(Q)
    omega = build_omega_ratio(A, B, Q)
    delta = omega.delta
    if delta == 0:
        return delta, math.inf, True
    n_small = len(prime_sets(A + B, p0)[1])
    bound, _, holds = _bound(n_small, epsilon, delta, Q / 4, len(A) * len(B))
    return delta, bound, holds


# ---------------------------------------------------------------------------
# Instance file format: JSON with decimal-string integers (primorials exceed
# 64 bits), canonical key order, bit-exact round trip.
# ---------------------------------------------------------------------------


def instance_to_json(inst: GcdInstance, *, ranges: bool = True) -> str:
    """The instance file text; ranges=False leaves X and Y to be inferred."""
    doc = {
        "A": [str(a.value) for a in inst.A],
        "B": [str(b.value) for b in inst.B],
        "D": str(inst.D),
        "epsilon": inst.epsilon,
        "p0": inst.p0,
    }
    if ranges:
        doc["X"] = str(inst.X)
        doc["Y"] = str(inst.Y)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_int_list(doc, name: str) -> list[int]:
    raw = doc.get(name)
    if not isinstance(raw, list) or not raw:
        raise InstanceError(f"field {name}: expected a nonempty array of decimal strings")
    out = []
    for i, s in enumerate(raw):
        try:
            v = int(s)
        except (TypeError, ValueError):
            raise InstanceError(f"field {name}[{i}]: {s!r} is not a decimal integer") from None
        if v < 1:
            raise InstanceError(f"field {name}[{i}]: {v} must be >= 1")
        out.append(v)
    return out


def _parse_fraction(doc, name: str, required: bool):
    raw = doc.get(name)
    if raw is None:
        if required:
            raise InstanceError(f"field {name}: missing")
        return None
    if not isinstance(raw, bool):
        try:  # a JSON float is read by its decimal text, as epsilon is
            return decimal_fraction(raw) if isinstance(raw, float) else Fraction(raw)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise InstanceError(f"field {name}: {raw!r} is not a number")


def instance_from_json(text: str) -> GcdInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    A = _parse_int_list(doc, "A")
    B = _parse_int_list(doc, "B")
    D = _parse_fraction(doc, "D", required=True)
    X = _parse_fraction(doc, "X", required=False)
    Y = _parse_fraction(doc, "Y", required=False)
    epsilon = doc.get("epsilon", 0.5)
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
        raise InstanceError(f"field epsilon: {epsilon!r} is not a number")
    p0 = doc.get("p0", 100)
    if not isinstance(p0, int) or isinstance(p0, bool) or p0 < 0:
        raise InstanceError(f"field p0: {p0!r} is not a natural number")
    return GcdInstance.build(A, B, D, X, Y, epsilon=float(epsilon), p0=p0)


def read_instance(path) -> GcdInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
