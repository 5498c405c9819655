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
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import compress
from typing import NamedTuple

from .arith import FactoredNat, divisors, factorize, is_squarefree

__all__ = [
    "GcdInstance",
    "InstanceError",
    "InternalConsistencyError",
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
    "p0_natural",
    "prime_sets",
    "read_instance",
    "theorem1_bound",
    "theorem51_bound",
]

EPSILON_MAX_DENOMINATOR = 1000  # the largest b of an epsilon = a/b


class InstanceError(ValueError):
    """Invalid instance data, with a field-level diagnostic message."""


class InternalConsistencyError(RuntimeError):
    """An unconditional counting guarantee failed; the implementation is wrong."""


_DECIMAL_TEXT = re.compile(r"[0-9]+(?:[./][0-9]+)?")


def decimal_fraction(x) -> Fraction:
    """x exactly.  Text must be ASCII digits, digits.digits or digits/digits
    with a nonzero denominator, else ValueError: '1_0', ' 5', '+5' and '5e0'
    are refused here as the element reader refuses them.  A float is read
    by its shortest decimal text (0.1 is 1/10, not the binary double nearest
    it)."""
    if isinstance(x, str) and not _DECIMAL_TEXT.fullmatch(x):
        raise ValueError(f"{x!r} is not a number")
    try:
        return Fraction(repr(x) if isinstance(x, float) else x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


def _number(x, name: str, required: bool = True) -> Fraction | None:
    """The field's number exactly (decimal_fraction), None if it is absent
    and not required; InstanceError naming the field otherwise."""
    if x is None:
        if required:
            raise InstanceError(f"field {name}: missing")
        return None
    if not isinstance(x, bool):
        try:
            return decimal_fraction(x)
        except (TypeError, ValueError):  # also a text past int()'s digit limit
            pass
    raise InstanceError(f"field {name}: {x!r} is not a number")


def epsilon_fraction(epsilon) -> Fraction:
    """epsilon = a/b exactly: a Fraction or int as it is, a float or text as
    the fraction its decimal text names (decimal_fraction).  InstanceError
    unless epsilon is a number, 0 < epsilon < 1 and b <=
    EPSILON_MAX_DENOMINATOR: the exact verdicts raise to powers up to 2b + a."""
    if isinstance(epsilon, str):
        epsilon = _number(epsilon, "epsilon")
    exact = isinstance(epsilon, Fraction)
    if not (exact or isinstance(epsilon, (int, float))) or isinstance(epsilon, bool):
        raise InstanceError(f"field epsilon: {epsilon!r} is not a number")
    # a float is compared before its text is read: nan and inf have no fraction
    if not (0 < epsilon.numerator < epsilon.denominator if exact else 0 < epsilon < 1):
        raise InstanceError(f"field epsilon: {epsilon} not strictly inside (0, 1)")
    eps = epsilon if exact else decimal_fraction(epsilon)
    if eps.denominator > EPSILON_MAX_DENOMINATOR:
        raise InstanceError(
            f"field epsilon: {epsilon} has denominator {eps.denominator}"
            f" above {EPSILON_MAX_DENOMINATOR}"
        )
    return eps


def p0_natural(p0) -> int:
    """p0 as given: InstanceError unless it is an int >= 0."""
    if not isinstance(p0, int) or isinstance(p0, bool) or p0 < 0:
        raise InstanceError(f"field p0: {p0!r} is not a natural number")
    return p0


def _items(S, name: str) -> list:
    """The items of S in order, repeats kept, each a FactoredNat or an int.
    InstanceError unless S is a nonempty list, tuple or range whose items are
    each a FactoredNat, an int or ASCII digits, and at least 1."""
    if not isinstance(S, (list, tuple, range)) or not S:
        raise InstanceError(f"field {name}: expected a nonempty array of decimal strings")
    items = []
    for i, s in enumerate(S):
        if type(s) is not int and not isinstance(s, FactoredNat):
            try:
                # int() alone also reads 12.7, True, '1_2' and ' 12'
                if not (type(s) is str and s.isascii() and s.isdigit()):
                    raise ValueError
                s = int(s)
            except ValueError:  # also a text past int()'s digit limit
                raise InstanceError(f"field {name}[{i}]: {s!r} is not a decimal integer") from None
        if type(s) is int and s < 1:
            raise InstanceError(f"field {name}[{i}]: {s} must be >= 1")
        items.append(s)
    return items


def _elements(S, name: str) -> tuple[FactoredNat, ...]:
    """The distinct values of S's items (_items), sorted as ints and then
    factorized; a FactoredNat item is kept as it is."""
    items = _items(S, name)
    given = {s.value: s for s in items if type(s) is not int}
    values = {s for s in items if type(s) is int}
    values.update(given)
    try:
        return tuple([given.get(v) or factorize(v) for v in sorted(values)])
    except ValueError as exc:  # a probable prime past the proven range
        raise InstanceError(f"field {name}: {exc}") from None


class GcdInstance(NamedTuple):
    """The tuple (A, B, X, Y, D, epsilon, p0) with A in [X,2X], B in [Y,2Y]."""

    A: tuple[FactoredNat, ...]
    B: tuple[FactoredNat, ...]
    X: Fraction
    Y: Fraction
    D: Fraction
    epsilon: Fraction = Fraction(1, 2)
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
        epsilon=Fraction(1, 2),
        p0: int = 100,
        check_ranges: bool = True,
    ) -> "GcdInstance":
        """Validated constructor, and the one reader of every field: an
        instance file hands it its JSON values, read in the order A, B, D,
        X, Y, epsilon, p0, ranges.  X (resp. Y) omitted means X = min(A),
        which errors if max(A) > 2*min(A); passing check_ranges=False skips
        the dyadic-range and D <= min(X,Y) checks, for test harnesses and
        for family sets that are not dyadic (cli._emit_set)."""
        A, B = _elements(A, "A"), _elements(B, "B")
        D, X, Y = _number(D, "D"), _number(X, "X", False), _number(Y, "Y", False)
        X = _infer_range(A, "A") if X is None else X
        Y = _infer_range(B, "B") if Y is None else Y
        inst = cls(A, B, X, Y, D, epsilon_fraction(epsilon), p0_natural(p0))
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
    as one row per element of A: bit j of rows[i] is set iff (A[i], B[j])
    is a pair.  Size and density are views of the rows; the columns of a
    row, or of any mask over B, are read with _members(B, mask).

    len() is the number of pairs, not of fields, so _replace and _make
    raise TypeError; a copy with other rows is PairSet(A, B, rows).
    """

    A: tuple[FactoredNat, ...]
    B: tuple[FactoredNat, ...]
    rows: tuple[int, ...]

    @property
    def n_left(self) -> int:
        return len(self.A)

    @property
    def n_right(self) -> int:
        return len(self.B)

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows))

    @property
    def delta(self) -> Fraction:
        return Fraction(len(self), self.n_left * self.n_right)


def _gcd_threshold(D) -> int:
    # gcds are integers, so gcd >= D is the same test as gcd >= ceil(D)
    exact = D if type(D) is Fraction else _number(D, "D")
    return max(1, -(-exact.numerator // exact.denominator))


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


_SELECTORS = bytes.maketrans(b"01", b"\0\1")  # binary digits to compress's bytes 0 and 1


def _members(items, mask: int):
    """The items at the set bits of mask, in order: items[i] for each bit i
    of mask below len(items), as an iterator."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_SELECTORS))


def _omega_rows(A, B, D):
    """Row a of the gcd >= D relation for each FactoredNat a in A in turn, as
    a mask over B: the union of the column masks of a's least divisors >= D,
    so no pair is tested."""
    t = _gcd_threshold(D)
    cols: dict[int, int] = defaultdict(int)
    for j, b in enumerate(B):
        for d in _least_divisors_geq(b.factors, t):
            cols[d] |= 1 << j
    for a in A:
        row = 0
        for d in _least_divisors_geq(a.factors, t):
            row |= cols.get(d, 0)
        yield row


def build_omega_gcd(inst: GcdInstance) -> PairSet:
    """All pairs (a, b) in A x B with gcd(a, b) >= D, density exact: the
    rows of _omega_rows."""
    return PairSet(inst.A, inst.B, tuple(_omega_rows(inst.A, inst.B, inst.D)))


def build_omega_ratio(A, B, Q) -> PairSet:
    """All pairs with ab/gcd(a,b)^2 <= Q (the squarefree-theorem predicate).
    That ratio is an integer, so it is at most Q iff ab <= floor(Q) gcd(a,b)^2."""
    A, B, Q = _elements(A, "A"), _elements(B, "B"), _number(Q, "Q")
    bvals, q, gcd = [b.value for b in B], math.floor(Q), math.gcd
    rows = tuple(
        sum(1 << j for j, b in enumerate(bvals) if a * b <= q * gcd(a, b) ** 2)
        for a in [a.value for a in A]
    )
    return PairSet(A, B, rows)


def _values(S, name: str) -> tuple[int, ...]:
    """The items of S (_items) as sorted ints, repeats kept."""
    return tuple(sorted(map(int, _items(S, name))))


def count_pairs_geq_naive(A, B, D) -> int:
    """Oracle census: plain double loop over A x B."""
    t = _gcd_threshold(D)
    av, bv = _values(A, "A"), _values(B, "B")
    gcd = math.gcd
    return sum(1 for a in av for b in bv if gcd(a, b) >= t)


def gcd_census(A, B) -> tuple[tuple[int, int], ...]:
    """(d, #pairs of A x B with gcd exactly d) for every d with a nonzero count.

    c(d) = (#multiples of d in A) * (#multiples of d in B) counts pairs with
    d | gcd; descending over the common divisors, e(d) = c(d) - sum of e(d')
    over proper multiples d' of d isolates the exact-gcd counts.
    """
    da = Counter(d for a in _items(A, "A") for d in divisors(a))
    db = Counter(d for b in _items(B, "B") for d in divisors(b))
    common = sorted(set(da) & set(db))
    cset = set(common)
    pending: dict[int, int] = defaultdict(int)
    exact: dict[int, int] = {}
    for d in reversed(common):
        e = da[d] * db[d] - pending[d]
        if e:
            exact[d] = e
            for d2 in divisors(d):
                if d2 != d and d2 in cset:
                    pending[d2] += e
    return tuple(sorted(exact.items()))


def count_pairs_geq_fast(A, B, D) -> int:
    """Census by divisor grouping; exactly equals the naive double loop."""
    t = _gcd_threshold(D)
    return sum(e for d, e in gcd_census(A, B) if d >= t)


def prime_sets(S, p0: int) -> tuple[frozenset[int], frozenset[int]]:
    """(P(S), P_sml(S)): primes dividing some element, and those <= p0.
    S is read as the census helpers read a set (_items), p0 by p0_natural."""
    p0 = p0_natural(p0)
    ps = frozenset({p for el in _items(S, "S") for p, _ in factorize(el).factors})
    return ps, frozenset(p for p in ps if p <= p0)


def _bound(n_small: int, eps: Fraction, delta, scale: Fraction, size: int):
    """(B or inf, log10 B, whether size <= B) for B = 1000^(1+n_small) *
    delta^(-2-eps) * scale.  B and log10 B are floats for display; with
    eps = a/b the verdict is the exact
    size^b * delta^(2b+a) <= (1000^(1+n_small) * scale)^b."""
    delta, scale = Fraction(delta), Fraction(scale)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    log_bound = (
        (1 + n_small) * math.log(1000.0)
        - (2.0 + float(eps)) * (math.log(delta.numerator) - math.log(delta.denominator))
        + (math.log(scale.numerator) - math.log(scale.denominator))
    )
    try:
        bound = math.exp(log_bound)
    except OverflowError:
        bound = math.inf
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


def _check_window(values, X: Fraction) -> None:
    """ValueError naming the first of the int values outside [X, 2X]."""
    xn, xd = X.numerator, X.denominator
    for v in values:
        if not xn <= v * xd <= 2 * xn:
            raise ValueError(f"element {v} outside [{X}, {2 * X}]")


def chase_diagonal_bound(A, X, D) -> tuple[bool, int]:
    """The trivial diagonal bound: pairwise gcd >= D forces gaps >= D, so a
    set in [X, 2X] has at most floor(X/D) + 1 elements.

    A is read as its distinct values.  Raises ValueError if D < 1, if one
    lies outside [X, 2X] or if some pair has gcd < D (caller preconditions).
    Returns (holds, max_allowed).
    """
    vals = sorted(set(_values(A, "A")))
    X, D = _number(X, "X"), _number(D, "D")
    if D < 1:  # X / D would divide by zero or flip the bound's sign
        raise ValueError(f"D = {D} must be >= 1")
    _check_window(vals, X)
    t = _gcd_threshold(D)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            g = math.gcd(vals[i], vals[j])
            if g < t:
                raise ValueError(
                    f"precondition violated: gcd({vals[i]}, {vals[j]}) = {g} < {D}"
                )
    # distinct values: gcd(u, v) divides v - u > 0, so each gap is >= ceil(D)
    max_allowed = int(X / D) + 1
    return len(vals) <= max_allowed, max_allowed


def theorem51_bound(A, B, Q, epsilon: Fraction = Fraction(1, 2), p0: int = 100):
    """Squarefree-set analogue: density of pairs with ab/gcd^2 <= Q, the
    bound 1000^(1+#P_sml) * delta^(-2-eps) * Q/4, and whether it holds.

    Returns (delta, bound, holds); all elements must be squarefree.
    """
    A, B = _elements(A, "A"), _elements(B, "B")
    for name, S in (("A", A), ("B", B)):
        for el in S:
            if not is_squarefree(el):
                raise ValueError(f"element {el.value} of {name} is not squarefree")
    Q, epsilon, p0 = _number(Q, "Q"), epsilon_fraction(epsilon), p0_natural(p0)
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
    eps = float(inst.epsilon)  # written as "a/b" when it does not read back as epsilon
    doc = {
        "A": [str(a.value) for a in inst.A],
        "B": [str(b.value) for b in inst.B],
        "D": str(inst.D),
        "epsilon": eps if decimal_fraction(eps) == inst.epsilon else str(inst.epsilon),
        "p0": inst.p0,
    }
    if ranges:
        doc["X"] = str(inst.X)
        doc["Y"] = str(inst.Y)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_int(text: str):
    """A JSON integer; past int()'s digit limit its text, which build refuses by name."""
    try:
        return int(text)
    except ValueError:
        return text


def _unique_keys(pairs: list) -> dict:
    """A JSON object; json.loads alone would keep the last value of a repeated key."""
    if len(doc := dict(pairs)) < len(pairs):
        repeated = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise InstanceError(f"field {repeated}: given more than once")
    return doc


def instance_from_json(text: str) -> GcdInstance:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InstanceError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    A, B, D, X, Y = map(doc.get, "ABDXY")
    return GcdInstance.build(A, B, D, X, Y, epsilon=doc.get("epsilon", 0.5), p0=doc.get("p0", 100))


def read_instance(path) -> GcdInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
