"""Structural machinery around a GCD instance: per-prime valuation measures,
the search for a modulus N concentrating valuations, pivotal-pair filtering,
defect decompositions a = N * a_plus / a_minus, the defect-count census, and
extraction of a witness pair certifying the delta^-2 product bound.

All densities and comparisons are exact rationals; defect arithmetic is
exact integer arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .arith import FactoredNat, factorize, fraction_of, rational_valuations
from .instance import GcdInstance, PairSet, _indices

__all__ = [
    "DefectCensus",
    "DefectDecomposition",
    "DefectError",
    "InternalConsistencyError",
    "PrimeWitness",
    "StructuredInstance",
    "ValuationMeasure",
    "check_pivotal",
    "defect",
    "defect_census",
    "defect_census_sweep",
    "extract_witnesses",
    "find_modulus",
    "product_bound",
    "quad_identity_check",
    "quad_identity_witnesses",
    "valuation_measure",
    "witness_chain",
]


class DefectError(ValueError):
    """Some |v_p(a/N)| >= 2, so the (a_plus, a_minus) split is undefined."""


class InternalConsistencyError(RuntimeError):
    """An unconditional counting guarantee failed; the implementation is wrong."""


# ---------------------------------------------------------------------------
# Valuation measures
# ---------------------------------------------------------------------------


class ValuationMeasure(NamedTuple):
    """Relative densities at a prime p: alpha_i = |A_i|/|A| for the slices
    A_i = {a : v_p(a) = i}, beta_j likewise for B, and the edge measure
    mu(i, j) = |Omega restricted to A_i x B_j| / |Omega|."""

    p: int
    alpha: dict[int, Fraction]
    beta: dict[int, Fraction]
    mu: dict[tuple[int, int], Fraction]


def valuation_measure(inst: GcdInstance, omega: PairSet, p: int) -> ValuationMeasure:
    """Exact (alpha, beta, mu) at prime p; omega must be nonempty.  B's
    indices are grouped into classes by v_p, and each row of omega is
    counted against those classes."""
    if not omega:
        raise ValueError("omega is empty: the edge measure is undefined")
    va = [a.valuation(p) for a in inst.A]
    cols: dict[int, int] = defaultdict(int)
    for j, b in enumerate(inst.B):
        cols[b.valuation(p)] |= 1 << j
    counts: Counter[tuple[int, int]] = Counter()
    for v, row in zip(va, omega.row_bits()):
        for w, C in cols.items():
            counts[v, w] += (row & C).bit_count()
    nA, nB, nE = len(inst.A), len(inst.B), len(omega)
    return ValuationMeasure(
        p,
        {i: Fraction(c, nA) for i, c in sorted(Counter(va).items())},
        {j: Fraction(C.bit_count(), nB) for j, C in sorted(cols.items())},
        {ij: Fraction(c, nE) for ij, c in sorted(counts.items()) if c},
    )


# ---------------------------------------------------------------------------
# Pivotal pairs and the modulus search
# ---------------------------------------------------------------------------


def check_pivotal(a, b, N) -> bool:
    """True iff |v_p(a/N)| + |v_p(b/N)| <= 1 at every prime."""
    return _pivotal(rational_valuations(a, N), rational_valuations(b, N))


def _pivotal(va: dict[int, int], vb: dict[int, int]) -> bool:
    # the valuations are nonzero, so the sum is <= 1 at every prime iff each
    # is +-1 and no prime carries both
    return (
        all(-1 <= v <= 1 for v in va.values())
        and all(-1 <= v <= 1 for v in vb.values())
        and va.keys().isdisjoint(vb)
    )


def find_modulus(inst: GcdInstance, omega: PairSet) -> StructuredInstance:
    """Search for N = prod p^k_p over the primes of A u B maximizing the
    number of pairs with |v_p(a/N)| + |v_p(b/N)| <= 1 at every prime, and
    return the structured instance of that N.

    Exact: depth first over k_p in [min valuation, max valuation] for the
    primes whose lowest k loses a pair, each with its grid masks; every
    other prime keeps its lowest k (modulus.search).  Ties go to the first
    maximizer with the primes in increasing order.  The achieved
    |Omega'|/|Omega| is reported, never asserted to reach 1/2.
    """
    from .modulus import search

    if not omega:
        raise ValueError("omega is empty: nothing to structure")
    ks, bits = search(omega)
    factors = tuple((p, k) for p, k in ks.items() if k > 0)
    n = FactoredNat.checked(math.prod(p**k for p, k in factors), factors)
    return StructuredInstance.build(inst, omega, n, omega.masked(bits))


class StructuredInstance(NamedTuple):
    """An instance with its pair set Omega, a modulus N, the pivotal pairs
    Omega' of N, and the defect of every element of Omega' (the labelled
    GCD graph).

    Omega' is pivotal iff every element of it has a defect and the two
    defects a*, b* of every pair in it are coprime; build() checks this."""

    base: GcdInstance
    omega: PairSet
    n: FactoredNat
    omega_prime: PairSet
    defects: dict[FactoredNat, DefectDecomposition]

    @classmethod
    def build(cls, base, omega, n, omega_prime) -> "StructuredInstance":
        """The structured instance with the defects of Omega' computed;
        ValueError, naming the first offender, if Omega' is not pivotal for
        n.  Defects are taken in increasing order for the elements with a
        nonzero row or column; then row i clashes, in row-major order, where
        it meets the column masks of the primes of a*, each the columns
        whose b* that prime divides."""
        A, B = omega_prime.A, omega_prime.B
        rows, paired = omega_prime.row_bits(), 0
        for r in rows:
            paired |= r  # the columns with a pair
        left = [i for i, r in enumerate(rows) if r]
        right = _indices(paired)
        defects, vals = {}, {}  # vals[el] = v(el/N), keyed by the primes of el*
        for el in sorted({A[i] for i in left} | {B[j] for j in right}):
            vals[el] = v = rational_valuations(el, n)
            try:
                defects[el] = _defect_from(el, n, v)
            except DefectError as exc:
                raise ValueError(
                    f"{el} in omega_prime is not pivotal for N = {n}: {exc}"
                ) from None
        masks: dict[int, int] = {}  # prime -> columns j with p | b*_j
        for j in right:
            for p in vals[B[j]]:
                masks[p] = masks.get(p, 0) | 1 << j
        for i in left:
            clash = 0
            for p in vals[A[i]]:
                clash |= masks.get(p, 0)
            clash &= rows[i]
            if clash:
                b = B[(clash & -clash).bit_length() - 1]
                raise ValueError(f"pair ({A[i]}, {b}) in omega_prime is not pivotal for N = {n}")
        return cls(base, omega, n, omega_prime, defects)

    @property
    def fraction(self) -> Fraction:
        """|Omega'| / |Omega|, reported rather than asserted >= 1/2."""
        return Fraction(len(self.omega_prime), len(self.omega))

    @property
    def delta_prime(self) -> Fraction:
        return self.omega_prime.delta


# ---------------------------------------------------------------------------
# Defects
# ---------------------------------------------------------------------------


class DefectDecomposition(NamedTuple):
    """a_plus = prod of primes with v_p(a/N) = +1, a_minus for -1, and their
    product a_star.  a_plus and a_minus are squarefree and coprime, and
    a_plus / a_minus = a / N as rationals."""

    a_plus: int
    a_minus: int

    @property
    def a_star(self) -> int:
        return self.a_plus * self.a_minus


def defect(a, N) -> DefectDecomposition:
    """Defect decomposition of a relative to N; requires v_p(a/N) in
    {-1, 0, 1} at every prime (DefectError otherwise)."""
    a, N = factorize(a), factorize(N)
    return _defect_from(a, N, rational_valuations(a, N))


def _defect_from(a: FactoredNat, N: FactoredNat, vals: dict[int, int]) -> DefectDecomposition:
    """The defect of a relative to N from vals = rational_valuations(a, N)."""
    a_plus = a_minus = 1
    for p, v in vals.items():
        if v == 1:
            a_plus *= p
        elif v == -1:
            a_minus *= p
        else:
            raise DefectError(f"v_{p}({a}/{N}) = {v} outside {{-1, 0, 1}}")
    if a_plus * N.value != a.value * a_minus:
        raise InternalConsistencyError(
            f"ratio identity failed: {a_plus}/{a_minus} != {a}/{N}"
        )
    if math.gcd(a_plus, a_minus) != 1:
        raise InternalConsistencyError(f"a_plus = {a_plus} and a_minus = {a_minus} share a prime")
    return DefectDecomposition(a_plus, a_minus)


class PrimeWitness(NamedTuple):
    """One row of the per-prime defect-identity table."""

    p: int
    v_a_star: int
    v_b_star: int
    v_a_over_n: int
    v_b_over_n: int

    @property
    def ok(self) -> bool:
        return self.v_a_star + self.v_b_star == abs(self.v_a_over_n - self.v_b_over_n)


def _pivotal_defects(a, b, N):
    """(v(a/N), v(b/N), defect of a, defect of b), each valuation map
    computed once; ValueError unless (a, b) is pivotal for N."""
    a, b, N = factorize(a), factorize(b), factorize(N)
    va, vb = rational_valuations(a, N), rational_valuations(b, N)
    if not _pivotal(va, vb):
        raise ValueError(f"pair ({a}, {b}) is not pivotal for N = {N}")
    return va, vb, _defect_from(a, N, va), _defect_from(b, N, vb)


def quad_identity_witnesses(a, b, N) -> tuple[PrimeWitness, ...]:
    """Per-prime table certifying v_p(a*) + v_p(b*) = |v_p(a/N) - v_p(b/N)|.

    Requires (a, b) pivotal for N."""
    va, vb, da, db = _pivotal_defects(a, b, N)
    return tuple(
        PrimeWitness(
            p,
            int(da.a_star % p == 0),
            int(db.a_star % p == 0),
            va.get(p, 0),
            vb.get(p, 0),
        )
        for p in sorted([*va, *vb])  # pivotal: no prime is in both
    )


def quad_identity_check(a, b, N) -> bool:
    """Whether a_star * b_star = ab / gcd(a,b)^2 exactly (always true when
    the pivotal precondition holds; kept as a tested invariant)."""
    _, _, da, db = _pivotal_defects(a, b, N)
    g = math.gcd(int(a), int(b))
    return da.a_star * db.a_star * g * g == int(a) * int(b)


# ---------------------------------------------------------------------------
# Defect census and witness extraction
# ---------------------------------------------------------------------------


class DefectCensus(NamedTuple):
    """The census at one threshold T: count is the number of elements with
    a_star <= T, holds is count <= 2T, and range_ok says that every counted
    element has a_plus^2 <= 2XT/N and a_minus^2 <= NT/X."""

    count: int
    bound: Fraction  # 2T
    holds: bool
    range_ok: bool


def _census_table(S, N: FactoredNat, X: Fraction) -> tuple[list[int], list[int], list[int]]:
    """The defects of the distinct elements of S, which must lie in
    [X, 2X], sorted by a_star: the a_star values and the prefix maxima of
    a_plus^2 and of a_minus^2."""
    elems = sorted({factorize(x) for x in S})
    xn, xd = X.numerator, X.denominator
    for el in elems:
        if not xn <= el.value * xd <= 2 * xn:
            raise ValueError(f"element {el.value} outside [{X}, {2 * X}]")
    ds = sorted((d.a_star, d.a_plus**2, d.a_minus**2) for d in [defect(el, N) for el in elems])
    return (
        [star for star, _, _ in ds],
        list(accumulate((plus for _, plus, _ in ds), max)),
        list(accumulate((minus for _, _, minus in ds), max)),
    )


def _census_at(table, n: int, X: Fraction, bound: Fraction) -> DefectCensus:
    """The census at T = bound/2 from _census_table's sorted defects: count
    is one bisection, and the counted elements obey the range caps iff the
    prefix maxima at the last of them do."""
    stars, plus, minus = table
    bn, bd = bound.numerator, bound.denominator  # T = bn / (2 bd)
    xn, xd = X.numerator, X.denominator
    count = bisect_right(stars, bn // (2 * bd))
    # the compared sides are integers, so comparing with the floors of
    # 2XT/N and NT/X is exact
    range_ok = count == 0 or (
        plus[count - 1] <= xn * bn // (xd * bd * n)
        and minus[count - 1] <= n * bn * xd // (2 * bd * xn)
    )
    return DefectCensus(count, bound, count * bd <= bn, range_ok)


def defect_census(S, N, X, T) -> DefectCensus:
    """Count elements of S within [X, 2X] whose defect a_star is <= T; the
    count can never exceed 2T, and every counted element obeys the range
    caps a_plus^2 <= 2XT/N and a_minus^2 <= NT/X (verified exactly)."""
    N = factorize(N)
    X = fraction_of(X)
    return _census_at(_census_table(S, N, X), N.value, X, 2 * fraction_of(T))


def defect_census_sweep(S, N, X) -> tuple[DefectCensus, ...]:
    """defect_census(S, N, X, T) on the log grid T = 1/2, 1, 2, 4, ... up to
    twice the largest a_star.  Each element's defect is computed once, and
    the defects are sorted by a_star once; every T is then a bisection and
    two integer comparisons with prefix maxima, O((|S| + grid) log |S|) in
    all."""
    N = factorize(N)
    X = fraction_of(X)
    table = _census_table(S, N, X)
    top = 4 * max(table[0], default=0)  # 2T runs over the powers of two up to top
    return tuple(
        _census_at(table, N.value, X, Fraction(1 << k)) for k in range(max(top.bit_length(), 1))
    )


class WitnessReport(NamedTuple):
    """Witness pair (a, b) with large defects, plus the verified chain that
    forces |A||B| <= 1000 * delta'^-2 * XY/D^2 for the filtered density
    delta' = |Omega'| / (|A||B|)."""

    a: int
    b: int
    a_star: int
    b_star: int
    delta_prime: Fraction
    delta_omega: Fraction
    tilde_a_size: int
    tilde_a_lower: Fraction  # delta' |A| / 4
    deg_a: int
    deg_lower: Fraction  # delta' |B| / 4
    a_star_lower: Fraction  # delta' |A| / 8
    b_star_lower: Fraction  # delta' |B| / 8
    quad_product: int  # a_star * b_star
    quad_cap: Fraction  # 4XY/D^2
    size_product: int
    prop_bound: Fraction  # 1000 delta'^-2 XY/D^2
    holds: bool
    chain_ok: bool


class WitnessChain(NamedTuple):
    """The finishing argument's pair (A[ia], B[ib]) on a structured
    instance, with the verdicts of its chain: chain_ok says that
    |tilde A| >= delta'|A|/4, deg(A[ia]) >= delta'|B|/4, (A[ia], B[ib]) is in
    Omega' and a_star * b_star <= 4XY/D^2; holds says that |A||B| <=
    1000 delta'^-2 XY/D^2."""

    ia: int
    ib: int
    tilde_a_size: int
    deg_a: int
    a_star: int
    b_star: int
    chain_ok: bool
    holds: bool


def _scale(inst: GcdInstance) -> tuple[int, int]:
    """XY/D^2 as an unreduced (numerator, denominator), denominator > 0."""
    X, Y, D = inst.X, inst.Y, inst.D
    num = X.numerator * Y.numerator * D.denominator**2
    return num, X.denominator * Y.denominator * D.numerator**2


def product_bound(si: StructuredInstance) -> Fraction:
    """1000 delta'^-2 XY/D^2 for delta' = |Omega'| / (|A||B|), as one Fraction."""
    (sn, sd), size, m = _scale(si.base), si.base.size_product(), len(si.omega_prime)
    return Fraction(1000 * sn * size * size, sd * m * m)


def witness_chain(si: StructuredInstance) -> WitnessChain:
    """Run the finishing argument on a structured instance.

    Averaging gives a set of high-degree left elements of size at least
    delta'|A|/4; the defect census then forces one of them to have
    a_star >= delta'|A|/8, and symmetrically on the right within the
    neighborhood of the chosen a.  The resulting pair certifies
    |A||B| <= 1000 delta'^-2 XY/D^2.

    Every verdict is an integer comparison.  With m = |Omega'| =
    delta'|A||B| on Omega''s row bits, deg >= delta'|B|/4 iff 4|A| deg >= m,
    and so on; with XY/D^2 = sn/sd, a_star b_star <= 4XY/D^2 iff
    sd a_star b_star <= 4 sn, and |A||B| <= 1000 delta'^-2 XY/D^2 iff
    sd m^2 <= 1000 sn |A||B|.
    """
    if not si.omega_prime:
        raise ValueError("omega_prime is empty: no witnesses exist")
    inst, m, rows = si.base, len(si.omega_prime), si.omega_prime.row_bits()
    nA, nB, size = len(inst.A), len(inst.B), inst.size_product()

    def largest_star(S, indices, scale: int):
        # the first of indices with the largest a_star among those with scale * a_star >= m
        best, top = None, -1
        for i in indices:
            star = si.defects[S[i]].a_star
            if star > top and scale * star >= m:
                best, top = i, star
        return best

    tilde_a = [i for i, r in enumerate(rows) if 4 * nA * r.bit_count() >= m]
    if 4 * nB * len(tilde_a) < m:
        raise InternalConsistencyError(
            f"averaging failed: |tilde A| = {len(tilde_a)} < {Fraction(m, 4 * nB)}"
        )
    ia = largest_star(inst.A, tilde_a, 8 * nB)
    if ia is None:
        raise InternalConsistencyError(
            f"no a in tilde A has a_star >= {Fraction(m, 8 * nB)}; "
            "the defect-count bound should make this impossible"
        )
    ib = largest_star(inst.B, _indices(rows[ia]), 8 * nA)
    if ib is None:
        raise InternalConsistencyError(
            f"no b adjacent to {inst.A[ia]} has b_star >= {Fraction(m, 8 * nA)}"
        )
    a_star, b_star = si.defects[inst.A[ia]].a_star, si.defects[inst.B[ib]].a_star
    sn, sd = _scale(inst)
    deg_a = rows[ia].bit_count()
    chain_ok = (
        4 * nB * len(tilde_a) >= m
        and 4 * nA * deg_a >= m
        and rows[ia] >> ib & 1 == 1
        and sd * a_star * b_star <= 4 * sn
    )
    holds = sd * m * m <= 1000 * sn * size
    return WitnessChain(ia, ib, len(tilde_a), deg_a, a_star, b_star, chain_ok, holds)


def extract_witnesses(si: StructuredInstance) -> WitnessReport:
    """The report of witness_chain's pair and verdicts, with every
    threshold it passed; InternalConsistencyError if the chain fails."""
    chain = witness_chain(si)
    if not chain.chain_ok:
        raise InternalConsistencyError("witness chain failed to verify")
    inst, m = si.base, len(si.omega_prime)
    nA, nB, size = len(inst.A), len(inst.B), inst.size_product()
    sn, sd = _scale(inst)
    return WitnessReport(
        a=inst.A[chain.ia].value,
        b=inst.B[chain.ib].value,
        a_star=chain.a_star,
        b_star=chain.b_star,
        delta_prime=Fraction(m, size),
        delta_omega=si.omega.delta,
        tilde_a_size=chain.tilde_a_size,
        tilde_a_lower=Fraction(m, 4 * nB),
        deg_a=chain.deg_a,
        deg_lower=Fraction(m, 4 * nA),
        a_star_lower=Fraction(m, 8 * nB),
        b_star_lower=Fraction(m, 8 * nA),
        quad_product=chain.a_star * chain.b_star,
        quad_cap=Fraction(4 * sn, sd),
        size_product=size,
        prop_bound=product_bound(si),
        holds=chain.holds,
        chain_ok=True,
    )
