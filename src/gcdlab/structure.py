"""Structural machinery around a GCD instance: per-prime valuation measures,
the search for a modulus N concentrating valuations, pivotal-pair filtering,
defect decompositions a = N * a_plus / a_minus, the defect-count census, and
extraction of a witness pair certifying the delta^-2 product bound.

All densities and comparisons are exact rationals; defect arithmetic is
exact integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import FactoredNat, factorize, fraction_of, rational_valuations
from .instance import GcdInstance, PairSet, _indices, build_omega_gcd

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
    "quad_identity_check",
    "quad_identity_witnesses",
    "structure_instance",
    "valuation_measure",
]

EXHAUSTIVE_LIMIT_DEFAULT = 10**6


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
    """Exact (alpha, beta, mu) at prime p; omega must be nonempty.  mu comes
    from one count per pair of valuation classes."""
    from .modulus import class_counts, prime_table

    if not omega:
        raise ValueError("omega is empty: the edge measure is undefined")
    table = prime_table(omega, [p])
    _, _, rows, cols = table[p]
    counts = class_counts(omega, table, omega.row_bits())[p]
    nA, nB, nE = len(inst.A), len(inst.B), len(omega)
    return ValuationMeasure(
        p,
        {i: Fraction(rows[i].bit_count(), nA) for i in sorted(rows)},
        {j: Fraction(cols[j].bit_count(), nB) for j in sorted(cols)},
        {ij: Fraction(c, nE) for ij, c in sorted(counts.items()) if c},
    )


# ---------------------------------------------------------------------------
# Pivotal pairs and the modulus search
# ---------------------------------------------------------------------------


def check_pivotal(a, b, N) -> bool:
    """True iff |v_p(a/N)| + |v_p(b/N)| <= 1 at every prime."""
    va = rational_valuations(a, N)
    vb = rational_valuations(b, N)
    return all(abs(va.get(p, 0)) + abs(vb.get(p, 0)) <= 1 for p in va.keys() | vb.keys())


def find_modulus(
    inst: GcdInstance,
    omega: PairSet,
    *,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT_DEFAULT,
) -> StructuredInstance:
    """Search for N = prod p^k_p over the primes of A u B maximizing the
    number of pairs with |v_p(a/N)| + |v_p(b/N)| <= 1 at every prime, and
    return the structured instance of that N.

    Exact exhaustive search over k_p in [min valuation, max valuation] per
    prime while the product of range sizes over all primes stays within
    exhaustive_limit, with grid masks only for the primes whose lowest k
    loses a pair; otherwise greedy per prime (independently optimal
    centers, ties broken by the valuation mode, then smallest k) from
    class-pair counts, with no grid-wide mask (modulus.search).  The
    achieved |Omega'|/|Omega| is reported, never asserted to reach 1/2.
    """
    from .modulus import search

    if not omega:
        raise ValueError("omega is empty: nothing to structure")
    strategy, ks, bits = search(omega, exhaustive_limit)
    factors = tuple((p, k) for p, k in ks.items() if k > 0)
    n = FactoredNat.checked(math.prod(p**k for p, k in factors), factors)
    return StructuredInstance.build(inst, omega, n, omega.masked(bits), strategy)


class StructuredInstance(NamedTuple):
    """An instance with its pair set Omega, a modulus N, the pivotal pairs
    Omega' of N, and the defect of every element of Omega' (the labelled
    GCD graph).  strategy names how N was found: "exhaustive" or "greedy".

    Omega' is pivotal iff every element of it has a defect and the two
    defects a*, b* of every pair in it are coprime; build() checks this."""

    base: GcdInstance
    omega: PairSet
    n: FactoredNat
    omega_prime: PairSet
    strategy: str
    defects: dict[FactoredNat, DefectDecomposition]

    @classmethod
    def build(cls, base, omega, n, omega_prime, strategy) -> "StructuredInstance":
        """The structured instance with the defects of Omega' computed;
        ValueError if Omega' is not pivotal for n."""
        edges = omega_prime.edges
        defects = {}
        for el in sorted({el for pair in edges for el in pair}):
            try:
                defects[el] = defect(el, n)
            except DefectError as exc:
                raise ValueError(
                    f"{el} in omega_prime is not pivotal for N = {n}: {exc}"
                ) from None
        for a, b in edges:
            if math.gcd(defects[a].a_star, defects[b].a_star) != 1:
                raise ValueError(
                    f"pair ({a}, {b}) in omega_prime is not pivotal for N = {n}"
                )
        return cls(base, omega, n, omega_prime, strategy, defects)

    @property
    def fraction(self) -> Fraction:
        """|Omega'| / |Omega|, reported rather than asserted >= 1/2."""
        return Fraction(len(self.omega_prime), len(self.omega))

    @property
    def delta_prime(self) -> Fraction:
        return self.omega_prime.delta


def structure_instance(inst: GcdInstance) -> StructuredInstance:
    """Build Omega and search for N."""
    return find_modulus(inst, build_omega_gcd(inst))


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
    a_plus = a_minus = 1
    for p, v in rational_valuations(a, N).items():
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


def quad_identity_witnesses(a, b, N) -> tuple[PrimeWitness, ...]:
    """Per-prime table certifying v_p(a*) + v_p(b*) = |v_p(a/N) - v_p(b/N)|.

    Requires (a, b) pivotal for N."""
    a, b, N = factorize(a), factorize(b), factorize(N)
    if not check_pivotal(a, b, N):
        raise ValueError(f"pair ({a}, {b}) is not pivotal for N = {N}")
    da, db = defect(a, N), defect(b, N)
    va = rational_valuations(a, N)
    vb = rational_valuations(b, N)
    return tuple(
        PrimeWitness(
            p,
            int(da.a_star % p == 0),
            int(db.a_star % p == 0),
            va.get(p, 0),
            vb.get(p, 0),
        )
        for p in sorted(va.keys() | vb.keys())
    )


def quad_identity_check(a, b, N) -> bool:
    """Whether a_star * b_star = ab / gcd(a,b)^2 exactly (always true when
    the pivotal precondition holds; kept as a tested invariant)."""
    a, b, N = factorize(a), factorize(b), factorize(N)
    if not check_pivotal(a, b, N):
        raise ValueError(f"pair ({a}, {b}) is not pivotal for N = {N}")
    da, db = defect(a, N), defect(b, N)
    g = math.gcd(a.value, b.value)
    return da.a_star * db.a_star * g * g == a.value * b.value


# ---------------------------------------------------------------------------
# Defect census and witness extraction
# ---------------------------------------------------------------------------


class CensusRow(NamedTuple):
    value: int
    a_plus: int
    a_minus: int
    a_star: int
    counted: bool  # a_star <= T
    plus_ok: bool  # a_plus <= sqrt(2XT/N), checked for counted rows
    minus_ok: bool  # a_minus <= sqrt(NT/X), checked for counted rows


class DefectCensus(NamedTuple):
    count: int
    bound: Fraction  # 2T
    holds: bool
    a_plus_cap_sq: Fraction  # 2XT/N
    a_minus_cap_sq: Fraction  # NT/X
    range_ok: bool
    rows: tuple[CensusRow, ...]


def _element_defects(S, N: FactoredNat, X: Fraction) -> list[tuple[int, DefectDecomposition]]:
    """(value, defect) for each distinct element of S, in increasing order."""
    elems = sorted({factorize(x) for x in S})
    for el in elems:
        if not X <= el.value <= 2 * X:
            raise ValueError(f"element {el.value} outside [{X}, {2 * X}]")
    return [(el.value, defect(el, N)) for el in elems]


def _census_at(defects, N: FactoredNat, X: Fraction, T: Fraction) -> DefectCensus:
    plus_cap_sq = 2 * X * T / N.value
    minus_cap_sq = Fraction(N.value) * T / X
    # the compared sides are integers, so comparing with the floors is exact
    t, plus_cap, minus_cap = math.floor(T), math.floor(plus_cap_sq), math.floor(minus_cap_sq)
    rows = []
    count = 0
    range_ok = True
    for value, d in defects:
        a_star = d.a_star
        counted = a_star <= t
        plus_ok = minus_ok = True
        if counted:
            count += 1
            plus_ok = d.a_plus**2 <= plus_cap
            minus_ok = d.a_minus**2 <= minus_cap
            range_ok = range_ok and plus_ok and minus_ok
        rows.append(CensusRow(value, d.a_plus, d.a_minus, a_star, counted, plus_ok, minus_ok))
    return DefectCensus(
        count, 2 * T, count <= 2 * T, plus_cap_sq, minus_cap_sq, range_ok, tuple(rows)
    )


def defect_census(S, N, X, T) -> DefectCensus:
    """Count elements of S within [X, 2X] whose defect a_star is <= T; the
    count can never exceed 2T, and every counted element obeys the range
    caps a_plus^2 <= 2XT/N and a_minus^2 <= NT/X (verified exactly)."""
    N = factorize(N)
    X = fraction_of(X)
    return _census_at(_element_defects(S, N, X), N, X, fraction_of(T))


def defect_census_sweep(S, N, X) -> tuple[DefectCensus, ...]:
    """defect_census(S, N, X, T) on the log grid T = 1/2, 1, 2, 4, ... up to
    twice the largest a_star, from each element's defect computed once."""
    N = factorize(N)
    X = fraction_of(X)
    defects = _element_defects(S, N, X)
    top = 2 * max((d.a_star for _, d in defects), default=0)
    grid = [Fraction(1, 2)]
    while grid[-1] * 2 <= top:
        grid.append(grid[-1] * 2)
    return tuple(_census_at(defects, N, X, T) for T in grid)


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


def extract_witnesses(si: StructuredInstance) -> WitnessReport:
    """Run the finishing argument on a structured instance.

    Averaging gives a set of high-degree left elements of size at least
    delta'|A|/4; the defect census then forces one of them to have
    a_star >= delta'|A|/8, and symmetrically on the right within the
    neighborhood of the chosen a.  The resulting pair certifies
    |A||B| <= 1000 delta'^-2 XY/D^2.

    With m = |Omega'| = delta'|A||B|, every threshold is an integer
    comparison on Omega''s row bits: deg >= delta'|B|/4 iff 4|A| deg >= m,
    and so on.
    """
    if not si.omega_prime:
        raise ValueError("omega_prime is empty: no witnesses exist")
    inst, m, rows = si.base, len(si.omega_prime), si.omega_prime.row_bits()
    nA, nB, size = len(inst.A), len(inst.B), inst.size_product()

    def largest_star(S, indices, scale: int):
        # the first of indices with the largest a_star among those with scale * a_star >= m
        stars = {i: si.defects[S[i]].a_star for i in indices}
        return max((i for i in stars if scale * stars[i] >= m), key=stars.get, default=None)

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
    quad_cap = 4 * inst.X * inst.Y / (inst.D * inst.D)
    quad_product = a_star * b_star
    deg_a = rows[ia].bit_count()
    chain_ok = (
        4 * nB * len(tilde_a) >= m
        and 4 * nA * deg_a >= m
        and rows[ia] >> ib & 1 == 1
        and quad_product <= quad_cap
    )
    if not chain_ok:
        raise InternalConsistencyError("witness chain failed to verify")
    prop_bound = quad_cap * Fraction(250 * size * size, m * m)  # 1000 XY / (delta'^2 D^2)
    return WitnessReport(
        a=inst.A[ia].value,
        b=inst.B[ib].value,
        a_star=a_star,
        b_star=b_star,
        delta_prime=Fraction(m, size),
        delta_omega=si.omega.delta,
        tilde_a_size=len(tilde_a),
        tilde_a_lower=Fraction(m, 4 * nB),
        deg_a=deg_a,
        deg_lower=Fraction(m, 4 * nA),
        a_star_lower=Fraction(m, 8 * nB),
        b_star_lower=Fraction(m, 8 * nA),
        quad_product=quad_product,
        quad_cap=quad_cap,
        size_product=size,
        prop_bound=prop_bound,
        holds=size <= prop_bound,
        chain_ok=chain_ok,
    )
