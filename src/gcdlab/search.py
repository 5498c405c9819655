"""Exact searches for extremal sets on small dyadic universes (the closed
sets of the gcd >= D relation at delta = 1, for A = B as for A and B apart,
and an enumeration of A below delta = 1), plus a violation hunter for two
constituent bounds (the diagonal gap bound and the delta^-2 product bound
on structured instances).

The headline inequality with its 1000^(1+#P_sml) factor is deliberately not
hunted: at desk scale that constant makes the check vacuous.  The product
bound keeps a factor 1000, so a clean hunt says no instance broke it, not
how close one came.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .arith import factorize
from .instance import GcdInstance, InternalConsistencyError, _omega_rows, build_omega_gcd
from .instance import chase_diagonal_bound

__all__ = [
    "SearchResult",
    "SearchSpace",
    "Violation",
    "exhaustive_max",
    "hunt_violations",
    "max_pairwise_compatible",
    "random_structured_instance",
]

EXHAUSTIVE_SIDE_LIMIT = 120  # cap on X and Y for the delta = 1 exact searches
THRESHOLD_SIDE_LIMIT = 12  # cap on X and Y for the delta < 1 exact mode


class SearchSpace(NamedTuple):
    """Search domain: A ranges over subsets of [X, 2X], B over [Y, 2Y].

    Without a delta_target the search maximizes |A||B| with gcd(a, b) >= D
    required for every cross pair (mode "exact-delta-1"), for X, Y <=
    EXHAUSTIVE_SIDE_LIMIT; a delta_target requires only that fraction of
    good pairs and allows X, Y <= THRESHOLD_SIDE_LIMIT (mode
    "threshold-delta").  force_equal restricts
    to A = B (diagonal case, needs X == Y and no target)."""

    X: int
    Y: int
    D: int
    delta_target: Fraction | None = None
    force_equal: bool = False

    @property
    def mode(self) -> str:
        return "exact-delta-1" if self.delta_target is None else "threshold-delta"

    def universes(self) -> tuple[list[int], list[int]]:
        ua = list(range(self.X, 2 * self.X + 1))
        ub = list(range(self.Y, 2 * self.Y + 1))
        return ua, ub

    def check(self) -> None:
        if self.D < 1:
            raise ValueError("D must be >= 1")
        if self.X < 1 or self.Y < 1:
            raise ValueError("X and Y must be >= 1")
        if self.delta_target is not None:
            if not 0 < self.delta_target <= 1:
                raise ValueError("threshold-delta mode needs delta_target in (0, 1]")
            if max(self.X, self.Y) > THRESHOLD_SIDE_LIMIT:
                raise ValueError(
                    f"threshold-delta mode is exact only for X, Y <= {THRESHOLD_SIDE_LIMIT}, "
                    f"got X = {self.X}, Y = {self.Y}"
                )
        if max(self.X, self.Y) > EXHAUSTIVE_SIDE_LIMIT:
            raise ValueError(
                f"universe too large: {self.X + 1} or {self.Y + 1} integers "
                f"per side exceeds the exhaustive limit {EXHAUSTIVE_SIDE_LIMIT + 1}"
            )
        if self.force_equal and self.X != self.Y:
            raise ValueError("force_equal needs X == Y")
        if self.force_equal and self.delta_target is not None:
            raise ValueError("threshold-delta mode does not support force_equal")


class SearchResult(NamedTuple):
    best_a: tuple[int, ...]
    best_b: tuple[int, ...]
    max_product: int


def _subset(universe: list[int], mask: int) -> tuple[int, ...]:
    return tuple(v for i, v in enumerate(universe) if mask >> i & 1)


def _closed_sets(compat: list[int], n: int) -> set[int]:
    """The full mask on n bits and every intersection of masks in compat."""
    closed = {(1 << n) - 1}
    for c in compat:
        closed |= {a & c for a in closed}
    return closed


def _bipartite_max(ua: list[int], ub: list[int], D: int):
    """Max |A||B| with every cross pair compatible.  Some maximum is closed:
    B is every b whose column contains A, and A is the intersection of B's
    columns (all of ua if B is empty).  A tie goes to the largest A read as
    a bitmask."""
    compat = list(_omega_rows(map(factorize, ub), map(factorize, ua), D))
    closed = _closed_sets(compat, len(ua))
    best, a = max((a.bit_count() * sum(a & c == a for c in compat), a) for a in closed)
    if not best:
        return (), (), 0
    return _subset(ua, a), tuple(b for b, c in zip(ub, compat) if a & c == a), best


def max_pairwise_compatible(X: int, D: int) -> tuple[int, ...]:
    """Largest A in [X, 2X] with gcd >= D for every pair, a = b included (so
    every a >= D).  On [max(X, D), 2X] every self-pair holds, so a maximum
    clique is the intersection of its members' columns (one more a there
    would extend it): it is closed.  A closed set is a clique iff it lies in
    the column of each member.  A tie goes to the least sorted tuple."""
    u = list(range(max(X, D), 2 * X + 1))
    compat = list(_omega_rows(map(factorize, u), map(factorize, u), D))
    closed = _closed_sets(compat, len(u))
    cliques = [a for a in closed if all(a & c == a for i, c in enumerate(compat) if a >> i & 1)]
    size = max(a.bit_count() for a in cliques)
    return min(_subset(u, a) for a in cliques if a.bit_count() == size)


def _threshold_exact(ua: list[int], ub: list[int], D: int, target: Fraction):
    """Exact delta-threshold search: enumerate A; for fixed A and |B| = m the
    best achievable good-pair count is the sum of the m largest degrees, so
    feasibility per m reduces to a prefix-sum test."""
    compat = list(_omega_rows(map(factorize, ub), map(factorize, ua), D))
    best = 0
    best_pair = ((), ())
    for amask in range(1, 1 << len(ua)):
        na = amask.bit_count()
        degs = sorted((((amask & m).bit_count(), -b) for b, m in zip(ub, compat)), reverse=True)
        prefix = 0
        for m in range(1, len(ub) + 1):
            prefix += degs[m - 1][0]
            if Fraction(prefix) >= target * na * m and na * m > best:
                best = na * m
                chosen_b = tuple(sorted(-d[1] for d in degs[:m]))
                best_pair = (_subset(ua, amask), chosen_b)
    return best_pair[0], best_pair[1], best


def exhaustive_max(space: SearchSpace) -> SearchResult:
    """Maximum of |A||B| over the search space, always exact: the closed
    sets of the compatibility relation for exact-delta-1, those that are
    cliques for force_equal, enumeration of A for threshold-delta (which
    check() caps at THRESHOLD_SIDE_LIMIT)."""
    space.check()
    ua, ub = space.universes()
    if space.delta_target is not None:
        return SearchResult(*_threshold_exact(ua, ub, space.D, space.delta_target))
    if space.force_equal:
        a = max_pairwise_compatible(space.X, space.D)
        return SearchResult(a, a, len(a) ** 2)
    return SearchResult(*_bipartite_max(ua, ub, space.D))


# ---------------------------------------------------------------------------
# Violation hunting
# ---------------------------------------------------------------------------


class Violation(NamedTuple):
    kind: str
    detail: dict


def random_structured_instance(
    rng: random.Random,
    *,
    max_scale: int = 40,
    max_side: int = 10,
):
    """One seeded random instance passed through the modulus search; retries
    deterministically until the pivotal pair set is nonempty.

    D <= min(X, Y) puts a multiple of D in each of [X, 2X] and [Y, 2Y],
    and each side draws one or two of them, so the gcd pair set is nonempty
    by construction."""
    from .structure import find_modulus

    while True:
        X = rng.randint(4, max_scale)
        Y = rng.randint(4, max_scale)
        D = rng.randint(2, min(X, Y))
        # rng.sample and rng.choice index a range exactly as they index a list
        ua, ub = range(X, 2 * X + 1), range(Y, 2 * Y + 1)
        mult_a = range(X + -X % D, 2 * X + 1, D)  # the multiples of D in [X, 2X]
        mult_b = range(Y + -Y % D, 2 * Y + 1, D)
        na = rng.randint(2, max_side)
        nb = rng.randint(2, max_side)
        A = set(rng.sample(mult_a, min(2, len(mult_a))))
        B = set(rng.sample(mult_b, min(2, len(mult_b))))
        while len(A) < min(na, len(ua)):
            A.add(rng.choice(ua))
        while len(B) < min(nb, len(ub)):
            B.add(rng.choice(ub))
        # valid by construction, so built without GcdInstance.build's checks
        inst = GcdInstance(
            tuple(map(factorize, sorted(A))),
            tuple(map(factorize, sorted(B))),
            Fraction(X),
            Fraction(Y),
            Fraction(D),
        )
        si = find_modulus(inst, build_omega_gcd(inst))
        if si.omega_prime:
            return si


def hunt_violations(
    scale_limit: int = 16,
    seed: int = 0,
    *,
    n_structured: int = 10000,
) -> list[Violation]:
    """Hunt for counterexamples to the sharp bounds; the returned list is
    empty on success (violations are data, not errors).

    Part one sweeps every diagonal delta = 1 case X, D <= scale_limit with
    an exhaustive search, checking its set against chase_diagonal_bound.  Part
    two runs seeded structured instances through the witness chain and the
    filtered-density product bound 1000 * delta'^-2 * XY / D^2.
    """
    from .structure import product_bound, witness_chain

    violations: list[Violation] = []
    for X in range(1, scale_limit + 1):
        for D in range(1, X + 1):
            best = max_pairwise_compatible(X, D)
            holds, allowed = chase_diagonal_bound(best, X, D)
            if not holds:
                violations.append(
                    Violation(
                        "diagonal-gap-bound",
                        {"X": X, "D": D, "set": list(best), "allowed": allowed},
                    )
                )
    rng = random.Random(seed)
    for _ in range(n_structured):
        si = random_structured_instance(rng)
        try:
            chain = witness_chain(si)
        except InternalConsistencyError:
            chain = None
        if chain is None or not (chain.chain_ok and chain.holds):
            inst = si.base
            violations.append(
                Violation(
                    "structured-product-bound",
                    {
                        "A": [a.value for a in inst.A],
                        "B": [b.value for b in inst.B],
                        "X": str(inst.X),
                        "Y": str(inst.Y),
                        "D": str(inst.D),
                        "N": si.n.value,
                        "delta_prime": str(si.delta_prime),
                        "bound": str(product_bound(si)),
                        "size_product": inst.size_product(),
                    },
                )
            )
    return violations
