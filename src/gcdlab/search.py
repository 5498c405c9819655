"""Exhaustive and branch-and-bound search for extremal sets on small dyadic
universes, plus a violation hunter for two constituent bounds (the diagonal
gap bound and the delta^-2 product bound on structured instances).

The headline inequality with its 1000^(1+#P_sml) factor is deliberately not
hunted: at desk scale that constant makes the check vacuous.  The product
bound keeps a factor 1000, so a clean hunt says no instance broke it, not
how close one came.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .instance import GcdInstance, build_omega_gcd, chase_diagonal_bound
from .structure import InternalConsistencyError, find_modulus, product_bound, witness_chain

__all__ = [
    "SearchResult",
    "SearchSpace",
    "Violation",
    "exhaustive_max",
    "hunt_violations",
    "max_pairwise_compatible",
    "random_structured_instance",
]

EXHAUSTIVE_SIDE_LIMIT = 20  # integers per side for the exact searches
THRESHOLD_SIDE_LIMIT = 12  # cap on X and Y for the delta < 1 exact mode


class SearchSpace(NamedTuple):
    """Search domain: A ranges over subsets of [X, 2X], B over [Y, 2Y].

    mode "exact-delta-1" maximizes |A||B| with gcd(a, b) >= D required for
    every cross pair; "threshold-delta" requires only a delta_target
    fraction of good pairs and allows X, Y <= THRESHOLD_SIDE_LIMIT.
    force_equal restricts to A = B (diagonal case, needs X == Y)."""

    X: int
    Y: int
    D: int
    delta_target: Fraction | None = None
    mode: str = "exact-delta-1"
    force_equal: bool = False
    exhaustive_limit: int = EXHAUSTIVE_SIDE_LIMIT

    def universes(self) -> tuple[list[int], list[int]]:
        ua = list(range(self.X, 2 * self.X + 1))
        ub = list(range(self.Y, 2 * self.Y + 1))
        return ua, ub

    def check(self) -> None:
        if self.mode not in ("exact-delta-1", "threshold-delta"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.D < 1:
            raise ValueError("D must be >= 1")
        if self.X < 1 or self.Y < 1:
            raise ValueError("X and Y must be >= 1")
        limit = self.exhaustive_limit
        if self.mode == "threshold-delta":
            if self.delta_target is None or not 0 < self.delta_target <= 1:
                raise ValueError("threshold-delta mode needs delta_target in (0, 1]")
            if max(self.X, self.Y) > THRESHOLD_SIDE_LIMIT:
                raise ValueError(
                    f"threshold-delta mode is exact only for X, Y <= {THRESHOLD_SIDE_LIMIT}, "
                    f"got X = {self.X}, Y = {self.Y}"
                )
        elif self.delta_target is not None:
            raise ValueError("delta_target applies only to threshold-delta mode")
        if self.X + 1 > limit + 1 or self.Y + 1 > limit + 1:
            raise ValueError(
                f"universe too large: {self.X + 1} or {self.Y + 1} integers "
                f"per side exceeds the exhaustive limit {limit + 1}"
            )
        if self.force_equal and self.X != self.Y:
            raise ValueError("force_equal needs X == Y")


class SearchResult(NamedTuple):
    best_a: tuple[int, ...]
    best_b: tuple[int, ...]
    max_product: int


def _subset(universe: list[int], mask: int) -> tuple[int, ...]:
    return tuple(v for i, v in enumerate(universe) if mask >> i & 1)


def _compat_masks(ua: list[int], ub: list[int], D: int) -> list[int]:
    out = []
    for b in ub:
        m = 0
        for i, a in enumerate(ua):
            if math.gcd(a, b) >= D:
                m |= 1 << i
        out.append(m)
    return out


def max_pairwise_compatible(X: int, D: int) -> tuple[int, ...]:
    """Largest A in [X, 2X] with gcd >= D for every pair, by plain DFS with
    the popcount bound."""
    universe = list(range(X, 2 * X + 1))
    adj = [m & ~(1 << i) for i, m in enumerate(_compat_masks(universe, universe, D))]
    best_mask = 0
    best_size = 0

    def expand(cand: int, cur: int, size: int) -> None:
        nonlocal best_mask, best_size
        if size > best_size:
            best_size, best_mask = size, cur
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(cand & adj[v], cur | low, size + 1)

    expand((1 << len(universe)) - 1, 0, 0)
    return _subset(universe, best_mask)


def _bipartite_max(ua: list[int], ub: list[int], D: int):
    """Max |A||B| with every cross pair compatible: enumerate B by DFS, the
    optimal A for a fixed B is everything compatible with all of B."""
    swap = len(ub) > len(ua)
    if swap:
        ua, ub = ub, ua
    compat = _compat_masks(ua, ub, D)
    full = (1 << len(ua)) - 1
    best = 0
    best_pair = ((), ())

    chosen: list[int] = []

    def dfs(idx: int, mask: int, size: int) -> None:
        nonlocal best, best_pair
        prod = mask.bit_count() * size
        if prod > best:
            best = prod
            best_pair = (_subset(ua, mask), tuple(ub[i] for i in chosen))
        if idx == len(ub):
            return
        if mask.bit_count() * (size + len(ub) - idx) <= best:
            return
        m2 = mask & compat[idx]
        if m2:
            chosen.append(idx)
            dfs(idx + 1, m2, size + 1)
            chosen.pop()
        dfs(idx + 1, mask, size)

    dfs(0, full, 0)
    a_side, b_side = best_pair
    if swap:
        a_side, b_side = b_side, a_side
    return a_side, b_side, best


def _threshold_exact(ua: list[int], ub: list[int], D: int, target: Fraction):
    """Exact delta-threshold search: enumerate A; for fixed A and |B| = m the
    best achievable good-pair count is the sum of the m largest degrees, so
    feasibility per m reduces to a prefix-sum test."""
    compat = _compat_masks(ua, ub, D)
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
    """Maximum of |A||B| over the search space, always exact: branch and
    bound agreeing with plain enumeration for exact-delta-1, enumeration of
    A for threshold-delta (which check() caps at THRESHOLD_SIDE_LIMIT)."""
    space.check()
    ua, ub = space.universes()
    if space.mode == "exact-delta-1":
        if space.force_equal:
            a = max_pairwise_compatible(space.X, space.D)
            return SearchResult(a, a, len(a) ** 2)
        a, b, prod = _bipartite_max(ua, ub, space.D)
        return SearchResult(a, b, prod)
    target = space.delta_target
    if space.force_equal:
        raise ValueError("threshold-delta mode does not support force_equal")
    a, b, prod = _threshold_exact(ua, ub, space.D, target)
    return SearchResult(a, b, prod)


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

    Sets always contain at least two multiples of D per side, so the gcd
    pair set is nonempty by construction."""
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
        inst = GcdInstance.build(sorted(A), sorted(B), D, X, Y)
        omega = build_omega_gcd(inst)
        if not omega:
            continue
        si = find_modulus(inst, omega)
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
