"""Constructors and verifiers for the explicit example families: multiples
of D in a dyadic window (the sharp delta = 1 family), the rescaled
multiples-of-floor(delta*D) family, the primorial-times-m/n family that
breaks the naive product bound for general integers, and the squarefree
initial-segment instance for the ratio predicate.

Every claim a report makes is re-verified by exact arithmetic before the
report is emitted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import factorize, is_squarefree, primorial
from .instance import InstanceError, _number, _omega_rows, theorem51_bound

__all__ = [
    "FamilyReport",
    "remark2_family",
    "remark3_family",
    "sec5_family",
    "squarefree_instance",
]

FAMILY_WINDOW_MAX = 10**4  # cap on the elements of one remark2 or remark3 window
SEC5_X_MAX = 600  # cap on sec5's X
SQUAREFREE_N_MAX = 4000  # cap on squarefree's n: its ratio relation has n^2 pairs


class FamilyReport(NamedTuple):
    family: str
    parameters: dict
    set_sizes: tuple[int, int]
    measured_delta: Fraction | None
    extremal_ratio: float | None  # |A||B| relative to the family's reference bound
    checks_passed: tuple[str, ...]
    details: dict


def _integer(x, name: str) -> int:
    """x itself if it is an int; InstanceError naming the parameter for a
    bool, a float, text or anything else, which int() would read or round."""
    if type(x) is not int:
        raise InstanceError(f"field {name}: {x!r} is not an integer")
    return x


def _multiples_in_window(d: int, X: int, name: str = "X") -> list[int]:
    """The multiples of d in [X, 2X]; ValueError naming the field when they
    are more than FAMILY_WINDOW_MAX, counted before any is listed."""
    if (n := 2 * X // d - (X - 1) // d) > FAMILY_WINDOW_MAX:
        limit = f"above FAMILY_WINDOW_MAX = {FAMILY_WINDOW_MAX}"
        raise ValueError(f"field {name}: [{X}, {2 * X}] holds {n} multiples of {d}, {limit}")
    lo = -(-X // d) * d  # first multiple >= X
    return list(range(lo, 2 * X + 1, d))


def remark2_family(X: int, Y: int, D: int):
    """A = multiples of D in [X, 2X], B = likewise in [Y, 2Y]; every pair
    has gcd >= D, so delta = 1, and |A| is within 1 of X/D."""
    X, Y, D = _integer(X, "X"), _integer(Y, "Y"), _integer(D, "D")
    if D < 1 or D > min(X, Y):
        raise ValueError(f"need 1 <= D <= min(X, Y), got D = {D}")
    A = _multiples_in_window(D, X)
    B = _multiples_in_window(D, Y, "Y")
    checks = []
    good = sum(map(int.bit_count, _omega_rows(map(factorize, A), map(factorize, B), D)))
    delta = Fraction(good, len(A) * len(B))
    if delta == 1:
        checks.append("delta-equals-1")
    for name, S, R in (("A", A, X), ("B", B, Y)):
        if Fraction(R, D) - 1 <= len(S) <= Fraction(R, D) + 1:
            checks.append(f"size-window-{name}")
    ratio = len(A) * len(B) * D * D / (X * Y)
    report = FamilyReport(
        family="remark2",
        parameters={"X": X, "Y": Y, "D": D},
        set_sizes=(len(A), len(B)),
        measured_delta=delta,
        extremal_ratio=ratio,
        checks_passed=tuple(checks),
        details={"reference_bound": "XY/D^2"},
    )
    return A, B, report


def remark3_family(X: int, D: int, delta):
    """A = B = multiples of D0 = floor(delta * D) in [X, 2X]; the reported
    density is the measured fraction of pairs with gcd >= D, against the
    reference size delta^-2 X^2 / D^2.  Requires D >= 1/delta; delta is read
    by _number, so the float 0.3 is 3/10."""
    X, D, delta = _integer(X, "X"), _integer(D, "D"), _number(delta, "delta")
    if not 0 < delta <= 1:
        raise ValueError(f"delta = {delta} outside (0, 1]")
    if D < 1 / delta:
        raise ValueError(f"need D >= 1/delta = {1 / delta}, got D = {D}")
    d0 = int(delta * D)
    A = _multiples_in_window(d0, X)
    if not A:
        raise ValueError(f"no multiple of D0 = {d0} in [{X}, {2 * X}]")
    factored = list(map(factorize, A))
    good = sum(map(int.bit_count, _omega_rows(factored, factored, D)))
    measured = Fraction(good, len(A) ** 2)
    reference = (X * X) / (float(delta) ** 2 * D * D)
    report = FamilyReport(
        family="remark3",
        parameters={"X": X, "D": D, "delta": str(delta), "D0": d0},
        set_sizes=(len(A), len(A)),
        measured_delta=measured,
        extremal_ratio=len(A) ** 2 / reference,
        checks_passed=(),
        details={
            "reference_bound": "delta^-2 X^2/D^2",
            "target_delta": str(delta),
        },
    )
    return A, list(A), report


def sec5_family(X: int):
    """A = {primorial(X) * m / n : mn <= X, m, n squarefree, coprime}.

    Every pair satisfies a1*a2/gcd^2 <= X^2 while |A| grows like X log X,
    so no bound of the form delta^-O(1) * Q can hold for general integer
    sets.  All arithmetic is exact; values are verified integral and
    pairwise distinct.
    """
    if _integer(X, "X") < 2:
        raise ValueError(f"need X >= 2, got {X}")
    if X > SEC5_X_MAX:
        raise ValueError(f"field X: {X} is above SEC5_X_MAX = {SEC5_X_MAX}")
    P = primorial(X).value
    values = {}
    squarefrees = [m for m in range(1, X + 1) if is_squarefree(m)]
    for n in squarefrees:
        if P % n != 0:
            raise RuntimeError(f"primorial({X}) not divisible by squarefree {n} <= {X}")
        base = P // n
        for m in squarefrees:
            if m * n > X:
                break
            if math.gcd(m, n) != 1:
                continue
            v = base * m
            if v in values:
                raise RuntimeError(
                    f"duplicate value {v} from (m, n) = {(m, n)} and {values[v]}"
                )
            values[v] = (m, n)
    A = sorted(values)
    checks = []
    max_ratio = 0  # a1*a2/gcd^2 is the integer (a1/g)(a2/g)
    for i, a1 in enumerate(A):
        for a2 in A[i:]:
            g = math.gcd(a1, a2)
            r = (a1 // g) * (a2 // g)
            if r > max_ratio:
                max_ratio = r
    if max_ratio <= X * X:
        checks.append("pair-ratio-cap")
    if len(A) >= X:
        checks.append("size-at-least-X")
    all_squarefree = all(is_squarefree(a) for a in A)
    report = FamilyReport(
        family="sec5",
        parameters={"X": X},
        set_sizes=(len(A), len(A)),
        measured_delta=Fraction(1),  # every pair satisfies the ratio predicate
        extremal_ratio=len(A) / (X * math.log(X)),
        checks_passed=tuple(checks),
        details={
            "primorial": str(P),
            "max_pair_ratio": str(max_ratio),
            "ratio_cap": str(X * X),
            "all_squarefree": all_squarefree,
        },
    )
    return A, report


def squarefree_instance(n: int, Q, epsilon: Fraction = Fraction(1, 2), p0: int = 100):
    """A = B = squarefree integers in [1, n], with the density of pairs
    satisfying ab/gcd^2 <= Q and the squarefree product bound evaluated at
    epsilon and p0."""
    if _integer(n, "n") < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > SQUAREFREE_N_MAX:
        raise ValueError(f"field n: {n} is above SQUAREFREE_N_MAX = {SQUAREFREE_N_MAX}")
    A = [m for m in range(1, n + 1) if is_squarefree(m)]
    Q = _number(Q, "Q")
    delta, bound, holds = theorem51_bound(A, A, Q, epsilon, p0)
    checks = ["bound-holds"] if holds else []
    report = FamilyReport(
        family="squarefree",
        parameters={"n": n, "Q": str(Q)},
        set_sizes=(len(A), len(A)),
        measured_delta=delta,
        extremal_ratio=(len(A) ** 2 / bound) if math.isfinite(bound) else None,
        checks_passed=tuple(checks),
        details={"bound": bound if math.isfinite(bound) else None},
    )
    return A, list(A), report
