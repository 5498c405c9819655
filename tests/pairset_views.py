"""Views of a PairSet that only the tests read, taken from its rows
directly, apart from the column bitsets under test.  The grid layout (bit
i*|B| + j for the pair (A[i], B[j])) lives only here: the reference modulus
search and the pins compare grid integers, and no module of gcdlab has one."""

from gcdlab.instance import PairSet


def edges(om) -> tuple:
    """The pairs of om in row-major order: by index in A, then in B."""
    return tuple(
        (a, b) for a, row in zip(om.A, om.rows) for j, b in enumerate(om.B) if row >> j & 1
    )


def grid(om) -> int:
    """The grid integer of om: bit i*|B| + j is set iff (A[i], B[j]) is a pair."""
    n = om.n_right
    return sum(row << i * n for i, row in enumerate(om.rows))


def from_grid(A, B, bits: int) -> PairSet:
    """The pair set over A x B whose grid integer is bits."""
    n, mask = len(B), (1 << len(B)) - 1
    return PairSet(tuple(A), tuple(B), tuple(bits >> i * n & mask for i in range(len(A))))
