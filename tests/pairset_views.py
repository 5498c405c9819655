"""Views of a PairSet that only the tests read, taken from its bits
directly, apart from the row and column bitsets under test."""


def edges(om) -> tuple:
    """The pairs of om in row-major order: by index in A, then in B."""
    n = om.n_right
    grid = format(om.bits, f"0{om.n_left * n}b")[::-1]  # character k is bit k
    return tuple((om.A[k // n], om.B[k % n]) for k, c in enumerate(grid) if c == "1")
