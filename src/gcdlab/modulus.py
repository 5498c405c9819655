"""The modulus search behind structure.find_modulus.

The valuation classes of A and B at a prime are bitmasks over their
indices, and Omega's rows are integers over B (see instance.PairSet).  This
is the one module that joins the rows into a grid, the integer with bit
i*|B| + j set iff (A[i], B[j]) is a pair: the search intersects grid masks,
one per exponent of each prime that binds, and gives every other prime its
lowest exponent.  The winning grid is cut back into rows once.

The structure module imports this one on first use, so the commands that
never search (stats, defect) do not compile it.
"""

from __future__ import annotations

from collections import defaultdict

from .instance import PairSet


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


def _split_rows(grid: int, m: int, width: int) -> tuple[int, ...]:
    """The m rows of width bits that _join_rows joined into grid, each
    sliced from the grid's little-endian bytes."""
    data, mask = grid.to_bytes(-(-m * width // 8), "little"), (1 << width) - 1
    return tuple(
        int.from_bytes(data[k >> 3 : (k + width + 7) >> 3], "little") >> (k & 7) & mask
        for k in range(0, m * width, width)
    )


def _spread(rows: int, width: int) -> int:
    """The grid mask of bit 0 of each row i set in rows; times a mask C
    below 2^width it is carry-free, the cells (A[i], B[j]) with j in C."""
    grid = bytearray(-(-rows.bit_length() * width // 8))
    while rows:
        k = ((rows & -rows).bit_length() - 1) * width
        grid[k >> 3] |= 1 << (k & 7)
        rows &= rows - 1
    return int.from_bytes(grid, "little")


def prime_table(omega: PairSet) -> dict[int, tuple]:
    """{p: (lo, hi, rows, cols)} over every prime of A u B in increasing
    order: the least and greatest v_p over A u B, and the valuation classes
    of A and B, {v: bitmask of the indices with v_p = v} without empty
    classes."""
    sides = []
    for S in (omega.A, omega.B):
        classes = defaultdict(dict)
        for i, el in enumerate(S):
            for p, e in el.factors:
                classes[p][e] = classes[p].get(e, 0) | 1 << i
        sides.append((classes, (1 << len(S)) - 1))
    (by_a, full_a), (by_b, full_b) = sides
    table = {}
    for p in sorted(by_a.keys() | by_b.keys()):
        rows, cols = by_a.get(p, {}), by_b.get(p, {})
        if rest := full_a - sum(rows.values()):
            rows[0] = rest
        if rest := full_b - sum(cols.values()):
            cols[0] = rest
        lo = 0 if 0 in rows or 0 in cols else min(min(rows), min(cols))
        table[p] = lo, max(max(rows), max(cols)), rows, cols
    return table


def _cells(spread: int, cols: int, width: int) -> int:
    """spread * cols, the cells of spread's rows in the columns of cols (see
    _spread).  A product passes over spread once per 30-bit digit of
    cols and a shifted copy about twice, so when cols or its complement has
    at most width/60 bits, shifted copies of spread are summed instead."""
    few, size = width // 60, cols.bit_count()
    if size > width - few:
        return (spread << width) - spread - _cells(spread, (1 << width) - 1 - cols, width)
    if size > few:
        return spread * cols
    out = 0
    while cols:
        out += spread << (cols & -cols).bit_length() - 1
        cols &= cols - 1
    return out


def _per_prime_masks(omega: PairSet, grid: int, table):
    """(p, lo, hi, masks) for each prime of the table that binds, with
    masks[k] the pairs of Omega kept at p by k, a mask of grid, Omega joined.

    p binds when its lowest k = lo loses a pair: a row or a column with
    v_p >= lo + 2 has a pair, or a pair joins a row and a column with
    v_p >= lo + 1.  That is decided on Omega's rows, before any grid-wide
    product.  The cells of A_v x C are spread(A_v) * C; one
    spread per class of rows serves every k, and class 0's is the full
    spread minus the others."""
    width = omega.n_right
    paired, full_b = 0, (1 << width) - 1  # the columns with a pair, all columns
    for row in omega.rows:
        paired |= row
    binding = {
        p for j, b in enumerate(omega.B) if paired >> j & 1
        for p, w in b.factors if w > table[p][0] + 1
    }
    binding |= {  # full_b minus the class of lo are the columns with v_p > lo
        p for a, row in zip(omega.A, omega.rows) if row for p, v in a.factors
        if v > (lo := table[p][0]) + 1 or v > lo and row & (full_b - table[p][3].get(lo, 0))
    }
    full, out = None, []
    for p in (p for p in table if p in binding):
        lo, hi, rows, cols = table[p]
        spread = {v: _spread(R, width) for v, R in rows.items() if v}
        if 0 in rows:
            full = full or _spread((1 << omega.n_left) - 1, width)
            spread[0] = full - sum(spread.values())
        masks = {}
        for k in range(lo, hi + 1):
            # v_p(a) = k with v_p(b) within 1 of k, or v_p(a) = k +- 1 with v_p(b) = k
            near = cols.get(k - 1, 0) | cols.get(k, 0) | cols.get(k + 1, 0)
            off = spread.get(k - 1, 0) + spread.get(k + 1, 0)
            kept = _cells(spread.get(k, 0), near, width) + _cells(off, cols.get(k, 0), width)
            masks[k] = grid & kept
        out.append((p, lo, hi, masks))
    return out


def _search_exhaustive(per_prime, full_mask: int) -> tuple[dict[int, int], int]:
    """The first k vector in lexicographic order that keeps the most pairs,
    and those pairs: depth first, without recursion, cutting each branch
    that cannot beat the best leaf.  The node at depth d has the k values
    ks[:d], and path holds (mask, size) from the root to it; a child that
    cuts no pair is stored as its parent, so only a cut costs a count and
    memory."""
    los = [lo for _, lo, _, _ in per_prime]
    his = [hi for _, _, hi, _ in per_prime]
    masks = [by_k for _, _, _, by_k in per_prime]
    n = len(per_prime)
    best_count, best_ks, best_mask = -1, (), 0
    ks, depth, path = [0] * n, 0, [(full_mask, full_mask.bit_count())]
    while True:
        mask, count = path[-1]
        if count > best_count and depth < n:
            ks[depth] = los[depth] - 1  # descend; the step below tries lo
            depth += 1
        else:
            if count > best_count:  # a leaf: depth == n
                best_count, best_ks, best_mask = count, tuple(ks), mask
            path.pop()
            while depth and ks[depth - 1] == his[depth - 1]:  # no k left: back up
                depth -= 1
                path.pop()
            if not depth:
                return {p: k for (p, *_), k in zip(per_prime, best_ks)}, best_mask
        d = depth - 1
        ks[d] += 1
        mask, count = path[-1]
        child = mask & masks[d][ks[d]]
        path.append((mask, count) if child == mask else (child, child.bit_count()))


def search(omega: PairSet) -> tuple[dict[int, int], tuple[int, ...]]:
    """({p: k_p}, Omega' rows) for the N = prod p^k_p over the primes of
    A u B that keeps the most pairs with |v_p(a/N)| + |v_p(b/N)| <= 1 at
    every prime, the first such N with the primes in increasing order and
    each k_p tried in increasing order; omega must be nonempty.

    Every k_p in [lo, hi] is tried for the binding primes, with their grid
    masks.  A free prime's lowest k keeps every pair, so its branch is the
    subtree without it, no other k beats it, and the first maximizer in
    lexicographic order is unchanged; it gets k = lo."""
    table, grid = prime_table(omega), _join_rows(omega.rows, omega.n_right)
    best, kept = _search_exhaustive(_per_prime_masks(omega, grid, table), grid)
    rows = _split_rows(kept, omega.n_left, omega.n_right)
    return {p: lo for p, (lo, *_) in table.items()} | best, rows
