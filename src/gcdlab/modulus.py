"""The modulus search behind structure.find_modulus, and the valuation
classes it shares with structure.valuation_measure.

Everything works on the pair set's bit layout (see instance.PairSet): the
valuation classes of A and B at a prime are bitmasks over their indices,
and Omega's rows are integers over B.  Grid-wide products are formed only
for the primes that bind, and only in the exhaustive search; the greedy
search reads each exponent's pair count from class-pair counts.

The structure module imports this one on first use, so the commands that
never search (stats, defect) do not compile it.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .instance import PairSet, _indices, _join_rows


def prime_table(omega: PairSet, pool=None) -> dict[int, tuple]:
    """{p: (lo, hi, rows, cols)} over pool, by default every prime of A u B
    in increasing order: the least and greatest v_p over A u B, and the
    valuation classes of A and B, {v: bitmask of the indices with v_p = v}
    without empty classes."""
    sides = []
    for S in (omega.A, omega.B):
        classes = defaultdict(dict)
        for i, el in enumerate(S):
            for p, e in el.factors:
                classes[p][e] = classes[p].get(e, 0) | 1 << i
        sides.append((classes, (1 << len(S)) - 1))
    (by_a, full_a), (by_b, full_b) = sides
    table = {}
    for p in sorted(by_a.keys() | by_b.keys()) if pool is None else pool:
        rows, cols = by_a.get(p, {}), by_b.get(p, {})
        if rest := full_a - sum(rows.values()):
            rows[0] = rest
        if rest := full_b - sum(cols.values()):
            cols[0] = rest
        lo = 0 if 0 in rows or 0 in cols else min(min(rows), min(cols))
        table[p] = lo, max(max(rows), max(cols)), rows, cols
    return table


def class_counts(omega: PairSet, table, orows) -> dict[int, dict[tuple[int, int], int]]:
    """{p: {(i, j): |Omega on A_i x B_j|}} for the primes of the table.

    Each count is read off the row bitset (from orows) or the column bitset
    of an element that p divides, and class (0, 0) gets what the others
    leave of |Omega|, so no grid-wide product is formed."""
    counts = {p: defaultdict(int) for p in table}
    for a, row in zip(omega.A, orows):
        for p, v in a.factors:
            if p in table:
                for j, C in table[p][3].items():
                    counts[p][v, j] += (row & C).bit_count()
    for b, col in zip(omega.B, omega.col_bits()):
        for p, w in b.factors:
            if p in table and (rows0 := table[p][2].get(0)):
                counts[p][0, w] += (col & rows0).bit_count()
    total = len(omega)
    for p, (_, _, rows, cols) in table.items():
        if 0 in rows and 0 in cols:
            counts[p][0, 0] = total - sum(counts[p].values())
    return counts


def _per_prime_masks(omega: PairSet, orows, table):
    """(p, lo, hi, masks) for each prime of the table that binds, with
    masks[k] the pairs kept at p by k.

    p binds when its lowest k = lo loses a pair: a row or a column with
    v_p >= lo + 2 has a pair, or a pair joins a row and a column with
    v_p >= lo + 1.  That is decided on the row bitsets orows, before any
    grid-wide product.  The cells of A_v x C are spread(A_v) * C; one
    spread per class of rows serves every k, and class 0's is the full
    spread minus the others."""
    paired, full_b = 0, (1 << omega.n_right) - 1  # the columns with a pair, all columns
    for row in orows:
        paired |= row
    binding = {
        p for j, b in enumerate(omega.B) if paired >> j & 1
        for p, w in b.factors if w > table[p][0] + 1
    }
    binding |= {  # full_b minus the class of lo are the columns with v_p > lo
        p for a, row in zip(omega.A, orows) if row for p, v in a.factors
        if v > (lo := table[p][0]) + 1 or v > lo and row & (full_b - table[p][3].get(lo, 0))
    }
    full, out = None, []
    for p in (p for p in table if p in binding):
        lo, hi, rows, cols = table[p]
        spread = {v: omega.spread(R) for v, R in rows.items() if v}
        if 0 in rows:
            full = full or omega.spread((1 << omega.n_left) - 1)
            spread[0] = full - sum(spread.values())
        masks = {}
        for k in range(lo, hi + 1):
            # v_p(a) = k with v_p(b) within 1 of k, or v_p(a) = k +- 1 with v_p(b) = k
            near = cols.get(k - 1, 0) | cols.get(k, 0) | cols.get(k + 1, 0)
            off = spread.get(k - 1, 0) + spread.get(k + 1, 0)
            masks[k] = omega.bits & (spread.get(k, 0) * near + off * cols.get(k, 0))
        out.append((p, lo, hi, masks))
    return out


def _search_exhaustive(per_prime, full_mask: int) -> tuple[dict[int, int], int]:
    """The first k vector in lexicographic order that keeps the most pairs,
    and those pairs: depth first, cutting each branch that cannot beat the
    best leaf."""
    best = [-1, {}, 0]

    def rec(i: int, mask: int, acc: dict[int, int]) -> None:
        if mask.bit_count() <= best[0]:
            return
        if i == len(per_prime):
            best[:] = mask.bit_count(), acc, mask
            return
        p, lo, hi, masks = per_prime[i]
        for k in range(lo, hi + 1):
            rec(i + 1, mask & masks[k], acc | {p: k})

    rec(0, full_mask, {})
    return best[1], best[2]


def _search_greedy(table, counts) -> dict[int, int]:
    chosen = {}
    for p, (lo, hi, rows, cols) in table.items():
        kept = dict.fromkeys(range(lo, hi + 1), 0)
        for (i, j), c in counts[p].items():
            if abs(i - j) <= 1:  # class (i, j) is kept by k = i and by k = j
                kept[i] += c
                if i != j:
                    kept[j] += c
        top = max(kept.values())
        cands = [k for k, c in kept.items() if c == top]
        if len(cands) > 1:
            # tie-break toward the mode of the valuation distribution
            freq = {k: rows.get(k, 0).bit_count() + cols.get(k, 0).bit_count() for k in cands}
            cands = [k for k in cands if freq[k] == max(freq.values())]
        chosen[p] = min(cands)
    return chosen


def _pivotal_bits(omega: PairSet, orows, table, ks) -> int:
    """Omega' of the exponents ks, row by row: at each prime, a row with
    v_p = k keeps the columns with v_p within 1 of k, a row with
    v_p = k +- 1 those with v_p = k, and any other row none."""
    full, out = (1 << omega.n_right) - 1, list(orows)
    for p, (_, _, rows, cols) in table.items():
        k = ks[p]
        near = cols.get(k - 1, 0) | cols.get(k, 0) | cols.get(k + 1, 0)
        for v, R in rows.items():
            keep = near if v == k else cols.get(k, 0) if abs(v - k) == 1 else 0
            for r in _indices(R) if keep != full else ():
                out[r] &= keep
    return _join_rows(out, omega.n_right)


def search(omega: PairSet, exhaustive_limit: int) -> tuple[str, dict[int, int], int]:
    """(strategy, {p: k_p}, Omega' bits) for the N = prod p^k_p over the
    primes of A u B that keeps the most pairs with |v_p(a/N)| + |v_p(b/N)|
    <= 1 at every prime; omega must be nonempty.

    "exhaustive": every k_p in [lo, hi] while the range sizes of all primes
    multiply to at most exhaustive_limit, masks built for the binding
    primes only.  A free prime's lowest k keeps every pair, so its branch is
    the subtree without it, no other k beats it, and the first maximizer in
    lexicographic order is unchanged; it gets k = lo.  "greedy": each
    prime's best k on its own from the class-pair counts, ties broken by
    the valuation mode, then the smallest k; Omega' is then built once,
    row by row."""
    orows, table = omega.row_bits(), prime_table(omega)
    if math.prod(hi - lo + 1 for lo, hi, *_ in table.values()) <= exhaustive_limit:
        best, bits = _search_exhaustive(_per_prime_masks(omega, orows, table), omega.bits)
        return "exhaustive", {p: lo for p, (lo, *_) in table.items()} | best, bits
    ks = _search_greedy(table, class_counts(omega, table, orows))
    return "greedy", ks, _pivotal_bits(omega, orows, table, ks)
