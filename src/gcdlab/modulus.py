"""The modulus search behind structure.find_modulus.

The valuation classes of A and B at a prime are bitmasks over their
indices, and Omega's rows are integers over B (see instance.PairSet).  A
constraint (p, k) acts on one row at a time: a row a with v = v_p(a) keeps
the columns whose v_p is within 1 of k if v = k, the columns of class k if
|v - k| = 1, and nothing otherwise.  The search cuts a copy of Omega's rows
by one prime per depth, touching only the rows whose allowed columns are
not all of B, undoes each cut from a log, and starts from the greedy leaf.

The structure module imports this one on first use, so the commands that
never search (stats, defect) do not compile it.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress

from .instance import PairSet


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


def _per_prime_masks(omega: PairSet, table):
    """(p, lo, hi, cuts) for each prime of the table that binds, with
    cuts[k - lo] = (most, groups) for the constraint (p, k): groups holds
    (indices, lose) for each valuation class of A with a pair whose allowed
    columns are not all of B, lose the columns its rows lose; most bounds
    the pairs of Omega that (p, k) keeps, and so of any subset of Omega.

    p binds when its lowest k = lo loses a pair: a row or a column with
    v_p >= lo + 2 has a pair, or a pair joins a row and a column with
    v_p >= lo + 1.  That is decided on Omega's rows."""
    paired, live, full_b = 0, 0, (1 << omega.n_right) - 1  # the columns and rows with a pair
    for i, row in enumerate(omega.rows):
        paired, live = paired | row, live | bool(row) << i
    binding = {
        p for j, b in enumerate(omega.B) if paired >> j & 1
        for p, w in b.factors if w > table[p][0] + 1
    }
    binding |= {  # full_b minus the class of lo are the columns with v_p > lo
        p for a, row in zip(omega.A, omega.rows) if row for p, v in a.factors
        if v > (lo := table[p][0]) + 1 or v > lo and row & (full_b - table[p][3].get(lo, 0))
    }
    # members[p][v], the rows with a pair and v_p = v > 0; size[p][v], their pairs
    members, size = {p: defaultdict(list) for p in binding}, {p: defaultdict(int) for p in binding}
    for i, (a, row) in enumerate(zip(omega.A, omega.rows)):
        for p, v in a.factors:
            if row and p in binding:
                members[p][v].append(i)
                size[p][v] += row.bit_count()
    out, total, index = [], len(omega), list(range(omega.n_left))
    for p in sorted(binding):
        lo, hi, rows, cols = table[p]
        by_v, sz, cuts = members[p], size[p], []
        # the rows of class 0 with a pair, each index one shared int of index
        if zero := list(compress(index, map("1".__eq__, reversed(bin(rows.get(0, 0) & live))))):
            by_v[0] = zero
        for k in range(lo, hi + 1):
            at_k = cols.get(k, 0)
            near = cols.get(k - 1, 0) | at_k | cols.get(k + 1, 0)
            # (p, k) keeps no pair of a class of A outside k - 1, k and k + 1,
            # and of class 0 none outside the columns of class 1 if k = 1
            most = sz[k - 1] + sz[k] + sz[k + 1]
            if k < 2 and zero:
                most += at_k.bit_count() * len(zero) if k else total
            cuts.append((most, [
                (ids, lose) for v, ids in by_v.items()
                if (lose := full_b - (near if v == k else at_k if abs(v - k) == 1 else 0))
            ]))
        out.append((p, lo, hi, cuts))
    return out


def _lost(rows: list[int], groups) -> int:
    """The pairs that cutting rows by groups would lose."""
    lost = 0
    for indices, lose in groups:
        for i in indices:
            lost += (rows[i] & lose).bit_count()
    return lost


def _cut(rows: list[int], groups, log: list) -> None:
    """Take from each row of each group the columns it loses, appending
    (index, old row) to log for each row that changes."""
    for indices, lose in groups:
        for i in indices:
            if cut := (row := rows[i]) & lose:
                log.append((i, row))
                rows[i] = row ^ cut


def _greedy(per_prime, rows: list[int], count: int) -> int:
    """The pairs kept by the greedy leaf: at each prime in order, the first
    k that keeps the most pairs, trying only the k whose bound beats the
    best k so far.  rows is cut to that leaf."""
    for *_, cuts in per_prime:
        top, pick = -1, None
        for most, groups in cuts:
            if most > top and (left := count - _lost(rows, groups)) > top:
                top, pick = left, groups
        _cut(rows, pick, [])
        count = top
    return count


def _search_exhaustive(per_prime, rows: list[int], best: int):
    """The first k vector in lexicographic order whose leaf keeps more
    than best pairs and the most of them, and its rows: depth first,
    without recursion, entering only the children that can beat the best
    leaf.  path[d] is [index of the k tried at depth d, log length and pair
    count before its cut, the cuts of depth d]; rows is restored on return."""
    levels, log, path = [cuts for *_, cuts in per_prime], [], []
    count, best_ks, best_rows = sum(map(int.bit_count, rows)), None, None
    while True:
        if len(path) < len(levels):
            path.append([-1, len(log), count, levels[len(path)]])
        else:  # a leaf, entered only if it beats best
            best, best_ks, best_rows = count, tuple(k for k, *_ in path), tuple(rows)
        while path:  # the next child that can beat best, backing up past spent nodes
            node = path[-1]
            k, mark, count, cuts = node
            if len(log) > mark:  # undo the cuts below this node
                for i, row in reversed(log[mark:]):
                    rows[i] = row
                del log[mark:]
            node[0] = k = k + 1
            if k == len(cuts):
                path.pop()
            elif cuts[k][0] > best and (left := count - _lost(rows, cuts[k][1])) > best:
                # cuts[k][0] bounds the pairs of every leaf below the child
                _cut(rows, cuts[k][1], log)
                count = left
                break
        else:
            return best_ks, best_rows


def search(omega: PairSet) -> tuple[dict[int, int], tuple[int, ...]]:
    """({p: k_p}, Omega' rows) for the N = prod p^k_p over the primes of
    A u B that keeps the most pairs with |v_p(a/N)| + |v_p(b/N)| <= 1 at
    every prime, the first such N with the primes in increasing order and
    each k_p tried in increasing order; omega must be nonempty.

    Every k_p in [lo, hi] is tried for the binding primes, from a best
    count one below the greedy leaf's, so the first maximizer is still the
    one found.  A free prime's lowest k keeps every pair, so its branch is
    the subtree without it, no other k beats it, and the first maximizer
    in lexicographic order is unchanged; it gets k = lo."""
    per_prime = _per_prime_masks(omega, table := prime_table(omega))
    greedy = _greedy(per_prime, list(omega.rows), len(omega))
    ks, rows = _search_exhaustive(per_prime, list(omega.rows), greedy - 1)
    best = {p: lo + k for (p, lo, *_), k in zip(per_prime, ks)}
    return {p: lo for p, (lo, *_) in table.items()} | best, rows
