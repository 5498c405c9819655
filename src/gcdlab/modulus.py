"""The modulus search behind structure.find_modulus.

The valuation classes of B at a prime are bitmasks over its indices, those
of A lists of the indices of rows with a pair, and Omega's rows are
integers over B (see instance.PairSet); a mask's members are read with
instance._members.  A constraint (p, k) acts on one
row at a time: a row a with v = v_p(a) keeps the columns whose v_p is
within 1 of k if v = k, the columns of class k if |v - k| = 1, and nothing
otherwise.  The set-up reads the factors of B and then of A once, for each
prime's exponent range and B's classes, and builds A's classes and the
constraints only for the primes whose lowest k loses a pair.  The search
cuts a copy of Omega's rows by one prime per depth, touching only the rows
whose allowed columns are not all of B, undoes each cut from a log, and
starts from the greedy leaf.

The structure module imports this one on first use, so the commands that
never search (stats, defect) do not compile it.
"""

from __future__ import annotations

from collections import defaultdict

from .instance import PairSet, _members


def _levels(omega: PairSet):
    """({p: lo} over every prime of A u B in increasing order, and
    [(p, lo, hi, cuts)] over the primes that bind), lo and hi the least and
    greatest v_p over A u B.  cuts[k - lo] = (most, groups) for the
    constraint (p, k): groups holds (indices, lose) for each valuation class
    of A with a pair whose allowed columns are not all of B, lose the
    columns its rows lose; most bounds the pairs of Omega that (p, k) keeps,
    and so of any subset of Omega.

    p binds when its lowest k = lo loses a pair: a row or a column with
    v_p >= lo + 2 has a pair, or a pair joins a row and a column with
    v_p = lo + 1.  That is decided on the exponent ranges and B's classes,
    before A's classes are built for the binding primes alone."""
    A, B, rows = omega.A, omega.B, omega.rows
    n_b = len(B)
    full_b = (1 << n_b) - 1
    seen, cols = {}, defaultdict(dict)  # p: (count, least, greatest v_p); B's classes
    for j, el in enumerate(B + A):
        for p, v in el.factors:
            n, lo, hi = seen.get(p, (0, v, v))
            seen[p] = n + 1, lo if lo < v else v, hi if hi > v else v
            if j < n_b:
                at = cols[p]
                at[v] = at.get(v, 0) | 1 << j
    lows = dict.fromkeys(sorted(seen), 0)
    for p, (n, lo, _) in seen.items():
        if n == len(A) + n_b:  # p divides every element
            lows[p] = lo
    paired, live = 0, 0  # the columns and rows with a pair
    for i, row in enumerate(rows):
        paired, live = paired | row, live | bool(row) << i
    binding = {
        p for b in _members(B, paired) for p, w in b.factors if w > lows[p] + 1
    }
    binding |= {
        p for a, row in zip(A, rows) if row for p, v in a.factors
        if v > (lo := lows[p]) + 1 or v > lo and row & cols[p].get(lo + 1, 0)
    }
    # members[p], A's rows with a pair and v_p = v > 0 as {v: indices} and
    # {v: their pairs}; divides[p], those rows as a bitmask
    members = {p: (defaultdict(list), defaultdict(int)) for p in binding}
    divides = dict.fromkeys(binding, 0)
    for i, (a, row) in enumerate(zip(A, rows)):
        if row:
            for p, v in a.factors:
                if p in divides:
                    by_v, pairs = members[p]
                    by_v[v].append(i)
                    pairs[v] += row.bit_count()
                    divides[p] |= 1 << i
    out, total, index = [], len(omega), list(range(len(A)))
    for p in sorted(binding):
        lo, hi, at, (by_v, pairs) = lows[p], seen[p][2], cols[p], members[p]
        if rest := full_b - sum(at.values()):
            at[0] = rest
        zero = []  # the rows of class 0 with a pair, each index one shared int of index
        if undivided := live - divides[p]:
            by_v[0] = zero = list(_members(index, undivided))
        # (p, k) keeps no pair of a class of A outside k - 1, k and k + 1,
        # and of class 0 none outside the columns of class 1 if k = 1; B's
        # classes and A's pair counts at k - 1, k and k + 1 roll along with k
        cuts = []
        below, at_k = at.get(lo - 1, 0), at.get(lo, 0)
        most_below, most_at = pairs.get(lo - 1, 0), pairs.get(lo, 0)
        for k in range(lo, hi + 1):
            above, most_above = at.get(k + 1, 0), pairs.get(k + 1, 0)
            lose_k, lose_next = full_b - (below | at_k | above), full_b - at_k
            most = most_below + most_at + most_above
            if k < 2 and zero:
                most += at_k.bit_count() * len(zero) if k else total
            groups = []
            for v, ids in by_v.items():
                if v == k:
                    if lose_k:
                        groups.append((ids, lose_k))
                elif v == k - 1 or v == k + 1:
                    if lose_next:
                        groups.append((ids, lose_next))
                else:
                    groups.append((ids, full_b))
            cuts.append((most, groups))
            below, at_k, most_below, most_at = at_k, above, most_at, most_above
        out.append((p, lo, hi, cuts))
    return lows, out


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
    lows, per_prime = _levels(omega)
    greedy = _greedy(per_prime, list(omega.rows), len(omega))
    ks, rows = _search_exhaustive(per_prime, list(omega.rows), greedy - 1)
    return lows | {p: lo + k for (p, lo, *_), k in zip(per_prime, ks)}, rows
