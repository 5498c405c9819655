"""Seeded instance generators for the CLI workloads.

Every instance comes from ``random.Random`` seeded with a string that names
the workload, the run seed and the rung, so one seed always yields
byte-identical instance files.  The size ladder of each workload is fixed:
the seed varies only the elements (and X, Y, D inside each rung's window),
so different seeds do comparable work.
"""

from __future__ import annotations

import json
import random

# Every ladder keeps one pass over a workload under about 3 s, so that a run
# repeats each operation often enough for its median time to be steady.

# structure-dense: remark2-shaped rungs (all multiples of D in [X, 2X] x
# [Y, 2Y]) with X = kA * D and Y = kB * D, so |A| = kA + 1 and |B| = kB + 1
# before a seeded minority of elements is swapped for non-multiples.
STRUCTURE_RUNGS = ((50, 60), (100, 80), (120, 150))
STRUCTURE_D_WINDOW = (45, 55)
STRUCTURE_SWAP_SHARE = 0.1
# A sparse random instance, where the greedy modulus search usually keeps no
# pivotal pair: (elements per side, D).
SPARSE_RUNGS = ((80, 8),)
SPARSE_X_WINDOW = (5_000, 20_000)

# stats-dense: (|A|, |B|, D), elements uniform in [X, 2X] with X near 10**6.
STATS_DENSE_RUNGS = ((1500, 1500, 5), (2000, 2000, 5))
STATS_DENSE_X_WINDOW = (900_000, 1_100_000)

# stats-bigint: (|A|, |B|, D), elements uniform in [X, 2X] with X near
# 10**12 but 2X below 10**12, so every value factors by trial division
# against the shared sieve.
STATS_BIGINT_RUNGS = ((300, 300, 2), (500, 600, 2))
STATS_BIGINT_X_WINDOW = (400_000_000_000, 480_000_000_000)

# The harness self-test's ladders: the same generators at toy sizes.
TINY_STRUCTURE_RUNGS = ((8, 10),)
TINY_D_WINDOW = (5, 7)
TINY_SPARSE_RUNGS = ((12, 3),)
TINY_STATS_RUNGS = ((30, 40, 2),)


def _rng(workload: str, seed: int, rung: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rung}")


def _doc(A, B, D, X, Y) -> dict:
    return {
        "A": [str(v) for v in sorted(A)],
        "B": [str(v) for v in sorted(B)],
        "D": str(D),
        "X": str(X),
        "Y": str(Y),
        "epsilon": 0.5,
        "p0": 100,
    }


def _uniform_set(rng: random.Random, n: int, X: int) -> set[int]:
    S: set[int] = set()
    while len(S) < n:
        S.add(rng.randint(X, 2 * X))
    return S


def _remark2_side(rng: random.Random, k: int, D: int) -> tuple[set[int], int]:
    X = k * D
    S = set(range(X, 2 * X + 1, D))
    swaps = round(STRUCTURE_SWAP_SHARE * len(S))
    for v in rng.sample(sorted(S), swaps):
        S.discard(v)
    while len(S) < k + 1:
        v = rng.randint(X, 2 * X)
        if v % D:
            S.add(v)
    return S, X


def structure_dense(seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    rungs, d_window, sparse = (
        (TINY_STRUCTURE_RUNGS, TINY_D_WINDOW, TINY_SPARSE_RUNGS)
        if tiny
        else (STRUCTURE_RUNGS, STRUCTURE_D_WINDOW, SPARSE_RUNGS)
    )
    out = []
    for idx, (ka, kb) in enumerate(rungs):
        rng = _rng("structure-dense", seed, idx)
        D = rng.randint(*d_window)
        A, X = _remark2_side(rng, ka, D)
        B, Y = _remark2_side(rng, kb, D)
        out.append((f"remark2-{ka}x{kb}", _doc(A, B, D, X, Y)))
    for idx, (n, D) in enumerate(sparse, start=len(rungs)):
        rng = _rng("structure-dense", seed, idx)
        X = rng.randint(*SPARSE_X_WINDOW)
        Y = rng.randint(*SPARSE_X_WINDOW)
        out.append(
            (f"sparse-{n}", _doc(_uniform_set(rng, n, X), _uniform_set(rng, n, Y), D, X, Y))
        )
    return out


def _uniform_rungs(workload: str, rungs, window, seed: int) -> list[tuple[str, dict]]:
    out = []
    for idx, (na, nb, D) in enumerate(rungs):
        rng = _rng(workload, seed, idx)
        X = rng.randint(*window)
        Y = rng.randint(*window)
        out.append(
            (f"uniform-{na}x{nb}", _doc(_uniform_set(rng, na, X), _uniform_set(rng, nb, Y), D, X, Y))
        )
    return out


def stats_dense(seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    rungs = TINY_STATS_RUNGS if tiny else STATS_DENSE_RUNGS
    return _uniform_rungs("stats-dense", rungs, STATS_DENSE_X_WINDOW, seed)


def stats_bigint(seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    rungs = TINY_STATS_RUNGS if tiny else STATS_BIGINT_RUNGS
    return _uniform_rungs("stats-bigint", rungs, STATS_BIGINT_X_WINDOW, seed)


GENERATORS = {
    "structure-dense": structure_dense,
    "stats-dense": stats_dense,
    "stats-bigint": stats_bigint,
}


def instance_text(doc: dict) -> str:
    """The instance file bytes, in the program's own canonical layout."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def ints(doc: dict, key: str) -> list[int]:
    return [int(v) for v in doc[key]]

