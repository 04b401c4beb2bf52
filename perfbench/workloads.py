"""Workload definitions and hand-recorded expected answers.

Pure data and text builders: nothing here imports chordlab, so the expected
values below are not derived from the code under test.

Why these workloads:

* connect -- the whole-complex pipeline behind `chordlab connect` (BFS, the
  independent enumerator, the component count and witness replay) on the two
  full finite complexes that take a few seconds each.  (0;3,2) has many small
  classes, so chord validation and enumeration weigh most; (2;1,1) has
  24-half-edge graphs, where the quadratic canonical code dominates.
  (1;1,3) takes about a minute per run and is left out.
* paths -- many short, independent `path_to_canonical` queries from random
  walks.  Same canonicalization and neighbour generation as connect, but no
  enumerator and no whole-complex witness replay, and a heavy latency tail.
* tqft -- only the exact dense matrix kernels; no fat graphs.  Q rows and
  F_p rows separate Fraction arithmetic from modular arithmetic.
"""

from __future__ import annotations

import random

WORKLOADS = ("connect", "paths", "tqft")

# connect: (type, edge bound, classes).  The bound is the trivalent maximum
# 3(2g+p+q-2), so each complex is complete.  The class counts are the
# baseline table of ROADMAP.md, written down here rather than computed.
CONNECT_TYPES = [("0,3,2", 9, 698), ("2,1,1", 12, 412)]
CONNECT_SMOKE = [("1,1,2", 9, 90)]

# paths: walk length and the types the walks start from, equally many
# queries each.  A query's cost is set by how far its walk ends from the base
# point: for (2;1,1), on a 2 GHz core, about 15 ms within two moves and
# 80-150 ms beyond.  Left to chance, the number of far (2;1,1) queries alone
# moves a round's time by about 5%, and the 90th percentile sits at the low
# edge of their cluster, so it jumps into the gap below whenever a run draws
# a few too few.  So each round takes exactly round(n * share) far queries of
# each type, where share is the type's natural rate: the share of plain
# 6-move walks ending farther than two moves, measured over 1400 walks per
# type (seeds apart from the benchmark's).  The mix is the walks' own; the
# seed picks the walks within each stratum.
PATH_STEPS = 6
PATH_TYPES = [(1, 1, 2), (1, 2, 1), (0, 3, 2), (0, 2, 3), (2, 1, 1)]
PATH_FAR_SHARE = {(1, 1, 2): 0.15, (1, 2, 1): 0.16, (0, 3, 2): 0.40,
                  (0, 2, 3): 0.37, (2, 1, 1): 0.52}
PATH_QUERIES = 150
PATH_QUERIES_SMOKE = 10

# tqft: (p, q, r, g1, g2) maxima of the verify_gluing grid; p, q, r start at
# 1 and the genera at 0, as in `chordlab tqft verify --range`.
TQFT_GRID = (3, 3, 3, 2, 2)
TQFT_GRID_SMOKE = (2, 2, 2, 1, 1)

_PD2 = """frob v1
field {field}
basis 1
basis x
unit 1 0
m 0 0 -> 0 1
m 0 1 -> 1 1
m 1 0 -> 1 1
Delta 0 -> 0 1 1
Delta 0 -> 1 0 1
Delta 1 -> 1 1 1
"""

_ST2 = """frob v1
field {field}
basis 1 2
basis x 0
ambient 2
unit 1 0
m 0 0 -> 0 1
m 0 1 -> 1 1
m 1 0 -> 1 1
Delta 0 -> 1 1 1
"""


def _truncated_polynomial(field: str, rank: int) -> str:
    """k[x]/(x^rank) with Delta(x^i) = sum_{j+k=i+rank-1} x^j (x) x^k: the
    cohomology-ring pattern of CP^(rank-1)."""
    lines = ["frob v1", f"field {field}"]
    lines += [f"basis x{i}" for i in range(rank)]
    lines.append("unit " + " ".join("1" if i == 0 else "0" for i in range(rank)))
    for i in range(rank):
        for j in range(rank - i):
            lines.append(f"m {i} {j} -> {i + j} 1")
    for i in range(rank):
        for j in range(rank):
            k = i + rank - 1 - j
            if 0 <= k < rank:
                lines.append(f"Delta {i} -> {j} {k} 1")
    return "\n".join(lines) + "\n"


# name -> (frob v1 text, expected facts).  "mu" lists (p, q, g, matrix rows)
# worked out by hand; "counit" is the counit vector (None: none exists).
ALGEBRAS = {
    "pd2/Q": (
        _PD2.format(field="Q"),
        {
            # H = m o Delta sends 1 to 2x and x to 0; H^2 = 0
            "mu": [(1, 1, 1, [[0, 0], [2, 0]]),
                   (1, 1, 2, [[0, 0], [0, 0]]),
                   (1, 1, 3, [[0, 0], [0, 0]])],
            "counit": [0, 1],
        },
    ),
    "st2/F5": (
        _ST2.format(field="Fp 5"),
        {
            # Delta(1) = x (x) x, so H(1) = x^2 = 0
            "mu": [(1, 1, 1, [[0, 0], [0, 0]])],
            "counit": None,
        },
    ),
    "cp2/Q": (
        _truncated_polynomial("Q", 3),
        {
            # Delta(1) = 1(x)x2 + x(x)x + x2(x)1, so H(1) = 3 x2
            "mu": [(1, 1, 1, [[0, 0, 0], [0, 0, 0], [3, 0, 0]]),
                   (1, 1, 2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])],
            "counit": [0, 0, 1],
        },
    ),
    "cp2/F7": (
        _truncated_polynomial("Fp 7", 3),
        {
            "mu": [(1, 1, 1, [[0, 0, 0], [0, 0, 0], [3, 0, 0]]),
                   (1, 1, 2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])],
            "counit": [0, 0, 1],
        },
    ),
}


# Every round of a run draws its inputs from (seed, round index): the same
# seed gives the same inputs, and a run's paths rounds ask distinct queries,
# so one run samples several hundred walks rather than repeating 150.

def connect_order(seed: int, rnd: int, smoke: bool) -> list[tuple[str, int, int]]:
    """The connect calls of one round, in a seed-chosen order."""
    types = list(CONNECT_SMOKE if smoke else CONNECT_TYPES)
    random.Random(f"connect:{seed}:{rnd}").shuffle(types)
    return types


def path_plan(smoke: bool) -> dict[tuple, tuple[int, int]]:
    """(queries, of which far) for every start type of one paths round."""
    n = PATH_QUERIES_SMOKE if smoke else PATH_QUERIES
    plan = {}
    for i, t in enumerate(PATH_TYPES):
        count = n // len(PATH_TYPES) + (i < n % len(PATH_TYPES))
        plan[t] = (count, round(count * PATH_FAR_SHARE[t]))
    return plan


def gluing_grid(seed: int, rnd: int, smoke: bool) -> list[tuple[str, tuple]]:
    """Every (algebra, (p, q, r, g1, g2)) check, in a seed-chosen order."""
    pm, qm, rm, g1m, g2m = TQFT_GRID_SMOKE if smoke else TQFT_GRID
    checks = [
        (name, (p, q, r, g1, g2))
        for name in ALGEBRAS
        for p in range(1, pm + 1)
        for q in range(1, qm + 1)
        for r in range(1, rm + 1)
        for g1 in range(g1m + 1)
        for g2 in range(g2m + 1)
    ]
    random.Random(f"tqft:{seed}:{rnd}").shuffle(checks)
    return checks
