"""Generators: random fat graphs, random chord diagrams, gluable pairs,
and exhaustive enumeration of all chord-diagram classes of a type.

The exhaustive enumerator derives each candidate's tables directly,
unvalidated, from a circle composition, a labeled ghost forest and a
rotation choice.  A candidate is raw tables (pairing, rotation, integer
colors and markings), not a diagram: it costs one canonical search, and
only a class whose least word is new gets its code written (chord._code).
The enumeration is a generator (_classes) that holds least words, not
diagrams: it yields each class's canonical tables and markings once, so a
caller builds only the forms it needs.  It visits one (composition,
forest) block per orbit of the relabelings that keep a block's diagrams up
to isomorphism.  It uses no moves: an independent check on the searches.
"""

from __future__ import annotations

import itertools
import random

from . import chord as ch
from . import fatgraph as fg
from .chord import ChordDiagram
from .errors import ChordLabError, SearchExhausted, UnrepresentableType
from .fatgraph import TopType

__all__ = [
    "random_fatgraph",
    "random_diagram",
    "random_gluable_pair",
    "enumerate_classes",
]

# classes a search or an enumeration of one type may hold before it gives up
EXPLORE_CLASS_BUDGET = 1 << 16


# ---------------------------------------------------------------------------
# random fat graphs
# ---------------------------------------------------------------------------

def _random_composition(rng: random.Random, total: int, min_part: int) -> list[int]:
    """Random composition of total into parts >= min_part (greedy)."""
    parts = []
    left = total
    while left >= 2 * min_part:
        hi = left - min_part
        parts.append(rng.randint(min_part, hi))
        left -= parts[-1]
    if left:
        if left >= min_part:
            parts.append(left)
        elif parts:
            parts[-1] += left
    return parts


def random_fatgraph(rng: random.Random, max_edges: int = 12) -> fg.FatGraph:
    """A uniform-ish random connected fat graph with valence >= 3."""
    while True:
        n_edges = rng.randint(2, max_edges)
        n = 2 * n_edges
        halves = list(range(n))
        rng.shuffle(halves)
        sizes = _random_composition(rng, n, 3)
        vertex_lists, at = [], 0
        for s in sizes:
            vertex_lists.append(halves[at: at + s])
            at += s
        matching = list(range(n))
        rng.shuffle(matching)
        pairing = [0] * n
        for i in range(0, n, 2):
            a, b = matching[i], matching[i + 1]
            pairing[a], pairing[b] = b, a
        try:
            return fg.validate(pairing, vertex_lists)
        except ChordLabError:
            continue


# ---------------------------------------------------------------------------
# random chord diagrams and gluable pairs
# ---------------------------------------------------------------------------

def random_diagram(
    rng: random.Random, g: int, p: int, q: int, steps: int | None = None
) -> ChordDiagram:
    """A random diagram of the given type: a random collapse/expansion walk
    starting at the base-point diagram.  Each step derives the diagram's
    tables once, draws one of its collapsible edges, in edge order
    (chord._collapsible_edges), or one of its splits, in the order of
    chord._splits, and makes only the move it draws on those tables."""
    c = ch.canonical_gamma0(g, p, q)
    if steps is None:
        steps = rng.randint(0, 4)
    for _ in range(steps):
        t = ch._diagram_tables(c)
        edges = [a for a, _b in ch._collapsible_edges(t)]
        splits = list(ch._splits(t.vertices))
        if not edges and not splits:
            break
        i = rng.randrange(len(edges) + len(splits))
        move = (("collapse", edges[i]) if i < len(edges)
                else ("expand", *splits[i - len(edges)]))
        c = ch._moved(c, t, move)
    return c


_SMALL_TYPES = tuple(
    (g, p, q)
    for g in range(3)
    for p in range(1, 4)
    for q in range(1, 4)
    if (g, p, q) != (0, 1, 1)
)


def random_gluable_pair(rng: random.Random) -> tuple[ChordDiagram, ChordDiagram]:
    """Two random diagrams with matching arity (q of the first = p of the
    second), both small enough to glue quickly."""
    g1, p1, q1 = _SMALL_TYPES[rng.randrange(len(_SMALL_TYPES))]
    matches = [t for t in _SMALL_TYPES if t[1] == q1]
    g2, p2, q2 = matches[rng.randrange(len(matches))]
    c1 = random_diagram(rng, g1, p1, q1, steps=rng.randint(0, 2))
    c2 = random_diagram(rng, g2, p2, q2, steps=rng.randint(0, 2))
    return c1, c2


# ---------------------------------------------------------------------------
# exhaustive enumeration of one type within an edge bound
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """All ordered compositions of total into `parts` positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _ghost_forests(n_circ: int, n_int: int, n_edges: int):
    """All simple forests with n_edges edges on vertices 0..n_circ+n_int-1
    (the last n_int internal) such that every circular vertex has degree >= 1,
    every internal vertex degree >= 3, and no component is all-internal."""
    nv = n_circ + n_int
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    floor = [1] * n_circ + [3] * n_int
    deg = [0] * nv
    parent = list(range(nv))
    has_circ = [v < n_circ for v in range(nv)]

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    out = []

    def rec(i, chosen, lack):
        # lack: unmet degree lower bounds; each edge meets at most two
        left = n_edges - len(chosen)
        if left == 0:
            if lack == 0 and all(has_circ[find(v)] for v in range(nv)):
                out.append(tuple(chosen))
            return
        if i >= len(pairs) or len(pairs) - i < left or (lack + 1) // 2 > left:
            return
        a, b = pairs[i]
        if b == a + 1 and a and deg[a - 1] < floor[a - 1]:
            return  # every pair at vertex a-1 is behind: its degree is final
        ra, rb = find(a), find(b)
        if ra != rb:
            # include pairs[i]
            old_parent, old_flag = parent[ra], has_circ[rb]
            parent[ra] = rb
            has_circ[rb] = has_circ[rb] or has_circ[ra]
            met = (deg[a] < floor[a]) + (deg[b] < floor[b])
            deg[a] += 1
            deg[b] += 1
            chosen.append((a, b))
            rec(i + 1, chosen, lack - met)
            chosen.pop()
            deg[a] -= 1
            deg[b] -= 1
            parent[ra] = old_parent
            has_circ[rb] = old_flag
        rec(i + 1, chosen, lack)

    rec(0, [], sum(floor))
    return out


def _block_symmetries(comp, n_int):
    """The relabelings of a block's vertex ids, other than the identity,
    that keep its diagrams up to isomorphism: a rotation of each circle's
    vertex ids within that circle, times any permutation of the internal
    ids.  Incoming circles keep their boundary positions, so no two are
    swapped, and circles are oriented, so none is reflected.  There are
    prod(comp) * n_int! of them, less one."""
    n_circ = sum(comp)
    circle_maps = [()]
    at = 0
    for k in comp:
        circle_maps = [m + tuple(at + (j + r) % k for j in range(k))
                       for m in circle_maps for r in range(k)]
        at += k
    return [
        m + perm
        for m in circle_maps
        for perm in itertools.permutations(range(n_circ, n_circ + n_int))
    ][1:]


def _least_in_orbit(forest, symmetries) -> bool:
    """Whether no relabeling in symmetries maps forest to a smaller one."""
    for s in symmetries:
        image = tuple(sorted((s[a], s[b]) if s[a] < s[b] else (s[b], s[a])
                             for a, b in forest))
        if image < forest:
            return False
    return True


def _diagram_candidates(p, q, comp, forest, n_int):
    """Every diagram of one circle composition + ghost forest, as raw
    tables (pairing, rotation, colors, markings): one per rotation choice
    with p + q boundary cycles and order of its outgoing cycles, each marked
    at its cycles' first circular half-edges.  The colors are
    chord._int_colors of the diagram: each half-edge's boundary cycle is
    traced once per rotation choice, from the cycle's least half-edge, and
    its position in the boundary order, plus q on a ghost, is its color.

    Each is a diagram by construction, so none is validated, and none is
    built.  A circle vertex reads (back, fwd, stubs...), so each circle is
    its own incoming boundary cycle.  Stub degrees give valence >= 3 and
    the ghost edges form a forest.  E - V = 2g+p+q-2, so p + q cycles fix
    the genus.  Connectivity does not depend on the rotations: it is checked
    at the first choice.
    """
    # circle vertex v holds forward half 2v and backward half 2v+1, and edge
    # j of a circle runs from its vertex j to j+1 (mod k); ghost halves follow
    n_circ = sum(comp)
    base = 2 * n_circ
    n = base + 2 * len(forest)
    pairing = [0] * n
    circle_at = {}  # each circle's least half leads its cycle: its position
    at = 0
    for k in comp:
        for j in range(k):
            f, b = 2 * (at + j), 2 * (at + (j + 1) % k) + 1
            pairing[f], pairing[b] = b, f
        circle_at[2 * at] = len(circle_at)
        at += k
    circle_reps = tuple(circle_at)
    stubs: list[list[int]] = [[] for _ in range(n_circ + n_int)]
    for x, (a, b) in enumerate(forest, n_circ):
        pairing[2 * x], pairing[2 * x + 1] = 2 * x + 1, 2 * x
        stubs[a].append(2 * x)
        stubs[b].append(2 * x + 1)
    pairing = tuple(pairing)
    ghost = [0] * base + [q] * (n - base)  # the color a ghost half adds

    rotations = [
        [(2 * v + 1, 2 * v) + s for s in itertools.permutations(stubs[v])]
        if v < n_circ else
        [(stubs[v][0],) + s for s in itertools.permutations(stubs[v][1:])]
        for v in range(len(stubs))
    ]
    nxt = [0] * n
    for i, choice in enumerate(itertools.product(*rotations)):
        for rot in choice:
            for a, b in zip(rot, rot[1:] + rot[:1]):
                nxt[a] = b
        if i == 0 and not fg._is_connected(pairing, nxt):
            return
        # cycle k in order of least half-edge, and its first circular half
        cycle, marks = [-1] * n, []
        for s in range(n):
            if cycle[s] < 0:
                h, mark = s, -1
                while cycle[h] < 0:
                    cycle[h] = len(marks)
                    if mark < 0 and h < base:
                        mark = h
                    h = nxt[pairing[h]]
                marks.append(mark)
        if len(marks) != p + q:
            continue
        # a circle's least half is circular, so it marks its own cycle
        position = [circle_at.get(m, 0) for m in marks]
        out = [k for k, m in enumerate(marks) if m not in circle_at]
        rotation = tuple(nxt)
        for perm in itertools.permutations(out):
            for at, k in enumerate(perm, p):
                position[k] = at
            yield (pairing, rotation,
                   [position[k] + add for k, add in zip(cycle, ghost)],
                   circle_reps + tuple(marks[k] for k in perm))


def _require_int(name: str, value) -> None:
    """Refuse a value that is not an int, bool included, with a
    ChordLabError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ChordLabError(f"{name} must be an int, got {value!r}")


def enumerate_classes(
    top: TopType, edge_bound: int
) -> dict[bytes, ChordDiagram]:
    """All isomorphism classes of chord diagrams of the given type with at
    most edge_bound edges: a dict from unmarked diagram code to the class's
    canonical form, in the order _classes meets the classes.

    For a type (g;p,q), every diagram satisfies E = V + (2g+p+q-2) where V is
    the total vertex count, and the ghost forest has exactly
    V_circ - (2g+p+q-2) components; these identities drive the enumeration.

    A block is visited only when its forest is the least in its orbit under
    `_block_symmetries`: rotating each circle's vertex ids within that circle
    and permuting the internal ids.  A relabeling sigma keeps which vertices
    are circular and the circles' order and orientation, so every candidate
    of sigma(F) is a relabeling of a candidate of F and the set of class
    codes is unchanged; only which candidate reaches a class first, and so
    the markings of the stored form, can change.  The test stops at the
    first smaller image and costs at most prod(comp) * n_int! images per
    block: at most 8 * 3! = 48 on (0;3,2)@9 and (2;1,1)@12, where
    prod(comp) <= 8 and n_int <= 3.

    Raises ChordLabError unless edge_bound is an int, UnrepresentableType
    unless p and q are at least 1, and SearchExhausted once it has met more
    than EXPLORE_CLASS_BUDGET classes.
    """
    return {code: ch._form(columns, top.p, top.q, markings)
            for code, columns, markings in _classes(top, edge_bound)}


def _classes(top: TopType, edge_bound: int):
    """Yield (code, canonical columns, markings) for each class of
    enumerate_classes, in its order, the moment its first candidate is met:
    the columns of its least word (chord._code) and the candidate's own
    markings, relabelled onto them, from which chord._form builds the
    class's stored form.  The generator keeps only the set of least words
    met (chord._canonicalize), and builds no diagram."""
    _require_int("edge_bound", edge_bound)
    g, p, q = top.genus, top.p, top.q
    if p < 1 or q < 1:
        raise UnrepresentableType(f"{top} is not a chord-diagram type")
    const = 2 * g + p + q - 2
    seen: set = set()
    for n_circ in range(max(p, const + 1), edge_bound - const + 1):
        for n_int in range(0, edge_bound - const - n_circ + 1):
            n_ghost = n_int + const
            if 2 * n_ghost < n_circ + 3 * n_int:
                continue
            forests = _ghost_forests(n_circ, n_int, n_ghost)
            for comp in _compositions(n_circ, p):
                symmetries = _block_symmetries(comp, n_int)
                for forest in forests:
                    if not _least_in_orbit(forest, symmetries):
                        continue
                    for pairing, nxt, colors, markings in _diagram_candidates(
                            p, q, comp, forest, n_int):
                        key, _word, label = ch._canonicalize(
                            pairing, nxt, colors, p, q)
                        if key not in seen:
                            seen.add(key)
                            yield *ch._code(key, p, q), [label[m] for m in markings]
                    if len(seen) > EXPLORE_CLASS_BUDGET:
                        raise SearchExhausted(
                            f"{len(seen)} classes exceed the class budget "
                            f"EXPLORE_CLASS_BUDGET = {EXPLORE_CLASS_BUDGET}")
