"""Generators: random chord diagrams, gluable pairs, and exhaustive
enumeration of all chord-diagram classes of a type.

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
import math
import random

from . import chord as ch
from . import fatgraph as fg
from .chord import ChordDiagram
from .errors import SearchExhausted, UnrepresentableType
from .fatgraph import TopType

__all__ = [
    "random_diagram",
    "random_gluable_pair",
    "enumerate_classes",
]

# classes a search or an enumeration of one type may hold before it gives up
EXPLORE_CLASS_BUDGET = 1 << 16

# rotation choices the enumerator may list for one (composition, forest)
# block.  A circle vertex with k stubs alone gives k! choices: without a
# bound, (6;1,1)@36 lists 12! rotations at one vertex and runs out of
# memory before it meets a class.  The largest block of any type CI pins
# has 120 choices, on (2;1,2)@15 and (2;2,1)@15; the budget sits far above
# that, and above the 8! = 40,320 of a base point whose big vertex has
# eight chords, such as (2;1,5)'s.  It refuses every 9! block too, the
# first block of any type with 2g+p+q-2 >= 9.  Measured on (4;1,2)@19,
# whose first block is 9!: that block holds 386,496 classes, so with no
# rotation budget the class budget refuses it after 65,536 of them (7 s,
# 77 MB peak RSS); the rotation budget refuses it at once.
ROTATION_BUDGET = 1 << 16


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


def _ghost_forests(n_circ: int, n_int: int, n_edges: int, symmetries):
    """Yield each simple forest with n_edges edges on vertices
    0..n_circ+n_int-1 (the last n_int internal) such that every circular
    vertex has degree >= 1, every internal vertex degree >= 3, and no
    component is all-internal, as a tuple of vertex pairs in pair order,
    that no vertex relabeling in symmetries maps to a smaller sorted list
    of pairs.

    The search takes pairs in pair order, so a forest F it builds from a
    partial forest P adds only pairs above all of P's.  Say a relabeling s
    maps P to a smaller sorted list: the least pair v on which P and s(P)
    differ is s(P)'s.  Every pair of F below v is P's, so s(P)'s, so
    s(F)'s, while v is s(F)'s and not F's; so s(F) is smaller than F too,
    and P is pruned.  For each relabeling the search keeps that least pair
    v, which is P's while P survives, or `equal` while s(P) = P, and
    updates it as each pair is taken, comparing the two lists again only
    when the new pair's image is v."""
    nv = n_circ + n_int
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    index = {pair: i for i, pair in enumerate(pairs)}
    maps = [[index[(s[a], s[b]) if s[a] < s[b] else (s[b], s[a])]
             for a, b in pairs] for s in symmetries]
    equal = len(pairs)  # a relabeling under which P is its own image
    floor = [1] * n_circ + [3] * n_int
    deg = [0] * nv
    parent = list(range(nv))
    has_circ = [v < n_circ for v in range(nv)]
    chosen = []  # indices into pairs, increasing

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def differ(m):
        # the least pair on which chosen and its image under m differ, if
        # it is chosen's; None if it is the image's; equal if none
        for x, y in zip(chosen, sorted(map(m.__getitem__, chosen))):
            if x != y:
                return x if x < y else None
        return equal

    def taken(diffs, i):
        # diffs, one least differing pair per map, once pair i has joined
        # chosen; None if a relabeling maps chosen to a smaller forest
        out = []
        for m, d in zip(maps, diffs):
            j = m[i]
            if d < i:
                if j == d:
                    d = differ(m)
                    if d is None:
                        return None
                elif j < d:
                    return None
            elif j < i:
                return None
            elif j > i:
                d = i
            out.append(d)
        return out

    def rec(start, lack, diffs):
        # lack: unmet degree lower bounds; each edge meets at most two.
        # The loop leaves out each pair it passes and the recursion takes
        # pairs[i] in, so it is only as deep as the forest has edges
        left = n_edges - len(chosen)
        if left == 0:
            if lack == 0 and all(has_circ[find(v)] for v in range(nv)):
                yield tuple(map(pairs.__getitem__, chosen))
            return
        for i in range(start, len(pairs)):
            if len(pairs) - i < left or (lack + 1) // 2 > left:
                return
            a, b = pairs[i]
            if b == a + 1 and a and deg[a - 1] < floor[a - 1]:
                return  # every pair at vertex a-1 is behind: its degree is final
            ra, rb = find(a), find(b)
            if ra != rb:
                chosen.append(i)
                after = taken(diffs, i)
                if after is not None:
                    old_parent, old_flag = parent[ra], has_circ[rb]
                    parent[ra] = rb
                    has_circ[rb] = has_circ[rb] or has_circ[ra]
                    met = (deg[a] < floor[a]) + (deg[b] < floor[b])
                    deg[a] += 1
                    deg[b] += 1
                    yield from rec(i + 1, lack - met, after)
                    deg[a] -= 1
                    deg[b] -= 1
                    parent[ra] = old_parent
                    has_circ[rb] = old_flag
                chosen.pop()

    return rec(0, sum(floor), [equal] * len(maps))


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

    The choices number the product of each vertex's count, k! at a circle
    vertex with k stubs and (k-1)! at an internal one; a block with more
    than ROTATION_BUDGET raises SearchExhausted before any is listed.
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

    # k! orders of a vertex's k stubs, over k where the first is fixed
    choices = (math.prod(map(math.factorial, map(len, stubs)))
               // math.prod(map(len, stubs[n_circ:])))
    if choices > ROTATION_BUDGET:
        raise SearchExhausted(
            f"a block of {choices} rotation choices (circles {comp}, "
            f"{len(forest)} ghost edges) exceeds the rotation budget "
            f"ROTATION_BUDGET = {ROTATION_BUDGET}")
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
    the markings of the stored form, can change.  The forest search prunes
    each partial forest some relabeling maps to a smaller one, since no
    forest completing it is then least (_ghost_forests), so the blocks
    visited, and their order, are those a test of every forest would
    keep.  Each circle composition runs its own search, pruned by its own
    block's group.

    Raises ChordLabError unless edge_bound is an int, UnrepresentableType
    unless p and q are at least 1, and SearchExhausted once it has met more
    than EXPLORE_CLASS_BUDGET classes, or at a block with more than
    ROTATION_BUDGET rotation choices (_diagram_candidates).
    """
    return {code: ch._form(columns, top.p, top.q, markings)
            for code, columns, markings in _classes(top, edge_bound)}


def _classes(top: TopType, edge_bound: int):
    """Yield (code, canonical columns, markings) for each class of
    enumerate_classes, in its order, the moment its first candidate is met:
    the columns of its least word (chord._code) and the candidate's own
    markings, relabelled onto them, from which chord._form builds the
    class's stored form.  The generator keeps only the set of least words
    met (chord._canonicalize) and the state of one ghost-forest search,
    and builds no diagram.  It raises SearchExhausted as a class is met
    past EXPLORE_CLASS_BUDGET, and at a block past ROTATION_BUDGET."""
    ch._require_int("edge_bound", edge_bound)
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
            # pruned by its block's group, a composition's search yields
            # exactly the forests least in their orbit (_ghost_forests)
            for comp in _compositions(n_circ, p):
                for forest in _ghost_forests(n_circ, n_int, n_ghost,
                                             _block_symmetries(comp, n_int)):
                    for pairing, nxt, colors, markings in _diagram_candidates(
                            p, q, comp, forest, n_int):
                        key, _word, label = ch._canonicalize(
                            pairing, nxt, colors, p, q)
                        if key in seen:
                            continue
                        seen.add(key)
                        if len(seen) > EXPLORE_CLASS_BUDGET:
                            raise SearchExhausted(
                                f"{len(seen)} classes exceed the class budget "
                                f"EXPLORE_CLASS_BUDGET = {EXPLORE_CLASS_BUDGET}")
                        yield *ch._code(key, p, q), [label[m] for m in markings]
