"""Sullivan chord diagrams.

A chord diagram of type (g; p, q) is a fat graph consisting of p disjoint
circles (circular edges) plus a forest of ghost edges whose endpoints lie on
the circles, decorated with:

* a marking per boundary cycle: one oriented circular-edge occurrence, which
  doubles as the start of the cycle's parameterization;
* an ordering of the markings, and so of all boundary cycles, the first p
  being the incoming circles (each incoming circle, traversed with its
  orientation, is itself a boundary cycle of the fat graph).

The module provides validation, ghost collapse, vertex multiplicities, the
essential-edge test, elementary collapse/expansion moves, the canonical
base-point diagram of each type, and gluing along matched boundaries.  A
diagram and a move hold only free data: the boundary order is read off the
markings, and a vertex split is named by the two half-edges that end its
arcs, its label being read off the vertex.

There is one checked move, _apply, and it runs on raw tables (_tables):
the rotation, pairing and integer colors of a diagram, with its vertex,
ghost-component and circular-vertex tables derived from them in one pass.
The searches call it on a class's canonical tables; is_essential,
collapse_edge, apply_expansion and moves.apply_move derive a diagram's
tables afresh on each call (_diagram_tables), keep none on the diagram,
and add only the transport of a collapsed edge's markings.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

from . import fatgraph as fg
from .errors import (
    ArityMismatch,
    BadMarking,
    ChordLabError,
    CircleNotDisjoint,
    EssentialEdge,
    GhostCycle,
    GlueValidationFailed,
    IncomingNotBoundaryCycle,
    InconsistentTables,
    InvalidSchedule,
    LoopEdge,
    NoCircularEdgeOnCycle,
    UnrepresentableType,
)
from .fatgraph import FatGraph, TopType

CIRCULAR = "C"
GHOST = "G"

__all__ = [
    "ChordDiagram",
    "CollapsedGraph",
    "validate_chord",
    "collapse_ghosts",
    "multiplicities",
    "chi_defect",
    "is_essential",
    "is_collapsible",
    "collapse_edge",
    "expansions",
    "canonical_gamma0",
    "glue",
    "diagram_code",
    "canonical_form",
    "canonical_form_with_map",
]


@dataclass(frozen=True)
class ChordDiagram:
    """Chord diagram, from :func:`validate_chord`, a relabeling or a move;
    relabelings and moves keep every invariant, so they build it directly.
    The markings fix the boundary order, which is derived from them."""

    graph: FatGraph
    labels: tuple[str, ...]          # C/G per half-edge, equal on paired halves
    p: int                           # number of incoming circles
    markings: tuple[int, ...]        # circular half-edge per cycle, in order

    @property
    def q(self) -> int:
        return len(self.markings) - self.p

    def top_type(self) -> TopType:
        g, n = fg.topological_type(self.graph)
        return TopType(g, self.p, n - self.p)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return fg.boundary_cycles(self.graph)

    def cycle_by_rep(self, rep: int) -> tuple[int, ...]:
        cycle_of = self.graph.cycle_of()
        if not (0 <= rep < len(cycle_of) and cycle_of[rep][0] == rep):
            raise KeyError(rep)
        return cycle_of[rep]

    def incoming_circles(self) -> list[tuple[int, ...]]:
        cycle_of = self.graph.cycle_of()
        return [cycle_of[m] for m in self.markings[: self.p]]

    def circular_edges(self) -> list[int]:
        return [e for e in self.graph.edges() if self.labels[e] == CIRCULAR]

    def ghost_edges(self) -> list[int]:
        return [e for e in self.graph.edges() if self.labels[e] == GHOST]

    # Derived once per diagram, outside the dataclass fields.

    @cached_property
    def boundary_order(self) -> tuple[int, ...]:
        """The least half-edge of each boundary cycle, in marking order."""
        cycle_of = self.graph.cycle_of()
        return tuple(cycle_of[m][0] for m in self.markings)


@dataclass(frozen=True)
class CollapsedGraph:
    """The fat graph S(c) obtained by collapsing every ghost edge of c."""

    s_graph: FatGraph
    projection: tuple[int, ...]      # vertex index of c -> vertex index of S(c)
    half_edge_map: tuple[int, ...]   # half-edge of c -> half-edge of S(c), -1 on ghosts


def _ghost_components(graph: FatGraph, labels) -> tuple[int, ...]:
    """Union-find over vertices along ghost edges.

    Returns the component index of every vertex.  Raises GhostCycle if the
    ghost subgraph contains a cycle.
    """
    vertex_of = graph.vertex_of()
    nv = graph.n_vertices
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph.edges():
        if labels[e] == GHOST:
            a, b = find(vertex_of[e]), find(vertex_of[graph.pairing[e]])
            if a == b:
                raise GhostCycle(f"ghost edge {e} closes a cycle")
            parent[a] = b

    roots = sorted({find(v) for v in range(nv)})
    index = {r: i for i, r in enumerate(roots)}
    return tuple(index[find(v)] for v in range(nv))


def validate_chord(
    graph: FatGraph,
    labels,
    p: int,
    boundary_order,
    markings=None,
) -> tuple[ChordDiagram, TopType]:
    """Check every chord-diagram invariant and classify the type.

    ``labels`` is a C/G string per half-edge (paired halves must agree).
    ``boundary_order`` lists the least half-edge of each boundary cycle, the
    first ``p`` designating the incoming circles.  ``markings``, if omitted,
    default to the first circular half-edge of each cycle.
    """
    labels = tuple(labels)
    n = graph.n_half_edges
    if len(labels) != n or any(l not in (CIRCULAR, GHOST) for l in labels):
        raise InconsistentTables("labels must be one C/G entry per half-edge")
    for h in range(n):
        if labels[h] != labels[graph.pairing[h]]:
            raise InconsistentTables(f"edge of half-edge {h} has mixed labels")

    # circular edges form p pairwise-disjoint simple cycles: every vertex
    # carries either exactly two circular half-edges or none at all
    n_circ_vertices = 0
    for orbit in graph.vertices():
        k = sum(1 for h in orbit if labels[h] == CIRCULAR)
        if k not in (0, 2):
            raise CircleNotDisjoint(
                f"vertex {orbit} has {k} circular half-edges (want 0 or 2)"
            )
        n_circ_vertices += k == 2

    _ghost_components(graph, labels)  # raises GhostCycle

    cycles = fg.boundary_cycles(graph)
    cycle_of = graph.cycle_of()
    boundary_order = tuple(boundary_order)
    if sorted(boundary_order) != [cyc[0] for cyc in cycles]:
        raise InconsistentTables("boundary_order is not a permutation of the cycles")
    if not (1 <= p <= len(boundary_order)):
        raise IncomingNotBoundaryCycle(f"incoming count {p} out of range")

    # each designated incoming cycle is a circle: all-circular, and the p of
    # them cover every circular edge exactly once
    covered = set()
    for r in boundary_order[:p]:
        cyc = cycle_of[r]
        if any(labels[h] == GHOST for h in cyc):
            raise IncomingNotBoundaryCycle(
                f"incoming cycle at {r} traverses a ghost edge"
            )
        for h in cyc:
            e = graph.edge_of(h)
            if e in covered:
                raise CircleNotDisjoint(f"circular edge {e} on two incoming cycles")
            covered.add(e)
    if len(covered) != sum(1 for e in graph.edges() if labels[e] == CIRCULAR):
        raise IncomingNotBoundaryCycle(
            "incoming cycles do not cover every circular edge"
        )
    if len(covered) != n_circ_vertices:
        # a circle with k vertices has k edges; mismatch means a stray cycle
        raise CircleNotDisjoint("circular subgraph is not a union of p circles")

    for cyc in cycles:
        if not any(labels[h] == CIRCULAR for h in cyc):
            raise NoCircularEdgeOnCycle(f"cycle at {cyc[0]} is all ghost")

    if markings is None:
        markings = tuple(
            next(h for h in cycle_of[r] if labels[h] == CIRCULAR)
            for r in boundary_order
        )
    else:
        markings = tuple(markings)
        if len(markings) != len(boundary_order):
            raise BadMarking("one marking per boundary cycle expected")
        for r, m in zip(boundary_order, markings):
            if m not in cycle_of[r] or labels[m] != CIRCULAR:
                raise BadMarking(f"marking {m} is not a circular occurrence on {r}")

    g, n_bnd = fg.topological_type(graph)
    return (ChordDiagram(graph=graph, labels=labels, p=p, markings=markings),
            TopType(g, p, n_bnd - p))


# ---------------------------------------------------------------------------
# ghost collapse and multiplicities
# ---------------------------------------------------------------------------

def collapse_ghosts(c: ChordDiagram) -> CollapsedGraph:
    """Contract every ghost edge; circular edges biject with edges of S(c)."""
    graph, labels = c.graph, c.labels
    circ = [h for h in range(graph.n_half_edges) if labels[h] == CIRCULAR]
    rank = {h: i for i, h in enumerate(circ)}
    half_map = tuple(rank.get(h, -1) for h in range(graph.n_half_edges))

    pairing = [rank[graph.pairing[h]] for h in circ]
    nxt = []
    for h in circ:
        # walk the boundary trace until the next circular half-edge; the ghost
        # forest guarantees this is the contraction of the whole ghost tree
        x = graph.next_at_vertex[h]
        while labels[x] == GHOST:
            x = graph.next_at_vertex[graph.pairing[x]]
        nxt.append(rank[x])

    s_graph = FatGraph(pairing=tuple(pairing), next_at_vertex=tuple(nxt))

    # a ghost component becomes the S(c) vertex of its circular half-edges
    comp, vertex_of = _diagram_tables(c).component, graph.vertex_of()
    s_vertex = {comp[vertex_of[h]]: v for h, v in zip(circ, s_graph.vertex_of())}
    projection = tuple(s_vertex[comp[v]] for v in range(graph.n_vertices))
    return CollapsedGraph(s_graph=s_graph, projection=projection, half_edge_map=half_map)


def multiplicities(c: ChordDiagram) -> list[int]:
    """mu(v) for every vertex v of S(c), in the order of S(c).vertices():
    the number of circular vertices of c collapsing to v."""
    collapsed = collapse_ghosts(c)
    counts = [0] * collapsed.s_graph.n_vertices
    for v, circular in enumerate(_diagram_tables(c).circular):
        counts[collapsed.projection[v]] += circular
    return counts


def chi_defect(c: ChordDiagram) -> int:
    """v(c) - sigma(c); always equals -chi of the underlying fat graph."""
    t = _diagram_tables(c)
    return sum(t.circular) - len(set(t.component))


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def _check_edge(n: int, e) -> None:
    """Refuse e unless it is one of the n half-edges of a diagram: an int,
    not a bool, in range."""
    if not (type(e) is int and e in range(n)):
        raise ChordLabError(f"edge {e} is not a half-edge of the diagram")


def is_essential(c: ChordDiagram, e: int) -> bool:
    """True iff no morphism may collapse the edge e.

    A circular edge is essential when it is a loop or when its endpoints lie
    in the same ghost component (collapsing it would close a ghost cycle); a
    ghost edge is essential when both endpoints are circular vertices
    (collapsing a chord would merge or pinch the disjoint incoming circles).
    Raises ChordLabError unless e is a half-edge of c.
    """
    _check_edge(c.graph.n_half_edges, e)
    return _essential(_diagram_tables(c), e, c.graph.pairing[e])


def _essential(t: "_Tables", a: int, b: int) -> bool:
    """The one rule of is_essential, for the edge a, b = pairing[a] of the
    diagram with tables t; either half gives the same answer.  A loop is
    circular, the ghost edges being a forest, so it is essential: an edge
    is collapsible exactly when it is not essential."""
    va, vb = t.vertex_of[a], t.vertex_of[b]
    if t.labels[a] == CIRCULAR:
        return t.component[va] == t.component[vb]
    return t.circular[va] and t.circular[vb]


def is_collapsible(c: ChordDiagram, e: int) -> bool:
    """True iff collapse_edge accepts e: neither a loop nor essential.  A
    loop is essential (_essential), so this is not is_essential(c, e).
    Raises ChordLabError unless e is a half-edge of c."""
    return not is_essential(c, e)


def _collapsible_edges(t: "_Tables"):
    """Every edge a < b = pairing[a] of the diagram with tables t that
    _apply collapses, in edge order, by the rule of _essential."""
    for a, b in enumerate(t.pairing):
        if a < b and not _essential(t, a, b):
            yield a, b


def _apply(t: "_Tables", move):
    """The one checked move: the pairing, rotation and _int_colors that
    move, ("collapse", e) or ("expand", x, y), leaves on the diagram with
    tables t.  A loop raises LoopEdge, another essential edge
    EssentialEdge, and an id that is not a half-edge, a pair that does not
    split a vertex or anything that is not a move a ChordLabError."""
    if isinstance(move, (tuple, list)):
        if len(move) == 2 and move[0] == "collapse":
            _check_edge(len(t.pairing), move[1])
            a, b = sorted((move[1], t.pairing[move[1]]))
            if t.vertex_of[a] == t.vertex_of[b]:
                raise LoopEdge(f"edge {a} is a loop")
            if _essential(t, a, b):
                raise EssentialEdge(f"edge {a} is essential")
            return _collapse_child(t, a, b)
        if len(move) == 3 and move[0] == "expand":
            _check_split(t, move[1], move[2])
            return _split_child(t, move[1], move[2])
    raise ChordLabError(f"unknown move {move!r}")


def _collapse_child(t: "_Tables", a: int, b: int):
    """The pairing, rotation and _int_colors left by collapsing the
    collapsible edge a < b = pairing[a] of the diagram with tables t
    (_collapse): the colors of a and b are dropped."""
    colors = t.colors
    return (*_collapse(t.pairing, t.nxt, t.prev, a, b),
            colors[:a] + colors[a + 1:b] + colors[b + 1:])


def _split_child(t: "_Tables", x: int, y: int):
    """The pairing, rotation and _int_colors after the split (x, y) of the
    diagram with tables t (_split).  The new edge is circular iff one of
    its cuts, after x or after y, is the corner (back, fwd) the vertex's
    circle runs through, the one label that makes the split a diagram.  A
    split keeps valence >= 3, the ghost forest and every boundary cycle, so
    it keeps the type: half-edge n lies on the cycle of the old nxt[x], n+1
    on that of nxt[y], and a color is its cycle's position, plus q on a
    ghost."""
    nxt, labels, colors, p, q = t.nxt, t.labels, t.colors, t.p, t.q
    ghost = 0 if (labels[x] == CIRCULAR == labels[nxt[x]]
                  or labels[y] == CIRCULAR == labels[nxt[y]]) else q
    new = [k - q + ghost if k >= p + q else k + ghost
           for k in (colors[nxt[x]], colors[nxt[y]])]
    return (*_split(t.pairing, nxt, x, y), [*colors, *new])


def _moved(c: ChordDiagram, t: "_Tables", move) -> ChordDiagram:
    """The diagram that move leaves on c, whose tables are t
    (_diagram_tables): _apply on t, built directly, since a move keeps the
    type.  A split keeps every half-edge id and only adds to each boundary
    cycle, so the markings carry over.  A collapse drops its edge a < b
    from its cycles, so a marking on a or b moves to the next circular
    half-edge of its cycle; there is one, since were a its cycle's last
    circular edge, a ghost path would join its ends (essential) or it would
    be a loop."""
    pairing, nxt, colors = _apply(t, move)
    markings = c.markings
    if move[0] == "collapse":
        a, b = sorted((move[1], t.pairing[move[1]]))
        moved = []
        for m in markings:
            while m == a or m == b or t.labels[m] != CIRCULAR:
                m = t.nxt[t.pairing[m]]
            moved.append(m - (m > a) - (m > b))
        markings = tuple(moved)
    return ChordDiagram(FatGraph(pairing, nxt), _labels(colors, c.p, c.q),
                        c.p, markings)


def collapse_edge(c: ChordDiagram, e: int) -> ChordDiagram:
    """Contract a single non-essential, non-loop edge (_moved): the two
    rotations are joined at the corners before e and pairing(e), and the
    half-edges above them are renumbered.  Markings on the collapsed edge
    are transported to the next surviving circular half-edge in their
    boundary cycle.  Raises ChordLabError unless e is a half-edge of c."""
    return _moved(c, _diagram_tables(c), ("collapse", e))


def _collapse(pairing, nxt, prev, a, b):
    """The pairing and rotation left by contracting the edge a < b =
    pairing[a] of a diagram, its ends on two vertices; prev is the inverse
    of nxt.

    The merged rotation is the rotation after a, then the one after b; every
    half-edge above a or b moves down by one for each.  Markings and labels
    play no part."""
    n = len(nxt)
    new_id = [*range(a), -1, *range(a, b - 1), -1, *range(b - 1, n - 2)]
    merged = list(nxt)
    merged[prev[a]], merged[prev[b]] = nxt[b], nxt[a]

    def kept(table):
        return tuple(map(new_id.__getitem__,
                         table[:a] + table[a + 1:b] + table[b + 1:]))

    return kept(pairing), kept(merged)


def _check_split(t: "_Tables", x, y) -> None:
    """Refuse (x, y) unless x and y are distinct half-edges of one vertex of
    the diagram with tables t (ints, not bools), neither following the
    other, so that both arcs of the split hold two or more."""
    nxt, n = t.nxt, len(t.nxt)
    if not (type(x) is int and type(y) is int and x in range(n)
            and y in range(n) and x != y and nxt[x] != y and nxt[y] != x
            and t.vertex_of[x] == t.vertex_of[y]):
        raise ChordLabError(f"({x}, {y}) does not split a vertex")


def _split(pairing, nxt, x: int, y: int):
    """The pairing and rotation after the split (x, y): the rotation is cut
    after x and after y, half-edge n = len(nxt) ends the arc that ends at x
    and n+1 the arc that ends at y, and n and n+1 form the new edge."""
    n = len(nxt)
    split = list(nxt)
    split += (nxt[y], nxt[x])
    split[x], split[y] = n, n + 1
    return (*pairing, n + 1, n), tuple(split)


def _splits(vertices):
    """Every single-vertex split of a diagram with these vertex orbits,
    once, as (x, y): vertex by vertex, cuts before orbit[i] and before
    orbit[j] for i < j, the arcs orbit[i:j] and orbit[j:] + orbit[:i] each
    holding at least two half-edges."""
    for orbit in vertices:
        d = len(orbit)
        for i in range(d):
            for j in range(i + 2, min(d, i + d - 1)):
                yield orbit[j - 1], orbit[i - 1]


def apply_expansion(c: ChordDiagram, x: int, y: int) -> ChordDiagram:
    """Split the vertex of x and y by cutting its rotation after x and after
    y (_moved): half-edge n ends the arc that ends at x, n+1 the arc that
    ends at y, and the new edge takes the split's one label (_split_child).
    Old half-edges keep their ids, so the markings carry over.  Raises
    ChordLabError unless x and y are distinct half-edges of one vertex,
    neither following the other, so that both arcs hold two or more.
    """
    return _moved(c, _diagram_tables(c), ("expand", x, y))


def expansions(c: ChordDiagram) -> list[ChordDiagram]:
    """Every diagram obtained by one vertex split, one per split.

    The new edge is the last one, half-edges n-2 and n-1; collapsing it
    gives back c's class.
    """
    t = _diagram_tables(c)
    return [_moved(c, t, ("expand", x, y)) for x, y in _splits(t.vertices)]


def _cycle_position(c: ChordDiagram) -> list[int]:
    """The position of each half-edge's boundary cycle in the boundary
    order.  Each cycle is traced from its marking, so no table is derived,
    and none is kept on c."""
    nxt, pairing = c.graph.next_at_vertex, c.graph.pairing
    position = [0] * len(pairing)
    for i, m in enumerate(c.markings):
        position[m] = i
        h = nxt[pairing[m]]
        while h != m:
            position[h] = i
            h = nxt[pairing[h]]
    return position


def _code_colors(c: ChordDiagram, with_markings: bool) -> tuple:
    """Each half-edge's color: its C/G label, the position of its boundary
    cycle in the boundary order, and whether it is a marking (always False
    without markings)."""
    marked = [False] * c.graph.n_half_edges
    if with_markings:
        for m in c.markings:
            marked[m] = True
    return tuple(zip(c.labels, _cycle_position(c), marked))


def _palette(p: int, q: int) -> list[tuple]:
    """The sorted set of _code_colors(c, False) for every diagram c of type
    (g;p,q): (C, i, False) for i < p+q and (G, j, False) for p <= j < p+q.

    Every cycle holds a circular half-edge.  An incoming cycle is a circle
    traced along its forward halves, so it holds nothing else.  At a circle
    vertex, which reads (back, fwd, ghosts...) with at least one ghost, the
    trace goes from the back half to the ghost after the previous vertex's
    forward half; so each outgoing cycle, which holds a back half, holds a
    ghost half too."""
    return ([(CIRCULAR, i, False) for i in range(p + q)]
            + [(GHOST, j, False) for j in range(p, p + q)])


@cache
def _palette_text(p: int, q: int) -> str:
    """The palette part of every class code of type (g;p,q), as
    fatgraph.canonical_code writes it, formatted once per type; the cache
    maps two ints to an immutable str, so it shares nothing mutable."""
    return repr(tuple(repr(c) for c in _palette(p, q)))


def _int_colors(c: ChordDiagram) -> list[int]:
    """Each half-edge's rank in _palette(c.p, c.q), the index of its
    unmarked color: its cycle's position, plus q on a ghost half-edge."""
    q = c.q
    return [i + q if label == GHOST else i
            for label, i in zip(c.labels, _cycle_position(c))]


def _labels(colors, p: int, q: int) -> tuple[str, ...]:
    """The C/G labels of a diagram of type (g;p,q) with these _int_colors:
    a ghost half-edge is one whose color is at least p+q."""
    return tuple(GHOST if k >= p + q else CIRCULAR for k in colors)


class _Tables(NamedTuple):
    """A diagram of type (g;p,q) as raw tables, without markings: its
    rotation, pairing and _int_colors, and what _tables derives from them."""

    nxt: Sequence[int]
    pairing: Sequence[int]
    colors: Sequence[int]
    labels: tuple[str, ...]           # G iff the color is at least p+q
    prev: list[int]                   # the inverse rotation
    vertices: list[tuple[int, ...]]   # as FatGraph.vertices()
    vertex_of: list[int]              # as FatGraph.vertex_of()
    component: list[int]              # ghost component per vertex
    circular: list[bool]              # per vertex: whether it lies on a circle
    p: int
    q: int


def _tables(nxt, pairing, colors, p: int, q: int) -> _Tables:
    """The labels, inverse rotation, vertex, ghost-component and
    circular-vertex tables of the diagram of type (g;p,q) with these
    rotation, pairing and _int_colors, derived together: one walk of the
    rotation's orbits, then one flood along the ghost edges.  A ghost
    half-edge is one whose color is at least p+q.  The diagram is taken to
    be valid, as every search's and enumerator's is, so it is not checked.
    A ghost component is numbered by its first vertex."""
    n = len(nxt)
    ghost = p + q
    labels = _labels(colors, p, q)
    prev = [0] * n
    vertex_of = [-1] * n
    vertices, circular = [], []
    for s in range(n):
        if vertex_of[s] < 0:
            v, orbit, h = len(vertices), [], s
            while vertex_of[h] < 0:
                vertex_of[h] = v
                orbit.append(h)
                prev[nxt[h]] = h
                h = nxt[h]
            vertices.append(tuple(orbit))
            circular.append(any(colors[h] < ghost for h in orbit))
    component = [-1] * len(vertices)
    for root in range(len(vertices)):
        if component[root] < 0:
            component[root] = root
            stack = [root]
            while stack:
                for h in vertices[stack.pop()]:
                    if colors[h] >= ghost:
                        w = vertex_of[pairing[h]]
                        if component[w] < 0:
                            component[w] = root
                            stack.append(w)
    return _Tables(nxt, pairing, colors, labels, prev, vertices, vertex_of,
                   component, circular, p, q)


def _diagram_tables(c: ChordDiagram) -> _Tables:
    """The _tables of the diagram c, derived afresh: a diagram keeps none,
    since they hold lists."""
    graph = c.graph
    return _tables(graph.next_at_vertex, graph.pairing, _int_colors(c),
                   c.p, c.q)


def _least_markings(colors, p: int, q: int) -> tuple[int, ...]:
    """The least circular half-edge of each boundary cycle, in boundary
    order, of a diagram of type (g;p,q) with these _int_colors: a circular
    half-edge's color is its cycle's position, and every cycle has one."""
    markings = [-1] * (p + q)
    for h, k in enumerate(colors):
        if k < p + q and markings[k] < 0:
            markings[k] = h
    return tuple(markings)


def _form(columns, p: int, q: int, markings) -> ChordDiagram:
    """The canonical form of a diagram of type (g;p,q), from the
    fatgraph._columns of its least word over _int_colors and its markings,
    already relabelled.  Entry l of the word is (next_at_vertex, pairing,
    color) at label l, so the tables are read off the columns, each ghost
    color being at least p+q.  A relabeling keeps every invariant, so the
    form is not validated again."""
    nxt, pairing, colors = columns
    return ChordDiagram(FatGraph(tuple(pairing), tuple(nxt)),
                        _labels(colors, p, q), p, tuple(markings))


def _canonicalize(pairing, nxt, colors, p: int, q: int):
    """The key and least word of the class of the diagram of type (g;p,q)
    with these tables and _int_colors, and its relabeling, from one
    canonical search; markings play no part, and no code is written (_code).

    The least word is the same whichever member of the class is searched,
    so a class is its least word.  The key is the word's bytes: an entry of
    a word on n half-edges is below n * n * (p + 2q), so up to 2^16 it is
    2n bytes of 2-byte entries, past that a tuple; so keys of different edge
    counts never coincide."""
    n_colors = p + 2 * q
    label, word = fg._search(pairing, nxt, colors, n_colors)
    n = len(pairing)
    key = (array("H", word).tobytes() if n * n * n_colors <= 1 << 16
           else tuple(word))
    return key, word, label


def _code(key, p: int, q: int):
    """The code of the class of type (g;p,q) with this key (_canonicalize),
    and its canonical tables: the fatgraph._columns of its least word."""
    columns = fg._columns(key if type(key) is tuple else array("H", key),
                          p + 2 * q)
    return fg._write_code(columns, _palette_text(p, q)), columns


def _least(c: ChordDiagram):
    """_canonicalize of the diagram c: its class's key and least word and
    c's relabeling, from one canonical search."""
    return _canonicalize(c.graph.pairing, c.graph.next_at_vertex,
                         _int_colors(c), c.p, c.q)


def diagram_code(c: ChordDiagram, with_markings: bool = False) -> bytes:
    """Canonical code of the decorated graph.

    Decorations used as colors: the C/G label of each half-edge and the
    position of its boundary cycle in the boundary order (which encodes the
    incoming designation).  Markings are excluded by default, matching the
    reduction of connectivity questions to the unmarked space; the unmarked
    code is written off the least word, and no canonical form is built.
    """
    if with_markings:
        return fg.canonical_code(c.graph, _code_colors(c, True))
    return _code(_least(c)[0], c.p, c.q)[0]


def canonical_form(c: ChordDiagram) -> ChordDiagram:
    """Relabel c by the canonical labeling of its unmarked decorated graph.

    Every diagram in an (unmarked) isomorphism class maps to the same
    pairing, rotation, label tables and boundary order; markings land
    wherever the relabeling sends them.  One canonical search (_least); no
    code is written.
    """
    _key, word, label = _least(c)
    return _form(fg._columns(word, c.p + 2 * c.q), c.p, c.q,
                 [label[m] for m in c.markings])


def canonical_form_with_map(
    c: ChordDiagram,
) -> tuple[ChordDiagram, tuple[int, ...], bytes]:
    """canonical_form plus the relabeling (old half-edge -> new label) and
    the class code, diagram_code(c), all from one canonical search
    (_least)."""
    key, _word, label = _least(c)
    code, columns = _code(key, c.p, c.q)
    return _form(columns, c.p, c.q, [label[m] for m in c.markings]), label, code


# ---------------------------------------------------------------------------
# the canonical base-point diagram
# ---------------------------------------------------------------------------

def canonical_gamma0(g: int, p: int, q: int) -> ChordDiagram:
    """The base-point diagram of type (g; p, q).

    One big incoming circle carries the distinguished vertex v0 (the only
    vertex allowed more than three half-edges); p-1 one-vertex incoming
    circles hang off v0 by single ghost edges; q-1 outgoing boundaries are
    simple three-edge cycles through consecutive chords; genus comes from g
    crossed chord pairs.  The cylinder type (0;1,1) admits no diagram with
    trivalent vertices and is rejected.
    """
    if g < 0 or p < 1 or q < 1:
        raise UnrepresentableType(f"({g};{p},{q}) is not a chord-diagram type")
    if (g, p, q) == (0, 1, 1):
        raise UnrepresentableType(
            "(0;1,1): the cylinder needs a bivalent circle; handled directly "
            "as the identity operation"
        )

    n_chords = (q - 1) + 2 * g          # chords from v0 to the big circle
    counter = itertools.count()

    def half():
        return next(counter)

    pairing: dict[int, int] = {}
    labels: dict[int, str] = {}

    def edge(lbl):
        x, y = half(), half()
        pairing[x], pairing[y] = y, x
        labels[x] = labels[y] = lbl
        return x, y

    # big circle through v0 and one attachment vertex per chord; edge i joins
    # vertex i to vertex i+1, its forward half at i and back half at i+1
    n_big = 1 + n_chords
    fwd, bwd = [], []
    for _ in range(n_big):
        f, b = edge(CIRCULAR)
        fwd.append(f)
        bwd.append(b)

    chord_v0, chord_far = [], []
    for _ in range(n_chords):
        x, y = edge(GHOST)
        chord_v0.append(x)
        chord_far.append(y)

    loops, loop_chord_v0 = [], []
    for _ in range(p - 1):
        lf, lb = edge(CIRCULAR)          # one-vertex circle: a circular loop
        s_w, s_v0 = edge(GHOST)
        loops.append((lf, lb, s_w))
        loop_chord_v0.append(s_v0)

    # circle attachment slots, in circle order after v0:
    #   clean-outgoing chords 1..q-1, then per genus pair the crossed (M, P)
    circle_slots = list(range(q - 1))
    v0_ghosts = chord_v0[: q - 1]
    for j in range(g):
        m_ix = (q - 1) + 2 * j
        p_ix = m_ix + 1
        circle_slots += [m_ix, p_ix]
        v0_ghosts += [chord_v0[p_ix], chord_v0[m_ix]]   # crossed at v0
    v0_ghosts += loop_chord_v0

    vertex_lists = []
    # v0 = circle vertex 0: (back, fwd, ghosts...); edge i-1 arrives at vertex i
    vertex_lists.append([bwd[n_big - 1], fwd[0], *v0_ghosts])
    for i, slot in enumerate(circle_slots, start=1):
        vertex_lists.append([bwd[i - 1], fwd[i], chord_far[slot]])
    for lf, lb, s_w in loops:
        vertex_lists.append([lb, lf, s_w])

    n_half = next(counter)
    pairing_list = [pairing[h] for h in range(n_half)]
    label_list = [labels[h] for h in range(n_half)]
    graph = fg.validate(pairing_list, vertex_lists)

    cycles, cycle_of = fg.boundary_cycles(graph), graph.cycle_of()
    order = [cycle_of[fwd[0]][0]]
    order += [cycle_of[lf][0] for lf, _, _ in loops]
    order += [cycle_of[chord_v0[k]][0] for k in range(q - 1)]
    rest = [cyc[0] for cyc in cycles if cyc[0] not in set(order)]
    if len(rest) != 1 or len(order) + 1 != len(cycles):
        raise ChordLabError(f"base-point construction broke for ({g};{p},{q})")
    order.append(rest[0])

    diagram, top = validate_chord(graph, label_list, p, order)
    if top != TopType(g, p, q):
        raise ChordLabError(
            f"base-point construction produced {top}, wanted ({g};{p},{q})"
        )
    return diagram


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def _rotate_to(seq, x):
    i = seq.index(x)
    return list(seq[i:]) + list(seq[:i])


def glue(c1: ChordDiagram, c2: ChordDiagram, schedule=None) -> ChordDiagram:
    """Glue the outgoing boundaries of c1 to the incoming circles of c2.

    The k-th outgoing cycle of c1 is identified with the k-th incoming circle
    of c2 using the markings; the circular vertices of that circle are planted
    on c1's cycle and every ghost edge and ghost vertex of c2 is imported
    unchanged.  By default all vertices of a circle subdivide the single
    marked circular edge of the matching outgoing cycle, laid out along the
    incoming circle's direction (so the two matched parameterizations run
    opposite ways around the glued curve, as orientations require); the
    result is a diagram of type (g1+g2+q-1; p, r).

    ``schedule``, if given, is one list per outgoing cycle of c1: for each
    circular vertex of c2's matching circle (in circle order from its
    marking) a non-decreasing occurrence index into that cycle's traversal
    from its marking, reversed.  A circular occurrence subdivides that edge;
    a ghost occurrence snaps the vertex onto the ghost edge's source vertex,
    which may fail validation (reported, never repaired).
    """
    q = c1.q
    if q != c2.p:
        raise ArityMismatch(f"c1 has {q} outgoing, c2 has {c2.p} incoming")
    if schedule is not None:
        if not isinstance(schedule, (list, tuple)) or len(schedule) != q:
            raise InvalidSchedule("one position list per outgoing cycle")
        if not all(
            isinstance(row, (list, tuple)) and all(type(x) is int for x in row)
            for row in schedule
        ):
            raise InvalidSchedule("schedule positions must be lists of integers")

    g1 = c1.graph
    g2 = c2.graph
    n1 = g1.n_half_edges

    counter = itertools.count(n1)
    pairing = {h: g1.pairing[h] for h in range(n1)}
    labels = {h: c1.labels[h] for h in range(n1)}

    # mutable rotations, keyed by arbitrary vertex tokens
    rotations: dict[object, list[int]] = {
        ("c1", i): list(orbit) for i, orbit in enumerate(g1.vertices())
    }

    # import c2's ghost half-edges and all-ghost vertices
    ghost_map = {}
    for h in range(g2.n_half_edges):
        if c2.labels[h] == GHOST:
            ghost_map[h] = next(counter)
            labels[ghost_map[h]] = GHOST
    for h, new in ghost_map.items():
        pairing[new] = ghost_map[g2.pairing[h]]
    vertex_of2 = g2.vertex_of()
    for i, orbit in enumerate(g2.vertices()):
        if all(c2.labels[h] == GHOST for h in orbit):
            rotations[("c2", i)] = [ghost_map[h] for h in orbit]

    for k in range(q):
        out_mark = c1.markings[c1.p + k]
        in_mark = c2.markings[k]

        circle = _rotate_to(g2.cycle_of()[in_mark], in_mark)  # c2 circle, forward
        m = len(circle)

        # ghost bundles: rotation at a circle vertex reads (back, fwd,
        # ghosts...), so rotating to start at the forward half exposes the
        # ghosts between it and the closing back half
        bundles = []
        for f_half in circle:
            rot = _rotate_to(g2.vertices()[vertex_of2[f_half]], f_half)
            bundles.append([ghost_map[h] for h in rot[1:-1]])

        # occurrence sequence of the outgoing cycle from its marking,
        # traversed against the boundary orientation (= along the incoming
        # circles of c1)
        out_cycle = _rotate_to(g1.cycle_of()[out_mark], out_mark)
        occurrences = [out_cycle[0]] + list(reversed(out_cycle[1:]))

        if schedule is None:
            positions = [0] * m
        else:
            positions = list(schedule[k])
            if len(positions) != m:
                raise InvalidSchedule(
                    f"cycle {k}: {m} vertices expected, got {len(positions)}"
                )
            if any(
                not (0 <= x < len(occurrences)) for x in positions
            ) or any(a > b for a, b in zip(positions, positions[1:])):
                raise InvalidSchedule(
                    f"cycle {k}: positions must be non-decreasing occurrence "
                    f"indices below {len(occurrences)}"
                )

        groups: dict[int, list[int]] = {}
        for j, pos in enumerate(positions):
            groups.setdefault(pos, []).append(j)

        for pos in sorted(groups):
            js = groups[pos]
            occ = occurrences[pos]
            if labels[occ] == GHOST:
                # snap onto the source vertex of the oriented ghost edge
                target = next(
                    tok for tok, rot in rotations.items() if occ in rot
                )
                rot = rotations[target]
                at = rot.index(occ)
                insert = []
                for j in js:
                    insert.extend(bundles[j])
                rotations[target] = rot[: at + 1] + insert + rot[at + 1:]
                continue

            # subdivide the circular edge of occ: occ points against the
            # incoming direction, pairing(occ) along it
            r = occ
            y = pairing[r]
            chain = []
            for j in js:
                d_half, e_half = next(counter), next(counter)
                labels[d_half] = labels[e_half] = CIRCULAR
                rotations[("new", k, j)] = [d_half, e_half] + bundles[j]
                chain.append((d_half, e_half))
            prev = y
            for d_half, e_half in chain:
                pairing[prev] = d_half
                pairing[d_half] = prev
                prev = e_half
            pairing[prev] = r
            pairing[r] = prev

    # compact to dense arrays
    all_halves = sorted(pairing)
    new_id = {h: i for i, h in enumerate(all_halves)}
    pairing_list = [0] * len(all_halves)
    for h in all_halves:
        pairing_list[new_id[h]] = new_id[pairing[h]]
    label_list = [labels[h] for h in all_halves]
    vertex_lists = [[new_id[h] for h in rot] for rot in rotations.values()]

    try:
        graph = fg.validate(pairing_list, vertex_lists)
    except ChordLabError as exc:
        raise GlueValidationFailed(f"glued graph invalid: {exc}") from exc

    cycle_of = graph.cycle_of()
    marks = [new_id[m] for m in c1.markings[: c1.p]]
    for mark in c2.markings[c2.p:]:
        cyc2 = _rotate_to(g2.cycle_of()[mark], mark)
        anchor = next(ghost_map[h] for h in cyc2 if c2.labels[h] == GHOST)
        cyc = _rotate_to(cycle_of[new_id[anchor]], new_id[anchor])
        marks.append(next(x for x in cyc if label_list[x] == CIRCULAR))
    order = [cycle_of[m][0] for m in marks]

    if len(set(order)) != len(order) or len(order) != len(
        fg.boundary_cycles(graph)
    ):
        raise GlueValidationFailed("boundary cycles of the glued graph do not "
                                   "match the expected incoming/outgoing split")

    try:
        result, top = validate_chord(graph, label_list, c1.p, order, marks)
    except ChordLabError as exc:
        raise GlueValidationFailed(str(exc)) from exc

    t1, t2 = c1.top_type(), c2.top_type()
    expected = TopType(t1.genus + t2.genus + q - 1, t1.p, t2.q)
    if top != expected:
        raise GlueValidationFailed(f"glued type {top}, expected {expected}")
    return result
