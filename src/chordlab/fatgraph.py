"""Combinatorial fat graphs (rotation systems).

A fat graph on half-edges 0..2E-1 is a pair of permutations:

* ``pairing`` -- a fixed-point-free involution whose orbits are the edges;
* ``next_at_vertex`` -- a permutation whose orbits are the vertices, sending
  each half-edge to the next one in the cyclic order at its vertex.

A half-edge h is read as the oriented edge leaving its vertex.  Boundary
cycles are the orbits of the tracing permutation

    t(h) = next_at_vertex(pairing(h))

i.e. cross the edge, then turn to the next slot at the far vertex.  The
opposite composition would reverse every cycle; this convention is fixed
throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    Disconnected,
    FixedPointInPairing,
    InconsistentTables,
    NonIntegerGenus,
    ValenceTooLow,
)

__all__ = [
    "FatGraph",
    "TopType",
    "validate",
    "boundary_cycles",
    "euler_characteristic",
    "topological_type",
    "canonical_code",
    "canonical_labeling",
]


@dataclass(frozen=True)
class TopType:
    """Topological type (g; p, q) of a chord diagram.

    For a plain fat graph only ``g`` and the total boundary count
    ``p + q`` are meaningful.  Each field is a non-negative int, not a
    bool.
    """

    genus: int
    p: int
    q: int

    def __post_init__(self):
        if not all(type(x) is int and x >= 0
                   for x in (self.genus, self.p, self.q)):
            raise ValueError("genus, p and q must be non-negative ints, "
                             f"got {self.genus!r}, {self.p!r}, {self.q!r}")

    def __str__(self) -> str:
        return f"({self.genus};{self.p},{self.q})"


@dataclass(frozen=True)
class FatGraph:
    """Immutable rotation system.  Use :func:`validate` to build one safely."""

    pairing: tuple[int, ...]
    next_at_vertex: tuple[int, ...]

    @property
    def n_half_edges(self) -> int:
        return len(self.pairing)

    @property
    def n_edges(self) -> int:
        return len(self.pairing) // 2

    # Each structural table is derived once per graph, on first use.  The
    # cached values live in the instance dict, outside the dataclass fields,
    # so equality and hashing still see only the two permutations.

    @cached_property
    def _vertex_table(self):
        return _orbits(self.next_at_vertex)

    @cached_property
    def _cycle_table(self):
        nxt, pairing = self.next_at_vertex, self.pairing
        orbits, index = _orbits(tuple(nxt[pairing[h]] for h in range(len(pairing))))
        return orbits, tuple(orbits[i] for i in index)

    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of next_at_vertex, each starting at its least half-edge,
        listed in order of that least element."""
        return self._vertex_table[0]

    @property
    def n_vertices(self) -> int:
        return len(self._vertex_table[0])

    def vertex_of(self) -> tuple[int, ...]:
        """Map from half-edge to the index of its vertex in vertices()."""
        return self._vertex_table[1]

    def cycle_of(self) -> tuple[tuple[int, ...], ...]:
        """Map from half-edge to its boundary cycle (as in boundary_cycles),
        so cycle_of()[h][0] is the least half-edge of h's cycle."""
        return self._cycle_table[1]

    def edge_of(self, h: int) -> int:
        """Canonical id of the edge through h: the smaller half-edge."""
        return min(h, self.pairing[h])

    def edges(self) -> list[int]:
        return sorted(h for h in range(self.n_half_edges) if h < self.pairing[h])


def _orbits(perm: Sequence[int]):
    """The orbits of perm, each from its least element, in order of that
    element; and the index of each element's orbit."""
    index = [-1] * len(perm)
    out = []
    for start in range(len(perm)):
        if index[start] >= 0:
            continue
        orbit = []
        h = start
        while index[h] < 0:
            index[h] = len(out)
            orbit.append(h)
            h = perm[h]
        out.append(tuple(orbit))
    return tuple(out), tuple(index)


def _is_connected(pairing: Sequence[int], nxt: Sequence[int]) -> bool:
    n = len(pairing)
    if n == 0:
        return True
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        h = stack.pop()
        for k in (pairing[h], nxt[h]):
            if not seen[k]:
                seen[k] = True
                count += 1
                stack.append(k)
    return count == n


def _check(pairing: Sequence[int], nxt: Sequence[int]):
    """Refuse tables that are not a fat graph: an odd number of half-edges,
    an entry that is not an int (a bool included), a rotation nxt that is
    not a permutation of them, a pairing that is not a fixed-point-free
    involution of them, a vertex of valence < 3, or a disconnected graph.
    The one check of a rotation system: validate runs it on the rotation
    its vertex lists make, chord.validate_chord on a diagram's graph's
    tables and chord.glue on its flat tables, all three through _checked.
    Returns the rotation's _orbits, which its valence check derives."""
    n = len(pairing)
    if n % 2:
        raise InconsistentTables("odd number of half-edges")
    for h in (*pairing, *nxt):
        _check_id(h)
    if len(nxt) != n or set(nxt) != set(range(n)):
        raise InconsistentTables("next_at_vertex is not a permutation of "
                                 "the half-edges")
    for h, k in enumerate(pairing):
        if k not in range(n):
            raise InconsistentTables(f"pairing({h}) = {k} out of range")
        if k == h:
            raise FixedPointInPairing(f"pairing fixes half-edge {h}")
        if pairing[k] != h:
            raise InconsistentTables(f"pairing is not an involution at {h}")
    orbits = _orbits(nxt)
    low = next((orbit for orbit in orbits[0] if len(orbit) < 3), None)
    if low is not None:
        raise ValenceTooLow(f"vertex {low} has valence {len(low)}")
    if not _is_connected(pairing, nxt):
        raise Disconnected("fat graph is not connected")
    return orbits


def _check_id(h) -> None:
    """Refuse a half-edge id that is not an int, a bool included: a float
    passes range and set tests but indexes no table."""
    if type(h) is not int:
        raise InconsistentTables(f"half-edge id {h!r} is not an int")


def validate(
    pairing: Sequence[int], vertex_lists: Iterable[Sequence[int]]
) -> FatGraph:
    """Build a FatGraph from a pairing table and vertex cyclic lists.

    ``vertex_lists`` gives, for each vertex, its half-edges in cyclic order.
    Raises a structured error if a half-edge is not an int, repeated, out
    of range or in no list, or if the tables fail _check: the pairing is
    not a fixed-point-free involution, a vertex has valence < 3, or the
    graph is disconnected.  An empty list is a vertex of valence 0.
    """
    pairing = tuple(pairing)
    n = len(pairing)
    seen = [False] * n
    nxt = [-1] * n
    for cyc in vertex_lists:
        if not cyc:
            raise ValenceTooLow("vertex () has valence 0")
        for h in cyc:
            _check_id(h)
            if not (0 <= h < n) or seen[h]:
                raise InconsistentTables(f"half-edge {h} repeated or out of range")
            seen[h] = True
        for i, h in enumerate(cyc):
            nxt[cyc[i - 1]] = h
    if not all(seen):
        raise InconsistentTables("some half-edges appear in no vertex")
    return _checked(pairing, nxt)


def _checked(pairing: Sequence[int], nxt: Sequence[int]) -> FatGraph:
    """The FatGraph of tables that pass _check, holding the vertex orbits
    _check derived as its vertex table, so they are derived once."""
    orbits = _check(pairing, nxt)
    graph = FatGraph(pairing=tuple(pairing), next_at_vertex=tuple(nxt))
    graph.__dict__["_vertex_table"] = orbits   # the cached_property's slot
    return graph


def boundary_cycles(graph: FatGraph) -> tuple[tuple[int, ...], ...]:
    """The orbits of t(h) = next_at_vertex(pairing(h)).

    Each cycle is rotated to start at its least half-edge; cycles are listed
    in order of that least element.  Every half-edge occurs exactly once in
    exactly one cycle.
    """
    return graph._cycle_table[0]


def euler_characteristic(graph: FatGraph) -> int:
    """chi = V - E."""
    return graph.n_vertices - graph.n_edges


def topological_type(graph: FatGraph) -> tuple[int, int]:
    """Genus and boundary count of the thickened surface: 2 - 2g - n = V - E."""
    n = len(boundary_cycles(graph))
    chi = euler_characteristic(graph)
    if (2 - chi - n) % 2:
        raise NonIntegerGenus(f"chi={chi}, n={n}")
    g = (2 - chi - n) // 2
    if g < 0:
        raise NonIntegerGenus(f"negative genus from chi={chi}, n={n}")
    return g, n


def _first_entries(pairing, nxt, color, n_colors, half_edges):
    """The rank of word entry 0 of _search for each start in half_edges:
    entry 0 depends on the start s alone (the pairing has no fixed point),
    and is (0, 1, c) if nxt[s] == s, (1, 1, c) if pairing[s] == nxt[s] and
    (1, 2, c) otherwise, c being s's color.  Ranks are ordered as those
    triples, whatever the number of half-edges."""
    return [n_colors + color[s] if nxt[s] == s else
            (4 if pairing[s] == nxt[s] else 5) * n_colors + color[s]
            for s in half_edges]


def _search(pairing, nxt, color, n_colors, step_counter=None, live=None,
            starts=None):
    """The canonical search, Weinberg's per-dart search over integer colors:
    for every starting half-edge, relabel by breadth-first traversal along
    nxt and pairing.  Returns the first labeling (old half-edge -> new
    label) whose word is least, and that word; both are None for the empty
    graph.  Each color is an int in range(n_colors).

    Word entry i, for the half-edge h labelled i, is the int
    (label[nxt[h]] * n + label[pairing[h]]) * n_colors + color[h]; its three
    parts are below n, n and n_colors, so ints order words as the triples
    would.  A start whose entry 0 (_first_entries) is above the least one
    is never run.  Every other start is compared with the best word entry
    by entry: it is dropped at its first larger entry, and after its first
    smaller one it is the new best.  The first start that is run always
    runs to the end, which checks connectivity.

    By default the graph is every half-edge of the tables.  A caller that
    edits tables in place (moves._neighbors) passes live, the number of
    half-edges the traversal reaches, n above, and starts, the half-edges
    of least entry 0 among them, in increasing order; ids outside the
    graph are left unlabelled (-1), so the labeling is indexed by the
    tables' ids, and no half-edge outside starts is scanned."""
    n = len(pairing) if live is None else live
    if n == 0:
        return None, None
    step = n * n_colors  # the weight of label[nxt[h]]
    if starts is None:
        first = _first_entries(pairing, nxt, color, n_colors, range(n))
        least = min(first)
        starts = [s for s in range(n) if first[s] == least]

    best = best_label = None  # best: the least word, one entry per label
    for start in starts:
        label = [-1] * len(pairing)
        order = [start]
        label[start] = 0
        word = []
        tied = best is not None  # equal to best on every entry so far
        head = 0
        for h in order:
            k = nxt[h]
            if label[k] < 0:
                label[k] = len(order)
                order.append(k)
            j = pairing[h]
            if label[j] < 0:
                label[j] = len(order)
                order.append(j)
            entry = label[k] * step + label[j] * n_colors + color[h]
            if tied:
                b = best[head]
                if entry != b:
                    if entry > b:
                        break
                    tied = False
            word.append(entry)
            head += 1
        if step_counter is not None:
            step_counter[0] += len(order)
        if head < n:
            if best is None:
                raise Disconnected("canonical code requires a connected graph")
            continue
        if not tied:
            best = word
            best_label = tuple(label)
    return best_label, best


def _spells(pairing, nxt, color, n_colors, start, word) -> bool:
    """Whether the traversal _search runs from start, on the graph with
    these tables and colors in range(n_colors), spells word entry by entry:
    one traversal, no search.  A graph that spells a word is relabelled by
    that traversal onto the word's _columns; so if word is a least word of
    _search, the graph lies in that word's class, whatever the start, and a
    wrong start can only fail.  A start that is not a half-edge, a word of
    another length, or a traversal that leaves the word or does not reach
    every half-edge, fails."""
    n = len(pairing)
    if len(word) != n or start not in range(n):
        return False
    step = n * n_colors
    label = [-1] * n
    label[start] = 0
    order = [start]
    for h, entry in zip(order, word):
        k = nxt[h]
        if label[k] < 0:
            label[k] = len(order)
            order.append(k)
        j = pairing[h]
        if label[j] < 0:
            label[j] = len(order)
            order.append(j)
        if label[k] * step + label[j] * n_colors + color[h] != entry:
            return False
    return len(order) == n


def _columns(word, n_colors):
    """The three parts of every entry of a nonempty word of _search, as
    three lists indexed by label: the label of nxt, the label of pairing
    and the color."""
    n = len(word)
    step = n * n_colors
    return ([e // step for e in word], [e // n_colors % n for e in word],
            [e % n_colors for e in word])


def _canonical_search(graph, colors, step_counter=None):
    """_search for arbitrary colors (None: no colors), each ranked in their
    sorted palette.  Returns the labeling, the least word as (label of nxt,
    label of pairing, color rank) triples (None for the empty graph) and
    the palette."""
    n = graph.n_half_edges
    palette, color = [], (0,) * n
    if colors is not None:
        if len(colors) != n:
            raise ValueError("one color per half-edge expected")
        palette = sorted(set(colors))
        index = {c: i for i, c in enumerate(palette)}
        color = tuple(map(index.__getitem__, colors))
    n_colors = len(palette) or 1
    label, word = _search(graph.pairing, graph.next_at_vertex, color,
                          n_colors, step_counter)
    if word is not None:
        word = list(zip(*_columns(word, n_colors)))
    return label, word, palette


def _write_code(columns, palette_repr) -> bytes:
    """The code bytes of a nonempty least word, from its _columns: its
    length, palette_repr (the repr of the tuple of its palette's reprs) and
    its entries flattened.  Without colors the color column is left out,
    so columns are two."""
    k, n = len(columns), len(columns[0])
    flat = [0] * (k * n)
    for i, column in enumerate(columns):
        flat[i::k] = column
    return f"({n}, {palette_repr}, {tuple(flat)!r})".encode("ascii")


def _code_columns(code: bytes):
    """The three _columns of the least word a code with colors was written
    from (_write_code): its entries, flattened, are the ints after the
    code's last parenthesis, the palette's text coming before it."""
    flat = [int(e) for e in code[code.rindex(b"(") + 1:-2].split(b",")]
    return flat[0::3], flat[1::3], flat[2::3]


def canonical_code(
    graph: FatGraph,
    colors: Sequence[object] | None = None,
    _step_counter: list[int] | None = None,
) -> bytes:
    """Relabeling-invariant code; equal codes iff isomorphic fat graphs.

    The code is the least word of the canonical search, flattened, with the
    sorted colors its entries index (colors act as decoration tie-breaks).
    The search relabels by breadth-first traversal from each starting
    half-edge whose first word entry, read off the half-edge alone, is
    least, and drops a start at its first entry above the least word so
    far.  The same search yields canonical_labeling, and
    chord._code reads a diagram's canonical tables off its word.
    The graph must be connected.  ``_step_counter`` accumulates the
    half-edges labelled, including the partial traversals of dropped starts,
    for complexity tests; a start passed over for its first entry labels
    none.
    """
    _label, word, palette = _canonical_search(graph, colors, _step_counter)
    if word is None:
        return b"(0, (), None)"
    columns = tuple(zip(*word))
    return _write_code(columns if palette else columns[:2],
                       repr(tuple(repr(c) for c in palette)))


def canonical_labeling(
    graph: FatGraph, colors: Sequence[object] | None = None
) -> tuple[int, ...]:
    """A relabeling (old half-edge -> new label) achieving the canonical code.

    Relabeling any graph by its canonical labeling yields identical pairing
    and next_at_vertex tables (and colors) for every member of its
    isomorphism class.
    """
    return _canonical_search(graph, colors)[0]
