"""Chord diagrams: validation, ghost collapse, moves, base points, gluing."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chordlab import chord as ch
from chordlab import fatgraph as fg
from chordlab import formats, generate, moves
from chordlab.chord import CIRCULAR, GHOST, ChordDiagram
from chordlab.errors import (
    BadMarking,
    ChordLabError,
    CircleNotDisjoint,
    Disconnected,
    EssentialEdge,
    FixedPointInPairing,
    GhostCycle,
    GlueValidationFailed,
    IncomingNotBoundaryCycle,
    InconsistentTables,
    InvalidSchedule,
    LoopEdge,
    UnrepresentableType,
    ValenceTooLow,
)
from chordlab.fatgraph import FatGraph, TopType

from helpers import essential_either_end, expansions


def single_chord_diagram():
    """One circle with two vertices joined by one chord: type (0;1,2)."""
    return ch.canonical_gamma0(0, 1, 2)


def labelled_edges(d, label):
    """The edges of d with this C/G label, each as its smaller half-edge."""
    return [e for e in d.graph.edges() if d.labels[e] == label]


CONNECT_TYPES = [(0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 1, 1), (1, 1, 2)]
SMALL_TYPES = [
    (g, p, q)
    for g in range(3)
    for p in range(1, 4)
    for q in range(1, 4)
    if (g, p, q) != (0, 1, 1)
]


# tables that are not a fat graph, as validate_chord's arguments and the
# error and message it raises
BAD_FAT_GRAPHS = [
    # one circular loop at a vertex of valence 2: both sides are
    # all-circular cycles, and designating one of them once made a diagram
    # of the unrepresentable type (0;1,1)
    (FatGraph((1, 0), (1, 0)), "CC", 1, (0, 1), ValenceTooLow,
     r"vertex \(0, 1\) has valence 2"),
    # two disjoint copies of the one-chord (0;1,2), one circle incoming
    # from each
    (FatGraph((1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10),
              (4, 2, 5, 0, 3, 1, 10, 8, 11, 6, 9, 7)),
     "CCCCGG" * 2, 2, (0, 6, 1, 3, 7, 9), Disconnected, "not connected"),
    (FatGraph((0, 1), (1, 0)), "CC", 1, (0, 1), FixedPointInPairing,
     "fixes half-edge 0"),
    (FatGraph((1, 2, 0), (1, 2, 0)), "CCC", 1, (0,), InconsistentTables,
     "odd number of half-edges"),
    (FatGraph((1, 0), (0, 0)), "CC", 1, (0, 1), InconsistentTables,
     "next_at_vertex is not a permutation"),
]


class TestValidateChord:
    def test_gamma0_types(self):
        d = ch.canonical_gamma0(1, 1, 2)
        assert d.top_type() == TopType(1, 1, 2)

    def test_ghost_triangle_rejected(self):
        # three circles, each with one vertex, chords forming a triangle
        # between the three circle vertices: the ghost subgraph has a cycle
        pairing = {}
        labels = {}
        vertex_lists = []
        counter = iter(range(100))

        def edge(lbl):
            x, y = next(counter), next(counter)
            pairing[x], pairing[y] = y, x
            labels[x] = labels[y] = lbl
            return x, y

        loops = [edge(CIRCULAR) for _ in range(3)]
        tri = [edge(GHOST) for _ in range(3)]
        for i, (lf, lb) in enumerate(loops):
            a = tri[i][0]
            b = tri[(i - 1) % 3][1]
            vertex_lists.append([lb, lf, a, b])
        n = 2 * 6
        graph = fg.validate([pairing[h] for h in range(n)], vertex_lists)
        with pytest.raises(GhostCycle):
            reps = [cyc[0] for cyc in fg.boundary_cycles(graph)]
            ch.validate_chord(graph, [labels[h] for h in range(n)], 3, reps)

    def test_diagram_keeps_no_tables(self):
        # the moves and invariants derive a diagram's tables afresh and
        # keep none on it: after them it holds its fields and, once read,
        # its boundary order, and nothing else
        base = generate.random_diagram(random.Random(3), 1, 1, 2, steps=3)
        d, _ = ch.validate_chord(
            base.graph, base.labels, base.p, base.boundary_order, base.markings)
        fields = {field.name for field in dataclasses.fields(d)}
        assert set(vars(d)) == fields
        for e in d.graph.edges():
            ch.is_essential(d, e)
        ch.multiplicities(d)
        ch.chi_defect(d)
        edge = next(e for e in d.graph.edges() if not ch.is_essential(d, e))
        moves.apply_move(d, ("collapse", edge))
        moves.apply_move(d, ("expand", *next(ch._splits(d.graph.vertices()))))
        assert set(vars(d)) <= fields | {"boundary_order"}

    def test_incoming_must_be_circular_cycle(self):
        d = single_chord_diagram()
        # designate an outgoing cycle (which traverses the chord) as incoming
        bad_order = (d.boundary_order[1], d.boundary_order[0], d.boundary_order[2])
        with pytest.raises(IncomingNotBoundaryCycle):
            ch.validate_chord(d.graph, d.labels, 1, bad_order)

    def test_vertex_orbits_derived_once_on_a_fresh_graph(self, monkeypatch):
        # on a FatGraph the caller built, validate_chord derives the
        # rotation's orbits once, in the valence check, and the graph keeps
        # them as its vertex table; the boundary cycles' orbits are the
        # other call, as in parse_chord
        base = ch.canonical_gamma0(1, 1, 2)
        text = formats.serialize_chord(base)
        orbits, calls = fg._orbits, []

        def counted(perm):
            calls.append(None)
            return orbits(perm)

        monkeypatch.setattr(fg, "_orbits", counted)
        graph = FatGraph(base.graph.pairing, base.graph.next_at_vertex)
        d, top = ch.validate_chord(graph, base.labels, base.p,
                                   base.boundary_order, base.markings)
        assert len(calls) == 2
        del calls[:]
        assert formats.parse_chord(text) == d
        assert len(calls) == 2
        monkeypatch.undo()
        assert (d, top) == (base, TopType(1, 1, 2))
        assert d.graph.vertices() == FatGraph(
            graph.pairing, graph.next_at_vertex).vertices()


    @pytest.mark.parametrize("labels,message", [
        ("CCCCG", "one C/G entry per half-edge"),
        ("CCCCXX", "one C/G entry per half-edge"),
        ("CCCCGC", "edge of half-edge 4 has mixed labels"),
    ])
    def test_labels_refused(self, labels, message):
        # a chord file labels whole edges with C or G, so only a direct
        # call can give a wrong count, another letter or mixed halves
        d = single_chord_diagram()
        with pytest.raises(InconsistentTables, match=message):
            ch.validate_chord(d.graph, labels, 1, d.boundary_order)

    def test_marking_count_refused(self):
        # a chord file needs one mark per cycle of its order
        d = single_chord_diagram()
        with pytest.raises(BadMarking, match="one marking per boundary cycle"):
            ch.validate_chord(d.graph, d.labels, 1, d.boundary_order,
                              d.markings[:-1])

    def test_circle_covered_twice_refused(self):
        # one circular loop at a vertex of valence 2: both of its sides are
        # all-circular cycles, so designating both covers the loop twice.
        # At valence >= 3 no edge has both halves on all-circular cycles,
        # so the valence check is what refuses it
        graph = FatGraph((1, 0), (1, 0))
        with pytest.raises(ValenceTooLow,
                           match=r"vertex \(0, 1\) has valence 2"):
            ch.validate_chord(graph, "CC", 2, (0, 1))

    def test_all_ghost_cycle_refused(self):
        # a ghost edge between two vertices of valence 1, beside a circular
        # loop: its side is an all-ghost cycle.  A ghost forest in a graph
        # of valence >= 2 has no all-ghost cycle, since a closed walk in a
        # forest turns back at some vertex of valence 1, so the valence
        # check is what refuses it
        graph = FatGraph((1, 0, 3, 2), (1, 0, 2, 3))
        with pytest.raises(ValenceTooLow,
                           match=r"vertex \(0, 1\) has valence 2"):
            ch.validate_chord(graph, "CCGG", 1, (0, 1, 2))

    @pytest.mark.parametrize("graph,labels,p,order,error,message",
                             BAD_FAT_GRAPHS)
    def test_fat_graph_invariants_refused(self, graph, labels, p, order,
                                          error, message):
        # a FatGraph is built unchecked, so validate_chord refuses what
        # fatgraph.validate refuses
        with pytest.raises(error, match=message):
            ch.validate_chord(graph, labels, p, order)

    # vertex lists always make a permutation, so the last table, whose
    # rotation is not one, has no vertex lists to pass
    @pytest.mark.parametrize("graph,labels,p,order,error,message",
                             BAD_FAT_GRAPHS[:-1])
    def test_fat_graph_refused_alike_by_both_validators(
            self, graph, labels, p, order, error, message):
        # both run fatgraph._check, so a table is refused as a diagram and
        # as a fat graph, its orbits as vertex lists, with one class and
        # one message
        with pytest.raises(error, match=message) as as_diagram:
            ch.validate_chord(graph, labels, p, order)
        with pytest.raises(error) as as_graph:
            fg.validate(graph.pairing, fg._orbits(graph.next_at_vertex)[0])
        assert str(as_graph.value) == str(as_diagram.value)

    @pytest.mark.parametrize("graph,bad", [
        (FatGraph((1.0, 0), (1, 0)), "1.0"),
        (FatGraph((1, 0), (True, 0)), "True"),
    ])
    def test_half_edge_that_is_not_an_int_refused(self, graph, bad):
        # a FatGraph is built unchecked: a float id once indexed a table
        # and crashed with a TypeError, and a bool passed as 0 or 1
        with pytest.raises(InconsistentTables,
                           match=f"half-edge id {bad} is not an int"):
            ch.validate_chord(graph, "CC", 1, (0, 1))

    @pytest.mark.parametrize("change,name", [
        ({"boundary_order": (0.0, 1.0, 3.0)}, "boundary_order"),
        ({"p": 1.0}, "p"),
        ({"p": True}, "p"),
        ({"boundary_order": (False, True, 3)}, "boundary_order"),
        ({"markings": (0.0, 1, 2)}, "marking"),
    ], ids=["float-order", "float-p", "bool-p", "bool-order", "float-marking"])
    def test_argument_that_is_not_an_int_refused(self, change, name):
        # a float once indexed a table or sliced the order and crashed
        # with a TypeError, p=True reached TopType's own check, and bools
        # in the order passed as 0 and 1
        d = ch.canonical_gamma0(0, 1, 2)
        args = {"p": d.p, "boundary_order": d.boundary_order,
                "markings": None, **change}
        with pytest.raises(ChordLabError, match=f"{name} must be an int"):
            ch.validate_chord(d.graph, d.labels, **args)

    @pytest.mark.parametrize("graph,labels,count", [
        # the one-chord (0;1,2)'s graph with its chord made circular: a
        # theta of circular edges, each end carrying three
        (FatGraph((1, 0, 3, 2, 5, 4), (4, 2, 5, 0, 3, 1)), "CCCCCC", 3),
        # the same with a circle edge made ghost: a circular path, whose
        # ends carry one
        (FatGraph((1, 0, 3, 2, 5, 4), (4, 2, 5, 0, 3, 1)), "GGCCGG", 1),
        # two circular loops at one vertex of valence 4
        (fg.validate((1, 0, 3, 2), [(0, 1, 2, 3)]), "CCCC", 4),
    ])
    def test_circular_subgraph_not_circles_refused(self, graph, labels,
                                                   count):
        # the per-vertex count refuses a circular subgraph that is not a
        # union of circles, in a graph fatgraph.validate accepts
        with pytest.raises(CircleNotDisjoint,
                           match=f"has {count} circular half-edges"):
            ch.validate_chord(graph, labels, 1,
                              [cyc[0] for cyc in fg.boundary_cycles(graph)])


class TestBasePoint:
    # every type whose base point tier-1 builds: criterion 3's grid, which
    # holds every small type, and the larger genera (6;1,1) and (33;1,1)
    TYPES = [(g, p, q) for g in range(4) for p in range(1, 5)
             for q in range(1, 5) if (g, p, q) != (0, 1, 1)]
    TYPES += [(6, 1, 1), (33, 1, 1)]

    def test_memo_equals_a_fresh_build(self):
        for top in self.TYPES:
            d = ch.canonical_gamma0(*top)
            assert d is ch.canonical_gamma0(*top)
            assert d == ch.canonical_gamma0.__wrapped__(*top)
            assert d.top_type() == TopType(*top)

    @pytest.mark.parametrize("args", [
        (True, 1, 2), (1, True, 2), (1, 1, True), (1.0, 1, 2), ("1", 1, 2),
        (1, 1, 2.0)])
    def test_not_an_int_refused_after_its_value_is_memoised(self, args):
        ch.canonical_gamma0(1, 1, 2)
        with pytest.raises(ChordLabError, match="must be an int"):
            ch.canonical_gamma0(*args)

    @pytest.mark.parametrize("top", [(256, 1, 1), (1, 1, 511)])
    def test_over_the_edge_budget_refused_before_building(self, monkeypatch,
                                                         top):
        # (256;1,1) and (1;1,511) have 1025 edges, one past the budget;
        # nothing is built, so fatgraph.validate is never reached
        def built(*args):
            raise AssertionError("the base point was built")

        monkeypatch.setattr(fg, "validate", built)
        with pytest.raises(ChordLabError,
                           match="GAMMA0_EDGE_BUDGET = 1024"):
            ch.canonical_gamma0(*top)

    def test_the_largest_base_point_within_the_budget_builds(self):
        # (255;1,2) has 1023 edges, the most a type within 1024 can have;
        # built unmemoised
        d = ch.canonical_gamma0.__wrapped__(255, 1, 2)
        assert d.graph.n_edges == 1023 <= ch.GAMMA0_EDGE_BUDGET
        assert d.top_type() == TopType(255, 1, 2)


class TestLeastWord:
    def test_one_search_per_diagram(self, monkeypatch):
        # path_to_canonical, canonical_form, canonical_form_with_map and
        # the unmarked diagram_code share the diagram's one canonical search
        search, searched = fg._search, []

        def recording(pairing, nxt, *args):
            if pairing is d.graph.pairing:
                searched.append(nxt)
            return search(pairing, nxt, *args)

        monkeypatch.setattr(fg, "_search", recording)
        d = generate.random_diagram(random.Random(4), 1, 1, 2, steps=6)
        moves.path_to_canonical(d)
        form = ch.canonical_form(d)
        code = ch.diagram_code(d)
        assert ch.canonical_form_with_map(d)[::2] == (form, code)
        assert searched == [d.graph.next_at_vertex]

    def test_least_word_is_immutable(self):
        d = generate.random_diagram(random.Random(4), 2, 1, 1, steps=6)
        key, word, label = d._canonical
        assert d._canonical is d._canonical
        assert type(key) is bytes
        assert type(word) is tuple and type(label) is tuple
        assert tuple(ch._word(key)) == word
        with pytest.raises(TypeError):
            word[0] = 0
        with pytest.raises(TypeError):
            label[0] = 0


class TestCollapseGhosts:
    def test_no_ghosts_identity_on_circles(self):
        # a diagram with no ghosts fails the valence-3 rule, so check the
        # bijection on gamma0 instead: circular edges <-> edges of S(c)
        d = ch.canonical_gamma0(0, 2, 2)
        collapsed = ch.collapse_ghosts(d)
        assert collapsed.s_graph.n_edges == len(labelled_edges(d, CIRCULAR))

    def test_single_chord_collapses_to_two_loop_rose(self):
        d = single_chord_diagram()
        s = ch.collapse_ghosts(d).s_graph
        assert s.n_vertices == 1
        assert s.n_edges == 2

    def test_gamma0_012_has_pq_cycles_after_collapse(self):
        d = ch.canonical_gamma0(0, 1, 2)
        s = ch.collapse_ghosts(d).s_graph
        assert len(fg.boundary_cycles(s)) == 3

    def test_boundary_correspondence(self):
        rng = random.Random(2)
        for _ in range(25):
            g, p, q = SMALL_TYPES[rng.randrange(len(SMALL_TYPES))]
            d = generate.random_diagram(rng, g, p, q)
            collapsed = ch.collapse_ghosts(d)
            s_cycles = fg.boundary_cycles(collapsed.s_graph)
            assert len(s_cycles) == p + q
            # each cycle of S(c) is the ghost-erasure of the matching cycle
            erased = sorted(
                tuple(_rotate_min([collapsed.half_edge_map[h] for h in cyc
                                   if d.labels[h] == CIRCULAR]))
                for cyc in fg.boundary_cycles(d.graph)
            )
            assert erased == sorted(tuple(cyc) for cyc in s_cycles)

    def test_projection_onto(self):
        d = ch.canonical_gamma0(1, 2, 1)
        collapsed = ch.collapse_ghosts(d)
        assert set(collapsed.projection) == set(
            range(max(collapsed.projection) + 1))


    def test_projection_follows_s_graph_vertices(self):
        # c's vertex (0, 3, 5) has its circular half-edges 0, 3 and 5 in the
        # second vertex of S(c), so its projection is 1 (not 0, its
        # component's rank in c's vertex order)
        d = formats.parse_chord(PROJECTION_CASE)
        collapsed = ch.collapse_ghosts(d)
        v = d.graph.vertices().index((0, 3, 5))
        assert collapsed.projection[v] == 1
        _check_projection(d)

    @pytest.mark.parametrize("g,p,q", [
        (0, 1, 2), (0, 2, 1), (0, 2, 2), (0, 1, 3), (0, 3, 1), (1, 1, 1),
        (1, 1, 2), (1, 2, 1), (0, 3, 2), (0, 2, 3),
    ])
    def test_projection_under_relabeling(self, g, p, q):
        rng = random.Random(10 * g + 100 * p + q)
        for _ in range(60):
            d = generate.random_diagram(rng, g, p, q, steps=6)
            perm = list(range(d.graph.n_half_edges))
            rng.shuffle(perm)
            _check_projection(_relabel_diagram(d, perm))


PROJECTION_CASE = """chord v1
pair 0 1
pair 2 9
pair 3 4
pair 5 7
pair 6 8
pair 10 11
vertex 0 3 5
vertex 1 11 10
vertex 2 4 8
vertex 6 7 9
edge 0 G
edge 2 C
edge 3 C
edge 5 C
edge 6 G
edge 10 C
incoming 2
order 4 10 2 0
mark 4 9
mark 10 10
mark 2 2
mark 0 7
"""


def _check_projection(d):
    """projection and multiplicities read against S(c).vertices() directly."""
    collapsed = ch.collapse_ghosts(d)
    s_vertex_of = collapsed.s_graph.vertex_of()
    vertex_of = d.graph.vertex_of()
    counts = [set() for _ in collapsed.s_graph.vertices()]
    for h in range(d.graph.n_half_edges):
        if d.labels[h] == CIRCULAR:
            s_v = s_vertex_of[collapsed.half_edge_map[h]]
            assert collapsed.projection[vertex_of[h]] == s_v
            counts[s_v].add(vertex_of[h])
    assert ch.multiplicities(d) == [len(vs) for vs in counts]


def _rotate_min(seq):
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


class TestMultiplicity:
    def test_single_chord_multiplicity_two(self):
        d = single_chord_diagram()
        assert ch.multiplicities(d) == [2]

    def test_gamma0_base_vertex_multiplicity(self):
        for g, p, q in [(0, 2, 2), (1, 1, 2), (1, 3, 1)]:
            d = ch.canonical_gamma0(g, p, q)
            n_attach = (q - 1) + 2 * g
            assert max(ch.multiplicities(d)) == 1 + (p - 1) + n_attach

    def test_sum_of_multiplicities_is_circular_vertex_count(self):
        rng = random.Random(3)
        for _ in range(20):
            g, p, q = SMALL_TYPES[rng.randrange(len(SMALL_TYPES))]
            d = generate.random_diagram(rng, g, p, q)
            n_circ = sum(
                1 for orbit in d.graph.vertices()
                if any(d.labels[h] == CIRCULAR for h in orbit)
            )
            assert sum(ch.multiplicities(d)) == n_circ


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_chi_identity(seed):
    rng = random.Random(seed)
    g, p, q = SMALL_TYPES[rng.randrange(len(SMALL_TYPES))]
    d = generate.random_diagram(rng, g, p, q)
    assert ch.chi_defect(d) == -fg.euler_characteristic(d.graph)


class TestEssentialEdges:
    def test_chord_between_circular_vertices_is_essential(self):
        d = single_chord_diagram()
        (chord,) = labelled_edges(d, GHOST)
        assert ch.is_essential(d, chord)

    def test_circular_edge_between_ghost_trees(self):
        # expanding gamma0(0,2,2) can create circular edges joining distinct
        # ghost components; those must be collapsible, and circular edges
        # within one component must not be
        d = ch.canonical_gamma0(0, 2, 2)
        comp = ch._ghost_components(d.graph, d.labels)
        vertex_of = d.graph.vertex_of()
        for e in labelled_edges(d, CIRCULAR):
            va, vb = vertex_of[e], vertex_of[d.graph.pairing[e]]
            if va == vb:
                assert ch.is_essential(d, e)
            else:
                assert ch.is_essential(d, e) == (comp[va] == comp[vb])

    def test_collapse_refuses_essential_and_loops(self):
        d = single_chord_diagram()
        (chord,) = labelled_edges(d, GHOST)
        with pytest.raises(EssentialEdge):
            ch.collapse_edge(d, chord)
        loop_diagram = ch.canonical_gamma0(0, 2, 1)
        loop_edge = next(
            e for e in labelled_edges(loop_diagram, CIRCULAR)
            if loop_diagram.graph.vertex_of()[e]
            == loop_diagram.graph.vertex_of()[loop_diagram.graph.pairing[e]]
        )
        with pytest.raises(LoopEdge):
            ch.collapse_edge(loop_diagram, loop_edge)

    @staticmethod
    def _lemma_breaches(census):
        """The (type, code, edges) of every class of the census types,
        each (g, p, q) at its bound, that breaks either direction of the
        bottom-layer lemma (chord._essential): no collapsible edge exactly
        at E_min = 4g+2p+2q-3 edges."""
        breaches, classes = [], 0
        for (g, p, q), bound in census:
            e_min = 4 * g + 2 * p + 2 * q - 3
            for code, columns, _markings in generate._classes(
                    TopType(g, p, q), bound):
                t = ch._tables(*columns, p, q)
                edges = len(t.pairing) // 2
                classes += 1
                if any(ch._collapsible_edges(t)) == (edges == e_min):
                    breaches.append(((g, p, q), code, edges))
        return breaches, classes

    _CENSUS = [((0, 1, 3), 6), ((1, 1, 1), 6), ((1, 1, 2), 9),
               ((0, 3, 2), 9), ((2, 1, 1), 12)]

    def test_bottom_layer_lemma(self, monkeypatch):
        # both directions on every class of the census types, whole
        # complexes at their trivalent bounds; the control, a rule calling
        # one more edge essential, leaves classes above the bottom of every
        # type with no collapsible edge
        breaches, classes = self._lemma_breaches(self._CENSUS)
        assert (breaches, classes) == ([], 11 + 3 + 90 + 698 + 412)
        monkeypatch.setattr(ch, "_essential", essential_either_end)
        breaches, _classes = self._lemma_breaches(self._CENSUS)
        assert {top for top, _code, _edges in breaches} == {
            top for top, _bound in self._CENSUS}
        assert all(edges > 4 * g + 2 * p + 2 * q - 3
                   for (g, p, q), _code, edges in breaches)
        assert len(breaches) == 2 + 1 + 23 + 162 + 116


class TestMoves:
    def test_collapse_preserves_type(self):
        rng = random.Random(4)
        checked = 0
        for _ in range(40):
            g, p, q = SMALL_TYPES[rng.randrange(len(SMALL_TYPES))]
            d = generate.random_diagram(rng, g, p, q)
            vertex_of = d.graph.vertex_of()
            for e in d.graph.edges():
                if ch.is_essential(d, e):
                    continue
                if vertex_of[e] == vertex_of[d.graph.pairing[e]]:
                    continue
                assert ch.collapse_edge(d, e).top_type() == d.top_type()
                checked += 1
        assert checked > 20

    def test_expansions_preserve_type_and_invert(self):
        rng = random.Random(5)
        for _ in range(10):
            g, p, q = SMALL_TYPES[rng.randrange(len(SMALL_TYPES))]
            d = generate.random_diagram(rng, g, p, q, steps=1)
            code = ch.diagram_code(d)
            for x in expansions(d):
                assert x.top_type() == d.top_type()
                new_edge = x.graph.n_half_edges - 2
                back = ch.collapse_edge(x, new_edge)
                assert ch.diagram_code(back) == code

    def test_collapse_then_expansion_recovers(self):
        d = ch.canonical_gamma0(1, 2, 2)
        for x in expansions(d):
            new_edge = x.graph.n_half_edges - 2
            assert not ch.is_essential(x, new_edge)
            recovered = expansions(ch.collapse_edge(x, new_edge))
            assert ch.diagram_code(x) in {ch.diagram_code(y) for y in recovered}

    def test_trivalent_vertices_admit_no_expansion(self):
        # every vertex of the single-chord diagram is trivalent
        assert expansions(single_chord_diagram()) == []

    @pytest.mark.parametrize("g,p,q", CONNECT_TYPES + [(0, 3, 2)])
    def test_direct_children_match_validated_build(self, g, p, q):
        # moves build their children without validation; check every split
        # of every class against the split validated the long way, and every
        # collapse against validate_chord
        top = TopType(g, p, q)
        for c in generate.enumerate_classes(top, 3 * (2 * g + p + q - 2)).values():
            splits = set()
            for orbit in c.graph.vertices():
                d = len(orbit)
                for i in range(d if d >= 4 else 0):
                    rotated = orbit[i:] + orbit[:i]
                    for l1 in range(2, d - 1):
                        arc1, arc2 = rotated[:l1], rotated[l1:]
                        valid = [_validated_expansion(c, arc1, arc2, label)
                                 for label in (CIRCULAR, GHOST)]
                        valid = [child for child in valid if child is not None]
                        assert len(valid) == 1
                        assert ch.apply_expansion(c, arc1[-1], arc2[-1]) == valid[0]
                        splits.add(frozenset((arc1[-1], arc2[-1])))
            generated = [frozenset(split)
                         for split in ch._splits(c.graph.vertices())]
            assert len(set(generated)) == len(generated)
            assert set(generated) == splits
            for e in c.graph.edges():
                if not ch.is_essential(c, e):
                    child = ch.collapse_edge(c, e)
                    checked, child_top = ch.validate_chord(
                        child.graph, child.labels, child.p,
                        child.boundary_order, child.markings)
                    assert checked == child and child_top == top
            # the searches' children, built from c's tables without a
            # diagram or markings, against the public moves: every collapse
            # and split
            moved = 0
            t = ch._diagram_tables(c)
            for move, *edit in moves._edits(t, None, ()):
                pairing, nxt, colors = ch._compact(t, *edit)
                child = moves.apply_move(c, move)
                labels = tuple(GHOST if k >= p + q else CIRCULAR for k in colors)
                assert (pairing, nxt, labels) == (
                    child.graph.pairing, child.graph.next_at_vertex,
                    child.labels)
                moved += 1
            assert moved == len(splits) + sum(
                not ch.is_essential(c, e) for e in c.graph.edges())

    def test_stale_expansions_are_refused(self):
        c = next(c for c in generate.enumerate_classes(TopType(0, 2, 2), 5).values()
                 if any(len(orbit) == 4 for orbit in c.graph.vertices()))
        a, b, x, y = next(o for o in c.graph.vertices() if len(o) == 4)
        for split in [(b, y), (y, b), (a, x), (x, a)]:
            child = moves.apply_move(c, ("expand", *split))
            assert child.top_type() == c.top_type()
        n = c.graph.n_half_edges
        vertex_of = c.graph.vertex_of()
        far = next(h for h in range(n) if vertex_of[h] != vertex_of[a])
        for u, v in [(a, b), (b, a), (y, a), (a, y), (a, a), (a, far),
                       (far, a), (a, n), (n, a), (a, -1), (-1, a)]:
            with pytest.raises(ChordLabError, match="does not split a vertex"):
                moves.apply_move(c, ("expand", u, v))

    def test_out_of_range_collapses_are_refused(self):
        # ids just outside 0..n-1, negative ones included, name themselves
        # rather than index the tables from the end
        c = ch.canonical_form(ch.canonical_gamma0(1, 1, 2))
        n = c.graph.n_half_edges
        assert n == 14
        for e in (n, -1, -n - 1):
            for refuse in (ch.collapse_edge, ch.is_essential,
                           lambda c, e: moves.apply_move(c, ("collapse", e))):
                with pytest.raises(ChordLabError,
                                   match=f"edge {e} is not a half-edge"):
                    refuse(c, e)

    @pytest.mark.parametrize("move", [("expand", 3), ("collapse",), ()])
    def test_short_moves_are_refused(self, move):
        c = ch.canonical_form(ch.canonical_gamma0(1, 1, 2))
        with pytest.raises(ChordLabError, match="unknown move") as info:
            moves.apply_move(c, move)
        assert repr(move) in str(info.value)

    @pytest.mark.parametrize("call,args", [
        (ch.collapse_edge, (1.0,)),
        (ch.is_essential, (2.0,)),
        (ch.is_essential, ("0",)),
        (ch.apply_expansion, (0.0, 3)),
        (moves.apply_move, (("collapse", 1.0),)),
        (moves.apply_move, (5,)),
        (moves.apply_move, (None,)),
        (moves.apply_move, ("collapse",)),
    ], ids=["collapse_edge-float", "is_essential-float", "is_essential-str",
            "apply_expansion-float", "apply_move-float", "apply_move-int",
            "apply_move-None", "apply_move-str"])
    def test_ids_and_moves_of_other_types_are_refused(self, call, args):
        # ids are ints and moves are tuples or lists: anything else is
        # refused with a ChordLabError rather than a TypeError
        with pytest.raises(ChordLabError):
            call(ch.canonical_form(ch.canonical_gamma0(1, 1, 2)), *args)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_ids_are_refused(self, flag):
        # True and False are ints, but no half-edge ids: on a class where
        # half-edge int(flag) collapses, and on one where it ends a split,
        # the bool is refused wherever the int is taken
        h = int(flag)
        classes = generate.enumerate_classes(TopType(1, 1, 2), 9).values()
        c = next(c for c in classes if not ch.is_essential(c, h))
        ch.collapse_edge(c, h)
        for call, args in [
                (ch.collapse_edge, (flag,)), (ch.is_essential, (flag,)),
                (moves.apply_move, (("collapse", flag),))]:
            with pytest.raises(ChordLabError):
                call(c, *args)
        c, split = next((c, split) for c in classes
                        for split in ch._splits(c.graph.vertices())
                        if h in split)
        ch.apply_expansion(c, *split)
        flagged = tuple(flag if k == h else k for k in split)
        for call, args in [(ch.apply_expansion, flagged),
                           (moves.apply_move, (("expand", *flagged),))]:
            with pytest.raises(ChordLabError):
                call(c, *args)

    @pytest.mark.parametrize("top,bound", [
        ((1, 1, 2), 9), ((0, 3, 2), 9), ((2, 1, 1), 12)])
    def test_collapse_refusals_follow_the_graph(self, top, bound):
        # every half-edge of every class, with the rule read off the graph
        # and labels alone: a collapse raises LoopEdge exactly when both
        # ends lie on one vertex, EssentialEdge exactly when a circular
        # edge's ends share a ghost component or a ghost edge's ends both
        # lie on circular vertices, and otherwise gives a valid diagram of
        # the same type
        seen = {LoopEdge: 0, EssentialEdge: 0, None: 0}
        for c in generate.enumerate_classes(TopType(*top), bound).values():
            graph, labels = c.graph, c.labels
            vertex_of = graph.vertex_of()
            component = ch._ghost_components(graph, labels)
            circular = [any(labels[h] == CIRCULAR for h in orbit)
                        for orbit in graph.vertices()]
            for e in range(graph.n_half_edges):
                u, v = vertex_of[e], vertex_of[graph.pairing[e]]
                if u == v:
                    refusal = LoopEdge
                elif (component[u] == component[v] if labels[e] == CIRCULAR
                      else circular[u] and circular[v]):
                    refusal = EssentialEdge
                else:
                    refusal = None
                seen[refusal] += 1
                if refusal is not None:
                    with pytest.raises(refusal):
                        ch.collapse_edge(c, e)
                    continue
                child = ch.collapse_edge(c, e)
                checked, child_top = ch.validate_chord(
                    child.graph, child.labels, child.p, child.boundary_order,
                    child.markings)
                assert checked == child and child_top == TopType(*top)
        assert seen[EssentialEdge] and seen[None]
        assert bool(seen[LoopEdge]) == (top[1] > 1)

    def test_ghost_forest_after_moves(self):
        rng = random.Random(6)
        for _ in range(20):
            g, p, q = SMALL_TYPES[rng.randrange(len(SMALL_TYPES))]
            d = generate.random_diagram(rng, g, p, q)
            ch._ghost_components(d.graph, d.labels)  # raises on a cycle


class TestGamma0:
    def test_grid_of_types(self):
        for g in range(4):
            for p in range(1, 5):
                for q in range(1, 5):
                    if (g, p, q) == (0, 1, 1):
                        continue
                    d = ch.canonical_gamma0(g, p, q)
                    assert d.top_type() == TopType(g, p, q)

    def test_cylinder_unrepresentable(self):
        with pytest.raises(UnrepresentableType):
            ch.canonical_gamma0(0, 1, 1)

    def test_one_vertex_incoming_circles(self):
        d = ch.canonical_gamma0(0, 3, 2)
        cycle_of = d.graph.cycle_of()
        sizes = sorted(len({d.graph.vertex_of()[h] for h in cycle_of[m]})
                       for m in d.markings[:d.p])
        assert sizes[:2] == [1, 1]   # p-1 = 2 one-vertex circles


class TestCanonicalForm:
    def test_idempotent_and_code_preserving(self):
        rng = random.Random(7)
        for _ in range(15):
            g, p, q = SMALL_TYPES[rng.randrange(len(SMALL_TYPES))]
            d = generate.random_diagram(rng, g, p, q)
            c = ch.canonical_form(d)
            assert ch.diagram_code(c) == ch.diagram_code(d)
            assert ch.canonical_form(c) == c

    def test_isomorphic_diagrams_map_to_equal_tables(self):
        d = ch.canonical_gamma0(1, 1, 2)
        for x in expansions(d):
            back = ch.collapse_edge(x, x.graph.n_half_edges - 2)
            a, b = ch.canonical_form(back), ch.canonical_form(d)
            assert (a.graph, a.labels, a.p, a.boundary_order) == (
                b.graph, b.labels, b.p, b.boundary_order)


    @pytest.mark.parametrize("g,p,q", CONNECT_TYPES)
    def test_forms_of_every_class_are_valid(self, g, p, q):
        # canonical_form_with_map builds the form without validate_chord, so
        # validate every class's form here, against the same data
        bound = ch.canonical_gamma0(g, p, q).graph.n_edges + 4
        for form in generate.enumerate_classes(TopType(g, p, q), bound).values():
            checked, top = ch.validate_chord(
                form.graph, form.labels, form.p, form.boundary_order,
                form.markings)
            assert checked == form and top == form.top_type() == TopType(g, p, q)
            # the tables the moves derive for the form, against the
            # union-find of _ghost_components and the per-vertex labels
            t = ch._diagram_tables(form)
            component = ch._ghost_components(form.graph, form.labels)
            blocks = set(zip(t.component, component))
            assert len(blocks) == len(set(t.component)) == len(set(component))
            assert t.circular == [
                any(form.labels[h] == CIRCULAR for h in orbit)
                for orbit in form.graph.vertices()]
            assert formats.parse(formats.serialize(form)) == form

    @pytest.mark.parametrize("g,p,q", CONNECT_TYPES)
    def test_code_writer_matches_encode(self, g, p, q):
        # the code written off the search's columns with the type's palette
        # text, against the repr of (length, palette reprs, flattened word),
        # the word split entry by entry; and the colorless code of the graph
        # alone, whose color column is left out
        n_colors = p + 2 * q
        bound = 3 * (2 * g + p + q - 2)
        palette = tuple(repr(color) for color in ch._palette(p, q))
        classes = generate.enumerate_classes(TopType(g, p, q), bound)
        for code, c in classes.items():
            n = c.graph.n_half_edges
            _label, word = fg._search(c.graph.pairing, c.graph.next_at_vertex,
                                      ch._int_colors(c), n_colors)
            flat = []
            for entry in word:
                rest, color = divmod(entry, n_colors)
                flat += [*divmod(rest, n), color]
            written = fg._write_code(fg._columns(word, n_colors),
                                     ch._palette_text(p, q))
            expected = repr((n, palette, tuple(flat))).encode("ascii")
            assert written == expected == code
            plain = tuple(x for i, x in enumerate(flat) if i % 3 != 2)
            assert fg._write_code(fg._columns(word, n_colors)[:2], "()") == (
                repr((n, (), plain)).encode("ascii"))

    def test_unmarked_code_builds_no_form(self, monkeypatch):
        # diagram_code writes the code of canonical_form_with_map without a
        # form, on canonical and on relabeled diagrams
        forms, make_form = [], ch._form

        def counted(*args):
            forms.append(args)
            return make_form(*args)

        rng = random.Random(11)
        diagrams = [generate.random_diagram(rng, *SMALL_TYPES[i % len(SMALL_TYPES)])
                    for i in range(30)]
        diagrams += list(generate.enumerate_classes(TopType(0, 3, 2), 9).values())
        expected = [ch.canonical_form_with_map(d)[2] for d in diagrams]
        monkeypatch.setattr(ch, "_form", counted)
        assert [ch.diagram_code(d) for d in diagrams] == expected
        assert forms == []

    def test_one_search_per_form(self, monkeypatch):
        searches, validations, candidates = [], [], []
        search, validate = fg._search, ch.validate_chord
        make_candidates = generate._diagram_candidates

        def counted_search(*args):
            searches.append(args)
            return search(*args)

        def counted_validate(*args, **kwargs):
            validations.append(args)
            return validate(*args, **kwargs)

        def counted_candidates(*args):
            for d in make_candidates(*args):
                candidates.append(d)
                yield d

        d = generate.random_diagram(random.Random(5), 1, 1, 2, steps=4)
        monkeypatch.setattr(fg, "_search", counted_search)
        monkeypatch.setattr(ch, "validate_chord", counted_validate)
        ch.canonical_form_with_map(d)
        assert (len(searches), len(validations)) == (1, 0)

        monkeypatch.setattr(generate, "_diagram_candidates", counted_candidates)
        del searches[:]
        generate.enumerate_classes(TopType(0, 2, 2), 9)
        assert len(searches) == len(candidates) > 21


def _validated_expansion(c, arc1, arc2, label):
    """The split of a vertex of c into arc1 and arc2, built from vertex lists
    and kept only if fg.validate, validate_chord and the type all agree."""
    n = c.graph.n_half_edges
    split = c.graph.vertex_of()[arc1[0]]
    vertex_lists = [list(arc1) + [n], list(arc2) + [n + 1]] + [
        list(orbit) for v, orbit in enumerate(c.graph.vertices()) if v != split]
    try:
        graph = fg.validate(c.graph.pairing + (n + 1, n), vertex_lists)
        order = [graph.cycle_of()[m][0] for m in c.markings]
        d, top = ch.validate_chord(graph, c.labels + (label, label), c.p,
                                   order, c.markings)
    except ChordLabError:
        return None
    return d if top == c.top_type() else None


def _validated_candidates(g, p, q, comp, forest, n_int):
    """The enumerator's candidates of one block built the long way: vertex
    lists through fg.validate, each order of the outgoing cycles through
    validate_chord, kept if the type is (g;p,q).  Also returns the set of
    whether each rotation choice gave a connected graph."""
    base = 2 * sum(comp)
    pairing = [0] * (base + 2 * len(forest))
    labels = [CIRCULAR] * base + [GHOST] * (2 * len(forest))
    stubs = [[] for _ in range(sum(comp) + n_int)]
    for j, (a, b) in enumerate(forest):
        x, y = base + 2 * j, base + 2 * j + 1
        pairing[x], pairing[y] = y, x
        stubs[a].append(x)
        stubs[b].append(y)
    circles, at = [], 0
    for k in comp:
        for j in range(k):
            f, b = 2 * (at + j), 2 * (at + (j + 1) % k) + 1
            pairing[f], pairing[b] = b, f
        circles.append(2 * at)
        at += k
    per_vertex = [
        [[2 * v + 1, 2 * v] + list(s) for s in itertools.permutations(stubs[v])]
        if v < at else
        [stubs[v][:1] + list(s) for s in itertools.permutations(stubs[v][1:])]
        for v in range(len(stubs))
    ]
    out, connected = [], set()
    for vertex_lists in itertools.product(*per_vertex):
        try:
            graph = fg.validate(pairing, vertex_lists)
        except ChordLabError as exc:
            assert isinstance(exc, Disconnected)
            connected.add(False)
            continue
        connected.add(True)
        reps = {cyc[0] for cyc in fg.boundary_cycles(graph)}
        if len(reps) != p + q or not reps >= set(circles):
            continue
        for perm in itertools.permutations(sorted(reps - set(circles))):
            try:
                d, top = ch.validate_chord(graph, labels, p, circles + list(perm))
            except ChordLabError:
                continue
            if top == TopType(g, p, q):
                out.append(d)
    return out, connected


def _raw_labels(colors, p, q):
    """The C/G labels that a raw candidate's integer colors imply: a ghost
    color is at least p+q."""
    return tuple(GHOST if k >= p + q else CIRCULAR for k in colors)


@pytest.mark.parametrize("g,p,q", [(0, 3, 2), (0, 2, 3), (0, 4, 1), (1, 1, 2)])
def test_enumerator_candidates_match_validated_build(monkeypatch, g, p, q):
    # the enumerator yields its candidates as raw tables, unvalidated; check
    # every (composition, forest) block it visits against the long way, in
    # order: the tables, the labels the colors imply, the markings and the
    # integer colors the diagram gives itself
    blocks, make = [], generate._diagram_candidates

    def recorded(*args):
        blocks.append(args)
        return make(*args)

    monkeypatch.setattr(generate, "_diagram_candidates", recorded)
    generate.enumerate_classes(TopType(g, p, q), 9)
    disconnected = 0
    for args in blocks:
        expected, connected = _validated_candidates(g, *args)
        raw = list(make(*args))
        assert len(raw) == len(expected)
        for (pairing, nxt, colors, markings), d in zip(raw, expected):
            assert (pairing, nxt, _raw_labels(colors, p, q), markings) == (
                d.graph.pairing, d.graph.next_at_vertex, d.labels, d.markings)
            assert colors == ch._int_colors(d)
        # connectivity does not depend on the rotations
        assert len(connected) == 1
        disconnected += connected == {False}
    assert blocks and (disconnected > 0 or (g, p, q) != (0, 4, 1))


def test_enumerator_validates_nothing(monkeypatch):
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(ch, "validate_chord", counted("chord", ch.validate_chord))
    monkeypatch.setattr(fg, "validate", counted("graph", fg.validate))
    assert len(generate.enumerate_classes(TopType(0, 3, 2), 9)) == 698
    assert calls == []


@pytest.mark.parametrize("g,p,q,classes", [
    (0, 1, 3, 11), (0, 3, 1, 11), (1, 1, 2, 90), (1, 2, 1, 90),
    (0, 3, 2, 698), (0, 2, 3, 698), (0, 1, 4, 254), (0, 4, 1, 254),
])
def test_class_counts_agree_under_p_q_swap(g, p, q, classes):
    # at the trivalent bound 3(2g+p+q-2), past which no count grows
    bound = 3 * (2 * g + p + q - 2)
    assert len(generate.enumerate_classes(TopType(g, p, q), bound)) == classes


def _every_block(g, p, q, bound):
    """Every (composition, forest, internal count) block of the type within
    the edge bound, with no symmetry reduction."""
    const = 2 * g + p + q - 2
    for n_circ in range(max(p, const + 1), bound - const + 1):
        for n_int in range(bound - const - n_circ + 1):
            if 2 * (n_int + const) < n_circ + 3 * n_int:
                continue
            forests = list(generate._ghost_forests(n_circ, n_int,
                                                   n_int + const, ()))
            for comp in generate._compositions(n_circ, p):
                for forest in forests:
                    yield comp, forest, n_int


def _orbit(comp, forest, n_int):
    """The forest relabeled by every rotation of each circle's vertex ids
    within that circle and every permutation of the internal ids."""
    n_circ, starts = sum(comp), [sum(comp[:i]) for i in range(len(comp))]
    images = set()
    for shifts in itertools.product(*(range(k) for k in comp)):
        for internal in itertools.permutations(range(n_circ, n_circ + n_int)):
            s = [at + (v - at + r) % k
                 for at, k, r in zip(starts, comp, shifts)
                 for v in range(at, at + k)] + list(internal)
            images.add(tuple(sorted(tuple(sorted((s[a], s[b])))
                                    for a, b in forest)))
    return images


@pytest.mark.parametrize("g,p,q,bound", [
    (0, 2, 2, 5), (0, 1, 3, 6), (1, 1, 1, 7), (0, 4, 1, 9), (1, 2, 1, 9),
    (0, 3, 2, 9), (2, 1, 1, 12), (0, 3, 1, 6), (1, 1, 2, 9), (0, 2, 3, 9),
    (0, 1, 4, 9), (0, 2, 2, 8),
])
def test_one_block_per_symmetry_orbit(monkeypatch, g, p, q, bound):
    # reference: the unreduced enumerator, every block through
    # _diagram_candidates, each candidate built as a diagram, gives the same
    # class codes
    codes = {ch.diagram_code(ChordDiagram(FatGraph(pairing, nxt),
                                          _raw_labels(colors, p, q), p, markings))
             for comp, forest, n_int in _every_block(g, p, q, bound)
             for pairing, nxt, colors, markings in generate._diagram_candidates(
                 p, q, comp, forest, n_int)}
    visited, make = [], generate._diagram_candidates

    def recorded(p_, q_, comp, forest, n_int):
        visited.append((comp, forest, n_int))
        return make(p_, q_, comp, forest, n_int)

    monkeypatch.setattr(generate, "_diagram_candidates", recorded)
    assert set(generate.enumerate_classes(TopType(g, p, q), bound)) == codes
    # each block visited is the least of its orbit, and each orbit is visited
    least = {(comp, min(_orbit(comp, forest, n_int)), n_int)
             for comp, forest, n_int in _every_block(g, p, q, bound)}
    assert len(visited) == len(set(visited)) and set(visited) == least


def _brute_forests(n_circ, n_int, n_edges):
    """Every edge set of n_edges vertex pairs that is a forest with circular
    degrees >= 1, internal degrees >= 3 and a circular vertex in each
    component, in itertools.combinations order."""
    nv = n_circ + n_int
    out = []
    for edges in itertools.combinations(itertools.combinations(range(nv), 2),
                                        n_edges):
        deg = [0] * nv
        comp = list(range(nv))  # component label of each vertex
        acyclic = True
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
            if comp[a] == comp[b]:
                acyclic = False
            old = comp[b]
            comp = [comp[a] if c == old else c for c in comp]
        if (acyclic and min(deg[:n_circ]) >= 1 and min(deg[n_circ:], default=3) >= 3
                and set(comp) <= set(comp[:n_circ])):
            out.append(edges)
    return out


def _least_forests(forests, symmetries):
    """The forests that no relabeling in symmetries maps to a smaller
    sorted list of sorted pairs."""
    return [forest for forest in forests
            if forest == min([forest] + [
                tuple(sorted(tuple(sorted((s[a], s[b]))) for a, b in forest))
                for s in symmetries])]


def test_forest_search_matches_brute_force(monkeypatch):
    # every search enumerate_classes makes, with the symmetries it prunes
    # by, against the brute-force forests least in their orbit under them:
    # each circle composition's search is pruned by its own block's group,
    # of (0;3,2)'s compositions into three circles and of (1;1,2)'s one,
    # and some forests are pruned
    used, search = set(), generate._ghost_forests

    def recorded(n_circ, n_int, n_edges, symmetries):
        used.add((n_circ, n_int, n_edges, tuple(symmetries)))
        return search(n_circ, n_int, n_edges, symmetries)

    monkeypatch.setattr(generate, "_ghost_forests", recorded)
    for top, p in ((TopType(0, 3, 2), 3), (TopType(1, 1, 2), 1)):
        used.clear()
        generate.enumerate_classes(top, 9)
        assert {(c, i) for c, i, _e, _s in used} == {
            (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (6, 0)}
        for n_circ, n_int, _e, symmetries in used:
            assert symmetries in {
                tuple(generate._block_symmetries(comp, n_int))
                for comp in generate._compositions(n_circ, p)}
        pruned = 0
        for n_circ, n_int, n_edges, symmetries in sorted(used):
            every = _brute_forests(n_circ, n_int, n_edges)
            least = _least_forests(every, symmetries)
            assert list(search(n_circ, n_int, n_edges, symmetries)) == least
            pruned += len(every) - len(least)
        assert pruned > 0


@pytest.mark.parametrize("n_circ,n_int", [
    (n_circ, n_int) for n_circ in range(1, 7) for n_int in range(3)
    if n_circ + n_int <= 6])
def test_forest_search_matches_brute_force_on_small_sizes(n_circ, n_int):
    # every edge count, so the search also meets sizes it must refuse;
    # unpruned, and pruned by the whole group of a block of one circle
    symmetries = generate._block_symmetries((n_circ,), n_int)
    for n_edges in range(n_circ + n_int + 1):
        every = _brute_forests(n_circ, n_int, n_edges)
        assert list(generate._ghost_forests(n_circ, n_int, n_edges,
                                            ())) == every
        assert (list(generate._ghost_forests(n_circ, n_int, n_edges,
                                             symmetries))
                == _least_forests(every, symmetries))


def _relabel_diagram(d, perm):
    """d with every half-edge h renamed perm[h]."""
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    graph = fg.FatGraph(
        pairing=tuple(perm[d.graph.pairing[h]] for h in inv),
        next_at_vertex=tuple(perm[d.graph.next_at_vertex[h]] for h in inv),
    )
    cycle_of = d.graph.cycle_of()
    order = [min(perm[h] for h in cycle_of[r]) for r in d.boundary_order]
    marks = [perm[m] for m in d.markings]
    labels = [d.labels[h] for h in inv]
    return ch.validate_chord(graph, labels, d.p, order, marks)[0]


@pytest.mark.parametrize("g,p,q", SMALL_TYPES)
def test_one_search_gives_code_form_and_labeling(g, p, q):
    rng = random.Random(100 * g + 10 * p + q)
    for _ in range(3):
        d = generate.random_diagram(rng, g, p, q, steps=3)
        n = d.graph.n_half_edges
        perm = list(range(n))
        rng.shuffle(perm)
        c = _relabel_diagram(d, perm)

        canon, label, code = ch.canonical_form_with_map(c)
        assert code == ch.diagram_code(c) == ch.diagram_code(d)
        assert code == ch.diagram_code(ch.canonical_form(c))
        # the relabeling carries c onto its canonical form
        for h in range(n):
            assert canon.graph.pairing[label[h]] == label[c.graph.pairing[h]]
            assert canon.graph.next_at_vertex[label[h]] == label[
                c.graph.next_at_vertex[h]]
            assert canon.labels[label[h]] == c.labels[h]

        # the plain code is the graph's tables read in canonical-label order
        G = c.graph
        L = fg.canonical_labeling(G)
        inv = sorted(range(n), key=L.__getitem__)
        word = tuple(
            x for h in inv for x in (L[G.next_at_vertex[h]], L[G.pairing[h]])
        )
        assert fg.canonical_code(G) == repr((n, (), word)).encode("ascii")


@pytest.mark.parametrize("g,p,q", SMALL_TYPES)
def test_code_colors_agree_with_the_cycle_tables(g, p, q):
    # the colors, traced from the markings, against the boundary order and
    # each half-edge's cycle as the graph's cycle table gives them
    rng = random.Random(10 * g + p + 100 * q)
    for _ in range(3):
        d = generate.random_diagram(rng, g, p, q, steps=3)
        cycle_of = d.graph.cycle_of()
        position = {r: i for i, r in enumerate(d.boundary_order)}
        for marked in (False, True):
            assert ch._code_colors(d, marked) == tuple(
                (d.labels[h], position[cycle_of[h][0]],
                 marked and h in d.markings)
                for h in range(d.graph.n_half_edges))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.integers(0, 10 ** 9))
def test_expansion_then_collapse_returns_class(top, seed):
    c = generate.random_diagram(random.Random(seed), *top, steps=2)
    code = ch.diagram_code(c)
    for d in expansions(c):
        assert ch.diagram_code(ch.collapse_edge(d, d.graph.n_half_edges - 2)) == code


def test_cycles_cannot_corrupt_the_shared_cache():
    with pytest.raises(AttributeError):
        fg.boundary_cycles(ch.canonical_gamma0(1, 1, 2).graph).append((999,))
    assert ch.canonical_gamma0(1, 1, 2).top_type() == TopType(1, 1, 2)


class TestGlue:
    def test_type_formula_instances(self):
        cases = [
            ((0, 1, 2), (0, 2, 2), (1, 1, 2)),
            ((0, 1, 2), (0, 2, 1), (1, 1, 1)),
            ((1, 2, 2), (1, 2, 2), (3, 2, 2)),
            ((0, 2, 1), (0, 1, 2), (0, 2, 2)),
        ]
        for t1, t2, expected in cases:
            r = ch.glue(ch.canonical_gamma0(*t1), ch.canonical_gamma0(*t2))
            assert r.top_type() == TopType(*expected)

    def test_random_pairs(self):
        rng = random.Random(8)
        for _ in range(30):
            c1, c2 = generate.random_gluable_pair(rng)
            t1, t2 = c1.top_type(), c2.top_type()
            r = ch.glue(c1, c2)
            assert r.top_type() == TopType(
                t1.genus + t2.genus + t1.q - 1, t1.p, t2.q)
            ch._ghost_components(r.graph, r.labels)

    def test_ghost_edges_are_disjoint_union(self):
        c1 = ch.canonical_gamma0(0, 1, 2)
        c2 = ch.canonical_gamma0(0, 2, 2)
        r = ch.glue(c1, c2)
        assert len(labelled_edges(r, GHOST)) == len(
            labelled_edges(c1, GHOST)) + len(labelled_edges(c2, GHOST))

    def test_schedule_places_circle_vertices(self):
        c1, c2 = ch.canonical_gamma0(0, 1, 2), ch.canonical_gamma0(0, 2, 2)
        r = ch.glue(c1, c2, [[0, 1], [0]])
        assert r.top_type() == TopType(1, 1, 2)
        with pytest.raises(GlueValidationFailed):
            ch.glue(c1, c2, [[1, 1], [0]])

    @pytest.mark.parametrize("schedule", [
        [1, 2], 5, [["x", "y"], [0]], [[0, 0.5], [0]], [[0, 1]], [[0, True], [0]],
        # a row of the wrong length; positions that decrease, or run past
        # the occurrences of the outgoing cycle
        [[0], [0]], [[1, 0], [0]], [[0, 99], [0]], [[0, 1], [-1]],
    ])
    def test_malformed_schedule(self, schedule):
        c1, c2 = ch.canonical_gamma0(0, 1, 2), ch.canonical_gamma0(0, 2, 2)
        with pytest.raises(InvalidSchedule):
            ch.glue(c1, c2, schedule)

    def test_snap_leaving_an_outgoing_cycle_without_circle_is_refused(self):
        # snapping both circle vertices of (0;1,2)'s circle onto one ghost
        # occurrence leaves a glued outgoing cycle with no circular half-edge
        # to mark; it once escaped as a bare StopIteration
        c1, c2 = ch.canonical_gamma0(0, 2, 1), ch.canonical_gamma0(0, 1, 2)
        with pytest.raises(GlueValidationFailed, match="no circular half-edge"):
            ch.glue(c1, c2, [[1, 1]])

    def test_every_schedule_on_small_base_points(self):
        # all 1,741 schedules of the right shape on the 25 gluable pairs of
        # base-point diagrams with g <= 1 and p, q <= 2: each gives the glued
        # type or a ChordLabError
        types = [(g, p, q) for g in range(2) for p in (1, 2) for q in (1, 2)
                 if (g, p, q) != (0, 1, 1)]
        pairs = calls = 0
        for t1, t2 in itertools.product(types, types):
            if t1[2] != t2[1]:
                continue
            pairs += 1
            c1, c2 = ch.canonical_gamma0(*t1), ch.canonical_gamma0(*t2)
            expected = TopType(t1[0] + t2[0] + t1[2] - 1, t1[1], t2[2])
            rows = [itertools.combinations_with_replacement(
                        range(len(c1.graph.cycle_of()[c1.markings[c1.p + k]])),
                        len(c2.graph.cycle_of()[c2.markings[k]]))
                    for k in range(c1.q)]
            for schedule in itertools.product(*rows):
                calls += 1
                try:
                    r = ch.glue(c1, c2, [list(row) for row in schedule])
                except ChordLabError:
                    continue
                assert r.top_type() == expected
        assert (pairs, calls) == (25, 1741)

    def test_arity_mismatch(self):
        from chordlab.errors import ArityMismatch
        with pytest.raises(ArityMismatch):
            ch.glue(ch.canonical_gamma0(0, 1, 2), ch.canonical_gamma0(0, 3, 1))
