"""Fat graphs: validation, boundary tracing, classification, canonical codes."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chordlab import chord as ch
from chordlab import fatgraph as fg
from chordlab import generate
from chordlab.errors import (
    Disconnected,
    FixedPointInPairing,
    InconsistentTables,
    ValenceTooLow,
)

from helpers import random_fatgraph


def theta_graph():
    # 2 vertices, 3 parallel edges; rotations reversed at the second vertex,
    # which is the planar embedding
    return fg.validate(
        [3, 4, 5, 0, 1, 2],
        [[0, 1, 2], [5, 4, 3]],
    )


def rose(rotation):
    # one-vertex rose with two loops; rotation is a list of half-edges with
    # pairing 0<->1, 2<->3
    return fg.validate([1, 0, 3, 2], [rotation])


PANTS_ROSE = [0, 1, 2, 3]    # (a, a-bar, b, b-bar)
TORUS_ROSE = [0, 2, 1, 3]    # (a, b, a-bar, b-bar)


class TestValidate:
    def test_theta_graph_is_valid(self):
        G = theta_graph()
        assert G.n_vertices == 2
        assert G.n_edges == 3

    def test_bivalent_vertex_rejected(self):
        with pytest.raises(ValenceTooLow):
            fg.validate([1, 0, 3, 2], [[0, 2], [1, 3]])

    def test_pairing_fixed_point_rejected(self):
        with pytest.raises(FixedPointInPairing):
            fg.validate([0, 2, 1, 3], [[0, 1, 2, 3]])

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            fg.validate(
                [1, 0, 3, 2, 5, 4, 7, 6],
                [[0, 1, 2, 3], [4, 5, 6, 7]],
            )

    def test_inconsistent_tables_rejected(self):
        with pytest.raises(InconsistentTables):
            fg.validate([1, 0, 3, 2], [[0, 1, 2]])

    @pytest.mark.parametrize("pairing,message", [
        ([1, 0, 2], "odd number of half-edges"),
        ([1, 0, 9, 2], r"pairing\(2\) = 9 out of range"),
        ([1, 2, 3, 0], "pairing is not an involution at 0"),
    ])
    def test_pairing_refused(self, pairing, message):
        # a file's pair records always make an even, in-range involution,
        # so only a direct call reaches these
        with pytest.raises(InconsistentTables, match=message):
            fg.validate(pairing, [list(range(len(pairing)))])


class TestBoundaryCycles:
    def test_pants_rose_has_three_cycles(self):
        assert len(fg.boundary_cycles(rose(PANTS_ROSE))) == 3

    def test_torus_rose_has_one_cycle(self):
        assert len(fg.boundary_cycles(rose(TORUS_ROSE))) == 1

    def test_theta_has_three_cycles(self):
        assert len(fg.boundary_cycles(theta_graph())) == 3

    def test_cycles_partition_half_edges(self):
        for G in (theta_graph(), rose(PANTS_ROSE), rose(TORUS_ROSE)):
            seen = sorted(h for cyc in fg.boundary_cycles(G) for h in cyc)
            assert seen == list(range(G.n_half_edges))


class TestTables:
    """Each table is derived once per graph and handed out as a tuple."""

    def test_tables_are_shared_tuples(self):
        for G in (theta_graph(), rose(PANTS_ROSE), rose(TORUS_ROSE)):
            assert G.vertices() is G.vertices()
            assert fg.boundary_cycles(G) is fg.boundary_cycles(G)
            assert G.vertex_of() is G.vertex_of()
            assert G.cycle_of() is G.cycle_of()
            for table in (G.vertices(), fg.boundary_cycles(G),
                          G.vertex_of(), G.cycle_of()):
                assert type(table) is tuple

    def test_cycle_of_maps_each_half_edge_to_its_cycle(self):
        rng = random.Random(5)
        for _ in range(20):
            G = random_fatgraph(rng)
            cycles = fg.boundary_cycles(G)
            for cyc in cycles:
                for h in cyc:
                    assert G.cycle_of()[h] is cyc
                    assert G.cycle_of()[G.next_at_vertex[G.pairing[h]]] is cyc
            for i, orbit in enumerate(G.vertices()):
                assert all(G.vertex_of()[h] == i for h in orbit)

    def test_tables_leave_equality_hash_and_pickle_alone(self):
        import pickle
        G = theta_graph()
        H = fg.FatGraph(pairing=G.pairing, next_at_vertex=G.next_at_vertex)
        fg.boundary_cycles(G), G.vertices()  # G holds its tables, H not yet
        assert G == H and hash(G) == hash(H)
        K = pickle.loads(pickle.dumps(G))
        assert K == H and K.vertices() == H.vertices()
        assert fg.boundary_cycles(K) == fg.boundary_cycles(H)


class TestClassification:
    def test_euler_characteristic(self):
        assert fg.euler_characteristic(theta_graph()) == -1
        assert fg.euler_characteristic(rose(PANTS_ROSE)) == -1

    def test_topological_type(self):
        assert fg.topological_type(rose(PANTS_ROSE)) == (0, 3)
        assert fg.topological_type(rose(TORUS_ROSE)) == (1, 1)
        assert fg.topological_type(theta_graph()) == (0, 3)

    @pytest.mark.parametrize("fields", [
        (-1, 1, 2), (0, -1, 2), (0, 1, -2), (1.5, 1, 2), (1, 1.0, 2),
        (1, 1, "2"), (True, 1, 2), (1, False, 2), (1, 1, None)])
    def test_type_fields_are_non_negative_ints(self, fields):
        # a float, a str, None or a bool (an int subclass) is refused as a
        # negative field is, before explore can take it
        with pytest.raises(ValueError, match="non-negative ints"):
            fg.TopType(*fields)
        assert str(fg.TopType(1, 1, 2)) == "(1;1,2)"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_orbit_partition_and_euler_consistency(seed):
    G = random_fatgraph(random.Random(seed))
    cycles = fg.boundary_cycles(G)
    seen = sorted(h for cyc in cycles for h in cyc)
    assert seen == list(range(G.n_half_edges))
    g, n = fg.topological_type(G)
    assert g >= 0
    assert 2 - 2 * g - n == fg.euler_characteristic(G)


class TestCanonicalCode:
    def _relabel(self, G, perm):
        inv = [0] * len(perm)
        for h, l in enumerate(perm):
            inv[l] = h
        pairing = [perm[G.pairing[inv[l]]] for l in range(len(perm))]
        nxt = [perm[G.next_at_vertex[inv[l]]] for l in range(len(perm))]
        return fg.FatGraph(pairing=tuple(pairing), next_at_vertex=tuple(nxt))

    def test_invariant_under_relabeling(self):
        rng = random.Random(5)
        for _ in range(20):
            G = random_fatgraph(rng, max_edges=6)
            perm = list(range(G.n_half_edges))
            rng.shuffle(perm)
            assert fg.canonical_code(self._relabel(G, perm)) == fg.canonical_code(G)

    def test_different_boundary_counts_differ(self):
        assert fg.canonical_code(rose(PANTS_ROSE)) != fg.canonical_code(
            rose(TORUS_ROSE))

    def test_theta_vs_rose_differ(self):
        assert fg.canonical_code(theta_graph()) != fg.canonical_code(
            rose(PANTS_ROSE))

    def test_colors_break_symmetry(self):
        G = theta_graph()
        plain = fg.canonical_code(G)
        colored = fg.canonical_code(G, colors=[0, 1, 0, 1, 0, 1])
        assert plain != colored

    def test_code_bytes_pinned(self):
        # the literal codes: length, palette reprs and the flattened least
        # word, whose color column is left out without colors
        G = theta_graph()
        assert fg.canonical_code(fg.FatGraph((), ())) == b"(0, (), None)"
        assert fg.canonical_code(G) == (
            b"(6, (), (1, 2, 3, 4, 5, 0, 0, 5, 2, 1, 4, 3))")
        assert fg.canonical_code(G, colors=[0, 1, 0, 1, 0, 1]) == (
            b"(6, ('0', '1'), "
            b"(1, 2, 0, 3, 4, 0, 5, 0, 1, 0, 5, 1, 2, 1, 1, 4, 3, 0))")

    def test_canonical_labeling_normalizes(self):
        rng = random.Random(17)
        for _ in range(10):
            G = random_fatgraph(rng, max_edges=6)
            perm = list(range(G.n_half_edges))
            rng.shuffle(perm)
            H = self._relabel(G, perm)
            cG = self._relabel(G, fg.canonical_labeling(G))
            cH = self._relabel(H, fg.canonical_labeling(H))
            assert cG == cH


# ---------------------------------------------------------------------------
# the pruned search against a brute-force reference
# ---------------------------------------------------------------------------

def _reference_search(G, colors=None):
    """The plain search: every start's complete breadth-first word, with no
    filter and no early stop.  Returns the first labeling (old half-edge ->
    new label) whose word is least, that word (None for the empty graph)
    and the sorted palette, as fatgraph._canonical_search does."""
    n = G.n_half_edges
    palette = sorted(set(colors)) if colors is not None else []
    key = [palette.index(c) for c in colors] if colors is not None else [0] * n
    words = []
    for start in range(n):
        label, order = {start: 0}, [start]
        for h in order:
            for k in (G.next_at_vertex[h], G.pairing[h]):
                if k not in label:
                    label[k] = len(order)
                    order.append(k)
        word = [(label[G.next_at_vertex[h]], label[G.pairing[h]], key[h])
                for h in order]
        words.append((word, start, tuple(label[h] for h in range(n))))
    if not words:
        return None, None, palette
    word, _start, label = min(words)
    return label, word, palette


def _reference_code(G, colors, label):
    """The code bytes: the tables (and color ranks) read in label order."""
    palette = sorted(set(colors)) if colors is not None else []
    inv = sorted(range(G.n_half_edges), key=label.__getitem__)
    word = []
    for h in inv:
        word += [label[G.next_at_vertex[h]], label[G.pairing[h]]]
        if colors is not None:
            word.append(palette.index(colors[h]))
    return repr((G.n_half_edges, tuple(map(repr, palette)), tuple(word))).encode()


def _check_against_reference(G, colors=None):
    expected = _reference_search(G, colors)
    assert fg._canonical_search(G, colors) == expected
    assert fg.canonical_labeling(G, colors) == expected[0]
    assert fg.canonical_code(G, colors) == _reference_code(G, colors, expected[0])


def _relabeled_diagram(d, rng):
    perm = list(range(d.graph.n_half_edges))
    rng.shuffle(perm)
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    graph = fg.FatGraph(
        pairing=tuple(perm[d.graph.pairing[h]] for h in inv),
        next_at_vertex=tuple(perm[d.graph.next_at_vertex[h]] for h in inv),
    )
    cycle_of = d.graph.cycle_of()
    order = [min(perm[h] for h in cycle_of[r]) for r in d.boundary_order]
    marks = [perm[m] for m in d.markings]
    return ch.validate_chord(graph, [d.labels[h] for h in inv], d.p, order, marks)[0]


@pytest.mark.parametrize("g,p,q", generate._SMALL_TYPES)
def test_pruned_search_matches_reference_on_diagrams(g, p, q):
    rng = random.Random(1000 * g + 100 * p + q)
    for _ in range(2):
        d = _relabeled_diagram(generate.random_diagram(rng, g, p, q, steps=3), rng)
        _check_against_reference(d.graph)
        _check_against_reference(d.graph, ch._code_colors(d, False))
        _check_against_reference(d.graph, ch._code_colors(d, True))


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_pruned_search_matches_reference_when_starts_tie(k):
    # k-loop roses and the theta graph have many automorphisms, so many
    # starts (for the uncolored (a b .. a-bar b-bar ..) rose and the theta
    # graph, every start) give the least word and a full tie
    for rotation in ([2 * i for i in range(k)] + [2 * i + 1 for i in range(k)],
                     list(range(2 * k))):
        pairing = [h ^ 1 for h in range(2 * k)]
        G = fg.validate(pairing, [rotation])
        _check_against_reference(G)
        _check_against_reference(G, [0] * (2 * k))
        _check_against_reference(G, [h % 2 for h in range(2 * k)])
    _check_against_reference(theta_graph())
    _check_against_reference(theta_graph(), [0, 1, 0, 1, 0, 1])


def test_pruned_search_matches_reference_on_random_fatgraphs():
    rng = random.Random(23)
    for _ in range(40):
        G = random_fatgraph(rng, max_edges=7)
        _check_against_reference(G)
        _check_against_reference(G, [rng.randrange(2) for _ in range(G.n_half_edges)])


def _relabeled(G, colors, rng):
    """G and its colors with the half-edges renamed by a random permutation."""
    perm = list(range(G.n_half_edges))
    rng.shuffle(perm)
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    H = fg.FatGraph(pairing=tuple(perm[G.pairing[h]] for h in inv),
                    next_at_vertex=tuple(perm[G.next_at_vertex[h]] for h in inv))
    return H, [colors[h] for h in inv]


@pytest.mark.parametrize("pairing,nxt", [
    ((), ()),                                  # the empty graph
    ((1, 0), (0, 1)),                          # one edge, two 1-valent ends
    ((1, 0), (1, 0)),                          # a 2-valent loop
    ((1, 0, 3, 2), (1, 2, 3, 0)),              # a rose, pairing[s] == nxt[s]
    ((1, 0, 3, 2), (1, 2, 0, 3)),              # a loop with a 1-valent stick
    ((3, 2, 1, 0), (1, 0, 3, 2)),              # two 2-valent vertices
    ((5, 4, 3, 2, 1, 0), (1, 2, 0, 4, 3, 5)),  # 1-, 2- and 3-valent
])
def test_search_matches_the_plain_search_on_small_graphs(pairing, nxt):
    # the first-entry filter meets every kind of entry 0: (0, 1, c) at a
    # 1-valent vertex, (1, 1, c) where pairing[s] == nxt[s], (1, 2, c)
    G = fg.FatGraph(pairing=pairing, next_at_vertex=nxt)
    n = len(pairing)
    for colors in (None, [0] * n, [h % 2 for h in range(n)],
                   [(h * 7) % 3 for h in range(n)]):
        assert fg._canonical_search(G, colors) == _reference_search(G, colors)


def test_search_matches_the_plain_search_on_random_relabelings():
    rng = random.Random(31)
    for _ in range(60):
        G = random_fatgraph(rng, max_edges=8)
        colors = [rng.randrange(3) for _ in range(G.n_half_edges)]
        for H, C in ((G, None), (G, colors), _relabeled(G, colors, rng)):
            assert fg._canonical_search(H, C) == _reference_search(H, C)


@pytest.mark.parametrize("top,bound", [((0, 3, 2), 9), ((2, 1, 1), 12)])
def test_search_matches_the_plain_search_on_every_class(top, bound):
    rng = random.Random(sum(top) + bound)
    for d in generate.enumerate_classes(fg.TopType(*top), bound).values():
        for marked in (False, True):
            colors = ch._code_colors(d, marked)
            H, C = _relabeled(d.graph, colors, rng)
            assert fg._canonical_search(H, C) == _reference_search(H, C)
        assert fg._canonical_search(d.graph, None) == _reference_search(d.graph)


def test_disconnected_graph_refused_when_start_zero_is_filtered():
    # a theta graph on 0..5, whose starts read (1, 2, 0) first, beside an
    # edge with two 1-valent ends, whose start 6 reads (0, 1, 0): the only
    # starts run are 6 and 7, and neither reaches the theta graph
    theta = theta_graph()
    G = fg.FatGraph(pairing=theta.pairing + (7, 6),
                    next_at_vertex=theta.next_at_vertex + (6, 7))
    with pytest.raises(Disconnected):
        fg._canonical_search(G, None)
    with pytest.raises(Disconnected):
        fg.canonical_code(G)


# ---------------------------------------------------------------------------
# census of all connected fat graphs with E <= 4, dedup by explicit
# isomorphism search, compared against canonical_code equality
# ---------------------------------------------------------------------------

def _cyclic_orders(block):
    first, rest = block[0], block[1:]
    for perm in itertools.permutations(rest):
        yield [first] + list(perm)


def _set_partitions(items, min_size):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(min_size - 1, len(rest) + 1):
        for others in itertools.combinations(rest, k):
            block = [first] + list(others)
            remaining = [x for x in rest if x not in others]
            for sub in _set_partitions(remaining, min_size):
                yield [block] + sub


def _standard_pairing_graphs(n_edges):
    """Every connected fat graph on the fixed pairing 0<->1, 2<->3, ...;
    every isomorphism class appears (relabel any graph edge by edge)."""
    n = 2 * n_edges
    pairing = list(range(n))
    for i in range(0, n, 2):
        pairing[i], pairing[i + 1] = i + 1, i
    for partition in _set_partitions(list(range(n)), 3):
        for rotations in itertools.product(
            *(_cyclic_orders(block) for block in partition)
        ):
            try:
                yield fg.validate(pairing, list(rotations))
            except Disconnected:
                continue


def _explicit_iso(G, H):
    """Does a bijection of half-edges commute with pairing and rotation?
    Any such map is determined by the image of half-edge 0."""
    n = G.n_half_edges
    if n != H.n_half_edges:
        return False
    for image in range(n):
        phi = {0: image}
        stack = [0]
        ok = True
        while stack and ok:
            h = stack.pop()
            for f, g in ((G.pairing, H.pairing), (G.next_at_vertex, H.next_at_vertex)):
                want = g[phi[h]]
                if f[h] in phi:
                    ok = phi[f[h]] == want
                    if not ok:
                        break
                else:
                    phi[f[h]] = want
                    stack.append(f[h])
        if ok and len(phi) == n and len(set(phi.values())) == n:
            return True
    return False


@pytest.mark.parametrize("n_edges", [2, 3, 4])
def test_code_soundness_on_census(n_edges):
    graphs = list(_standard_pairing_graphs(n_edges))
    assert graphs
    # dedup by explicit isomorphism
    reps = []
    for G in graphs:
        if not any(_explicit_iso(G, H) for H in reps):
            reps.append(G)
    codes = {fg.canonical_code(G) for G in graphs}
    assert len(codes) == len(reps)
    # and the code agrees with explicit isomorphism pairwise on the classes
    for i, G in enumerate(reps):
        for H in reps[i + 1:]:
            assert fg.canonical_code(G) != fg.canonical_code(H)
            assert not _explicit_iso(G, H)


def test_canonical_code_quadratic_growth():
    # a doubling series of k-loop roses; steps must grow no worse than E^2
    def steps(k):
        rotation = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
        pairing = []
        for i in range(k):
            pairing += [2 * i + 1, 2 * i]
        G = fg.validate(pairing, [rotation])
        counter = [0]
        fg.canonical_code(G, _step_counter=counter)
        return counter[0]

    series = [steps(k) for k in (2, 4, 8, 16)]
    for small, big in zip(series, series[1:]):
        assert big <= 4.5 * small
