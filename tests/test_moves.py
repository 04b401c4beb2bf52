"""Move graph: neighbors, exhaustive exploration, path extraction."""

import contextlib
import errno
import gc
import json
import os
import random
import signal
import threading
import time
import tracemalloc

import pytest

from chordlab import chord as ch
from chordlab import fatgraph as fg
from chordlab import generate, moves
from chordlab.errors import (
    BoundTooSmall,
    ChordLabError,
    SearchExhausted,
    UnrepresentableType,
)
from chordlab.fatgraph import TopType

from helpers import essential_either_end, expansions


def neighbor_reps(c):
    """The canonical representative of each move-graph neighbour of the
    class of c, deduplicated: single-edge collapses and single-vertex
    expansions."""
    return [rep for _code, rep, _fwd, _inv
            in moves.neighbors_with_moves(ch.canonical_form(c))]


class TestNeighbors:
    def test_rigid_diagram_has_no_neighbors(self):
        # the one class of type (0;1,2): every edge essential, all vertices
        # trivalent
        d = ch.canonical_gamma0(0, 1, 2)
        assert neighbor_reps(d) == []

    def test_symmetry(self):
        d = ch.canonical_form(ch.canonical_gamma0(1, 1, 2))
        code = ch.diagram_code(d)
        for n in neighbor_reps(d):
            back_codes = {ch.diagram_code(x) for x in neighbor_reps(n)}
            assert code in back_codes

    def test_deduplicated(self):
        d = ch.canonical_gamma0(1, 1, 1)
        out = neighbor_reps(d)
        codes = [ch.diagram_code(x) for x in out]
        assert len(codes) == len(set(codes))

    def test_apply_move_round_trip(self):
        # every recorded move of every class within the bound, both ways
        pairs = 0
        for top in (TopType(1, 1, 2), TopType(0, 3, 2)):
            for c in generate.enumerate_classes(top, 9).values():
                c_code = ch.diagram_code(c)
                for code, rep, fwd, inv in moves.neighbors_with_moves(c, 9):
                    assert ch.diagram_code(moves.apply_move(c, fwd)) == code
                    assert ch.diagram_code(moves.apply_move(rep, inv)) == c_code
                    pairs += 1
        assert pairs == 3660


class TestChildColors:
    @pytest.mark.parametrize("top", [(1, 1, 2), (0, 3, 2)])
    def test_derived_colors_are_the_childs_own(self, top):
        # every collapse and split of every class: the integer colors derived
        # from the parent's are the child's own, and those are the ranks of
        # its tuple colors in the type's palette; swapping the two new halves'
        # colors is caught on some split
        palette = ch._palette(top[1], top[2])
        swaps_caught = 0
        for c in generate.enumerate_classes(TopType(*top), 9).values():
            t = ch._diagram_tables(c)
            for move, *edit in moves._edits(t, None, ()):
                derived = ch._compact(t, *edit)[2]
                child = moves.apply_move(c, move)
                own = ch._int_colors(child)
                assert derived == own
                assert own == [palette.index(color)
                               for color in ch._code_colors(child, False)]
                if move[0] == "expand":
                    swapped = derived[:-2] + derived[-1:] + derived[-2:-1]
                    swaps_caught += swapped != own
        assert swaps_caught > 0

    @pytest.mark.parametrize("top,bound", [
        ((1, 1, 2), 9), ((0, 3, 2), 9), ((2, 1, 1), 12)])
    def test_collapses_are_the_collapsible_edges(self, top, bound):
        # _edits takes its collapses from the class's one-pass tables
        # (chord._collapsible_edges); every edge it collapses, and only
        # those, passes the public test
        kinds = set()
        for c in generate.enumerate_classes(TopType(*top), bound).values():
            collapsed = [move[1] for move, *_ in moves._edits(
                ch._diagram_tables(c), bound, ()) if move[0] == "collapse"]
            assert collapsed == [e for e in c.graph.edges()
                                 if not ch.is_essential(c, e)]
            kinds.update(c.labels[e] for e in collapsed)
        assert kinds == {ch.CIRCULAR, ch.GHOST}

    @pytest.mark.parametrize("top,bound,classes", [
        ((0, 3, 2), 9, 698), ((2, 1, 1), 12, 412), ((1, 1, 2), 9, 90),
        ((1, 2, 1), 9, 90), ((0, 1, 4), 9, 254)])
    def test_colors_are_fixed_by_the_type(self, top, bound, classes):
        # every class takes exactly the colors of the closed form: each
        # position i < p+q circular, each outgoing position j ghost
        _g, p, q = top
        closed = ([("C", i, False) for i in range(p + q)]
                  + [("G", j, False) for j in range(p, p + q)])
        assert ch._palette(p, q) == closed
        found = generate.enumerate_classes(TopType(*top), bound)
        assert len(found) == classes
        for c in found.values():
            assert sorted(set(ch._code_colors(c, False))) == closed


class TestRecord:
    def test_words_past_256_entries(self):
        # a search records each class under its key: the least word's bytes
        # while its entries fit in 2 bytes, the word itself past that
        # 2g = 66 chords give 266 half-edges, too many for 2-byte entries;
        # 2g = 12 give 56, which fit
        for genus, key_type in ((33, tuple), (6, bytes)):
            d = ch.canonical_gamma0(genus, 1, 1)
            key, word, label = ch._canonicalize(
                d.graph.pairing, d.graph.next_at_vertex, ch._int_colors(d),
                d.p, d.q)
            code, columns = ch._code(key, d.p, d.q)
            assert columns == fg._columns(word, d.p + 2 * d.q)
            form = ch._form(columns, d.p, d.q, [label[m] for m in d.markings])
            assert (form, label, code) == ch.canonical_form_with_map(d)
            assert type(key) is key_type


def _bfs(c, bound):
    """moves._bfs from the class of the diagram c."""
    return moves._bfs(c._canonical[0], c.p, c.q, bound)


def _diagram(t):
    """The diagram with the tables t that a search holds, marked at the
    least circular half-edge of each cycle."""
    return ch._form((t.nxt, t.pairing, t.colors), t.p, t.q,
                    ch._least_markings(t.colors, t.p, t.q))


def _split_free(move):
    """A move with a split's two half-edges in a fixed order."""
    return move if move[0] == "collapse" else ("expand", *sorted(move[1:]))


class TestSkippedMoves:
    @pytest.mark.parametrize("top,bound", [((1, 1, 2), 9), ((0, 2, 2), 8)])
    def test_skipped_moves_reach_recorded_classes(self, monkeypatch, top, bound):
        # every move the search skips is one of its class's moves, and
        # applying it and canonicalizing gives a class already in the record
        original = moves._neighbors
        expanded = []

        def recording(t, max_edges, skip):
            expanded.append((t, set(skip)))
            return original(t, max_edges, skip)

        monkeypatch.setattr(moves, "_neighbors", recording)
        start = ch.canonical_form(ch.canonical_gamma0(*top))
        info = _bfs(start, bound)
        assert len(expanded) == len(info)
        skipped = 0
        for t, skip in expanded:
            c = _diagram(t)
            parent, inv = info[ch.diagram_code(c)]
            own = [("collapse", e) for e in c.graph.edges()
                   if not ch.is_essential(c, e)]
            if c.graph.n_edges < bound:
                own += [("expand", x, y)
                        for x, y in ch._splits(c.graph.vertices())]
            skip = {_split_free(move) for move in skip}
            assert skip <= {_split_free(move) for move in own}
            if parent is not None:
                assert _split_free(inv) in skip
            for move in own:
                if _split_free(move) in skip:
                    assert ch.diagram_code(moves.apply_move(c, move)) in info
                    skipped += 1
        assert skipped >= len(info) - 1

    def test_each_move_canonicalized_about_once(self, monkeypatch):
        # without the skip each move below the bound is canonicalized from
        # both of its ends, so searches ~ moves; with it, about half that
        bound = 9
        start = ch.canonical_form(ch.canonical_gamma0(0, 3, 2))
        original = fg._search
        original_neighbors = moves._neighbors
        searches = []
        expanded = []

        def counted(*args):
            searches.append(None)
            return original(*args)

        def recording(t, max_edges, skip):
            expanded.append(t)
            return original_neighbors(t, max_edges, skip)

        monkeypatch.setattr(fg, "_search", counted)
        monkeypatch.setattr(moves, "_neighbors", recording)
        info = _bfs(start, bound)
        monkeypatch.undo()
        assert len(expanded) == len(info)
        total = 1
        for rep in map(_diagram, expanded):
            total += sum(not ch.is_essential(rep, e) for e in rep.graph.edges())
            if rep.graph.n_edges < bound:
                total += len(list(ch._splits(rep.graph.vertices())))
        assert len(info) == 698
        # every class but the start is reached by a search of its own
        assert len(info) - 1 <= len(searches) <= 0.55 * total


def _reachable(*roots):
    """Every object reachable from roots through gc referents, types
    left out."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


class TestHeldCodes:
    def test_search_record_holds_no_diagram(self, monkeypatch):
        # a search keeps each class under its least word's bytes as (parent
        # word, move, certificate start), and a finished _bfs as (parent
        # code, move): no diagram is reachable from either
        original = moves._grow
        records = []

        def recording(info, *args, **kwargs):
            records.append(info)
            return original(info, *args, **kwargs)

        monkeypatch.setattr(moves, "_grow", recording)
        start = ch.canonical_form(ch.canonical_gamma0(0, 3, 2))
        info = _bfs(start, 9)
        assert len(info) == 698
        record = records[0]
        assert all(r is record for r in records)
        # one key per class: its least word, whose code is in info
        assert len(record) == 698
        assert {ch._code(key, 3, 2)[0] for key in record} == set(info)
        for key, (parent, move, certificate) in record.items():
            assert type(key) is bytes
            nxt, pairing, colors = ch._code(key, 3, 2)[1]
            assert ch._canonicalize(pairing, nxt, colors, 3, 2)[0] == key
            assert parent is None or parent in record
            assert (certificate is None) == (parent is None)
        for code, value in info.items():
            assert type(value) is tuple and len(value) == 2
            parent, move = value
            if parent is None:
                assert move is None and code == ch.diagram_code(start)
            else:
                assert parent in info
                assert move[0] in ("collapse", "expand")
                assert all(type(h) is int for h in move[1:])
        diagram_types = (ch.ChordDiagram, fg.FatGraph)
        assert not any(isinstance(obj, diagram_types)
                       for obj in _reachable(info, record))
        # the walk does find a diagram where one is held
        assert any(isinstance(obj, ch.ChordDiagram)
                   for obj in _reachable({b"": (None, [start])}))


class TestWordKeys:
    @pytest.mark.parametrize("top,bound", [((1, 1, 2), 9), ((2, 1, 1), 12)])
    def test_layers_expand_in_code_order(self, monkeypatch, top, bound):
        # _grow expands each layer of _bfs in the order of its classes' code
        # text, which a sort by key (the least word's bytes) would not give
        grow, neighbors = moves._grow, moves._neighbors
        layers = []

        def growing(*args, **kwargs):
            layers.append([])
            return grow(*args, **kwargs)

        def expanding(t, max_edges, skip):
            key = ch._canonicalize(t.pairing, t.nxt, t.colors, t.p, t.q)[0]
            layers[-1].append((ch._code(key, t.p, t.q)[0], key))
            return neighbors(t, max_edges, skip)

        monkeypatch.setattr(moves, "_grow", growing)
        monkeypatch.setattr(moves, "_neighbors", expanding)
        info = _bfs(ch.canonical_gamma0(*top), bound)
        monkeypatch.undo()
        assert sum(map(len, layers)) == len(info)
        by_key_differs = False
        for layer in layers:
            codes = [code for code, _key in layer]
            assert codes == sorted(codes)
            by_key = [code for code, _key in sorted(layer, key=lambda e: e[1])]
            by_key_differs |= by_key != codes
        assert by_key_differs

    def test_code_written_only_for_expanded_classes(self, monkeypatch,
                                                    bottom_trees):
        # a far (2;1,1) query writes code text once per class its type's
        # tree expands, and derives columns once more per class of its
        # descent; the classes of the tree's last layer, its frontier, are
        # never written, not even the bottom class's, whose record the
        # query checks.  The memo starts empty, so the tree is grown here
        d = generate.random_diagram(random.Random(2), 2, 1, 1, steps=6)

        def counted_query():
            counts = {"_code": 0, "_columns": 0, "_neighbors": 0}
            with monkeypatch.context() as patch:
                for module, name in ((ch, "_code"), (fg, "_columns"),
                                     (moves, "_neighbors")):
                    def counted(*args, name=name, original=getattr(
                            module, name)):
                        counts[name] += 1
                        return original(*args)
                    patch.setattr(module, name, counted)
                return moves.path_to_canonical(d), counts

        path, counts = counted_query()
        tree, frontier = bottom_trees[(2, 1, 1)]
        assert len(path) == 6 and (len(tree), len(frontier)) == (169, 60)
        assert counts["_code"] == counts["_neighbors"] == 169 - 60
        descent = d.graph.n_edges - ch.canonical_gamma0(2, 1, 1).graph.n_edges
        assert counts["_columns"] == counts["_code"] + descent + 1

        # a second query of the type reads its bottom class's path off the
        # held tree: nothing is expanded and no code is written
        again, counts = counted_query()
        assert again == path
        assert counts["_code"] == counts["_neighbors"] == 0
        assert counts["_columns"] == descent + 1


def _partition(component):
    """The blocks of a per-vertex component table, each as a sorted list."""
    blocks: dict = {}
    for v, k in enumerate(component):
        blocks.setdefault(k, []).append(v)
    return sorted(blocks.values())


def _circular_vertices(c):
    """For each vertex of the diagram c, whether it holds a circular
    half-edge, read off its labels."""
    return [any(c.labels[h] == ch.CIRCULAR for h in orbit)
            for orbit in c.graph.vertices()]


def _table_mismatches(t, c):
    """The names of the one-pass tables t that disagree with the diagram c's
    own: its vertices, ghost components (as a partition, against the
    union-find of _ghost_components), circular vertices, labels, integer
    colors and collapsible edges."""
    n = len(t.nxt)
    checks = {
        "vertices": (list(t.vertices), list(c.graph.vertices())),
        "vertex_of": (list(t.vertex_of), list(c.graph.vertex_of())),
        "prev": ([t.prev[t.nxt[h]] for h in range(n)], list(range(n))),
        "components": (_partition(t.component),
                       _partition(ch._ghost_components(c.graph, c.labels))),
        "circular": (list(t.circular), _circular_vertices(c)),
        "labels": (ch._labels(t.colors, t.p, t.q), c.labels),
        "colors": (list(t.colors), ch._int_colors(c)),
        "collapsible": ([a for a, _b in ch._collapsible_edges(t)],
                        [e for e in c.graph.edges()
                         if not ch.is_essential(c, e)]),
    }
    return [name for name, (ours, theirs) in checks.items() if ours != theirs]


class TestHeldTables:
    @pytest.mark.parametrize("top,bound,classes", [
        ((1, 1, 2), 9, 90), ((0, 3, 2), 9, 698), ((2, 1, 1), 12, 412)])
    def test_one_pass_tables_agree_with_the_diagrams(self, monkeypatch, top,
                                                     bound, classes):
        # every class's tables as the search derives them, against the
        # enumerator's form of that class, read off its graph and labels;
        # and a ghost edge turned circular splits a ghost component the
        # diagram has
        held, tables = [], ch._tables

        def recording(*args):
            held.append(tables(*args))
            return held[-1]

        monkeypatch.setattr(ch, "_tables", recording)
        _bfs(ch.canonical_gamma0(*top), bound)
        monkeypatch.undo()
        _g, p, q = top
        forms = generate.enumerate_classes(TopType(*top), bound)
        assert len(held) == len(forms) == classes
        for t in held:
            key = ch._canonicalize(t.pairing, t.nxt, t.colors, p, q)[0]
            code = ch._code(key, p, q)[0]
            c = forms.pop(code)
            assert (tuple(t.nxt), tuple(t.pairing)) == (
                c.graph.next_at_vertex, c.graph.pairing)
            assert _table_mismatches(t, c) == []
            a = ch._labels(t.colors, p, q).index(ch.GHOST)
            colors = list(t.colors)
            for h in (a, t.pairing[a]):
                colors[h] -= q
            tampered = ch._tables(t.nxt, t.pairing, colors, p, q)
            assert "components" in _table_mismatches(tampered, c)
        assert forms == {}

    def test_search_builds_no_diagram_and_derives_tables_once(self,
                                                              monkeypatch):
        # explore's search, given its start, and its witness check construct
        # no ChordDiagram or FatGraph, and derive each class's tables once
        built, derived, searching = [], [], [False]
        for cls in (ch.ChordDiagram, fg.FatGraph):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                if searching[0]:
                    built.append(type(self))
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        tables, bfs = ch._tables, moves._bfs

        def counted(*args):
            derived.append(args)
            return tables(*args)

        def watched(*args):
            searching[0] = True
            try:
                infos.append(bfs(*args))
            finally:
                searching[0] = False
            return infos[-1]

        infos = []
        monkeypatch.setattr(ch, "_tables", counted)
        monkeypatch.setattr(moves, "_bfs", watched)
        report = moves.explore(TopType(0, 3, 2), 9)
        assert report.class_count == 698 and report.unreached == []
        (info,) = infos
        assert built == []
        assert len(derived) == len(info) == 698


@pytest.fixture
def no_child_left():
    """Fails the test if a process it started is left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids explore forks, with two usable CPUs whatever the machine
    has, so only the thread count decides whether it forks."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1},
                        raising=False)
    return pids


@contextlib.contextmanager
def _helper_thread():
    """A second thread, alive until the block ends: explore must not fork."""
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        yield
    finally:
        stop.set()
        helper.join(timeout=10)
    assert not helper.is_alive()


@pytest.mark.usefixtures("no_child_left")
class TestForkedEnumerator:
    @pytest.mark.parametrize("top,bound", [
        ((1, 1, 2), 9), ((0, 3, 2), 9), ((2, 1, 1), 12), ((0, 2, 2), 5)])
    def test_both_code_sources_give_the_same_report(self, forks, top, bound):
        # (0;2,2)@5 is disconnected: 12 components, 11 classes unreached,
        # each rebuilt from its code
        forked = moves.explore(TopType(*top), bound).to_json_dict()
        assert len(forks) == 1
        with _helper_thread():
            here = moves.explore(TopType(*top), bound).to_json_dict()
        assert len(forks) == 1
        assert json.dumps(forked, sort_keys=True) == json.dumps(
            here, sort_keys=True)
        if top == (0, 2, 2):
            assert (here["components"], len(here["unreached"])) == (12, 11)

    def test_fork_needs_one_thread_and_two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1},
                            raising=False)
        assert moves._fork_pays()
        with _helper_thread():
            assert not moves._fork_pays()
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0},
                            raising=False)
        assert not moves._fork_pays()

    @pytest.mark.parametrize("top,bound", [((0, 3, 2), 9), ((2, 1, 1), 12)])
    def test_codes_give_back_their_columns(self, top, bound):
        palette = ch._palette_text(top[1], top[2])
        count = 0
        for code, columns, _markings in generate._classes(TopType(*top),
                                                          bound):
            assert fg._code_columns(code) == tuple(columns)
            assert fg._write_code(fg._code_columns(code), palette) == code
            count += 1
        assert count == {(0, 3, 2): 698, (2, 1, 1): 412}[top]

    def test_enumerator_budget_raised_from_the_child(self, monkeypatch,
                                                     forks):
        # the search holds the base point alone; the enumerator meets 12
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 5)
        with pytest.raises(SearchExhausted, match="EXPLORE_CLASS_BUDGET = 5"):
            moves.explore(TopType(0, 2, 2), 5)
        assert len(forks) == 1

    def test_other_child_failure_names_the_enumerator(self, monkeypatch,
                                                      forks):
        def failing(top, bound):
            raise RuntimeError("no classes today")
            yield

        monkeypatch.setattr(generate, "_classes", failing)
        with pytest.raises(ChordLabError, match="the enumerator failed: "
                           "RuntimeError: no classes today"):
            moves.explore(TopType(1, 1, 2), 9)
        assert len(forks) == 1

    def test_child_exit_status_is_an_error(self, monkeypatch, forks):
        # a child that leaves with a status and sends nothing is reaped
        # and named
        monkeypatch.setattr(moves, "_enumerate_into",
                            lambda r, w, top, bound: os._exit(3))
        with pytest.raises(ChordLabError,
                           match="the enumerator failed with exit status 3"):
            moves.explore(TopType(1, 1, 2), 9)
        assert len(forks) == 1

    def test_refused_fork_enumerates_here(self, monkeypatch):
        # two usable CPUs, but the system refuses the fork: the pipe is
        # closed and the enumerator runs in this process, for the same
        # report as a forked one
        with _helper_thread():
            here = moves.explore(TopType(1, 1, 2), 9).to_json_dict()
        pipes, pipe = [], os.pipe

        def recorded():
            pipes.extend(pipe())
            return pipes[-2:]

        def refused():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "pipe", recorded)
        monkeypatch.setattr(os, "fork", refused)
        assert moves._fork_pays()
        report = moves.explore(TopType(1, 1, 2), 9).to_json_dict()
        assert json.dumps(report, sort_keys=True) == json.dumps(
            here, sort_keys=True)
        assert len(pipes) == 2
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_killed_child_is_an_error_not_a_hang(self, monkeypatch, forks):
        parent = os.getpid()

        def killed(top, bound):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("the enumerator ran in the parent")
            yield

        monkeypatch.setattr(generate, "_classes", killed)
        with pytest.raises(ChordLabError,
                           match="the enumerator was killed by signal SIGKILL"):
            moves.explore(TopType(1, 1, 2), 9)
        assert len(forks) == 1

    @pytest.mark.parametrize("failure", [
        KeyboardInterrupt, SearchExhausted("the search gave up")])
    def test_failed_parent_kills_its_child(self, monkeypatch, forks,
                                           failure):
        # a child that would enumerate for a minute is killed, not waited
        # for, when the search fails
        parent = os.getpid()

        def slow(top, bound):
            if os.getpid() != parent:
                time.sleep(60)
            yield from ()

        def failing(*args):
            raise failure

        monkeypatch.setattr(generate, "_classes", slow)
        monkeypatch.setattr(moves, "_bfs", failing)
        start = time.monotonic()
        with pytest.raises(type(failure) if isinstance(failure, Exception)
                           else failure):
            moves.explore(TopType(1, 1, 2), 9)
        assert time.monotonic() - start < 30
        assert len(forks) == 1


@pytest.mark.usefixtures("no_child_left", "forks")
class TestExplore:
    @pytest.mark.parametrize("top", [(0, 1, 2), (0, 2, 1), (1, 1, 1)])
    def test_small_types_connected(self, top):
        g0 = ch.canonical_gamma0(*top)
        report = moves.explore(TopType(*top), g0.graph.n_edges + 4)
        assert report.component_count == 1
        assert report.unreached == []
        assert report.class_count >= 1

    def test_agrees_with_direct_enumeration(self):
        top = TopType(0, 2, 2)
        bound = ch.canonical_gamma0(0, 2, 2).graph.n_edges + 3
        report = moves.explore(top, bound)
        universe = generate.enumerate_classes(top, bound)
        assert report.class_count == len(universe)
        assert set(report.witness_paths) | set(report.unreached) == set(universe)

    def test_witness_paths_replay(self):
        top = TopType(1, 1, 1)
        bound = ch.canonical_gamma0(1, 1, 1).graph.n_edges + 4
        report = moves.explore(top, bound)
        g0_code = ch.diagram_code(ch.canonical_form(ch.canonical_gamma0(1, 1, 1)))
        universe = generate.enumerate_classes(top, bound)
        for code, path in report.witness_paths.items():
            d = universe[code]
            for move in path:
                d = ch.canonical_form(moves.apply_move(d, move))
            assert ch.diagram_code(d) == g0_code

    def test_witness_check_refuses_a_wrong_inverse(self, monkeypatch):
        # record a sibling's inverse move for the first child of the base
        # point: the first whose move, applied to that child, does not lead
        # back to the base point's class (two siblings' inverse moves, each
        # named on its own class, can both lead back); the child's single
        # move no longer leads to its parent's class
        original = moves._neighbors
        tampered = []

        def misleads(t, key, move):
            c = _diagram(ch._tables(*ch._code(key, t.p, t.q)[1], t.p, t.q))
            try:
                reached = ch.diagram_code(moves.apply_move(c, move))
            except ChordLabError:
                return True
            return reached != ch.diagram_code(_diagram(t))

        def swapped(t, max_edges, skip):
            out = original(t, max_edges, skip)
            if not tampered:
                key, fwd, _inv, start = out[0]
                other = next(e[2] for e in out if misleads(t, key, e[2]))
                tampered.append(t)
                out[0] = (key, fwd, other, start)
            return out

        monkeypatch.setattr(moves, "_neighbors", swapped)
        with pytest.raises(ChordLabError, match="witness path"):
            moves.explore(TopType(1, 1, 2), 9)
        assert tampered

    @pytest.mark.parametrize("loop,reason", [
        (False, "is essential"), (True, "is a loop")])
    def test_witness_check_refuses_an_invalid_inverse(self, monkeypatch, loop,
                                                      reason):
        # record, for one new class, the collapse of one of its own
        # essential edges (a loop, or not) as its inverse move: the check
        # refuses the move itself and names the class
        original = moves._neighbors
        tampered, met = [], set()

        def invalid(t, max_edges, skip):
            out = original(t, max_edges, skip)
            for i, (key, fwd, _inv, start) in enumerate(out):
                if tampered or key in met:
                    continue
                code, columns = ch._code(key, t.p, t.q)
                c = _diagram(ch._tables(*columns, t.p, t.q))
                vertex_of = c.graph.vertex_of()
                for e in c.graph.edges():
                    if (ch.is_essential(c, e) and loop == (
                            vertex_of[e] == vertex_of[c.graph.pairing[e]])):
                        out[i] = (key, fwd, ("collapse", e), start)
                        tampered.append(code)
                        break
            met.update(key for key, *_ in out)
            return out

        monkeypatch.setattr(moves, "_neighbors", invalid)
        with pytest.raises(ChordLabError, match="witness path for") as refused:
            moves.explore(TopType(0, 3, 2), 9)
        assert tampered
        assert repr(tampered[0]) in str(refused.value)
        assert reason in str(refused.value)

    def test_witness_check_refuses_a_shifted_start(self, monkeypatch):
        # the first child of the base point keeps its own inverse move, which
        # still reaches the base point's class, but its certificate start is
        # moved to the next half-edge: the traversal from there does not
        # spell the base point's least word, so the check refuses the move
        # and names the child
        original = moves._neighbors
        tampered = []

        def shifted(t, max_edges, skip):
            out = original(t, max_edges, skip)
            if not tampered:
                key, fwd, inv, start = out[0]
                out[0] = (key, fwd, inv, (start + 1) % len(t.pairing))
                tampered.append(ch._code(key, t.p, t.q)[0])
            return out

        monkeypatch.setattr(moves, "_neighbors", shifted)
        with pytest.raises(ChordLabError, match="witness path for") as refused:
            moves.explore(TopType(1, 1, 2), 9)
        assert repr(tampered[0]) in str(refused.value)
        assert "does not spell" in str(refused.value)

    def test_search_checked_against_the_enumeration(self, monkeypatch):
        # a class the search reaches but the enumerator does not yield is
        # refused: here the enumerator drops its first class, which has
        # collapse parents
        self._refused_without(monkeypatch, 0)

    def test_search_checks_a_class_only_a_split_reaches(self, monkeypatch):
        # the enumerator drops its first class at the bound's 9 edges, index
        # 55 of 90, which only a split reaches: a search that met each class
        # only through collapses would lose this check
        original = generate._classes
        edges = [len(nxt) // 2 for _code, (nxt, _pairing, _colors), _markings
                 in original(TopType(1, 1, 2), 9)]
        assert len(edges) == 90 and edges.index(9) == 55
        self._refused_without(monkeypatch, 55)

    @staticmethod
    def _refused_without(monkeypatch, dropped):
        original = generate._classes

        def short(top, bound):
            for i, entry in enumerate(original(top, bound)):
                if i != dropped:
                    yield entry

        monkeypatch.setattr(generate, "_classes", short)
        with pytest.raises(ChordLabError,
                           match="search produced 1 classes outside"):
            moves.explore(TopType(1, 1, 2), 9)

    @pytest.mark.parametrize("call,name,value", [
        ("explore", "edge_bound", "x"),
        ("enumerate_classes", "edge_bound", "x"),
        ("enumerate_classes", "edge_bound", 2.5),
        ("enumerate_classes", "edge_bound", True)])
    def test_non_int_arguments_refused(self, call, name, value):
        # a domain error naming the argument, not a TypeError; a bool is
        # refused although it is an int
        run = moves.explore if call == "explore" else generate.enumerate_classes
        with pytest.raises(ChordLabError, match=f"{name} must be an int"):
            run(TopType(0, 2, 2), **{"edge_bound": 5, name: value})

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmall):
            moves.explore(TopType(1, 1, 1), 3)

    def test_unreached_classes_counted_by_component(self):
        # at the base point's own edge count no move stays within the bound,
        # so each of the 12 classes is its own component
        report = moves.explore(TopType(0, 2, 2), 5)
        assert report.class_count == 12
        assert report.component_count == 12
        assert len(report.unreached) == 11
        assert len(report.witness_paths) == 1

    def test_unrepresentable_type(self):
        with pytest.raises(UnrepresentableType):
            moves.explore(TopType(0, 1, 1), 10)

    @pytest.mark.parametrize("top", [(1, 0, 1), (1, 1, 0), (0, 0, 0)])
    def test_enumeration_refuses_empty_sides(self, top):
        # no chord diagram has no incoming or no outgoing boundary: the
        # enumerator names the type rather than recursing or returning {}
        with pytest.raises(UnrepresentableType,
                           match=rf"\({top[0]};{top[1]},{top[2]}\)"):
            generate.enumerate_classes(TopType(*top), 6)

    def test_class_budget(self, monkeypatch):
        # (1;1,2)@9 has 90 classes: one over the budget is refused
        top = TopType(1, 1, 2)
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 89)
        with pytest.raises(SearchExhausted,
                           match="EXPLORE_CLASS_BUDGET = 89") as refused:
            moves.explore(top, 9)
        assert refused.value.frontier_size >= 1
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 90)
        assert moves.explore(top, 9).class_count == 90

    def test_search_budget_checked_as_each_class_is_expanded(self,
                                                            monkeypatch):
        # checked before each class is expanded, the search holds at most
        # one class's neighbours over the budget, not a layer's
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 1000)
        with pytest.raises(SearchExhausted,
                           match="EXPLORE_CLASS_BUDGET = 1000") as refused:
            moves.explore(TopType(1, 1, 3), 12)
        assert 1000 < int(str(refused.value).split()[0]) <= 1100
        assert refused.value.frontier_size >= 1

    def test_enumeration_budget_checked_as_each_class_is_met(self,
                                                            monkeypatch):
        # the ghost forests are streamed, so the enumerator refuses at the
        # first class over the budget, having built little
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 10)
        tracemalloc.start()
        try:
            with pytest.raises(SearchExhausted, match="^11 classes exceed"):
                generate.enumerate_classes(TopType(3, 1, 1), 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_enumeration_rotation_budget(self, monkeypatch):
        # each block's rotation choices are counted before any is listed:
        # the largest block of (2;1,1)@12 has 24
        top = TopType(2, 1, 1)
        monkeypatch.setattr(generate, "ROTATION_BUDGET", 23)
        with pytest.raises(SearchExhausted, match="a block of 24 rotation "
                           "choices .* ROTATION_BUDGET = 23"):
            generate.enumerate_classes(top, 12)
        monkeypatch.setattr(generate, "ROTATION_BUDGET", 24)
        assert len(generate.enumerate_classes(top, 12)) == 412

    def test_rotation_budget_refuses_before_listing(self):
        # the first block of (6;1,1)@36 puts 12 chords on one circle
        # vertex: 12! choices, refused with next to nothing allocated
        tracemalloc.start()
        try:
            with pytest.raises(SearchExhausted,
                               match="a block of 479001600 rotation choices"):
                generate.enumerate_classes(TopType(6, 1, 1), 36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_enumeration_class_budget(self, monkeypatch):
        # the enumerator gives up on its own: (0;3,2)@9 has 698 classes
        top = TopType(0, 3, 2)
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 697)
        with pytest.raises(SearchExhausted, match="EXPLORE_CLASS_BUDGET = 697"):
            generate.enumerate_classes(top, 9)
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 698)
        assert len(generate.enumerate_classes(top, 9)) == 698


def _counting_searches(monkeypatch):
    """A list that grows by one at each fatgraph._search call from now."""
    searches, search = [], fg._search

    def counted(*args):
        searches.append(None)
        return search(*args)

    monkeypatch.setattr(fg, "_search", counted)
    return searches


class TestCertificates:
    @pytest.mark.parametrize("top,bound", [
        ((1, 1, 2), 9), ((0, 3, 2), 9), ((2, 1, 1), 12)])
    def test_starts_spell_the_least_words(self, top, bound):
        # every move of every class: the inverse move, made on the
        # neighbour's canonical tables, leaves tables whose traversal from
        # the recorded start spells the class's least word, and a canonical
        # search of them agrees; the forward move's tables are in the
        # neighbour's class.  A start moved to the next half-edge spells the
        # word only on a class with more than one automorphism, which is
        # rare
        _g, p, q = top
        n_colors = p + 2 * q
        classes = moves_checked = shifted_spelled = 0
        for _code, columns, _markings in generate._classes(TopType(*top),
                                                           bound):
            classes += 1
            t = ch._tables(*columns, p, q)
            key = ch._canonicalize(t.pairing, t.nxt, t.colors, p, q)[0]
            for child, fwd, inv, start in moves._neighbors(
                    t, bound, ()):
                moved = ch._apply(
                    ch._tables(*ch._code(child, p, q)[1], p, q), inv)
                assert fg._spells(*moved, n_colors, start, ch._word(key))
                assert ch._canonicalize(*moved, p, q)[0] == key
                shifted = (start + 1) % len(t.pairing)
                shifted_spelled += fg._spells(*moved, n_colors, shifted,
                                              ch._word(key))
                assert ch._canonicalize(*ch._apply(t, fwd), p, q)[0] == child
                moves_checked += 1
        assert moves_checked > classes
        assert shifted_spelled < moves_checked / 100

    def test_a_spelled_word_is_the_class_whatever_the_start(self):
        # a start of no half-edge, a word of another length and another
        # class's word all fail; every start spells some word, and the
        # word it spells is the least one exactly when a canonical search
        # says the tables are in that class
        c = ch.canonical_form(ch.canonical_gamma0(1, 1, 2))
        t = ch._diagram_tables(c)
        key, word, _label = c._canonical
        n, n_colors = len(t.pairing), 5
        tables = (t.pairing, t.nxt, t.colors)
        assert fg._spells(*tables, n_colors, 0, word)
        assert not fg._spells(*tables, n_colors, n, word)
        assert not fg._spells(*tables, n_colors, -1, word)
        assert not fg._spells(*tables, n_colors, 0, word[:-1])
        other = generate.random_diagram(random.Random(3), 1, 1, 2,
                                        steps=3)._canonical[1]
        assert other != word
        assert not fg._spells(*tables, n_colors, 0, other)
        assert sum(fg._spells(*tables, n_colors, s, word)
                   for s in range(n)) >= 1
        # two disjoint copies and the word of both, one after the other:
        # the traversal from 0 spells the first copy's half and stops there
        union = [[*table, *(h + n for h in table)]
                 for table in (t.pairing, t.nxt)]
        nxt, pairing, colors = fg._columns(word, n_colors)
        both = [(a * 2 * n + b) * n_colors + k for a, b, k in zip(
            [*nxt, *(h + n for h in nxt)], [*pairing, *(h + n for h in pairing)],
            colors * 2)]
        assert not fg._spells(*union, colors * 2, n_colors, 0, both)

    def test_no_canonical_search_in_witness_checks(self, monkeypatch,
                                                   bottom_trees):
        # the witness check adds no canonical search to the BFS or to
        # path_to_canonical's tree, and a warm query makes one search per
        # descent step and one traversal, the check of its bottom class's
        # own record, unless that class is the base point's
        searches = _counting_searches(monkeypatch)
        key = ch.canonical_gamma0(0, 3, 2)._canonical[0]
        counts = []
        for check in (None, moves._check_witness):
            searches.clear()
            assert len(moves._bfs(key, 3, 2, 9, check)) == 698
            counts.append(len(searches))
        assert counts[0] == counts[1] > 0

        ch.canonical_gamma0(2, 1, 1)._canonical
        searches.clear()
        layers = _tree_layers((2, 1, 1), 4)
        unchecked = len(searches)
        searches.clear()
        moves._bottom_tree(TopType(2, 1, 1), layers[4][0])
        assert len(searches) == unchecked > 0

        spells, spell = [], fg._spells

        def counted(*args):
            spells.append(None)
            return spell(*args)

        monkeypatch.setattr(fg, "_spells", counted)
        rng = random.Random(5)
        descents = checks = 0
        for top in ((1, 1, 2), (0, 3, 2), (2, 1, 1)):
            bottom = ch.canonical_gamma0(*top).graph.n_edges
            for _ in range(3):
                d = generate.random_diagram(rng, *top, steps=6)
                path = moves.path_to_canonical(d)
                searches.clear()
                spells.clear()
                assert moves.path_to_canonical(d) == path
                descent = d.graph.n_edges - bottom
                assert len(searches) == descent
                assert len(spells) == (len(path) > descent)
                descents += descent
                checks += len(spells)
        assert descents >= 8 and checks >= 8


class TestInPlaceSearch:
    @pytest.mark.parametrize("top,bound,loops", [
        ((1, 1, 2), 9, 0), ((0, 3, 2), 9, 348), ((2, 1, 1), 12, 0)])
    def test_every_child_is_searched_as_its_compacted_tables(
            self, monkeypatch, top, bound, loops):
        # every move of every class: the search _neighbors runs on the
        # class's tables, edited in place, finds the key and the labeling a
        # search of the tables chord._apply compacts finds, the labeling
        # unlabelled exactly at the dead ids and spare slots.  An edit that
        # makes a half-edge's edge follow it in its rotation (pairing[h] ==
        # nxt[h]: a loop, so a lower entry 0) and one that stops it are
        # both ranked again; a loop is a circle of one vertex, which
        # (0;3,2)@9 has and the two types with one circle do not
        _g, p, q = top
        canonicalize = ch._canonicalize
        searched = []

        def recording(*args):
            searched.append(canonicalize(*args))
            return searched[-1]

        made = unmade = children = 0
        for _code, columns, _markings in generate._classes(TopType(*top),
                                                           bound):
            t = ch._tables(*columns, p, q)
            n = len(t.pairing)
            searched.clear()
            monkeypatch.setattr(ch, "_canonicalize", recording)
            moves._neighbors(t, bound, ())
            monkeypatch.undo()
            edits = list(moves._edits(t, bound, ()))
            assert len(searched) == len(edits)
            pairing = [*t.pairing, n + 1, n]
            for (key, _word, label), (move, touched, values, new, dead) in zip(
                    searched, edits):
                want_key, _want_word, want_label = canonicalize(
                    *ch._apply(t, move), p, q)
                assert key == want_key
                assert [k for k in label if k >= 0] == list(want_label)
                assert label.count(-1) == n + 2 - len(want_label)
                for h, k in zip(touched, values):
                    if h < n:
                        made += k == pairing[h] != t.nxt[h]
                        unmade += k != pairing[h] == t.nxt[h]
                children += 1
        assert children > 0
        assert made == unmade == loops

    def test_an_edit_left_undone_is_refused(self, monkeypatch):
        # negative control: the first child's edit is not undone, so every
        # later child of the base point is searched on a rotation still
        # carrying it; explore refuses what that search records
        undo, skipped = moves._undo, []

        def once(*args):
            if not skipped:
                skipped.append(args)
                return None
            return undo(*args)

        monkeypatch.setattr(moves, "_undo", once)
        with pytest.raises(ChordLabError):
            moves.explore(TopType(1, 1, 2), 9)
        assert skipped


class TestPathToCanonical:
    def test_base_point_gives_empty_path(self):
        assert moves.path_to_canonical(ch.canonical_gamma0(1, 1, 1)) == []

    def test_round_trip_from_expansion(self):
        d = ch.canonical_gamma0(1, 1, 2)
        for x in expansions(d)[:4]:
            path = moves.path_to_canonical(x)
            assert len(path) >= 1

    def test_random_diagrams(self):
        rng = random.Random(9)
        for _ in range(5):
            d = generate.random_diagram(rng, 1, 1, 2, steps=rng.randint(1, 3))
            replay = ch.canonical_form(d)
            for move in moves.path_to_canonical(d):
                replay = ch.canonical_form(moves.apply_move(replay, move))
            goal = ch.canonical_form(ch.canonical_gamma0(1, 1, 2))
            assert ch.diagram_code(replay) == ch.diagram_code(goal)

    def test_class_budget(self, monkeypatch, bottom_trees):
        # the type's tree refuses past the budget, as explore's search does:
        # this (1;1,2) query descends one edge to a bottom class that the
        # tree's second layer holds, after 14 classes, the last expanded
        # with 13 held
        d = generate.random_diagram(random.Random(9), 1, 1, 2, steps=3)
        path = moves.path_to_canonical(d)
        assert len(path) == 3 and len(bottom_trees[(1, 1, 2)][0]) == 14
        bottom_trees.clear()
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 12)
        with pytest.raises(SearchExhausted, match="EXPLORE_CLASS_BUDGET = 12"):
            moves.path_to_canonical(d)
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 13)
        assert moves.path_to_canonical(d) == path

    @pytest.mark.parametrize("tamper", ["start", "move"])
    def test_tampered_tree_record_is_refused(self, monkeypatch, bottom_trees,
                                             tamper):
        # a query whose tree must expand the class with the tampered record,
        # held in the tree's frontier, is refused as the class is expanded,
        # naming it, and keeps no layer it grew
        code, _bottom, far = _tampered_tree(monkeypatch, tamper)
        held = dict(bottom_trees)
        with pytest.raises(ChordLabError, match="witness path for") as refused:
            moves.path_to_canonical(far)
        assert repr(code) in str(refused.value)
        assert _TAMPER_REASONS[tamper] in str(refused.value)
        assert bottom_trees == held

    @pytest.mark.parametrize("tamper", ["start", "move"])
    def test_tampered_bottom_record_is_refused(self, monkeypatch,
                                               bottom_trees, tamper):
        # a query whose bottom class is the one with the tampered record,
        # still in the tree's frontier and so never checked by the tree, is
        # refused by the query's own check of that record, naming it
        code, bottom, _far = _tampered_tree(monkeypatch, tamper)
        held = dict(bottom_trees)
        with pytest.raises(ChordLabError, match="witness path for") as refused:
            moves.path_to_canonical(bottom)
        assert repr(code) in str(refused.value)
        assert _TAMPER_REASONS[tamper] in str(refused.value)
        assert bottom_trees == held

    def test_descent_that_stops_above_the_bottom_is_refused(
            self, monkeypatch):
        # under the lemma's control rule a (1;1,1) class of 6 edges has no
        # collapsible edge, one above the bottom layer's 5: its descent
        # stops at once, and the refusal names it
        monkeypatch.setattr(ch, "_essential", essential_either_end)
        stuck = {code: form for code, form in generate.enumerate_classes(
            TopType(1, 1, 1), 6).items()
            if form.graph.n_edges == 6 and not any(
                ch._collapsible_edges(ch._diagram_tables(form)))}
        assert len(stuck) == 1
        (code, d), = stuck.items()
        with pytest.raises(ChordLabError,
                           match="the descent stops at") as refused:
            moves.path_to_canonical(d)
        assert repr(code) in str(refused.value)
        assert "with 6 edges" in str(refused.value)

    def test_bottom_class_the_tree_does_not_hold_is_refused(
            self, monkeypatch, bottom_trees):
        # with no neighbours the tree of (1;1,2) is its base point alone,
        # grown in full: any other bottom class is refused, by name
        monkeypatch.setattr(moves, "_neighbors", lambda *args: [])
        base = ch.diagram_code(ch.canonical_gamma0(1, 1, 2))
        code, d = next((code, c) for code, c in generate.enumerate_classes(
            TopType(1, 1, 2), 7).items() if code != base)
        with pytest.raises(ChordLabError,
                           match="does not hold this bottom class") as refused:
            moves.path_to_canonical(d)
        assert type(refused.value) is ChordLabError
        assert repr(code) in str(refused.value)
        assert [len(tree) for tree, _frontier in bottom_trees.values()] == [1]

    def test_search_exhausted_reports_frontier(self):
        exc = SearchExhausted("no path", frontier_size=7)
        assert exc.frontier_size == 7


# the walks of tests/test_golden.py's path digests: steps -> (types, seeds)
_GOLDEN_WALKS = {
    6: ([(1, 1, 2), (1, 2, 1), (0, 3, 2), (0, 2, 3), (2, 1, 1)], range(10)),
    8: ([(1, 1, 2), (0, 3, 2), (0, 2, 3), (2, 1, 1), (1, 1, 3), (2, 1, 2)],
        range(20)),
}


def _walk_answers(steps):
    """path_to_canonical's answers from the ends of the golden walks of
    this many moves."""
    tops, seeds = _GOLDEN_WALKS[steps]
    return [moves.path_to_canonical(generate.random_diagram(
        random.Random(seed), *top, steps=steps))
        for top in tops for seed in seeds]


def _tree_layers(top, depth):
    """The keys of layers 0 to depth of type top's tree (moves._bottom_tree),
    grown cold with moves._grow from the base point's key."""
    g, p, q = top
    goal = ch.canonical_gamma0(g, p, q)
    info: dict = {goal._canonical[0]: (None, None, None)}
    layers = [{goal._canonical[0]: set()}]
    for _ in range(depth):
        layers.append(moves._grow(info, layers[-1], goal.graph.n_edges + 1,
                                  p, q))
    return [list(layer) for layer in layers]


# what the witness check says of each tamper of _tampered_tree: a start
# that does not spell, and a move chord._apply refuses
_TAMPER_REASONS = {"start": "does not spell", "move": "is essential"}


def _tampered_tree(monkeypatch, tamper):
    """Tamper the record of the first class of (1;1,2)'s tree's second
    layer, a bottom class, as _neighbors makes it: its start moved to the
    next half-edge, or its inverse move swapped for its forward move, a
    collapse, which no bottom class can make.  Then grow the tree through
    the memo to that layer, by a query on the layer's last class.  Returns
    the tampered class's code, its diagram and a diagram of the fourth
    layer, whose query expands the second."""
    def diagram(key):
        return _diagram(ch._tables(*ch._code(key, 1, 2)[1], 1, 2))

    layers = _tree_layers((1, 1, 2), 4)
    target = layers[2][0]
    assert len(layers[2]) > 1 and layers[4]
    original, tampered = moves._neighbors, []

    def tampering(t, max_edges, skip):
        out = original(t, max_edges, skip)
        for i, (key, fwd, inv, start) in enumerate(out):
            if key == target and not tampered:
                out[i] = ((key, fwd, inv, (start + 1) % len(t.pairing))
                          if tamper == "start" else (key, fwd, fwd, start))
                tampered.append(key)
        return out

    monkeypatch.setattr(moves, "_neighbors", tampering)
    moves.path_to_canonical(diagram(layers[2][-1]))
    assert tampered
    return ch._code(target, 1, 2)[0], diagram(target), diagram(layers[4][0])


def _held(trees):
    """The classes a memo of per-type trees holds, over all its types."""
    return sum(len(tree) for tree, _frontier in trees.values())


def _cold_tree(top, size):
    """The records and frontier of type top's tree (moves._bottom_tree)
    grown cold, layer by layer with moves._grow from the base point's key
    under the ceiling E_min+1, until it holds size classes or is whole."""
    g, p, q = top
    goal = ch.canonical_gamma0(g, p, q)
    info: dict = {goal._canonical[0]: (None, None, None)}
    frontier: dict = {goal._canonical[0]: set()}
    while len(info) < size and frontier:
        frontier = moves._grow(info, frontier, goal.graph.n_edges + 1, p, q)
    return info, frontier


def _assert_cold_trees(trees):
    """Each tree the memo holds is the one grown cold to its size, record
    for record in discovery order, with the same frontier."""
    for top, (tree, frontier) in trees.items():
        info, cold_frontier = _cold_tree(top, len(tree))
        assert list(tree.items()) == list(info.items())
        assert dict(frontier) == cold_frontier


@pytest.fixture
def bottom_trees(monkeypatch):
    """An empty memo of path_to_canonical's per-type trees, in place of the
    process's own until the test ends."""
    trees: dict = {}
    monkeypatch.setattr(moves, "_BOTTOM_TREES", trees)
    return trees


class TestGoalLayers:
    """path_to_canonical's per-type trees, grown layer by layer from the
    base point (moves._BOTTOM_TREES)."""

    @pytest.mark.parametrize("first,second", [(6, 8), (8, 6)])
    def test_warm_memo_gives_the_cold_answers(self, bottom_trees, first,
                                              second):
        # the golden walks' answers, each set asked with an empty memo and
        # again after the other set has filled it; the sets share types
        cold = {first: _walk_answers(first)}
        types = set(bottom_trees)
        bottom_trees.clear()
        cold[second] = _walk_answers(second)
        assert types & set(bottom_trees)
        assert _walk_answers(first) == cold[first]
        assert _walk_answers(second) == cold[second]

    def test_stored_layers_are_cold_and_read_only(self, bottom_trees):
        _walk_answers(6)
        assert len(bottom_trees) == 5
        _assert_cold_trees(bottom_trees)
        for tree, frontier in bottom_trees.values():
            assert all(type(record) is tuple for record in tree.values())
            assert all(type(skip) is frozenset for skip in frontier.values())
            key = next(iter(tree))
            with pytest.raises(TypeError):
                tree[key] = (None, None, None)
            with pytest.raises(TypeError):
                frontier[key] = frozenset()
            with pytest.raises(AttributeError):
                next(iter(frontier.values())).add(("collapse", 0))

    def test_memo_held_within_the_class_budget(self, monkeypatch,
                                               bottom_trees):
        # under a small budget a tree is kept only while the memo stays
        # within it, whether its query succeeds or exhausts, and every tree
        # kept is a cold one; the default budget keeps more of the same
        # queries' trees
        def ask():
            for top in ((1, 1, 2), (0, 3, 2), (2, 1, 1), (1, 2, 1)):
                rng = random.Random(3)
                for _ in range(8):
                    with contextlib.suppress(SearchExhausted):
                        moves.path_to_canonical(
                            generate.random_diagram(rng, *top, steps=6))
                    yield _held(bottom_trees)

        with monkeypatch.context() as patch:
            patch.setattr(generate, "EXPLORE_CLASS_BUDGET", 40)
            held = list(ask())
        # the first query's bottom class is the base point: no tree grows
        assert held[0] == 0 and 0 < held[1] < held[-1] and max(held) <= 40
        _assert_cold_trees(bottom_trees)
        bottom_trees.clear()
        assert max(ask()) > 40

    def test_no_layer_kept_after_one_that_is_not(self, monkeypatch,
                                                 bottom_trees):
        # under a budget of 40, with (1;2,1)'s tree held to its second
        # layer (14 classes), (1;1,2)'s tree is grown in full, layers of 6,
        # 14, 26, 32, ... classes: it is kept at 26, and no deeper layer is
        # kept once one would pass the budget, until the growth exhausts
        monkeypatch.setattr(generate, "EXPLORE_CLASS_BUDGET", 40)
        second_layer = list(_cold_tree((1, 2, 1), 14)[0])[-1]
        moves._bottom_tree(TopType(1, 2, 1), second_layer)
        with pytest.raises(SearchExhausted, match="EXPLORE_CLASS_BUDGET = 40"):
            moves._bottom_tree(TopType(1, 1, 2), second_layer)
        assert {top: len(tree) for top, (tree, _frontier)
                in bottom_trees.items()} == {(1, 2, 1): 14, (1, 1, 2): 26}
        _assert_cold_trees(bottom_trees)

    def test_exhausted_layer_is_not_stored(self, monkeypatch, bottom_trees):
        # under a budget of 30 this (2;1,1) query's tree holds 29 classes
        # after its second layer and exhausts in its third: only the first
        # two are kept, and asking again raises the same refusal.  So does
        # asking under that budget once the default budget has kept the tree
        # to the query's bottom class, in its fourth layer: a held tree over
        # the budget is not read, and a cold one no deeper does not replace it
        d = generate.random_diagram(random.Random(2), 2, 1, 1, steps=6)
        refusals = []

        def refusal():
            with monkeypatch.context() as patch:
                patch.setattr(generate, "EXPLORE_CLASS_BUDGET", 30)
                with pytest.raises(SearchExhausted, match=(
                        "EXPLORE_CLASS_BUDGET = 30")) as refused:
                    moves.path_to_canonical(d)
            assert any(frame.name == "_bottom_tree" for frame in
                       refused.traceback)
            refusals.append((str(refused.value), refused.value.frontier_size))
            return [len(tree) for tree, _frontier in bottom_trees.values()]

        assert refusal() == refusal() == [29]
        moves.path_to_canonical(d)
        assert refusal() == [169]
        assert refusals[0] == refusals[1] == refusals[2]
