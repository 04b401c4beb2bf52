"""The collapse/expansion move graph on isomorphism classes of chord diagrams.

A class is its least word (chord._canonicalize): the word of the canonical
search, the same whichever member of the class is searched.  A search keys
each class it reaches by its word's bytes, records its parent's key and one
move under it, and holds a frontier class as that key alone.  The class's
code text, and the columns of its word (the rotation, pairing and integer
colors of its canonical form), are written only when the class is
expanded, when it is a candidate meeting class or when it is reported
(chord._code).  So every move in a recorded path refers to half-edge ids
of the canonical representative at that step; replaying a path means
alternating apply_move and canonical_form.  path_to_canonical and
explore's witness check replay on the canonical tables instead, through
the one checked move (chord._apply) that apply_move makes on a diagram.
A move names only what is free: a collapse its edge, an expansion the two
half-edges that end its arcs.  The inverse of a collapse is the split at
the half-edges before the edge's two ends; the inverse of an expansion
collapses its new edge.  Markings play no part in an unmarked move: which
edges collapse, which splits exist and the label and colors of a split's
new edge are read off the labels, rotations and cycles, and every move
keeps every cycle.  So a search carries no markings and builds no diagram.

explore() verifies, at desk scale, that all classes of a type within an edge
bound form a single move-connected component, cross-checking the breadth-first
search against an independent exhaustive enumeration of the classes.  Its
witness paths are checked by induction on depth: each class's recorded
inverse move, applied to the class's canonical tables, must reach its
parent's class, which is as strong as replaying every path in full (see
_check_witness).  Its breadth-first search gives up with SearchExhausted
past generate.EXPLORE_CLASS_BUDGET classes.

The searches canonicalize each move once, bar a second move between the
same two classes.  A move changes the edge count by one, so it joins two
consecutive layers of a breadth-first search.  It is canonicalized when the
class of the earlier layer is expanded, and its inverse, which is then known,
is recorded as a move the later class skips.  A skipped move only leads to a
class already recorded, so first discoveries, depths, witness paths and
path_to_canonical's answers are unchanged.  Skipping can only drop an edge of
the search, never add one: connectivity is still proven only by moves
actually applied and canonicalized, and a class no longer reached would show
against the enumerator as unreached.

Each canonicalization costs one canonical search.  Every diagram of type
(g;p,q) takes the same colors, so a half-edge's color is an int: its cycle's
position, plus q on a ghost (chord._int_colors).  When a class is expanded,
its labels, inverse rotation and vertex, ghost-component and
circular-vertex tables are derived from its columns once (chord._tables).
Its collapsible edges are read off them (chord._collapsible_edges), and
each child's tables and colors are derived from them (_children): a
collapse joins two rotations and drops its edge's two halves, and a split
cuts one rotation and appends its two new halves, colored by the cycles
they join (chord._collapse_child, chord._split_child, which chord._apply
also calls).  The search runs on the child's tables, and the least word
names the class (chord._canonicalize, the one routine from raw tables to a
class, which the enumerator and canonical_form share).  The public
neighbors_with_moves runs the same routine (_neighbors) and builds a
representative from the columns.  The search is serial: one process
expands each layer class by class, in code order.  explore's enumerator
is independent of it, so where a second CPU is usable and the process has
one thread, explore forks it before the search starts and reads its class
codes, one a line through a pipe, once the search ends
(_search_beside_enumerator).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
from dataclasses import dataclass

from . import chord as ch
from . import errors, generate
from . import fatgraph as fg
from .chord import ChordDiagram
from .errors import BoundTooSmall, ChordLabError, SearchExhausted
from .fatgraph import TopType

__all__ = [
    "MoveGraphReport",
    "Move",
    "apply_move",
    "neighbors",
    "explore",
    "path_to_canonical",
]

# A move is ("collapse", edge) or ("expand", x, y), the vertex split cutting
# the rotation after x and after y (its label is read off the vertex); half-edge
# ids refer to the diagram the move is applied to.
Move = tuple

# edges above the larger endpoint that path_to_canonical may search through
_PATH_SLACK = 4


def apply_move(c: ChordDiagram, move: Move) -> ChordDiagram:
    """The diagram move leaves on c, made by the one checked move
    (chord._apply) on c's tables, a collapse carrying c's markings across;
    a move apply_move refuses raises a ChordLabError."""
    return ch._moved(c, ch._diagram_tables(c), move)


def _children(t, max_edges: int | None, skip):
    """Each move of the class with tables t not in skip, with its child's
    pairing, rotation and chord._int_colors, derived from t without
    building the child; and the two child half-edges its inverse names:
    the half-edges before the collapsed edge's two ends, where the collapse
    joined the two rotations, or a split's new edge, n and n+1.  A split in
    skip matches in either order; splits are left out at max_edges edges.
    The collapsible edges are read off t by chord._collapsible_edges."""
    prev = t.prev
    for a, b in ch._collapsible_edges(t):
        move = ("collapse", a)
        if move in skip:
            continue
        ends = tuple(h - (h > a) - (h > b) for h in (prev[a], prev[b]))
        yield (move, ends, *ch._collapse_child(t, a, b))
    n = len(t.pairing)
    if max_edges is not None and n >= 2 * max_edges:
        return
    for x, y in ch._splits(t.vertices):
        move = ("expand", x, y)
        if move in skip or ("expand", y, x) in skip:
            continue
        yield (move, (n, n + 1), *ch._split_child(t, x, y))


def _neighbors(t, max_edges: int | None, skip):
    """Every search's one routine per class: all move-graph neighbours of
    the class with tables t (chord._tables), passing over the moves in
    skip, as a deduplicated list of (key, least word, forward move on t,
    inverse move on the canonical tables), each class with its first move
    in _children's order.  Each child costs one canonical search on tables
    derived from t (_children)."""
    p, q = t.p, t.q
    found: dict = {}
    for move, (u, v), pairing, nxt, colors in _children(t, max_edges, skip):
        key, word, label = ch._canonicalize(pairing, nxt, colors, p, q)
        if key not in found:
            if move[0] == "collapse":
                inverse = ("expand", label[u], label[v])
            else:
                inverse = ("collapse", min(label[u], label[v]))
            found[key] = (key, word, move, inverse)
    return list(found.values())


def neighbors_with_moves(c: ChordDiagram, max_edges: int | None = None):
    """All move-graph neighbors of c (itself assumed canonical).

    Returns a code-sorted, deduplicated list of
    (code, canonical representative, forward move on c, inverse move on the
    representative), from the searches' own routine (_neighbors) on c's
    tables.  A representative is its class's canonical form, marked at the
    least circular half-edge of each cycle: an unmarked move carries no
    marking.
    """
    p, q = c.p, c.q
    out = []
    for key, _word, fwd, inv in _neighbors(ch._diagram_tables(c), max_edges,
                                           ()):
        code, columns = ch._code(key, p, q)
        out.append((code, ch._form(columns, p, q,
                                   ch._least_markings(columns[2], p, q)),
                    fwd, inv))
    return sorted(out, key=lambda entry: entry[0])


def neighbors(c: ChordDiagram) -> list[ChordDiagram]:
    """Deduplicated move-graph neighbors: single-edge collapses plus
    single-vertex expansions."""
    canon = ch.canonical_form(c)
    return [rep for _code, rep, _fwd, _inv in neighbors_with_moves(canon)]


@dataclass
class MoveGraphReport:
    top_type: TopType
    edge_bound: int
    class_count: int
    component_count: int
    witness_paths: dict[bytes, list[Move]]   # class code -> moves to Γ₀'s class
    unreached: list[bytes]

    def to_json_dict(self) -> dict:
        return {
            "type": str(self.top_type),
            "bound": self.edge_bound,
            "classes": self.class_count,
            "components": self.component_count,
            "unreached": [code.decode("ascii") for code in self.unreached],
            "witness_lengths": {
                code.decode("ascii"): len(path)
                for code, path in sorted(self.witness_paths.items())
            },
        }


def _grow(info: dict, frontier: dict, max_edges: int, p: int, q: int,
          forward=False, check=None):
    """Expand one search layer of type (g;p,q), class by class in code
    order: record each unseen neighbour of the frontier in info as (parent
    key, move), the move being the forward one or, by default, the inverse.

    info and the frontier are keyed by least words (chord._canonicalize);
    the frontier maps each to the moves its class skips.  Each frontier
    class's columns and code are written here, once, and the layer is
    expanded in code order, not key order (code text puts "10" before "8").
    A class's tables are derived as it is expanded (chord._tables); check,
    if given, is called as check(info, key, code, tables) first.  Returns
    the new frontier, each class skipping the inverse of every move of this
    layer that reached it (see the module docstring)."""
    layer = sorted((*ch._code(key, p, q), key) for key in frontier)
    new: dict = {}
    for code, columns, parent in layer:
        t = ch._tables(*columns, p, q)
        if check is not None:
            check(info, parent, code, t)
        for key, _word, fwd, inv in _neighbors(t, max_edges,
                                               frontier[parent]):
            if key not in info:
                info[key] = (parent, fwd if forward else inv)
                new[key] = set()
            if key in new:
                new[key].add(inv)
    return new


def _bfs(key, p: int, q: int, max_edges: int, check=None):
    """Breadth-first search over classes of type (g;p,q) from the class
    with this key (chord._canonicalize); returns info, code -> (parent code,
    inverse move), with (None, None) for the start.  The search keys
    classes by least words (_grow); each class reached is expanded, and its
    code written, once, and info is rekeyed by those codes at the end.  No
    diagram is built.  check, if given, is called as _grow calls it.
    Raises SearchExhausted once a layer leaves more than
    generate.EXPLORE_CLASS_BUDGET classes."""
    info: dict = {key: (None, None)}
    frontier: dict = {key: set()}
    codes: dict = {None: None}   # the start's parent is None
    budget = generate.EXPLORE_CLASS_BUDGET

    def expanded(info, key, code, t):
        codes[key] = code
        if check is not None:
            check(info, key, code, t)

    while frontier:
        frontier = _grow(info, frontier, max_edges, p, q, check=expanded)
        if len(info) > budget:
            raise SearchExhausted(
                f"{len(info)} classes exceed the class budget "
                f"EXPLORE_CLASS_BUDGET = {budget}",
                frontier_size=len(frontier))
    return {codes[key]: (codes[parent], move)
            for key, (parent, move) in info.items()}


def _check_witness(info: dict, key, code: bytes, t) -> None:
    """Refuse the class with this key and code, and tables t, unless its
    recorded inverse move reaches its parent's class.

    A witness path is its class's inverse move followed by its parent's
    path, so checking every class's one move against its parent's key
    checks every path, by induction on depth.  t is the class's canonical
    tables, those of canonical_form whatever parent reached it, and
    chord._apply makes and refuses the move, as apply_move does on the
    canonical representative.  So the tables it leaves are those of the
    diagram a full replay reaches after that move, and they canonicalize to
    the class the replay reaches.  An unmarked move reads no marking, so the parent's
    path replays from that class as it does from the parent's
    representative."""
    parent, inv = info[key]
    if parent is None:
        return
    try:
        if ch._canonicalize(*ch._apply(t, inv), t.p, t.q)[0] != parent:
            raise ChordLabError("its move reaches another class")
    except ChordLabError as exc:
        raise ChordLabError(
            f"witness path for {code!r} does not replay: {exc}") from exc


def _fork_pays() -> bool:
    """Whether explore forks its enumerator: a fork is safe only while this
    is the process's one thread, and pays only with a second usable CPU."""
    return (hasattr(os, "fork") and threading.active_count() == 1
            and len(getattr(os, "sched_getaffinity", lambda _pid: ())(0)) >= 2)


def _codes(top: TopType, edge_bound: int):
    """The code of each class generate._classes meets, in its order."""
    return (code for code, _columns, _markings
            in generate._classes(top, edge_bound))


def _tally(codes, info: dict) -> tuple[int, list[bytes]]:
    """The number of codes, and those not in info, in their order."""
    count, unreached = 0, []
    for code in codes:
        count += 1
        if code not in info:
            unreached.append(code)
    return count, unreached


def _enumerate_into(r: int, w: int, top: TopType, edge_bound: int):
    """The forked enumerator: closes the pipe's read end r, keeps every
    code of _codes, then writes them to the write end w, one a line; or a
    failure as one line marked "!", the JSON of its exception's class name
    and message.  The codes are written only once all are met, since a
    full pipe would stall the enumeration until the parent reads.  It
    leaves through os._exit, so it never returns into its caller's stack
    and flushes no buffer it inherited."""
    status = 1
    try:
        os.close(r)
        with os.fdopen(w, "wb") as out:
            try:
                codes = list(_codes(top, edge_bound))
            except Exception as exc:
                out.write(b"!" + json.dumps(
                    [type(exc).__name__, str(exc)]).encode() + b"\n")
            else:
                for code in codes:
                    out.write(code + b"\n")
                status = 0
    finally:
        os._exit(status)


def _read_codes(lines):
    """The codes _enumerate_into wrote, line by line; its failure is raised
    here: a ChordLabError as the same subclass with the same message, any
    other exception as a ChordLabError that names the enumerator."""
    for line in lines:
        if line.startswith(b"!"):
            name, message = json.loads(line[1:])
            cls = getattr(errors, name, None)
            if isinstance(cls, type) and issubclass(cls, ChordLabError):
                raise cls(message)
            raise ChordLabError(f"the enumerator failed: {name}: {message}")
        yield line[:-1]


def _search_beside_enumerator(top: TopType, edge_bound: int, search):
    """search()'s result, the number of classes the enumerator
    (generate._classes) meets and, in its order, the codes of those not in
    that result.

    Where _fork_pays, the enumerator runs in a child forked before search()
    starts, and sends its codes through a pipe; they are read after
    search() ends, one line at a time.  Otherwise the enumerator runs here,
    after search().  Either way the same codes arrive in the same order.  A
    failure of the parent, search()'s included, kills the child before it
    is reaped, rather than wait for an enumeration nobody will read; a
    child that fails with nothing sent, or dies by a signal, raises a
    ChordLabError that names the enumerator.  A fork the system refuses
    leaves the enumerator here."""
    pid = None
    if _fork_pays():
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
    if pid is None:
        result = search()
        return (result, *_tally(_codes(top, edge_bound), result))
    if pid == 0:
        _enumerate_into(r, w, top, edge_bound)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as lines:
            result = search()
            tally = _tally(_read_codes(lines), result)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _pid, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        name = number = os.WTERMSIG(status)
        with contextlib.suppress(ValueError):   # a signal with no name
            name = signal.Signals(number).name
        raise ChordLabError(f"the enumerator was killed by signal {name}")
    if os.WEXITSTATUS(status):
        raise ChordLabError(
            f"the enumerator failed with exit status {os.WEXITSTATUS(status)}")
    return (result, *tally)


def explore(top: TopType, edge_bound: int) -> MoveGraphReport:
    """Search the move graph of one type, bounded by edge count.

    Starts at the base-point diagram, discovers classes by breadth-first
    search, independently enumerates every class of the type within the
    bound, and reports the classes the search did not reach.  Witness paths
    (move sequences back to the base point) are checked by induction: each
    class's first move, applied to the canonical tables the search derives
    for it, must lead to its parent's class (_check_witness), checked as
    the class is expanded.  The enumerator (generate._classes) runs in a
    child forked before the search, where that is safe and can pay
    (_fork_pays), and in this process after the search otherwise; either
    way explore keeps only the codes of the classes the search did not
    reach, and searches from each such class's code only to count
    components; no diagram is built but the base point.  No process is
    left behind, on success or failure.  A search that holds more than
    generate.EXPLORE_CLASS_BUDGET classes after a layer, or an enumeration
    that meets more, raises SearchExhausted.
    """
    generate._require_int("edge_bound", edge_bound)
    p, q = top.p, top.q
    g0 = ch.canonical_gamma0(top.genus, p, q)
    if edge_bound < g0.graph.n_edges:
        raise BoundTooSmall(
            f"bound {edge_bound} below the {g0.graph.n_edges}-edge base point"
        )
    start = ch._least(g0)[0]

    info, class_count, unreached = _search_beside_enumerator(
        top, edge_bound,
        lambda: _bfs(start, p, q, edge_bound, _check_witness))
    stray = len(info) - (class_count - len(unreached))
    if stray:
        raise ChordLabError(
            f"search produced {stray} classes outside the enumeration"
        )
    unreached.sort()

    # unreached classes can only border other unreached classes (the move
    # graph is undirected), so count their components separately, each
    # searched from the key of the least code left
    component_count = 1
    pending = set(unreached)
    while pending:
        component_count += 1
        nxt, pairing, colors = fg._code_columns(min(pending))
        key = ch._canonicalize(pairing, nxt, colors, p, q)[0]
        pending -= set(_bfs(key, p, q, edge_bound))

    witness: dict[bytes, list[Move]] = {}

    def path_of(code):
        if code not in witness:
            parent, inv = info[code]
            witness[code] = [] if parent is None else [inv] + path_of(parent)
        return witness[code]

    for code in sorted(info):
        path_of(code)

    return MoveGraphReport(
        top_type=top,
        edge_bound=edge_bound,
        class_count=class_count,
        component_count=component_count,
        witness_paths=witness,
        unreached=unreached,
    )


def path_to_canonical(c: ChordDiagram) -> list[Move]:
    """A replay-verified move sequence from c to the base-point diagram of
    its type, found by bidirectional search with edge ceiling
    max(edges(c), edges(base point)) + _PATH_SLACK.

    The returned moves are applied to canonical representatives: replay as
    d = canonical_form(apply_move(d, move)) starting from canonical_form(c).
    Before it is returned, the path is replayed that way on canonical
    tables, through the same checked move as explore's witness check
    (_check_witness).
    """
    top = c.top_type()
    p, q = top.p, top.q
    goal = ch.canonical_gamma0(top.genus, p, q)
    ceiling = max(c.graph.n_edges, goal.graph.n_edges) + _PATH_SLACK
    start_key, word, _label = ch._least(c)
    goal_key = ch._least(goal)[0]

    # side A grows from c recording forward moves (parent rep -> child);
    # side B grows from the base point recording inverse moves (child rep ->
    # parent), so a meeting class yields a full path without re-searching
    a_info: dict = {start_key: (None, None)}
    b_info: dict = {goal_key: (None, None)}
    a_frontier: dict = {start_key: set()}
    b_frontier: dict = {goal_key: set()}

    def meet_key():
        # the common class of least code; only the common ones are written
        common = a_info.keys() & b_info.keys()
        return min(common, key=lambda key: ch._code(key, p, q)[0],
                   default=None)

    meet = meet_key()
    while meet is None and (a_frontier or b_frontier):
        if a_frontier and (not b_frontier or len(a_frontier) <= len(b_frontier)):
            a_frontier = _grow(a_info, a_frontier, ceiling, p, q, forward=True)
        else:
            b_frontier = _grow(b_info, b_frontier, ceiling, p, q)
        meet = meet_key()

    if meet is None:
        raise SearchExhausted(
            f"no path within edge ceiling {ceiling}",
            frontier_size=len(a_frontier) + len(b_frontier),
        )

    # forward moves from the start down to the meeting class
    path = []
    key = meet
    while a_info[key][0] is not None:
        key, move = a_info[key]
        path.append(move)
    path.reverse()
    # inverse moves from the meeting class back to the base point
    key = meet
    while b_info[key][0] is not None:
        key, move = b_info[key]
        path.append(move)

    # replay: each move is made on the canonical tables of the class before
    key = start_key
    for move in path:
        t = ch._tables(*fg._columns(word, p + 2 * q), p, q)
        key, word, _label = ch._canonicalize(*ch._apply(t, move), p, q)
    if key != goal_key:
        raise ChordLabError("path replay does not reach the base point")
    return path
