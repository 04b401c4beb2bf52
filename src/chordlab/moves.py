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
_check_witness).  Every search gives up with SearchExhausted past
generate.EXPLORE_CLASS_BUDGET classes, checked as each class is expanded.

A recorded move carries a certificate: the start, the half-edge of the
tables the move leaves that is the canonical half-edge 0 of the class it
leads to.  _neighbors makes it for each move and its inverse, and _grow
records the one its side keeps.  The witness check and path_to_canonical's
replay make each move through chord._apply and then run one traversal from
that start (fatgraph._spells), which must spell the class's least word
entry by entry (_certify).  Spelling the word proves the class whatever the
start, so neither makes a canonical search, and a wrong start can only
refuse a move.

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
position, plus q on a ghost (chord._int_colors), so a color of p+q or more
is a ghost's.  When a class is expanded, its inverse rotation and vertex,
ghost-component and circular-vertex tables are derived from its columns
once (chord._tables).
Its collapsible edges are read off them (chord._collapsible_edges), and
each move is an edit of the class's rotation (_edits): a collapse points
the half-edges before its edge's two ends past the edge, and leaves the
edge's two halves as dead ids; a split cuts the rotation after x and y
and fills two spare slots, n and n+1, with its new edge, colored by the
cycles it joins (chord._collapse_edit, chord._split_edit).  The edit is
the one definition of each move: chord._apply, the checked move, compacts
the same edit into renumbered tables (chord._compact).  _neighbors makes
each edit on one copy of the class's rotation, searches the live
half-edges there and undoes the edit; the rank of word entry 0 is derived
once per class and ranked again only where an edit touches it.  The least
word names the class (chord._canonicalize, the one routine from raw
tables to a class, which the enumerator and canonical_form share, and
fatgraph._search, the one search).  The public
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


def _edits(t, max_edges: int | None, skip):
    """Each move of the class with tables t not in skip, as the edit of
    t's rotation that makes it (chord._collapse_edit, chord._split_edit):
    (move, the half-edges whose nxt it sets, their new nxt, the colors of
    a split's new edge n, n+1, a collapse's dead ids a < b).  The
    collapses come first, in edge order (chord._collapsible_edges), then
    the splits (chord._splits), which are left out at max_edges edges.  A
    split in skip matches in either order."""
    for a, b in ch._collapsible_edges(t):
        move = ("collapse", a)
        if move not in skip:
            yield (move, *ch._collapse_edit(t, a, b), (), (a, b))
    if max_edges is not None and len(t.pairing) >= 2 * max_edges:
        return
    for x, y in ch._splits(t.vertices):
        move = ("expand", x, y)
        if move not in skip and ("expand", y, x) not in skip:
            yield (move, *ch._split_edit(t, x, y), ())


def _undo(nxt, base, touched) -> None:
    """Undo an edit (_edits) of the rotation nxt, a copy of base: set nxt
    back to base at each half-edge the edit touched."""
    for h in touched:
        nxt[h] = base[h]


def _neighbors(t, max_edges: int | None, skip):
    """Every search's one routine per class: all move-graph neighbours of
    the class with tables t (chord._tables), passing over the moves in
    skip, as a deduplicated list of (key, forward move on t, its start,
    inverse move on the canonical tables, its start), each class with its
    first move in _edits' order.  Each start certifies its move (_certify).

    Each child costs one canonical search, on t's own tables, edited in
    place: one copy of t's rotation, with two spare slots for a split's
    new edge, takes each move's edit (_edits), is searched over its live
    half-edges and is restored (_undo).  The rank of word entry 0 of each
    half-edge (fatgraph._first_entries) is derived once per class.  An
    edit changes it only at the half-edges it touches, two for a collapse
    and x, y, n and n+1 for a split, so only those are ranked again, and a
    collapse's two dead ids start nothing.  The search
    (chord._canonicalize) runs from the starts of least entry 0, in id
    order, so the key, and the labeling renumbered past the dead ids, are
    those a search of the child's compacted tables (chord._apply) finds.

    This is the one routine that knows how chord._apply numbers each end
    of a move, so no labeling leaves it.  A collapse drops its dead ids a
    < b, renumbering every id above them down; a split appends n and n+1
    and keeps every other id.  The forward start is the child half-edge
    the labeling sends to 0, so numbered.  The inverse start is t's
    half-edge 0 on the tables the inverse move leaves on the child's
    canonical tables: the split undoing a collapse keeps every id and
    appends the collapsed halves, the first being t's 0 if edge 0
    collapsed; the collapse undoing a split drops its new edge's two
    labels."""
    p, q = t.p, t.q
    n_colors = p + 2 * q
    n = len(t.pairing)
    base = [*t.nxt, -1, -1]
    nxt = base.copy()
    pairing = [*t.pairing, n + 1, n]
    colors = [*t.colors, 0, 0]
    first = fg._first_entries(pairing, nxt, colors, n_colors, range(n))
    least = min(first)
    leasts = [h for h in range(n) if first[h] == least]
    found: dict = {}
    for move, touched, values, new, dead in _edits(t, max_edges, skip):
        for h, k in zip(touched, values):
            nxt[h] = k
        if new:
            colors[n], colors[n + 1] = new
        ranks = fg._first_entries(pairing, nxt, colors, n_colors, touched)
        top = min(ranks)
        changed = touched + dead
        starts = [h for h in leasts if h not in changed]
        if top <= least or not starts:
            # the edit ranks a half-edge as low as the least, or edits every
            # least one: rank the others and the edited ones together
            low = least
            if not starts:
                rest = [h for h in range(n) if h not in changed]
                low = min(first[h] for h in rest)
                starts = [h for h in rest if first[h] == low]
            if top <= low:
                starts = sorted((starts if top == low else []) + [
                    h for h, rank in zip(touched, ranks) if rank == top])
        key, _word, label = ch._canonicalize(
            pairing, nxt, colors, p, q, n + len(new) - len(dead), starts)
        _undo(nxt, base, touched)
        if key in found:
            continue
        start = label.index(0)
        if dead:
            a, b = dead
            found[key] = (key, move, start - (start > a) - (start > b),
                          ("expand", label[touched[0]], label[touched[1]]),
                          n - 2 if a == 0 else label[0])
        else:
            u, v = sorted((label[n], label[n + 1]))
            found[key] = (key, move, start, ("collapse", u),
                          label[0] - (label[0] > u) - (label[0] > v))
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
    for key, fwd, _start, inv, _inv_start in _neighbors(
            ch._diagram_tables(c), max_edges, ()):
        code, columns = ch._code(key, p, q)
        out.append((code, ch._form(columns, p, q,
                                   ch._least_markings(columns[2], p, q)),
                    fwd, inv))
    return sorted(out, key=lambda entry: entry[0])


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
    key, move, start), the move being the forward one or, by default, the
    inverse, and start the certificate _neighbors made for it (_certify).

    info and the frontier are keyed by least words (chord._canonicalize);
    the frontier maps each to the moves its class skips.  Each frontier
    class's columns and code are written here, once, and the layer is
    expanded in code order, not key order (code text puts "10" before "8").
    A class's tables are derived as it is expanded (chord._tables); check,
    if given, is called as check(info, key, code, tables) first.  Before
    each class is expanded, raises SearchExhausted if info holds more than
    generate.EXPLORE_CLASS_BUDGET classes, so a search holds at most that
    many plus one class's neighbours.  Returns the new frontier, each class
    skipping the inverse of every move of this layer that reached it (see
    the module docstring)."""
    layer = sorted((*ch._code(key, p, q), key) for key in frontier)
    new: dict = {}
    budget = generate.EXPLORE_CLASS_BUDGET
    for i, (code, columns, parent) in enumerate(layer):
        if len(info) > budget:
            raise SearchExhausted(
                f"{len(info)} classes exceed the class budget "
                f"EXPLORE_CLASS_BUDGET = {budget}",
                frontier_size=len(layer) - i + len(new))
        t = ch._tables(*columns, p, q)
        if check is not None:
            check(info, parent, code, t)
        for key, fwd, fwd_start, inv, inv_start in _neighbors(
                t, max_edges, frontier[parent]):
            if key not in info:
                info[key] = ((parent, fwd, fwd_start) if forward
                             else (parent, inv, inv_start))
                new[key] = set()
            if key in new:
                new[key].add(inv)
    return new


def _bfs(key, p: int, q: int, max_edges: int, check=None):
    """Breadth-first search over classes of type (g;p,q) from the class
    with this key (chord._canonicalize); returns info, code -> (parent code,
    inverse move), in discovery order, so each class after its parent, with
    (None, None) for the start.  The search keys
    classes by least words (_grow); each class reached is expanded, and its
    code written, once, and info is rekeyed by those codes at the end,
    without the certificate starts.  No diagram is built.  check, if given,
    is called as _grow calls it.  Raises SearchExhausted, as each class is
    expanded, once more than generate.EXPLORE_CLASS_BUDGET classes are held
    (_grow)."""
    info: dict = {key: (None, None, None)}
    frontier: dict = {key: set()}
    codes: dict = {None: None}   # the start's parent is None

    def expanded(info, key, code, t):
        codes[key] = code
        if check is not None:
            check(info, key, code, t)

    while frontier:
        frontier = _grow(info, frontier, max_edges, p, q, check=expanded)
    return {codes[key]: (codes[parent], move)
            for key, (parent, move, _start) in info.items()}


def _certify(t, move, key, start) -> None:
    """Refuse move unless, made on the tables t by chord._apply, it reaches
    the class with this key: the tables it leaves, traversed once from the
    half-edge start, must spell that class's least word entry by entry
    (fatgraph._spells).  No canonical search is made.  Spelling the word
    proves the class, whatever start is, so a wrong start can only refuse
    a move.  A move _apply refuses raises its own ChordLabError, and one
    that does not spell the word raises one naming start."""
    if not fg._spells(*ch._apply(t, move), t.p + 2 * t.q, start,
                      ch._word(key)):
        raise ChordLabError(f"its move, traversed from half-edge {start}, "
                            "does not spell the class it leads to")


def _check_witness(info: dict, key, code: bytes, t) -> None:
    """Refuse the class with this key and code, and tables t, unless its
    recorded inverse move reaches its parent's class, certified by its
    recorded start (_certify): one traversal, no canonical search.

    A witness path is its class's inverse move followed by its parent's
    path, so checking every class's one move against its parent's key
    checks every path, by induction on depth.  t is the class's canonical
    tables, those of canonical_form whatever parent reached it, and
    chord._apply makes and refuses the move, as apply_move does on the
    canonical representative.  So the tables it leaves are those of the
    diagram a full replay reaches after that move, and spelling the
    parent's least word puts them in the parent's class.  An unmarked move
    reads no marking, so the parent's path replays from that class as it
    does from the parent's representative."""
    parent, inv, start = info[key]
    if parent is None:
        return
    try:
        _certify(t, inv, parent, start)
    except ChordLabError as exc:
        raise ChordLabError(
            f"witness path for {code!r} does not replay: {exc}") from exc


def _fork_pays() -> bool:
    """Whether explore forks its enumerator: a fork is safe only while this
    is the process's one thread, and pays only with a second usable CPU."""
    return (hasattr(os, "fork") and threading.active_count() == 1
            and len(getattr(os, "sched_getaffinity", lambda _pid: ())(0)) >= 2)


def _tally(codes, info: dict) -> tuple[int, list[bytes]]:
    """The number of codes, and those not in info, in their order."""
    count, unreached = 0, []
    for code in codes:
        count += 1
        if code not in info:
            unreached.append(code)
    return count, unreached


def _enumerate_into(r: int, w: int, top: TopType, edge_bound: int):
    """The forked enumerator: closes the pipe's read end r, keeps the code
    of every class generate._classes meets, then writes them to the write
    end w, one a line; or a failure as one line marked "!", the JSON of its
    exception's class name and message.  The codes are written only once
    all are met, since a full pipe would stall the enumeration until the
    parent reads.  It leaves through os._exit, so it never returns into
    its caller's stack and flushes no buffer it inherited."""
    status = 1
    try:
        os.close(r)
        with os.fdopen(w, "wb") as out:
            try:
                codes = [code for code, _columns, _markings
                         in generate._classes(top, edge_bound)]
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
        return (result, *_tally((code for code, _columns, _markings
                                 in generate._classes(top, edge_bound)),
                                result))
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
    generate.EXPLORE_CLASS_BUDGET classes as each class is expanded, or an
    enumeration that meets more, raises SearchExhausted.
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

    # info is in discovery order, so each parent's path is made before its
    # children's
    witness: dict[bytes, list[Move]] = {}
    for code, (parent, inv) in info.items():
        witness[code] = [] if parent is None else [inv, *witness[parent]]

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
    tables, each step made and certified as explore's witness check does
    (_replay, _certify), with no canonical search.  Either side of the
    search raises SearchExhausted
    once it holds more than generate.EXPLORE_CLASS_BUDGET classes as a
    class is expanded (_grow).
    """
    top = c.top_type()
    p, q = top.p, top.q
    goal = ch.canonical_gamma0(top.genus, p, q)
    ceiling = max(c.graph.n_edges, goal.graph.n_edges) + _PATH_SLACK
    start_key = ch._least(c)[0]
    goal_key = ch._least(goal)[0]

    # side A grows from c recording forward moves (parent rep -> child);
    # side B grows from the base point recording inverse moves (child rep ->
    # parent), so a meeting class yields a full path without re-searching
    a_info: dict = {start_key: (None, None, None)}
    b_info: dict = {goal_key: (None, None, None)}
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

    # forward moves from the start down to the meeting class, then inverse
    # moves from the meeting class back to the base point: each with its
    # certificate start and the key of the class it leads to
    steps = []
    key = meet
    while a_info[key][0] is not None:
        parent, move, start = a_info[key]
        steps.append((move, start, key))
        key = parent
    steps.reverse()
    key = meet
    while b_info[key][0] is not None:
        key, move, start = b_info[key]
        steps.append((move, start, key))

    _replay(start_key, steps, p, q)
    return [move for move, _start, _key in steps]


def _replay(key, steps, p: int, q: int) -> None:
    """Replay steps, each (move, start, key of the class it leads to), from
    the class of type (g;p,q) with this key.  Each move is made on the
    canonical tables of the class before it and certified against the class
    it leads to (_certify): one traversal per step, no canonical search.
    The last step leads to the base point, as the search recorded it, so
    the certificates are the whole check: a step that is refused raises a
    ChordLabError naming the code of the class it is made on."""
    for move, start, target in steps:
        t = ch._tables(*fg._columns(ch._word(key), p + 2 * q), p, q)
        try:
            _certify(t, move, target, start)
        except ChordLabError as exc:
            raise ChordLabError(
                "path replay does not reach the base point: the step from "
                f"{ch._code(key, p, q)[0]!r} is refused: {exc}") from exc
        key = target
