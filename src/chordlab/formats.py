"""Line-oriented text formats: `fatgraph v1`, `chord v1`, `frob v1`.

All three are UTF-8, one record per line, `#` to end of line is a comment.
Serialization is canonical (records sorted, vertices rotated to their least
half-edge), so equal values produce byte-identical files.

    fatgraph v1
    pair <a> <b>            one record per edge
    vertex <h> <h> ...      cyclic order at one vertex

    chord v1                everything from fatgraph v1, plus
    edge <id> C|G           id = the smaller half-edge of the edge
    incoming <p>
    order <r> <r> ...       least half-edge of every boundary cycle
    mark <r> <h>            marking of the cycle whose least half-edge is r

A repeated incoming, order, edge or mark record, or a mark for a cycle not
in order, is refused.

    frob v1
    field Q | field Fp <prime>
    basis <name> [<degree>]
    ambient <n>
    unit <c> <c> ...
    m <i> <j> -> <k> <c>
    Delta <i> -> <j> <k> <c>

A coefficient <c> is, over Q, an integer or fraction `[+-]digits[/digits]`
or a plain decimal `[+-]digits.digits` (one side of the point may be empty);
exponents are refused, so a coefficient costs in proportion to its text.
Over F_p it is an integer, read modulo p.

A repeated field, ambient or unit record, a repeated `m i j -> k` or
`Delta i -> j k` key, or a basis record past the FROB_BASIS_BUDGET-th, is
refused.  Grading is all or nothing, a degree on every basis record and
ambient, or neither: a mix is refused where it departs from the first.
"""

from __future__ import annotations

import itertools
import sys

# chord and fatgraph are imported where a diagram or graph is read or
# written, and tqft where an algebra is, so frob v1 loads without the
# graph stack and fatgraph and chord v1 without tqft; ChordDiagram,
# FatGraph and tqft.FrobeniusAlgebra below name their classes in
# annotations only
from .errors import ChordLabError

__all__ = [
    "SyntaxError",
    "ValidationError",
    "parse",
    "serialize",
    "parse_fatgraph",
    "parse_chord",
    "parse_frob",
]


class SyntaxError(ChordLabError):  # noqa: A001 - the format's own error type
    """Malformed record; carries line, column and what was expected."""

    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"line {line}, column {column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


class ValidationError(ChordLabError):
    """A structurally parsable file whose value fails domain validation."""

    def __init__(self, line: int, cause: ChordLabError):
        super().__init__(f"line {line}: {cause}")
        self.line = line
        self.cause = cause


def _tokenize(text: str):
    """Yield (line number, column of first token, tokens) per non-empty line."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if toks:
            yield ln, line.index(toks[0]) + 1, toks


def _int(tok: str, ln: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SyntaxError(ln, 1, f"integer {what}, got {tok!r}") from None


def _records(text: str, header: str):
    lines = list(_tokenize(text))
    if not lines or lines[0][2] != header.split():
        raise SyntaxError(1, 1, f"header {header!r}")
    return lines[1:]


# ---------------------------------------------------------------------------
# fatgraph v1 / chord v1
# ---------------------------------------------------------------------------

def _parse_graph_records(records):
    pairs, vertex_lists = [], []
    extras = []
    for ln, col, toks in records:
        kind = toks[0]
        if kind == "pair":
            if len(toks) != 3:
                raise SyntaxError(ln, col, "pair <a> <b>")
            pairs.append((ln, _int(toks[1], ln, "half-edge"),
                          _int(toks[2], ln, "half-edge")))
        elif kind == "vertex":
            if len(toks) < 2:
                raise SyntaxError(ln, col, "vertex <h> ...")
            vertex_lists.append(
                (ln, [_int(t, ln, "half-edge") for t in toks[1:]])
            )
        else:
            extras.append((ln, col, toks))
    n = 2 * len(pairs)
    pairing = [-1] * n
    for ln, a, b in pairs:
        if not (0 <= a < n and 0 <= b < n) or a == b or pairing[a] != -1 or (
            pairing[b] != -1
        ):
            raise ValidationError(
                ln, ChordLabError(f"bad pair {a} {b} for {len(pairs)} edges")
            )
        pairing[a], pairing[b] = b, a
    return pairing, vertex_lists, extras


def _once(first, ln: int, what: str) -> None:
    """Refuse a second `what` record; first is the earlier (line, value)."""
    if first is not None:
        raise ValidationError(ln, ChordLabError(
            f"repeated {what} record (first on line {first[0]})"))


def _validate_graph(pairing, vertex_lists) -> FatGraph:
    """fg.validate, its errors reported at the first vertex record."""
    from . import fatgraph as fg

    try:
        return fg.validate(pairing, [v for _ln, v in vertex_lists])
    except ChordLabError as exc:
        raise ValidationError(vertex_lists[0][0] if vertex_lists else 1, exc)


def parse_fatgraph(text: str) -> FatGraph:
    records = _records(text, "fatgraph v1")
    pairing, vertex_lists, extras = _parse_graph_records(records)
    if extras:
        ln, col, toks = extras[0]
        raise SyntaxError(ln, col, f"pair or vertex record, got {toks[0]!r}")
    return _validate_graph(pairing, vertex_lists)


def parse_chord(text: str) -> ChordDiagram:
    from . import chord as ch

    records = _records(text, "chord v1")
    pairing, vertex_lists, extras = _parse_graph_records(records)
    n = len(pairing)
    edge_labels: dict[int, tuple[int, str]] = {}
    incoming = None
    order = None
    marks: dict[int, tuple[int, int]] = {}
    for ln, col, toks in extras:
        kind = toks[0]
        if kind == "edge":
            if len(toks) != 3 or toks[2] not in (ch.CIRCULAR, ch.GHOST):
                raise SyntaxError(ln, col, "edge <id> C|G")
            eid = _int(toks[1], ln, "edge id")
            _once(edge_labels.get(eid), ln, f"edge {eid}")
            edge_labels[eid] = (ln, toks[2])
        elif kind == "incoming":
            if len(toks) != 2:
                raise SyntaxError(ln, col, "incoming <p>")
            _once(incoming, ln, "incoming")
            incoming = (ln, _int(toks[1], ln, "count"))
        elif kind == "order":
            _once(order, ln, "order")
            order = (ln, [_int(t, ln, "cycle id") for t in toks[1:]])
        elif kind == "mark":
            if len(toks) != 3:
                raise SyntaxError(ln, col, "mark <cycle> <half-edge>")
            r = _int(toks[1], ln, "cycle id")
            _once(marks.get(r), ln, f"mark {r}")
            marks[r] = (ln, _int(toks[2], ln, "half-edge"))
        else:
            raise SyntaxError(ln, col, f"known record type, got {kind!r}")
    if incoming is None:
        raise SyntaxError(1, 1, "an `incoming <p>` record")
    if order is None:
        raise SyntaxError(1, 1, "an `order ...` record")

    graph = _validate_graph(pairing, vertex_lists)

    labels = [None] * n
    for eid, (ln, lab) in edge_labels.items():
        if not (0 <= eid < n) or graph.edge_of(eid) != eid:
            raise ValidationError(
                ln, ChordLabError(f"{eid} is not a canonical edge id"))
        labels[eid] = labels[graph.pairing[eid]] = lab
    if any(l is None for l in labels):
        missing = next(graph.edge_of(h) for h in range(n) if labels[h] is None)
        raise ValidationError(
            1, ChordLabError(f"edge {missing} has no C/G label"))

    markings = None
    if marks:
        stray = min(set(marks) - set(order[1]), default=None)
        if stray is not None:
            raise ValidationError(marks[stray][0], ChordLabError(
                f"mark for cycle {stray}, which is not in the order"))
        markings = []
        for r in order[1]:
            if r not in marks:
                raise ValidationError(
                    marks[min(marks)][0],
                    ChordLabError(f"cycle {r} has no mark record"))
            markings.append(marks[r][1])
    try:
        diagram, _top = ch._check_chord(
            graph, labels, incoming[1], order[1], markings)
    except ChordLabError as exc:
        raise ValidationError(order[0], exc)
    return diagram


def serialize_fatgraph(graph: FatGraph) -> str:
    lines = ["fatgraph v1"]
    for e in graph.edges():
        lines.append(f"pair {e} {graph.pairing[e]}")
    for orbit in graph.vertices():
        lines.append("vertex " + " ".join(str(h) for h in orbit))
    return "\n".join(lines) + "\n"


def serialize_chord(c: ChordDiagram) -> str:
    lines = [serialize_fatgraph(c.graph).replace("fatgraph v1", "chord v1", 1)
             .rstrip("\n")]
    for e in c.graph.edges():
        lines.append(f"edge {e} {c.labels[e]}")
    lines.append(f"incoming {c.p}")
    lines.append("order " + " ".join(str(r) for r in c.boundary_order))
    for r, m in zip(c.boundary_order, c.markings):
        lines.append(f"mark {r} {m}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# frob v1
# ---------------------------------------------------------------------------

# the most basis records a frob v1 file may hold: check_axioms builds
# d^2 x d^3 Kronecker products
FROB_BASIS_BUDGET = 8


def parse_frob(text: str) -> tqft.FrobeniusAlgebra:
    from . import tqft

    records = _records(text, "frob v1")
    field_ = None
    basis, degrees = [], []   # degrees: (line, degree or None) per basis
    ambient = None            # (line, dimension)
    unit = None
    once: dict[str, tuple] = {}  # field, ambient, unit -> (line,)
    m_entries: dict[tuple, tuple] = {}  # key -> (line, coefficient)
    d_entries: dict[tuple, tuple] = {}

    def coeff(tok, ln):
        if field_ is None:
            raise SyntaxError(ln, 1, "a `field` record before coefficients")
        try:
            return field_.parse(tok)
        except (ValueError, ZeroDivisionError):
            raise SyntaxError(ln, 1, f"a field element, got {tok!r}") from None

    def index(tok, ln):
        i = _int(tok, ln, "basis index")
        if not (0 <= i < len(basis)):
            raise ValidationError(
                ln, ChordLabError(f"basis index {i} out of range"))
        return i

    for ln, col, toks in records:
        kind = toks[0]
        if kind in ("field", "ambient", "unit"):
            _once(once.get(kind), ln, kind)
            once[kind] = (ln,)
        if kind == "field":
            if len(toks) == 2 and toks[1] == "Q":
                field_ = tqft.Rationals()
            elif len(toks) == 3 and toks[1] == "Fp":
                try:
                    field_ = tqft.PrimeField(_int(toks[2], ln, "prime"))
                except ValueError as exc:
                    raise ValidationError(ln, ChordLabError(str(exc)))
            else:
                raise SyntaxError(ln, col, "field Q | field Fp <prime>")
        elif kind == "basis":
            if len(toks) not in (2, 3):
                raise SyntaxError(ln, col, "basis <name> [<degree>]")
            if len(basis) == FROB_BASIS_BUDGET:
                raise ValidationError(ln, ChordLabError(
                    f"more than FROB_BASIS_BUDGET = {FROB_BASIS_BUDGET} "
                    "basis records"))
            basis.append(toks[1])
            degrees.append(
                (ln, _int(toks[2], ln, "degree") if len(toks) == 3 else None))
        elif kind == "ambient":
            if len(toks) != 2:
                raise SyntaxError(ln, col, "ambient <n>")
            ambient = (ln, _int(toks[1], ln, "dimension"))
        elif kind == "unit":
            unit = (ln, [coeff(t, ln) for t in toks[1:]])
        elif kind == "m":
            if len(toks) != 6 or toks[3] != "->":
                raise SyntaxError(ln, col, "m <i> <j> -> <k> <coeff>")
            key = (index(toks[1], ln), index(toks[2], ln), index(toks[4], ln))
            _once(m_entries.get(key), ln, "m {} {} -> {}".format(*key))
            m_entries[key] = (ln, coeff(toks[5], ln))
        elif kind == "Delta":
            if len(toks) != 6 or toks[2] != "->":
                raise SyntaxError(ln, col, "Delta <i> -> <j> <k> <coeff>")
            key = (index(toks[1], ln), index(toks[3], ln), index(toks[4], ln))
            _once(d_entries.get(key), ln, "Delta {} -> {} {}".format(*key))
            d_entries[key] = (ln, coeff(toks[5], ln))
        else:
            raise SyntaxError(ln, col, f"known record type, got {kind!r}")

    if field_ is None:
        raise SyntaxError(1, 1, "a `field` record")
    if not basis:
        raise SyntaxError(1, 1, "at least one `basis` record")
    # grading is all or nothing, as the first basis record sets it: a
    # missing ambient record is refused at that record
    slots = [(ln, d is not None) for ln, d in degrees]
    slots.append((ambient[0], True) if ambient else (slots[0][0], False))
    wrong = next((ln for ln, has in slots if has != slots[0][1]), None)
    if wrong is not None:
        raise ValidationError(wrong, ChordLabError(
            "partial grading: degrees need ambient and every basis record"))
    if unit is None or len(unit[1]) != len(basis):
        raise ValidationError(
            unit[0] if unit else 1,
            ChordLabError("unit vector must list one coefficient per basis element"))

    product, coproduct = (
        tqft._constants(field_, len(basis),
                        {key: c for key, (_ln, c) in entries.items()})
        for entries in (m_entries, d_entries))
    return tqft.FrobeniusAlgebra(
        field_=field_,
        basis=tuple(basis),
        product=product,
        coproduct=coproduct,
        unit=tuple(unit[1]),
        degrees=tuple(d for _ln, d in degrees) if ambient else None,
        ambient_n=ambient[1] if ambient else None,
    )


def serialize_frob(A: tqft.FrobeniusAlgebra) -> str:
    F = A.field_
    lines = ["frob v1"]
    lines.append("field Q" if F.name == "Q" else f"field Fp {F.p}")
    for i, name in enumerate(A.basis):
        lines.append(f"basis {name}" if A.degrees is None
                     else f"basis {name} {A.degrees[i]}")
    if A.degrees is not None:
        lines.append(f"ambient {A.ambient_n}")
    lines.append("unit " + " ".join(F.serialize(u) for u in A.unit))
    d = A.dim
    for kind, key, constants in (("m", "{} {} -> {}", A.product),
                                 ("Delta", "{} -> {} {}", A.coproduct)):
        for i, j, k in itertools.product(range(d), repeat=3):
            if constants[i][j][k] != F.zero:
                lines.append(f"{kind} {key.format(i, j, k)} "
                             f"{F.serialize(constants[i][j][k])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def parse(text: str):
    """Parse any of the three formats, chosen by the header line."""
    for ln, _col, toks in _tokenize(text):
        if toks[:2] == ["fatgraph", "v1"]:
            return parse_fatgraph(text)
        if toks[:2] == ["chord", "v1"]:
            return parse_chord(text)
        if toks[:2] == ["frob", "v1"]:
            return parse_frob(text)
        raise SyntaxError(ln, 1, "a format header (fatgraph/chord/frob v1)")
    raise SyntaxError(1, 1, "a format header (fatgraph/chord/frob v1)")


def serialize(value) -> str:
    # no FrobeniusAlgebra exists before tqft is loaded, so the test for one
    # loads nothing
    tqft = sys.modules.get(f"{__package__}.tqft")
    if tqft is not None and isinstance(value, tqft.FrobeniusAlgebra):
        return serialize_frob(value)
    from .chord import ChordDiagram
    from .fatgraph import FatGraph

    if isinstance(value, ChordDiagram):
        return serialize_chord(value)
    if isinstance(value, FatGraph):
        return serialize_fatgraph(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
