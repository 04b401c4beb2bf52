"""Command-line front end.

Exit codes: 0 success, 1 domain error (invalid input, failed operation),
2 usage error.  `--json` switches to machine-readable output.  Diagnostics
honor CHORDLAB_COLOR=never|auto.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import chord as ch
from . import fatgraph as fg
from . import formats, moves, tqft
from .chord import CIRCULAR, ChordDiagram
from .errors import ChordLabError
from .fatgraph import FatGraph, TopType

__all__ = ["main", "emit_dot"]

# the most points `tqft verify --range` checks, one verify_gluing each (each
# mu is capped by tqft.MU_CELL_BUDGET, the grid by this)
VERIFY_GRID_BUDGET = 1 << 10


def _use_color() -> bool:
    mode = os.environ.get("CHORDLAB_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _fail(message: str) -> int:
    if _use_color():
        message = f"\x1b[31m{message}\x1b[0m"
    print(f"chordlab: {message}", file=sys.stderr)
    return 1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _algebra(spec: str, field_name: str) -> tqft.FrobeniusAlgebra:
    field_ = _field(field_name)
    if spec in ("pd2", "st2", "zero"):
        return tqft.builtin_algebra(spec, field_)
    A = formats.parse(_read(spec))
    if not isinstance(A, tqft.FrobeniusAlgebra):
        raise ChordLabError(f"{spec} does not contain a frob v1 algebra")
    return A


def _field(name: str):
    if name == "Q":
        return tqft.Rationals()
    if name.startswith("F") and name[1:].isdigit():
        try:
            return tqft.PrimeField(int(name[1:]))
        except ValueError as exc:
            raise ChordLabError(f"field {name}: {exc}") from None
    raise ChordLabError(f"unknown field {name!r} (use Q or F<prime>)")


def _ints(text: str, option: str, names: str) -> list[int]:
    """The comma-separated integers of an option, one per name in names."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != len(names.split(",")):
        raise ChordLabError(f"{option} expects integers {names}, got {text!r}")
    return values


def _parse_type(text: str) -> TopType:
    try:
        return TopType(*_ints(text, "--type", "g,p,q"))
    except ValueError as exc:
        raise ChordLabError(f"--type {text}: {exc}") from None


# ---------------------------------------------------------------------------
# DOT emission
# ---------------------------------------------------------------------------

def emit_dot(c: ChordDiagram, canon: bool = False) -> str:
    """Deterministic DOT text: circular edges solid, ghost edges bold,
    incoming circles clustered, markings as edge labels."""
    if canon:
        c = ch.canonical_form(c)
    graph = c.graph
    vertex_of, cycle_of = graph.vertex_of(), graph.cycle_of()

    circle_vertices: list[list[int]] = []
    on_circle: set[int] = set()
    for r in c.boundary_order[: c.p]:
        vs = []
        for h in cycle_of[r]:
            v = vertex_of[h]
            if v not in vs:
                vs.append(v)
        circle_vertices.append(vs)
        on_circle.update(vs)

    mark_label: dict[int, str] = {}
    for i, m in enumerate(c.markings):
        e = graph.edge_of(m)
        mark_label[e] = mark_label.get(e, "") + f" mk{i}"

    lines = ["graph chord {"]
    for i, vs in enumerate(circle_vertices):
        lines.append(f"  subgraph cluster_in{i} {{")
        lines.append(f'    label="incoming {i}";')
        for v in vs:
            lines.append(f'    v{v} [label="v{v}"];')
        lines.append("  }")
    for v in range(graph.n_vertices):
        if v not in on_circle:
            lines.append(f'  v{v} [label="v{v}"];')
    for e in graph.edges():
        a, b = vertex_of[e], vertex_of[graph.pairing[e]]
        style = "solid" if c.labels[e] == CIRCULAR else "bold"
        attrs = [f"style={style}", f'id="e{e}"']
        if e in mark_label:
            attrs.append(f'label="{mark_label[e].strip()}"')
        lines.append(f"  v{a} -- v{b} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    value = formats.parse(_read(args.file))
    if isinstance(value, ChordDiagram):
        kind, detail = "chord", str(value.top_type())
    elif isinstance(value, FatGraph):
        g, n = fg.topological_type(value)
        kind, detail = "fatgraph", f"genus {g}, {n} boundary cycles"
    else:
        kind, detail = "frob", f"dimension {value.dim} over {value.field_.name}"
    if args.json:
        print(json.dumps({"ok": True, "kind": kind, "detail": detail}))
    else:
        print(f"valid {kind}: {detail}")
    return 0


def _cmd_type(args) -> int:
    value = formats.parse(_read(args.file))
    if isinstance(value, ChordDiagram):
        out = str(value.top_type())
    elif isinstance(value, FatGraph):
        g, n = fg.topological_type(value)
        out = f"genus {g}, {n} boundary cycles"
    else:
        raise ChordLabError("type applies to fatgraph/chord files")
    print(json.dumps({"type": out}) if args.json else out)
    return 0


def _cmd_boundaries(args) -> int:
    value = formats.parse(_read(args.file))
    graph = value.graph if isinstance(value, ChordDiagram) else value
    if not isinstance(graph, FatGraph):
        raise ChordLabError("boundaries applies to fatgraph/chord files")
    cycles = fg.boundary_cycles(graph)
    if args.json:
        print(json.dumps({"cycles": [list(cyc) for cyc in cycles]}))
    else:
        for cyc in cycles:
            print(" ".join(str(h) for h in cyc))
    return 0


def _cmd_code(args) -> int:
    value = formats.parse(_read(args.file))
    if isinstance(value, ChordDiagram):
        code = ch.diagram_code(value, with_markings=args.marked)
    elif isinstance(value, FatGraph):
        code = fg.canonical_code(value)
    else:
        raise ChordLabError("code applies to fatgraph/chord files")
    text = code.decode("ascii")
    print(json.dumps({"code": text}) if args.json else text)
    return 0


def _cmd_iso(args) -> int:
    a = formats.parse(_read(args.a))
    b = formats.parse(_read(args.b))
    if isinstance(a, ChordDiagram) and isinstance(b, ChordDiagram):
        same = ch.diagram_code(a) == ch.diagram_code(b)
    elif isinstance(a, FatGraph) and isinstance(b, FatGraph):
        same = fg.canonical_code(a) == fg.canonical_code(b)
    else:
        raise ChordLabError("iso compares two files of the same graph kind")
    if args.json:
        print(json.dumps({"isomorphic": same}))
    else:
        print("isomorphic" if same else "not isomorphic")
    return 0


def _cmd_glue(args) -> int:
    c1 = formats.parse(_read(args.a))
    c2 = formats.parse(_read(args.b))
    if not (isinstance(c1, ChordDiagram) and isinstance(c2, ChordDiagram)):
        raise ChordLabError("glue expects two chord v1 files")
    schedule = None
    if args.schedule:
        schedule = json.loads(_read(args.schedule))
    result = ch.glue(c1, c2, schedule)
    _write(args.output, formats.serialize(result))
    if args.json:
        print(json.dumps({"type": str(result.top_type())}))
    elif args.output not in (None, "-"):
        print(f"glued: {result.top_type()}")
    return 0


def _cmd_gamma0(args) -> int:
    d = ch.canonical_gamma0(args.g, args.p, args.q)
    _write(args.output, formats.serialize(d))
    return 0


def _cmd_connect(args) -> int:
    top = _parse_type(args.type)
    bound = args.max_edges
    if bound is None:
        # trivalent diagrams have the most edges, 3(2g+p+q-2)
        bound = 3 * (2 * top.genus + top.p + top.q - 2)
    report = moves.explore(top, bound)
    payload = report.to_json_dict()
    if args.report:
        # streamed, as --json is below: the indented text is not held whole
        with (contextlib.nullcontext(sys.stdout) if args.report == "-"
              else open(args.report, "w", encoding="utf-8")) as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.json:
        # streamed: one witness length per class, so the text of a large
        # type would otherwise be held whole, and twice while it is joined
        json.dump(payload, sys.stdout, sort_keys=True)
        print()
    else:
        print(
            f"type {top}: {report.class_count} classes, "
            f"{report.component_count} component(s), "
            f"{len(report.unreached)} unreached within {bound} edges"
        )
    return 0 if report.component_count == 1 else 1


def _matrix_json(A, op):
    F = A.field_
    return {
        "p": op.p, "q": op.q, "genus": op.genus,
        "degree_shift": op.degree_shift,
        "matrix": [[F.serialize(x) for x in row] for row in op.rows()],
    }


def _cmd_tqft(args) -> int:
    A = _algebra(args.algebra, args.field)
    if args.action == "op":
        op = tqft.mu(A, args.p, args.q, args.g)
        if args.json:
            print(json.dumps(_matrix_json(A, op)))
        else:
            for row in op.rows():
                print(" ".join(A.field_.serialize(x) for x in row))
        return 0
    if args.action == "axioms":
        report = tqft.check_axioms(A)
        if args.json:
            print(json.dumps({
                "all_pass": report.all_pass,
                "axioms": report.passed,
                "witnesses": {k: list(v) if not isinstance(v, tuple) else
                              [str(x) for x in v]
                              for k, v in report.witnesses.items()},
            }))
        else:
            for name, ok in report.passed.items():
                print(f"{name}: {'pass' if ok else 'FAIL'}")
        return 0 if report.all_pass else 1
    if args.action == "counit":
        result = tqft.counit_solve(A)
        if args.json:
            if result is None:
                print(json.dumps({"counit": None}))
            else:
                theta, nondeg = result
                print(json.dumps({
                    "counit": [A.field_.serialize(x) for x in theta],
                    "pairing_nondegenerate": nondeg,
                }))
        else:
            if result is None:
                print("no counit")
            else:
                theta, nondeg = result
                print("counit: " + " ".join(A.field_.serialize(x) for x in theta))
                print("pairing nondegenerate:" , nondeg)
        return 0
    if args.action == "verify":
        pm, qm, rm, g1m, g2m = _ints(args.range, "--range", "p,q,r,g1,g2")
        if min(pm, qm, rm) < 1 or min(g1m, g2m) < 0:
            raise ChordLabError(f"--range {args.range}: p, q and r must be at "
                                "least 1, g1 and g2 at least 0")
        points = pm * qm * rm * (g1m + 1) * (g2m + 1)
        if points > VERIFY_GRID_BUDGET:
            raise ChordLabError(
                f"--range {args.range}: {points} grid points is over the "
                f"grid budget VERIFY_GRID_BUDGET = {VERIFY_GRID_BUDGET}")
        failures = []
        for p in range(1, pm + 1):
            for q in range(1, qm + 1):
                for r in range(1, rm + 1):
                    for g1 in range(g1m + 1):
                        for g2 in range(g2m + 1):
                            ok, _diff = tqft.verify_gluing(A, p, q, r, g1, g2)
                            if not ok:
                                failures.append((p, q, r, g1, g2))
        if args.json:
            print(json.dumps({"failures": failures,
                              "all_pass": not failures}))
        else:
            print("all compositions verified" if not failures
                  else f"failures: {failures}")
        return 0 if not failures else 1
    raise ChordLabError(f"unknown tqft action {args.action!r}")


def _cmd_dot(args) -> int:
    value = formats.parse(_read(args.file))
    if not isinstance(value, ChordDiagram):
        raise ChordLabError("dot applies to chord v1 files")
    _write(args.output, emit_dot(value, canon=args.canon))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="Fat graphs, Sullivan chord diagrams, move-graph search "
                    "and an exact positive-boundary 2d TQFT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = add("validate", _cmd_validate, help="validate any chordlab file")
    p.add_argument("file")

    p = add("type", _cmd_type, help="topological type of a graph or diagram")
    p.add_argument("file")

    p = add("boundaries", _cmd_boundaries, help="boundary cycles")
    p.add_argument("file")

    p = add("code", _cmd_code, help="canonical isomorphism code")
    p.add_argument("file")
    p.add_argument("--marked", action="store_true",
                   help="include markings in the code")

    p = add("iso", _cmd_iso, help="test two files for isomorphism")
    p.add_argument("a")
    p.add_argument("b")

    p = add("glue", _cmd_glue, help="glue outgoing boundaries of A to "
                                    "incoming circles of B")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--schedule", help="JSON schedule file")

    p = add("gamma0", _cmd_gamma0, help="canonical base-point diagram")
    p.add_argument("g", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("-o", "--output", default="-")

    p = add("connect", _cmd_connect, help="verify move-graph connectivity")
    p.add_argument("--type", required=True, help="g,p,q")
    p.add_argument("--max-edges", type=int,
                   help="edge cap (default: the trivalent maximum 3(2g+p+q-2))")
    p.add_argument("--report", help="write a JSON report to this path")

    p = add("tqft", _cmd_tqft, help="Frobenius-algebra operations")
    p.add_argument("action", choices=["op", "verify", "counit", "axioms"])
    p.add_argument("--algebra", required=True,
                   help="pd2 | st2 | zero | a frob v1 file")
    p.add_argument("--field", default="Q", help="Q or F<prime> (builtins only)")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--g", type=int, default=0)
    p.add_argument("--range", default="2,2,2,1,1",
                   help="max p,q,r,g1,g2 for verify")

    p = add("dot", _cmd_dot, help="emit DOT for a chord diagram")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--canon", action="store_true",
                   help="canonically relabel before emitting")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChordLabError as exc:
        return _fail(str(exc))
    except FileNotFoundError as exc:
        return _fail(f"{exc.filename}: no such file")
    except json.JSONDecodeError as exc:
        return _fail(f"bad JSON input: {exc}")


if __name__ == "__main__":
    sys.exit(main())
