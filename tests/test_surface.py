"""The public surface: every name a chordlab module exports in __all__ has a
caller outside the tests, in the library (the CLI included) or in
perfbench, or is kept for a stated reason.  A name only tests call is a
second route to a routine that stays; the tests go through that routine."""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from functools import cache
from pathlib import Path

import pytest

import chordlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chordlab"
PERFBENCH = ROOT / "perfbench"

MODULES = ["chordlab"] + [f"chordlab.{path.stem}"
                          for path in sorted(SRC.glob("*.py"))
                          if path.stem != "__init__"]

# exported names with no caller in the library or in perfbench, and why
# each stays
KEEP = {
    "multiplicities": "a tested fact about Cohen-Godin's S(c), the quotient "
                      "the Sullivan-diagram classes of ROADMAP item 6 group by",
    "chi_defect": "a tested fact about S(c): v(c) - sigma(c) = -chi, which "
                  "ROADMAP item 6 builds on",
    "operation_from_diagram": "the diagram-level operation that ROADMAP "
                              "item 1's evaluator replaces",
    "random_gluable_pair": "draws the pairs on which ROADMAP item 1 checks "
                           "that evaluation respects gluing",
}


def _read_names(path: Path) -> set:
    """Every name the module at path reads, and every attribute it looks
    up."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _traced() -> set:
    """The names perfbench's tracer wraps: the leaves of its TRACED table,
    which it looks up by string."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TRACED"])
    return {attr.rsplit(".", 1)[-1]
            for attrs in ast.literal_eval(table).values() for attr in attrs}


@cache
def _called() -> frozenset:
    """Every name read in the library or in perfbench, or wrapped by the
    tracer."""
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    return frozenset(_traced().union(*map(_read_names, paths)))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_has_a_caller_or_a_reason(module):
    exported = getattr(importlib.import_module(module), "__all__", [])
    assert [name for name in exported
            if name not in _called() and name not in KEEP] == []


def test_keep_list_names_uncalled_exports():
    # a kept name that gains a caller, or stops being exported, leaves
    # the list
    exported = {name for module in MODULES
                for name in getattr(importlib.import_module(module),
                                    "__all__", [])}
    assert set(KEEP) <= exported
    assert set(KEEP) & _called() == set()


def _fresh(code: str):
    """Run code in a fresh interpreter that imports chordlab from src/, and
    return the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


# the submodules a statement has loaded, in the order their loading ended
LOADED = """
import json, sys
print(json.dumps([m for m in sys.modules if m.startswith("chordlab.")]))
"""

# what no graph caller loads: the algebra module and the standard modules
# only it imports
ALGEBRA_SIDE = ["chordlab.tqft", "decimal", "fractions"]


def _algebra_loaded(code: str) -> list:
    """The modules of ALGEBRA_SIDE that code, run in a fresh interpreter,
    has loaded."""
    return _fresh(code + f"""
import json, sys
print(json.dumps(sorted(set(sys.modules) & {set(ALGEBRA_SIDE)!r})))
""")


def _cli_code(*argv) -> str:
    """Code that runs `chordlab argv` through cli.main, its output dropped,
    and requires exit status 0."""
    return textwrap.dedent(f"""
        import contextlib, io
        from chordlab import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({list(map(str, argv))!r}) == 0
        """)


class TestImportGraph:
    def test_package_root_loads_no_submodule(self):
        assert _fresh("import chordlab" + LOADED) == []

    def test_algebra_side_loads_without_the_graph_stack(self):
        loaded = _fresh(textwrap.dedent("""
            from pathlib import Path
            from chordlab import formats, tqft
            data = Path(formats.__file__).parent / "data"
            for name in ("pd2.frob", "st2.frob"):
                text = (data / name).read_text(encoding="utf-8")
                A = formats.parse(text)
                assert isinstance(A, tqft.FrobeniusAlgebra), name
                assert formats.serialize(A) == text, name
            """) + LOADED)
        assert sorted(loaded) == ["chordlab.errors", "chordlab.formats",
                                  "chordlab.tqft"]

    def test_importtime_lists_the_lazily_loaded_modules(self):
        # the CI step reads -X importtime, which lists a module only when
        # an import statement or __import__ loads it
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "from chordlab import formats, tqft"],
            env=env, capture_output=True, text=True, check=True)
        rows = [line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines() if "chordlab" in line]
        assert sorted(rows) == ["chordlab", "chordlab.errors",
                                "chordlab.formats", "chordlab.tqft"]

    def test_cli_loads_no_algebra_module(self):
        # the connect worker's import: the graph stack, and neither tqft
        # nor formats
        loaded = _fresh("from chordlab import cli" + LOADED)
        assert "chordlab.formats" not in loaded
        assert _algebra_loaded("from chordlab import cli") == []

    def test_connect_loads_no_algebra_module(self):
        assert _algebra_loaded(_cli_code(
            "connect", "--type", "1,1,2", "--max-edges", "9", "--json")) == []

    @pytest.mark.parametrize("argv", [
        ["validate", "LEFT"], ["validate", "GRAPH"], ["type", "LEFT"],
        ["type", "GRAPH"], ["boundaries", "LEFT"], ["code", "LEFT"],
        ["code", "--marked", "LEFT"], ["code", "GRAPH"],
        ["iso", "LEFT", "RIGHT"], ["iso", "GRAPH", "GRAPH"],
        ["glue", "LEFT", "RIGHT"], ["gamma0", "1", "1", "2"],
        ["dot", "LEFT"], ["dot", "--canon", "LEFT"]], ids=" ".join)
    def test_graph_file_command_loads_no_algebra_module(self, argv, tmp_path):
        graph = tmp_path / "graph.fatgraph"
        graph.write_text("fatgraph v1\npair 0 1\npair 2 3\nvertex 0 2 1 3\n")
        files = {"LEFT": SRC / "data" / "glue_left_0_1_2.chord",
                 "RIGHT": SRC / "data" / "glue_right_0_2_2.chord",
                 "GRAPH": graph}
        assert _algebra_loaded(_cli_code(
            *(files.get(arg, arg) for arg in argv))) == []

    def test_paths_worker_loads_no_algebra_module(self):
        # the paths worker's library calls, and its queries generator's
        assert _algebra_loaded("""
import random
from chordlab import chord, formats, generate, moves
from chordlab.fatgraph import TopType
d = generate.random_diagram(random.Random(1), 1, 1, 2, steps=6)
c = formats.parse(formats.serialize_chord(d))
assert c.top_type() == TopType(1, 1, 2)
moves.path_to_canonical(c)
formats.serialize(chord.canonical_form(c))
""") == []

    @pytest.mark.parametrize("argv", [
        ["tqft", "op", "--algebra", "pd2", "--p", "2", "--g", "1", "--json"],
        ["tqft", "op", "--algebra", "st2", "--field", "F3", "--p", "2"],
        ["tqft", "verify", "--algebra", "st2", "--field", "F5", "--json"],
        ["tqft", "axioms", "--algebra", "FROB", "--json"],
        ["tqft", "counit", "--algebra", "FROB"],
        ["validate", "--json", "FROB"]])
    def test_algebra_command_loads_tqft_where_it_runs(self, argv, capsys):
        # a fresh `chordlab` loads tqft inside the command; its output is
        # the output of the command with every module loaded
        from chordlab import cli

        argv = [str(SRC / "data" / "pd2.frob") if a == "FROB" else a
                for a in argv]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        out = _fresh(textwrap.dedent(f"""
            import contextlib, io, json, sys
            from chordlab import cli
            before = "chordlab.tqft" in sys.modules
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main({argv!r})
            print(json.dumps([before, code, out.getvalue()]))
            """))
        assert out == [False, 0, expected]


class TestLazyNames:
    @pytest.mark.parametrize("name", chordlab.__all__)
    def test_name_is_its_home_module_object(self, name):
        value = getattr(chordlab, name)
        assert value is getattr(sys.modules[value.__module__], name)
        assert value.__module__.startswith("chordlab.")

    def test_readme_names(self):
        from chordlab import explore

        assert explore is chordlab.moves.explore
        assert chordlab.canonical_gamma0 is chordlab.chord.canonical_gamma0

    def test_unknown_name_refused(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            chordlab.no_such_name  # noqa: B018
        with pytest.raises(ImportError, match="no_such_name"):
            from chordlab import no_such_name  # noqa: F401

    def test_dir_lists_every_name(self):
        assert set(chordlab.__all__) <= set(dir(chordlab))
        assert set(chordlab._SUBMODULES) <= set(dir(chordlab))

    def test_every_submodule_resolves_after_a_bare_import(self):
        assert set(chordlab._SUBMODULES) == {
            path.stem for path in SRC.glob("*.py")} - {"__init__"}
        out = _fresh("""
            import json, sys
            import chordlab
            same = [getattr(chordlab, name) is sys.modules[f"chordlab.{name}"]
                    for name in chordlab._SUBMODULES]
            print(json.dumps([same, len(chordlab.tqft.pd2().basis),
                              chordlab.moves.explore is chordlab.explore]))
            """)
        assert out == [[True] * len(chordlab._SUBMODULES), 2, True]

    def test_formats_alone_parses_and_serializes_every_kind(self):
        out = _fresh("""
            import json
            from pathlib import Path
            from chordlab import formats
            data = Path(formats.__file__).parent / "data"
            chord_text = (data / "glue_left_0_1_2.chord").read_text()
            frob_text = (data / "pd2.frob").read_text()
            graph_text = "fatgraph v1\\npair 0 1\\npair 2 3\\nvertex 0 2 1 3\\n"
            trips = [formats.serialize(formats.parse(text)) == text
                     for text in (graph_text, chord_text, frob_text)]
            trips.append(formats.serialize(formats.parse_chord(chord_text))
                         == chord_text)
            trips.append(formats.serialize(formats.parse_fatgraph(graph_text))
                         == graph_text)
            bad = {
                "fatgraph": graph_text.replace("0 2 1 3", "0 1 2 3 3"),
                "chord": chord_text.replace("incoming 1", "incoming 0"),
                "frob": "frob v1\\nfield Fp 4\\nbasis x\\nunit 1\\n",
            }
            refusals = {}
            for kind, text in bad.items():
                try:
                    formats.parse(text)
                except formats.ValidationError as exc:
                    refusals[kind] = [type(exc).__name__, exc.line,
                                      type(exc.cause).__name__]
            print(json.dumps([trips, refusals]))
            """)
        assert out == [[True] * 5, {
            "fatgraph": ["ValidationError", 4, "InconsistentTables"],
            "chord": ["ValidationError", 11, "IncomingNotBoundaryCycle"],
            "frob": ["ValidationError", 2, "ChordLabError"],
        }]
