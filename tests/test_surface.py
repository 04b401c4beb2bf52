"""The public surface: every name a chordlab module exports in __all__ has a
caller outside the tests, in the library (the CLI included) or in
perfbench, or is kept for a stated reason.  A name only tests call is a
second route to a routine that stays; the tests go through that routine."""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

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
