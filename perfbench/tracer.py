"""Outside-in span tracing of chordlab.

`Tracer.install()` replaces public module attributes (and the
`FatGraph.vertices` method) with wrappers that record one span per call:
name, start, end, parent span and item id.  Spans live in flat arrays in
memory and are written out once, at the end, by `write()`.  Because
chordlab's modules call each other through module attributes (`fg.validate`,
`ch.canonical_form`, ...) and module globals, intra-module calls are traced
too.  Nothing under src/ is modified.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter, defaultdict

# Traced attributes per chordlab module.  A span is named module.function;
# tqft spans also carry the field of their algebra argument (.Q or .Fp), so
# tqft numbers split by ground field.
TRACED = {
    "fatgraph": ["FatGraph.vertices", "canonical_code", "canonical_labeling",
                 "boundary_cycles", "validate"],
    "chord": ["validate_chord", "canonical_form", "canonical_form_with_map",
              "diagram_code", "collapse_edge", "is_essential",
              "apply_expansion"],
    "moves": ["explore", "neighbors_with_moves", "apply_move",
              "path_to_canonical"],
    "generate": ["enumerate_classes"],
    "tqft": ["mu", "verify_gluing", "check_axioms", "counit_solve"],
    "formats": ["parse_chord", "serialize_chord", "parse_frob"],
    "cli": ["main"],
}

# Spans of explore's witness replay: these direct children of explore that
# start after its enumerate_classes child.
_REPLAY = {"moves.apply_move", "chord.canonical_form",
           "chord.canonical_form_with_map", "chord.diagram_code"}


def _field_tag(algebra) -> str:
    return "Q" if type(algebra.field_).__name__ == "Rationals" else "Fp"


class Tracer:
    def __init__(self, now=time.perf_counter):
        self.now = now
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self._stack: list[int] = []
        self.current_item = -1
        self.counts: Counter = Counter()
        self._codes_seen: set = set()
        self._codes_item = None
        self._restore: list[tuple[object, str, object]] = []

    def set_item(self, item: int) -> None:
        self.current_item = item

    def _id(self, name: str) -> int:
        ix = self._name_id.get(name)
        if ix is None:
            ix = self._name_id[name] = len(self.names)
            self.names.append(name)
        return ix

    def _wrap(self, fn, name: str, by_field: bool):
        tracer = self
        fixed_id = None if by_field else self._id(name)
        note = _NOTES.get(name)
        perf = self.now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if by_field:
                span_name = f"{name}.{_field_tag(args[0])}"
                name_id = tracer._id(span_name)
            else:
                span_name, name_id = name, fixed_id
            stack = tracer._stack
            ix = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.item.append(tracer.current_item)
            tracer.end.append(0.0)
            stack.append(ix)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[ix] = perf()
                stack.pop()
            if note is not None:
                note(tracer, span_name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced attribute of the imported chordlab modules."""
        import importlib

        for module_name, attrs in TRACED.items():
            module = importlib.import_module(f"chordlab.{module_name}")
            for attr in attrs:
                owner = module
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
                self._restore.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(
                    fn, f"{module_name}.{leaf}", module_name == "tqft"))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore.clear()

    # -- per-layer summary --------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus the phase times and
        ratios derived from span structure and the wrapper counters."""
        n = len(self.start)
        names, name, start, end, parent = (
            self.names, self.name, self.start, self.end, self.parent)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        explore_id = self._name_id.get("moves.explore")
        enumerate_id = self._name_id.get("generate.enumerate_classes")
        code_id = self._name_id.get("chord.diagram_code")
        replay_ids = {self._name_id[k] for k in _REPLAY if k in self._name_id}
        after_enumeration: set[int] = set()
        replay_s = 0.0
        candidates = 0
        for i in range(n):
            k = names[name[i]]
            dur = end[i] - start[i]
            calls[k] += 1
            total[k] += dur
            self_s[k] += dur - child[i]
            p = parent[i]
            if p < 0:
                continue
            if name[p] == explore_id:
                if name[i] == enumerate_id:
                    after_enumeration.add(p)
                elif p in after_enumeration and name[i] in replay_ids:
                    replay_s += dur
            elif name[p] == enumerate_id and name[i] == code_id:
                candidates += 1
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "witness_replay_s": replay_s,
            "enumerate_candidates": candidates,
            "spans": n,
        }

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated text: index, name, start, end,
        parent index, item id (times in seconds of the tracer's clock)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span\tname\tstart\tend\tparent\titem\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.item[i]}\n"
                )


# -- counters taken at the wrappers, where the work happens -------------------

def _note_canonical(tracer, _name, args, _result):
    tracer.counts["fatgraph.canonical.half_edges_sq"] += args[0].n_half_edges ** 2


def _note_expansion(tracer, _name, _args, result):
    tracer.counts["chord.apply_expansion.attempts"] += 1
    tracer.counts["chord.apply_expansion.useful"] += result is not None


def _note_neighbors(tracer, _name, _args, result):
    # a code is new when it is the first time this item's searches see it
    if tracer._codes_item != tracer.current_item:
        tracer._codes_item = tracer.current_item
        tracer._codes_seen = set()
    seen = tracer._codes_seen
    tracer.counts["moves.neighbors.entries"] += len(result)
    for entry in result:
        if entry[0] not in seen:
            seen.add(entry[0])
            tracer.counts["moves.neighbors.new"] += 1


def _note_enumerate(tracer, _name, _args, result):
    tracer.counts["generate.enumerate.classes"] += len(result)


def _note_mu(tracer, name, args, _result):
    algebra, p, q = args[0], args[1], args[2]
    tracer.counts[f"{name.replace('tqft.mu.', 'tqft.mu.entries.')}"] += (
        algebra.dim ** (p + q))


def _note_parse_chord(tracer, _name, args, _result):
    tracer.counts["formats.parse_chord.bytes"] += len(args[0])


_NOTES = {
    "fatgraph.canonical_code": _note_canonical,
    "fatgraph.canonical_labeling": _note_canonical,
    "chord.apply_expansion": _note_expansion,
    "moves.neighbors_with_moves": _note_neighbors,
    "generate.enumerate_classes": _note_enumerate,
    "tqft.mu": _note_mu,
    "formats.parse_chord": _note_parse_chord,
}
