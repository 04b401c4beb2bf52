"""One repetition of a workload, in a fresh interpreter.

Reads a JSON job on stdin and prints one JSON result on stdout.  A fresh
process per repetition means every timed repetition starts with cold library
caches (chord._cycles is a module-level lru_cache), as a one-shot `chordlab`
command does.  Set-up -- imports, reading the job, parsing algebras -- ends
at the `ready` timestamp (CLOCK_MONOTONIC, comparable with the parent's
spawn time); the timed part follows, interleaved with short calibration
slices that its times leave out (see `Clock`).

Roles: "gen" writes the paths queries (it uses the library, so it runs in
its own process and leaves no warm cache behind); "connect", "paths" and
"tqft" run the timed part and then the oracle, untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time

import workloads
from tracer import Tracer

perf = time.perf_counter


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# one calibration slice: about 2.3 ms of pure-Python dict, tuple and integer
# work on a 2 GHz core, run every SLICE_INTERVAL_S of the measured part
SLICE_STEPS = 5_000
SLICE_INTERVAL_S = 0.03


def _calibration_slice() -> None:
    table: dict = {}
    acc = 0
    for i in range(SLICE_STEPS):
        key = (i & 255, i % 7)
        acc = (acc + table.get(key, i) * 3) % 1000003
        table[key] = acc


class Clock:
    """Times the measured part of a repetition.

    On a shared host the same work takes up to twice as long while other
    tenants load the machine, in bursts from a fraction of a second to
    minutes.  So a timer interrupts the measured part every
    SLICE_INTERVAL_S to time one calibration slice, which slows with the
    work around it.  `now()` leaves the slices out; `calib_s` is the mean
    slice, and times divided by it compare across loaded and idle periods:
    over 12 repeats of one paths round on a 2-core VM, the coefficient of
    variation was 0.06 in seconds and 0.014 divided."""

    def __init__(self):
        self.paused = 0.0
        self.slices: list[float] = []

    def now(self) -> float:
        """perf_counter without the calibration slices so far."""
        while True:
            paused = self.paused
            t = perf()
            if paused == self.paused:   # no slice ran in between
                return t - paused

    def _slice(self, *_signal_args) -> None:
        t = perf()
        _calibration_slice()
        dt = perf() - t
        self.slices.append(dt)
        self.paused += dt

    def __enter__(self):
        self.ready = _monotonic()
        self._slice()
        self._handler = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        self.start = self.now()
        return self

    def __exit__(self, *exc_info):
        self.wall = self.now() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._slice()
        self.calib_s = sum(self.slices) / len(self.slices)
        return False


CLOCK = Clock()


def _import_chordlab(src: str):
    import chordlab

    here = os.path.dirname(os.path.abspath(chordlab.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        raise SystemExit(f"chordlab imported from {here}, not from {src}")


# ---------------------------------------------------------------------------
# gen: the paths queries, built from the seed
# ---------------------------------------------------------------------------

def _near_codes(top) -> set:
    """Codes of the classes at most two moves from the base point."""
    from chordlab import chord, moves

    base = chord.canonical_form(chord.canonical_gamma0(*top))
    near = {chord.diagram_code(base)}
    for code, rep, _fwd, _inv in moves.neighbors_with_moves(base):
        near.add(code)
        near.update(entry[0] for entry in moves.neighbors_with_moves(rep))
    return near


def gen(job: dict) -> dict:
    """Walks from each type's seeded stream, each kept if its stratum (far or
    near, see workloads.PATH_FAR_SHARE) still has room; in a seeded order."""
    from chordlab import chord, formats, generate

    seed, rnd = job["seed"], job["round"]
    queries = []
    for top, (count, far) in workloads.path_plan(job["smoke"]).items():
        near = _near_codes(top)
        rng = random.Random(f"walk:{seed}:{rnd}:{top}")
        room = {True: far, False: count - far}
        for _ in range(20 * count):
            d = generate.random_diagram(rng, *top, steps=workloads.PATH_STEPS)
            is_far = chord.diagram_code(d) not in near
            if room[is_far]:
                room[is_far] -= 1
                queries.append({"type": list(top),
                                "text": formats.serialize_chord(d)})
            if not any(room.values()):
                break
        else:
            raise SystemExit(f"paths: strata of {top} not filled")
    random.Random(f"paths:{seed}:{rnd}").shuffle(queries)
    return {"queries": queries}


# ---------------------------------------------------------------------------
# connect: one whole-complex `chordlab connect` call
# ---------------------------------------------------------------------------

def check_connect(rc: int, report: dict, top: str, expected: int) -> list[str]:
    """Mismatches between one connect report and the hand-recorded facts."""
    g, p, q = top.split(",")
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report.get("type") != f"({g};{p},{q})":
        problems.append(f"type {report.get('type')!r}")
    if report.get("classes") != expected:
        problems.append(f"{report.get('classes')} classes, expected {expected}")
    if report.get("components") != 1:
        problems.append(f"{report.get('components')} components")
    if report.get("unreached") != []:
        problems.append("unreached classes")
    lengths = report.get("witness_lengths", {})
    if len(lengths) != expected:
        problems.append(f"{len(lengths)} witness lengths for {expected} classes")
    if list(lengths.values()).count(0) != 1:
        problems.append("not exactly one class at the base point")
    return problems


def connect(job: dict, tracer: Tracer | None) -> dict:
    from chordlab import cli

    top, bound, expected = job["type"], job["bound"], job["expect_classes"]
    argv = ["connect", "--type", top, "--max-edges", str(bound), "--json"]
    if tracer:
        tracer.set_item(0)
    out = io.StringIO()
    with CLOCK as clock, contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    rss = _rss_mb()
    if tracer:
        tracer.uninstall()
    try:
        report = json.loads(out.getvalue())
        problems = check_connect(rc, report, top, expected)
    except ValueError as exc:
        report, problems = {}, [f"unreadable report: {exc}"]
    lengths = report.get("witness_lengths", {})
    return {
        "ready": clock.ready, "wall_s": clock.wall, "calib_s": clock.calib_s,
        "rss_mb": rss,
        # one item: the call, grouped by type (see run.item_percentile)
        "items": [{"latency_s": clock.wall, "group": top,
                   "problems": problems}],
        "work": {"classes": report.get("classes", 0),
                 "bfs_layers": max(lengths.values(), default=-1) + 1},
    }


# ---------------------------------------------------------------------------
# paths: parse -> path_to_canonical -> serialize(canonical_form)
# ---------------------------------------------------------------------------

def paths(job: dict, tracer: Tracer | None) -> dict:
    from chordlab import chord, formats, moves
    from chordlab.fatgraph import TopType

    queries = job["queries"]
    answers, latencies = [], []
    with CLOCK as clock:
        for i, query in enumerate(queries):
            if tracer:
                tracer.set_item(i)
            t = clock.now()
            try:
                c = formats.parse_chord(query["text"])
                path = moves.path_to_canonical(c)
                answers.append(
                    (path, formats.serialize_chord(chord.canonical_form(c))))
            except Exception as exc:  # a failed query is counted, the run goes on
                answers.append(exc)
            latencies.append(clock.now() - t)
    rss = _rss_mb()
    if tracer:
        tracer.uninstall()

    # oracle: replay every path here and re-read every serialized answer
    items, longest = [], 0
    for query, answer, latency in zip(queries, answers, latencies):
        problems = []
        if isinstance(answer, Exception):
            problems.append(f"{type(answer).__name__}: {answer}")
        else:
            path, text = answer
            longest = max(longest, len(path))
            try:
                g, p, q = query["type"]
                c = formats.parse_chord(query["text"])
                goal = chord.diagram_code(chord.canonical_gamma0(g, p, q))
                d = chord.canonical_form(c)
                for move in path:
                    d = chord.canonical_form(moves.apply_move(d, move))
                if chord.diagram_code(d) != goal:
                    problems.append("path does not reach the base point")
                back = formats.parse_chord(text)
                if chord.diagram_code(back) != chord.diagram_code(c):
                    problems.append("canonical form left the class")
                if back.top_type() != TopType(g, p, q):
                    problems.append(f"canonical form has type {back.top_type()}")
            except Exception as exc:  # a broken answer is a failed item
                problems.append(f"replay: {type(exc).__name__}: {exc}")
        items.append({"latency_s": latency, "problems": problems})
    return {
        "ready": clock.ready, "wall_s": clock.wall, "calib_s": clock.calib_s,
        "rss_mb": rss, "items": items,
        "work": {"queries": len(queries), "bfs_layers": longest + 1},
    }


# ---------------------------------------------------------------------------
# tqft: the verify_gluing grid plus mu, check_axioms and counit_solve
# ---------------------------------------------------------------------------

def _plain(rows) -> list[list[int | None]]:
    """Matrix entries as ints; a non-integral Fraction becomes None."""
    return [[int(x) if x == int(x) else None for x in row] for row in rows]


def _mu_rows(A, p, q, g):
    from chordlab import tqft

    return _plain(tqft.mu(A, p, q, g).rows())


def _axioms_pass(A):
    from chordlab import tqft

    return tqft.check_axioms(A).all_pass


def _counit(A):
    from chordlab import tqft

    result = tqft.counit_solve(A)
    return result and (_plain([result[0]])[0], result[1])


def tqft_run(job: dict, tracer: Tracer | None) -> dict:
    from chordlab import formats, tqft

    algebras = {name: formats.parse_frob(text)
                for name, (text, _facts) in workloads.ALGEBRAS.items()}
    checks = workloads.gluing_grid(job["seed"], job["round"], job["smoke"])
    outcomes = []   # (latency or None, answer, expected answer, label)
    with CLOCK as clock:
        for i, (name, args) in enumerate(checks):
            if tracer:
                tracer.set_item(i)
            t = clock.now()
            try:
                answer = tqft.verify_gluing(algebras[name], *args)
            except Exception as exc:  # a failed check is counted, the run goes on
                answer = exc
            outcomes.append(
                (clock.now() - t, answer, (True, None), f"{name} glue {args}"))
        item = len(checks)
        for name, (_text, facts) in workloads.ALGEBRAS.items():
            A = algebras[name]
            calls = [(f"{name} mu{p, q, g}", rows, _mu_rows, (A, p, q, g))
                     for p, q, g, rows in facts["mu"]]
            calls.append((f"{name} axioms", True, _axioms_pass, (A,)))
            counit = facts["counit"]
            calls.append(
                (f"{name} counit", counit and (counit, True), _counit, (A,)))
            for label, expected, call, call_args in calls:
                if tracer:
                    tracer.set_item(item)
                item += 1
                try:
                    answer = call(*call_args)
                except Exception as exc:  # counted as a failed item
                    answer = exc
                outcomes.append((None, answer, expected, label))
    rss = _rss_mb()
    if tracer:
        tracer.uninstall()

    items = []
    for latency, answer, expected, label in outcomes:
        problems = [] if answer == expected else [f"{label}: got {answer!r}"]
        items.append({"latency_s": latency, "problems": problems})
    return {
        "ready": clock.ready, "wall_s": clock.wall, "calib_s": clock.calib_s,
        "rss_mb": rss, "items": items,
        "work": {"gluing_checks": len(checks)},
    }


ROLES = {"connect": connect, "paths": paths, "tqft": tqft_run}


def main() -> None:
    job = json.load(sys.stdin)
    _import_chordlab(job["src"])
    if job["role"] == "gen":
        result = gen(job)
    else:
        tracer = None
        if job["trace"]:
            tracer = Tracer(CLOCK.now)
            tracer.install()
        result = ROLES[job["role"]](job, tracer)
        if tracer:
            result["layers"] = tracer.summary()
            if job.get("trace_out"):
                tracer.write(job["trace_out"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
