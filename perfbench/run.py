"""chordlab benchmark: connect, paths and tqft workloads.

    python3 perfbench/run.py --workload connect|paths|tqft|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from a checkout; the library is imported from its src/ directory.  Each
workload is a closed loop: one client, one process at a time, jobs=1.  A run
repeats rounds of the workload until --seconds have passed; every round's
library work happens in fresh interpreters (worker.py), so each timed
repetition starts with cold caches.

--trace 0 prints the end-to-end metrics (tracing off).  --trace 1 alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones, the per-span table and the tracing overhead; spans are written to
perfbench/out/.  --workload all runs every workload both ways.  --smoke runs
the tiny sizes used by smoke.py.

The oracle (hand-recorded class counts, path replay, gluing, known matrices)
runs on every item; a mismatch makes the item fail.  The last stdout line is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a run must end within 180 s; no worker may start a wait beyond this
DEADLINE_S = 170.0

# Times other than setup_s are in "ref": multiples of the mean calibration
# slice each worker times throughout its measured part (worker.Clock), so a
# busy shared host does not read as a slower program.  The raw seconds and
# the calibration time are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "item_p50_ref": "ref",
    "item_p90_ref": "ref",
    "peak_rss_mb": "MB",
}

FIELDS = ("Q", "Fp")
PER_LAYER = {
    "fatgraph.canonical.calls": "count",
    "fatgraph.canonical.self_s": "s",
    "fatgraph.canonical.half_edges_sq": "count",
    "fatgraph.vertices.calls": "count",
    "fatgraph.boundary_cycles.self_s": "s",
    "fatgraph.validate.self_s": "s",
    "chord.validate_chord.calls": "count",
    "chord.validate_chord.self_s": "s",
    "chord.canonical_form.self_s": "s",
    "chord.diagram_code.calls": "count",
    "chord.collapse_edge.self_s": "s",
    "chord.is_essential.self_s": "s",
    "chord.apply_expansion.useful_ratio": "ratio",
    "moves.bfs_s": "s",
    "moves.neighbors.calls": "count",
    "moves.neighbors.new_ratio": "ratio",
    "moves.witness_replay_s": "s",
    "moves.apply_move.calls": "count",
    "moves.classes": "count",
    "moves.bfs_layers": "count",
    "generate.enumerate_s": "s",
    "generate.enumerate.candidates": "count",
    "generate.enumerate.useful_ratio": "ratio",
    **{f"tqft.{metric}.{f}": unit
       for metric, unit in [("mu.calls", "count"), ("mu.self_s", "s"),
                            ("mu.entries", "count"),
                            ("verify_gluing.self_s", "s"),
                            ("check_axioms.self_s", "s"),
                            ("counit_solve.self_s", "s")]
       for f in FIELDS},
    "formats.parse_chord.self_s": "s",
    "formats.serialize_chord.self_s": "s",
    "formats.parse_chord.bytes": "count",
    "formats.parse_frob.self_s": "s",
    "cli.main.self_s": "s",
    "work.queries": "count",
    "work.gluing_checks": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns workers for one run and enforces the run's deadline."""

    def __init__(self):
        self.started = _monotonic()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def worker(self, job: dict) -> tuple[dict, float]:
        """Run one worker; return its result and its set-up time (spawn to
        the worker's ready timestamp, or to exit for the generator)."""
        job = dict(job, src=str(SRC))
        remaining = DEADLINE_S - (_monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        spawned = _monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=self.env, cwd=str(ROOT), text=True,
        )
        try:
            out, err = proc.communicate(json.dumps(job), timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{job['role']} worker passed the run deadline")
        finished = _monotonic()
        if proc.returncode != 0:
            raise BenchError(
                f"{job['role']} worker exited {proc.returncode}: {err.strip()}")
        result = json.loads(out)
        return result, result.get("ready", finished) - spawned


# ---------------------------------------------------------------------------
# rounds: one full pass over a workload's inputs
# ---------------------------------------------------------------------------

def _trace_out(workload: str, seed: int, part: int) -> str:
    """Where a traced worker writes its spans; a later traced round of the
    same run overwrites them."""
    OUT.mkdir(exist_ok=True)
    return str(OUT / f"spans-{workload}-seed{seed}-{part}.tsv.gz")


def round_connect(runner, seed, smoke, traced, index, expect=None):
    parts = []
    for part, (top, bound, classes) in enumerate(
            workloads.connect_order(seed, index, smoke)):
        job = {"role": "connect", "trace": traced, "type": top, "bound": bound,
               "expect_classes": (expect or {}).get(top, classes),
               "trace_out": traced and _trace_out("connect", seed, part)}
        parts.append(runner.worker(job))
    return parts


def round_paths(runner, seed, smoke, traced, index, expect=None):
    queries, gen_s = runner.worker(
        {"role": "gen", "seed": seed, "round": index, "smoke": smoke})
    job = {"role": "paths", "trace": traced, "queries": queries["queries"],
           "trace_out": traced and _trace_out("paths", seed, 0)}
    result, setup = runner.worker(job)
    return [(result, gen_s + setup)]


def round_tqft(runner, seed, smoke, traced, index, expect=None):
    job = {"role": "tqft", "trace": traced, "seed": seed, "round": index,
           "smoke": smoke,
           "trace_out": traced and _trace_out("tqft", seed, 0)}
    return [runner.worker(job)]


ROUNDS = {"connect": round_connect, "paths": round_paths, "tqft": round_tqft}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def item_percentiles(items: list[tuple[str | None, float]]) -> tuple[float, float]:
    """(p50, p90) of item latencies given as (group, latency).

    paths and tqft items have one group.  connect has one item per type per
    round, and the two types' calls take different times; pooling them would
    put the median between the two clusters.  So each group gets its own
    percentiles and the result is their mean, each type weighing the same."""
    groups: dict = {}
    for group, latency in items:
        groups.setdefault(group, []).append(latency)
    p50 = statistics.fmean(statistics.median(xs) for xs in groups.values())
    p90 = statistics.fmean(_p90(xs) for xs in groups.values())
    return p50, p90


def _merge(summaries: list[dict]) -> dict:
    merged = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {},
              "witness_replay_s": 0.0, "enumerate_candidates": 0, "spans": 0}
    for s in summaries:
        for key in ("calls", "total_s", "self_s", "counts"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for key in ("witness_replay_s", "enumerate_candidates", "spans"):
            merged[key] += s[key]
    return merged


def layer_metrics(s: dict, work: dict) -> dict:
    """The per-layer metrics of one traced round."""
    calls, total, self_s, counts = s["calls"], s["total_s"], s["self_s"], s["counts"]

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    def own(*names):
        return sum(self_s.get(k, 0.0) for k in names)

    def ratio(a, b):
        return a / b if b else 0.0

    canonical = ("fatgraph.canonical_code", "fatgraph.canonical_labeling")
    m = {
        "fatgraph.canonical.calls": n(*canonical),
        "fatgraph.canonical.self_s": own(*canonical),
        "fatgraph.canonical.half_edges_sq":
            counts.get("fatgraph.canonical.half_edges_sq", 0),
        "fatgraph.vertices.calls": n("fatgraph.vertices"),
        "fatgraph.boundary_cycles.self_s": own("fatgraph.boundary_cycles"),
        "fatgraph.validate.self_s": own("fatgraph.validate"),
        "chord.validate_chord.calls": n("chord.validate_chord"),
        "chord.validate_chord.self_s": own("chord.validate_chord"),
        "chord.canonical_form.self_s":
            own("chord.canonical_form", "chord.canonical_form_with_map"),
        "chord.diagram_code.calls": n("chord.diagram_code"),
        "chord.collapse_edge.self_s": own("chord.collapse_edge"),
        "chord.is_essential.self_s": own("chord.is_essential"),
        "chord.apply_expansion.useful_ratio": ratio(
            counts.get("chord.apply_expansion.useful", 0),
            counts.get("chord.apply_expansion.attempts", 0)),
        "moves.bfs_s": total.get("moves.neighbors_with_moves", 0.0),
        "moves.neighbors.calls": n("moves.neighbors_with_moves"),
        "moves.neighbors.new_ratio": ratio(
            counts.get("moves.neighbors.new", 0),
            counts.get("moves.neighbors.entries", 0)),
        "moves.witness_replay_s": s["witness_replay_s"],
        "moves.apply_move.calls": n("moves.apply_move"),
        "moves.classes": work.get("classes", 0),
        "moves.bfs_layers": work.get("bfs_layers", 0),
        "generate.enumerate_s": total.get("generate.enumerate_classes", 0.0),
        "generate.enumerate.candidates": s["enumerate_candidates"],
        "generate.enumerate.useful_ratio": ratio(
            counts.get("generate.enumerate.classes", 0),
            s["enumerate_candidates"]),
        "formats.parse_chord.self_s": own("formats.parse_chord"),
        "formats.serialize_chord.self_s": own("formats.serialize_chord"),
        "formats.parse_chord.bytes": counts.get("formats.parse_chord.bytes", 0),
        "formats.parse_frob.self_s": own("formats.parse_frob"),
        "cli.main.self_s": own("cli.main"),
        "work.queries": work.get("queries", 0),
        "work.gluing_checks": work.get("gluing_checks", 0),
        "trace.spans": s["spans"],
    }
    for f in FIELDS:
        m[f"tqft.mu.calls.{f}"] = n(f"tqft.mu.{f}")
        m[f"tqft.mu.self_s.{f}"] = own(f"tqft.mu.{f}")
        m[f"tqft.mu.entries.{f}"] = counts.get(f"tqft.mu.entries.{f}", 0)
        for op in ("verify_gluing", "check_axioms", "counit_solve"):
            m[f"tqft.{op}.self_s.{f}"] = own(f"tqft.{op}.{f}")
    return m


def _round_wall(parts) -> tuple[float, float]:
    """A round's time to its verdict, in calibration units and in seconds."""
    return (sum(r["wall_s"] / r["calib_s"] for r, _s in parts),
            sum(r["wall_s"] for r, _s in parts))


def _round_work(parts) -> dict:
    work: dict = {}
    for result, _setup in parts:
        for key, value in result["work"].items():
            if key == "bfs_layers":
                work[key] = max(work.get(key, 0), value)
            else:
                work[key] = work.get(key, 0) + value
    return work


# a traced run measures the tracing overhead over at least this many
# untraced/traced pairs of rounds
OVERHEAD_PAIRS = 3


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, expect: dict | None = None) -> dict:
    """Run rounds for `seconds` (at least one; with tracing at least
    OVERHEAD_PAIRS untraced/traced pairs) and aggregate them."""
    runner = Runner()
    plain, traced = [], []
    t0 = time.perf_counter()
    index = 0
    while True:
        # with tracing, every round repeats the first round's inputs, so the
        # traced and untraced walls and the traced rounds' counts compare
        with_trace = trace and index % 2 == 1
        inputs = 0 if trace else index
        parts = ROUNDS[workload](runner, seed, smoke, with_trace, inputs, expect)
        (traced if with_trace else plain).append(parts)
        index += 1
        if time.perf_counter() - t0 >= seconds and (
                not trace or len(traced) >= OVERHEAD_PAIRS):
            break

    attempted = failed = 0
    problems: list[str] = []
    for parts in plain + traced:
        for result, _setup in parts:
            for item in result["items"]:
                attempted += 1
                if item["problems"]:
                    failed += 1
                    problems.extend(item["problems"])

    setups = [setup for parts in plain for _result, setup in parts]
    walls = [_round_wall(parts) for parts in plain]
    latencies = [(item.get("group"), item["latency_s"], r["calib_s"])
                 for parts in plain for r, _s in parts for item in r["items"]
                 if item["latency_s"] is not None]
    rss = [max(r["rss_mb"] for r, _s in parts) for parts in plain]
    p50_ref, p90_ref = item_percentiles(
        [(g, lat / calib) for g, lat, calib in latencies])
    p50_ms, p90_ms = item_percentiles(
        [(g, lat * 1000.0) for g, lat, _calib in latencies])
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(w for w, _s in walls),
        "item_p50_ref": p50_ref,
        "item_p90_ref": p90_ref,
        "peak_rss_mb": statistics.median(rss),
    }
    raw = {
        "wall_s": statistics.median(s for _w, s in walls),
        "item_p50_ms": p50_ms,
        "item_p90_ms": p90_ms,
        "calib_s": statistics.median(
            r["calib_s"] for parts in plain for r, _s in parts),
    }

    per_layer = {}
    span_table = {}
    overhead: list[float] = []
    if traced:
        rounds = []
        for parts in traced:
            summary = _merge([r["layers"] for r, _s in parts])
            rounds.append(layer_metrics(summary, _round_work(parts)))
            span_table = summary
        # median_low keeps counts whole: it returns one round's value
        per_layer = {k: statistics.median_low(r[k] for r in rounds)
                     for k in rounds[0]}
        # each traced round against the untraced round just before it, on
        # the same inputs
        overhead = [_round_wall(t)[0] / _round_wall(p)[0]
                    for p, t in zip(plain, traced)]
        per_layer["trace.overhead_ratio"] = statistics.median(overhead)

    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": per_layer,
        "span_table": span_table,
        "samples": {"rounds": len(plain), "traced_rounds": len(traced),
                    "setup": len(setups), "items": len(latencies),
                    "groups": len({g for g, _lat, _c in latencies})},
        "work": _round_work(plain[0]),
        "round_walls": [s for _w, s in walls],
        "overhead": overhead,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def report(res: dict, trace: bool, seed: int) -> dict:
    """Print the human-readable tables; return the metrics of this mode."""
    w = res["workload"]
    print(f"# {w}: seed {seed}, {os.cpu_count()} cores, Python "
          f"{platform.python_version()}, rounds {res['samples']['rounds']} "
          f"untraced + {res['samples']['traced_rounds']} traced")
    print(f"# {w} work per round: " + ", ".join(
        f"{k} {v}" for k, v in sorted(res["work"].items())))
    print(f"# {w} untraced round wall_s: " + " ".join(
        f"{x:.3f}" for x in res["round_walls"]))
    print(f"# {w} oracle: {res['failed']} of {res['attempted']} items failed, "
          f"failed_ratio {res['failed'] / res['attempted']}")
    for problem in res["problems"][:10]:
        print(f"#   {problem}")
    if not trace:
        s, raw = res["samples"], res["raw"]
        basis = {"setup_s": f"median of {s['setup']}",
                 "wall_ref": f"median of {s['rounds']} rounds; "
                             f"{raw['wall_s']:.4f} s",
                 "item_p50_ref": f"median of {s['items']} items in "
                                 f"{s['groups']} groups; "
                                 f"{raw['item_p50_ms']:.4f} ms",
                 "item_p90_ref": f"90th percentile of {s['items']} items in "
                                 f"{s['groups']} groups; "
                                 f"{raw['item_p90_ms']:.4f} ms",
                 "peak_rss_mb": f"median of {s['rounds']} rounds"}
        print(f"# {w} calibration slice: {raw['calib_s']:.5f} s "
              f"(median over workers; 1 ref)")
        for name, unit in END_TO_END.items():
            print(f"{w}.{name} {res['end_to_end'][name]!r} {unit} ({basis[name]})")
        return {k: _metric(res["end_to_end"][k], u) for k, u in END_TO_END.items()}
    table = res["span_table"]
    print(f"# {w} tracing overhead, traced over untraced wall_ref per pair "
          f"of rounds on the same inputs: " + " ".join(
              f"{x:.3f}" for x in res["overhead"]))
    print(f"# {w} spans of the last traced round: name, calls, total_s, self_s")
    for name in sorted(table["calls"]):
        print(f"#   {name:38s} {table['calls'][name]:9d} "
              f"{table['total_s'][name]:10.4f} {table['self_s'][name]:10.4f}")
    for name, unit in PER_LAYER.items():
        print(f"{w}.{name} {res['per_layer'][name]!r} {unit}")
    return {k: _metric(res["per_layer"][k], u) for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for smoke.py")
    args = parser.parse_args(argv)

    if not (SRC / "chordlab" / "__init__.py").is_file():
        print(f"run.py: no chordlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        modes = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        modes = [(args.workload, bool(args.trace))]
    try:
        results = [(measure(w, args.seed, args.seconds, t, args.smoke), t)
                   for w, t in modes]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for res, t in results:
        for name, value in report(res, t, args.seed).items():
            key = name if len(results) == 1 else f"{res['workload']}.{name}"
            metrics[key] = value
    attempted = sum(r["attempted"] for r, _t in results)
    failed = sum(r["failed"] for r, _t in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
