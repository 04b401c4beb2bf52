"""Smoke test of the benchmark at tiny sizes: (1;1,2)@9, 10 path queries and
a 2,2,2,1,1 gluing grid.

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names, with their units, that the oracle passes, and that the
negative control -- connect told to expect 91 classes of (1;1,2) instead of
90 -- registers as failed items.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads


def _fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if modes[0] != run.END_TO_END or modes[1] != run.PER_LAYER:
        _fail("BENCHMARK.json and run.py name different metrics")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        _fail("BENCHMARK.json and workloads.py name different workloads")

    for workload in workloads.WORKLOADS:
        for trace, expected in modes.items():
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0", "--trace", str(trace),
                 "--smoke"],
                capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                _fail(f"{workload} trace {trace} exited {proc.returncode}: "
                      f"{proc.stderr.strip()}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                _fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or not result["attempted"]:
                _fail(f"{workload} trace {trace}: oracle failed\n{proc.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                _fail(f"{workload} trace {trace}: metrics differ: "
                      f"{sorted(set(got) ^ set(expected))}")
            print(f"smoke: {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} items, 0 failed")

    control = run.measure("connect", 7, 0, False, smoke=True,
                          expect={"1,1,2": 91})
    if control["failed"] == 0 or control["failed"] != control["attempted"]:
        _fail(f"negative control passed: {control['failed']} of "
              f"{control['attempted']} items failed")
    print(f"smoke: negative control: {control['failed']} of "
          f"{control['attempted']} items failed, as it should")
    print("smoke: ok")


if __name__ == "__main__":
    main()
