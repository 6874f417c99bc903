#!/usr/bin/env python3
"""Self-check: the benchmark's deterministic counters repeat exactly.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json lists the metrics and units the code prints,
then runs each workload traced twice on seed SEED, each run in a
fresh process, and exits 1 unless both runs are correct and every
counter in tracer.DETERMINISTIC is identical.  Those counters may then serve as
evidence of saved work; wall times may not.  Takes about three minutes.
"""

from __future__ import annotations

import json
import sys

from report import HERE, WORKLOAD_NAMES, run_workload
from run import END_TO_END_UNITS
from tracer import DETERMINISTIC, LAYER_METRICS

SEED = 3


def benchmark_file_problems() -> list[str]:
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    listed = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    printed = {"workloads": list(WORKLOAD_NAMES), "end_to_end": END_TO_END_UNITS,
               "per_layer": LAYER_METRICS}
    return [f"BENCHMARK.json {key} differ from what run.py prints"
            for key in listed if listed[key] != printed[key]]


def main() -> int:
    problems = benchmark_file_problems()
    for name in WORKLOAD_NAMES:
        runs = [run_workload(name, SEED, 1, 1) for _ in range(2)]
        for line, _ in runs:
            if not line["correct"] or line["failed"]:
                problems.append(f"{name}: {line['failed']} of {line['attempted']} requests failed")
        values = [{c: line["metrics"][c]["value"] for c in DETERMINISTIC} for line, _ in runs]
        for counter in DETERMINISTIC:
            first, second = values[0][counter], values[1][counter]
            status = "ok" if first == second else "DIFFERS"
            print(f"{name:9} {counter:28} {first!r:>22} {second!r:>22} {status}")
            if first != second:
                problems.append(f"{name}: {counter} {first!r} != {second!r}")
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
