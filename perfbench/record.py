#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks requests against.

    python3 perfbench/record.py

Writes perfbench/references.json: for every entry of the solve, generate
and export pools in workloads.py, the sha256 of the instance JSON
(generate) and of the LP and MPS text (export), and a digest of the
(allocation, objective) pair of each rs seed and of beam (solve).  The committed file was recorded from
the package before any optimisation; re-record only in a change that
means to alter outputs, and say so in that change.  Takes a few minutes
on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402
from wsptools import core, generator  # noqa: E402


def record() -> dict:
    references = {"solve": {"beam": [], "rs": []}, "generate": [],
                  "export": {fmt: [] for fmt in w.FORMATS}}
    for j in range(w.SOLVE_POOL):
        instance = generator.generate_instance(w.grid_config(j, w.SOLVE_GRID))
        references["solve"]["beam"].append(w.result_digest(w.run_beam(instance)))
        references["solve"]["rs"].append(
            [w.result_digest(w.run_rs(instance, seed)) for seed in range(w.RS_SEEDS)])
    scratch = HERE.parent / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        path = os.path.join(workdir, "instance.json")
        for j in range(w.GENERATE_POOL):
            code, _, err = w.dispatch_quiet(w.generate_args(j, path))
            if code != 0:
                raise RuntimeError(f"generate pool entry {j} failed: {err}")
            references["generate"].append(w.file_sha256(path))
        for j in range(w.EXPORT_POOL):
            core.save_instance(generator.generate_instance(w.grid_config(j, w.EXPORT_GRID)), path)
            for fmt in w.FORMATS:
                target = os.path.join(workdir, f"model.{fmt}")
                code, _, err = w.dispatch_quiet(w.export_args(fmt, path, target))
                if code != 0:
                    raise RuntimeError(f"export pool entry {j} ({fmt}) failed: {err}")
                references["export"][fmt].append(w.file_sha256(target))
    return references


def main() -> None:
    references = record()
    with open(HERE / "references.json", "w") as f:
        json.dump(references, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
