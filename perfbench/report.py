#!/usr/bin/env python3
"""Print every metric of every workload with its unit, in one command.

    python3 perfbench/report.py [--seed 7]

Each workload runs twice, for RUN_SECONDS seconds in a fresh process each
time: untraced for the end-to-end metrics, then traced for the per-layer
metrics.  The report
gives the end-to-end table, the tracing overhead (the drop in
throughput_rps from the untraced to the traced run), the per-layer
table, and the per-call rows of the ROADMAP baseline table, taken from
the traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, WORKLOAD_NAMES, result_path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 25  # run_seconds in BENCHMARK.json


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run of run.py in a fresh process: (last stdout line, result file)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run failed ({proc.returncode}): {proc.stderr.strip()}")
    with open(result_path(workload, seed, trace)) as f:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(f)


def _table(header: list[str], rows: list[list]) -> str:
    def cell(value):
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += ["| " + " | ".join(cell(v) for v in row) + " |" for row in rows]
    return "\n".join(lines)


def _per_call(record: dict, name: str) -> float:
    row = record["per_call"].get(name)
    return row["inclusive_s"] / row["calls"] if row and row["calls"] else float("nan")


def baseline_rows(traced: dict) -> list[list]:
    """The ROADMAP baseline rows, per call, from the traced runs."""
    rows = []
    if "solve" in traced:
        solve, metrics = traced["solve"], traced["solve"]["metrics"]
        rows += [
            ["one `compute_arrival_times`", "20", f"{1e3 * _per_call(solve, 'core.arrival'):.3f} ms"],
            ["`random_search`, per iteration", "20",
             f"{metrics['solvers.rs.ms_per_iteration']['value']:.2f} ms"],
            ["`beam_search` (2 x 3), per level", "20",
             f"{1e3 * metrics['solvers.beam.s_per_level']['value']:.2f} ms"],
        ]
    if "generate" in traced:
        gen = traced["generate"]
        phases = ", ".join(
            f"{label} {_per_call(gen, name):.4f}"
            for label, name in (("landscape", "generator.landscape"),
                                ("travel times", "generator.travel_times"),
                                ("Dijkstra", "core.sssp"),
                                ("horizon", "generator.free_burn"),
                                ("schedule", "generator.schedule")))
        rows += [
            ["`generate_instance`", "40",
             f"{_per_call(gen, 'generator.instance'):.4f} s ({phases})"],
            ["`wsptools generate --grid large` (in-process dispatch)", "40",
             f"{_per_call(gen, 'cli.dispatch'):.4f} s"],
        ]
    if "export" in traced:
        export = traced["export"]
        rows.append(["`build_wsp_model` / `export_model` (lp and mps alternating)", "12",
                     f"{_per_call(export, 'mip.build'):.4f} s / "
                     f"{_per_call(export, 'mip.export'):.4f} s"])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    names = list(WORKLOAD_NAMES)

    plain, traced = {}, {}
    for name in names:
        plain[name] = run_workload(name, args.seed, RUN_SECONDS, 0)
        traced[name] = run_workload(name, args.seed, RUN_SECONDS, 1)[1]

    first = plain[names[0]][1]
    print(f"wsptools benchmark, seed {args.seed}, {RUN_SECONDS} s per run; "
          f"git {first['git_sha']} (dirty {first['git_dirty']}), Python {first['python']}, "
          f"numpy {first['numpy']}, nproc {first['nproc']}\n")
    header = ["workload"] + [f"{m} ({u})" for m, u in END_TO_END_UNITS.items()] + [
        "requests", "error_rate (ratio)", "wall-clock throughput_rps (1/s)",
        "calibration block median (s)", "loadavg before/after"]
    rows = []
    for name in names:
        line, record = plain[name]
        rows.append([name] + [line["metrics"][m]["value"] for m in END_TO_END_UNITS] + [
            line["attempted"], line["failed"] / line["attempted"],
            record["wall_clock"]["throughput_rps"], record["calibration_block_s"]["median"],
            f"{record['loadavg_before'][0]:.2f}/{record['loadavg_after'][0]:.2f}"])
    print(f"Times at the reference machine speed (calibration block "
          f"{first['calibration_block_s']['reference']} s, speed.py)\n")
    print(_table(header, rows) + "\n")

    rows = []
    for name in names:
        untraced = plain[name][0]["metrics"]["throughput_rps"]["value"]
        with_trace = traced[name]["metrics"]["trace.throughput_rps"]["value"]
        rows.append([name, untraced, with_trace, 100.0 * (untraced - with_trace) / untraced])
    print("Tracing overhead\n")
    print(_table(["workload", "untraced throughput_rps (1/s)", "traced throughput_rps (1/s)",
                  "overhead (%)"], rows) + "\n")

    layer_names = list(traced[names[0]]["metrics"])
    rows = [[metric, traced[names[0]]["metrics"][metric]["unit"]]
            + [traced[name]["metrics"][metric]["value"] for name in names]
            for metric in layer_names]
    print(f"Per-layer metrics (first {traced[names[0]]['trace_window']} requests)\n")
    print(_table(["metric", "unit"] + names, rows) + "\n")

    print("Baseline rows (per call, traced runs)\n")
    print(_table(["layer", "n", "per call"], baseline_rows(traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
