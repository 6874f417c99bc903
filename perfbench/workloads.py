"""The benchmark's workloads: input pools, set-up, requests and output checks.

Every input comes from a fixed pool.  The outputs of the solve, generate
and export pools were recorded from the package once (references.json,
written by record.py), so every request of every seed is checked against
a recorded reference, and a change that alters an instance file, an
LP/MPS file or a solver result shows as a failed request; verify checks
itself against brute-force oracles.  `generate` and `verify` send the
next pool entry, a new generator or sample seed, per request from a
seed-chosen start; the verify pool is about one run long, so every run
sees nearly the same mix of samples.  `solve` and `export` cycle through
their whole small pools, which cost unevenly (solve requests take 70 to
150 ms by instance): a seed-chosen subset would make a run's latency
depend on its seed's mix.  There the seed picks the order, the format
phase and the rs seeds.

Calls into the package go through module attributes (`solvers.beam_search`,
`cli.dispatch`) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from wsptools import cli, core, generator, solvers

# The paper's factor levels; pool entry j cycles through all nine pairs.
WINDS = ("light", "moderate", "strong")
SLOPES = ("flat", "moderate", "steep")

SOLVE_GRID = 20  # "small"
SOLVE_POOL = 20
RS_ITERATIONS = 3
RS_SEEDS = 64  # rs seed = (seed-chosen offset + request index) mod RS_SEEDS, all recorded
BEAM_WIDTH = 2  # default 32; the ten release levels are kept
BEAM_EXPANSIONS = 3  # default 16

GENERATE_GRID = "large"  # 40 x 40
GENERATE_POOL = 512

EXPORT_GRID = 12
EXPORT_POOL = 8
FORMATS = ("lp", "mps")

VERIFY_SAMPLES = 50
VERIFY_POOL = 256  # about one run's requests, so a run sees nearly every seed once


def levels(j: int) -> tuple[str, str]:
    return WINDS[j % len(WINDS)], SLOPES[(j // len(WINDS)) % len(SLOPES)]


def grid_config(j: int, n: int) -> generator.GeneratorConfig:
    wind, slope = levels(j)
    return generator.GeneratorConfig(seed=j, n=n, wind_level=wind, slope_level=slope)


def dispatch_quiet(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def result_digest(result) -> str:
    text = json.dumps([sorted(result.allocation.assignments), result.objective])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_rs(instance, seed: int):
    budget = solvers.SolverBudget(max_iterations=RS_ITERATIONS)
    return solvers.random_search(instance, budget, seed=seed)


def run_beam(instance):
    return solvers.beam_search(instance, BEAM_WIDTH, BEAM_EXPANSIONS)


def generate_args(j: int, path: str) -> list[str]:
    wind, slope = levels(j)
    return ["generate", "--grid", GENERATE_GRID, "--seed", str(j),
            "--wind", wind, "--slope", slope, "-o", path]


def export_args(fmt: str, source: str, target: str) -> list[str]:
    return ["export-mip", "--model", "wsp", "--format", fmt, "-i", source, "-o", target]


def _cli_failure(output) -> str | None:
    code, _, err = output
    return f"exit code {code}: {err.strip()[-300:]}" if code != 0 else None


class Solve:
    """rs then reduced beam on one of 20 small instances, both checked."""

    def __init__(self, seed: int, workdir: str, references: dict):
        rng = random.Random(seed)
        self.start = rng.randrange(SOLVE_POOL)
        self.rs_offset = rng.randrange(RS_SEEDS)
        self.instances = [generator.generate_instance(grid_config(j, SOLVE_GRID))
                          for j in range(SOLVE_POOL)]
        self.references = references["solve"]

    def _pick(self, i: int) -> tuple[int, int]:
        return (self.start + i) % SOLVE_POOL, (self.rs_offset + i) % RS_SEEDS

    def request(self, i: int):
        j, rs_seed = self._pick(i)
        instance = self.instances[j]
        results = {"rs": run_rs(instance, rs_seed), "beam": run_beam(instance)}
        problems = []
        for name, result in results.items():
            if core.check_feasibility(instance, result.allocation):
                problems.append(f"{name} allocation infeasible")
            if core.objective(instance, result.allocation) != result.objective:
                problems.append(f"{name} objective differs from its recomputation")
        return results, problems

    def check(self, i: int, output) -> str | None:
        results, problems = output
        j, rs_seed = self._pick(i)
        if result_digest(results["rs"]) != self.references["rs"][j][rs_seed]:
            problems.append("rs result differs from the reference")
        if result_digest(results["beam"]) != self.references["beam"][j]:
            problems.append("beam result differs from the reference")
        return "; ".join(problems) or None


class Generate:
    """`wsptools generate --grid large` with a new seed per request."""

    def __init__(self, seed: int, workdir: str, references: dict):
        self.start = random.Random(seed).randrange(GENERATE_POOL)
        self.path = os.path.join(workdir, "instance.json")
        self.references = references["generate"]

    def _pool_id(self, i: int) -> int:
        return (self.start + i) % GENERATE_POOL

    def request(self, i: int):
        return dispatch_quiet(generate_args(self._pool_id(i), self.path))

    def check(self, i: int, output) -> str | None:
        failure = _cli_failure(output)
        if failure is None and file_sha256(self.path) != self.references[self._pool_id(i)]:
            failure = "instance JSON differs from the reference"
        return failure


class Export:
    """`wsptools export-mip --model wsp`, LP and MPS in turn, 12 x 12 grids."""

    def __init__(self, seed: int, workdir: str, references: dict):
        self.start = random.Random(seed).randrange(EXPORT_POOL * len(FORMATS))
        self.sources = []
        for j in range(EXPORT_POOL):
            path = os.path.join(workdir, f"export-{j}.json")
            core.save_instance(generator.generate_instance(grid_config(j, EXPORT_GRID)), path)
            self.sources.append(path)
        self.targets = {fmt: os.path.join(workdir, f"model.{fmt}") for fmt in FORMATS}
        self.references = references["export"]

    def _pick(self, i: int) -> tuple[str, int]:
        k = self.start + i
        return FORMATS[k % len(FORMATS)], (k // len(FORMATS)) % EXPORT_POOL

    def request(self, i: int):
        fmt, j = self._pick(i)
        return dispatch_quiet(export_args(fmt, self.sources[j], self.targets[fmt]))

    def check(self, i: int, output) -> str | None:
        fmt, j = self._pick(i)
        failure = _cli_failure(output)
        if failure is None and (file_sha256(self.targets[fmt])
                                != self.references[fmt][j]):
            failure = f"{fmt.upper()} text differs from the reference"
        return failure


class Verify:
    """`wsptools verify-reductions --samples 50` with a new seed per request.

    The command checks itself against brute-force oracles, so no recorded
    reference is needed: the check is exit code 0 and "pass": true.
    """

    def __init__(self, seed: int, workdir: str, references: dict):
        self.start = random.Random(seed).randrange(VERIFY_POOL)

    def request(self, i: int):
        return dispatch_quiet(["verify-reductions", "--samples", str(VERIFY_SAMPLES),
                               "--seed", str((self.start + i) % VERIFY_POOL)])

    def check(self, i: int, output) -> str | None:
        failure = _cli_failure(output)
        if failure is not None:
            return failure
        try:
            report = json.loads(output[1])
        except ValueError:
            return "report is not JSON"
        if report.get("pass") is not True or report.get("samples") != VERIFY_SAMPLES:
            return f"report {report}"
        return None


WORKLOADS = {"solve": Solve, "generate": Generate, "export": Export, "verify": Verify}
