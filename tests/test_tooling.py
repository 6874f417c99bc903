"""The benchmark harness in perfbench/ reaches the package by name.

perfbench/tracer.py wraps each function its TARGETS table names, looked
up with getattr, so `run.py --trace 1` and `selfcheck.py` break when one
of those names goes.  perfbench/workloads.py checks every solve request
against the digests in references.json.  These tests load both modules
by path and leave perfbench/ as it is.

The last tests hold the package to its line budget and to no unused
import.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from wsptools import solvers
from wsptools.core import compute_arrival_times
from wsptools.generator import GeneratorConfig, generate_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = PERFBENCH.parent / "src" / "wsptools"

# Non-blank lines of src/wsptools/*.py. A change that needs more raises this
# in its own diff and gives the reason in CHANGES.md.
LINE_BUDGET = 2449


def load_by_path(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_by_path("tracer")


def test_solve_pool_matches_the_benchmark_references():
    # a change to a beam or rs result fails here before any benchmark run
    workloads = load_by_path("workloads")
    references = json.loads((PERFBENCH / "references.json").read_text())["solve"]
    for j in range(workloads.SOLVE_POOL):
        instance = generate_instance(workloads.grid_config(j, workloads.SOLVE_GRID))
        beam = workloads.result_digest(workloads.run_beam(instance))
        assert beam == references["beam"][j], j
        rs_seed = 7 * j % workloads.RS_SEEDS
        rs = workloads.result_digest(workloads.run_rs(instance, rs_seed))
        assert rs == references["rs"][j][rs_seed], (j, rs_seed)


def test_every_target_resolves(tracer):
    assert tracer.TARGETS
    for module_name, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_traced_solve_books_kernel_calls(tracer):
    instance = generate_instance(GeneratorConfig(seed=0, n=20))
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin_request(0)
        solvers.beam_search(instance, 2, 3)
        trace.end_request()
    finally:
        trace.uninstall()
    assert solvers.compute_arrival_times is compute_arrival_times
    table = trace.per_call(1, [1.0])
    # the pinned beam count of tests/test_solvers.py::TestEvaluationCount
    assert table["core.arrival"]["calls"] == 77
    assert trace.counts[("core.arrival.distinct", 0)] == 77
    assert table["solvers.beam"]["calls"] == 1
    assert table["solvers.perimeter"]["calls"] > 0


def test_traced_solver_table_books_the_wrapped_solver(tracer):
    # SOLVERS looks beam_search up when called, so the tracer's wrapper sees
    # CLI and bench runs that go through the table
    instance = generate_instance(GeneratorConfig(seed=0, n=20))
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin_request(0)
        solvers.SOLVERS["beam"](instance, solvers.SolverBudget(beam_width=2, expansions=3), 0)
        trace.end_request()
    finally:
        trace.uninstall()
    table = trace.per_call(1, [1.0])
    assert table["core.arrival"]["calls"] == 77
    assert table["solvers.beam"]["calls"] == 1


def test_package_within_line_budget():
    lines = sum(
        1 for path in PACKAGE.glob("*.py") for line in path.read_text().splitlines() if line.strip()
    )
    assert lines <= LINE_BUDGET, f"src/wsptools/ has {lines} non-blank lines"


def test_package_imports_only_what_it_uses():
    # every name an import binds is read somewhere in its module (a name in
    # an annotation counts); from __future__ imports bind no name
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
