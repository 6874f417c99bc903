"""The benchmark harness in perfbench/ reaches the package by name.

perfbench/tracer.py wraps each function its TARGETS table names, looked
up with getattr, so `run.py --trace 1` and `selfcheck.py` break when one
of those names goes.  perfbench/workloads.py checks every solve,
generate and export request against the digests in references.json.
These tests load both modules by path and leave perfbench/ as it is.

The last tests hold the package to its line budget, to no unused import
and to one owner of the vertex-id rule, and run README's library example.
"""

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from wsptools import core, solvers
from wsptools.core import compute_arrival_times
from wsptools.generator import GeneratorConfig, generate_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = PERFBENCH.parent / "src" / "wsptools"

# Non-blank lines of src/wsptools/*.py. A change that needs more raises this
# in its own diff and gives the reason in CHANGES.md.
LINE_BUDGET = 2460


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


def test_generate_pool_matches_the_benchmark_references(tmp_path):
    # every 32nd instance file of the pool, through the CLI as the benchmark runs it
    workloads = load_by_path("workloads")
    references = json.loads((PERFBENCH / "references.json").read_text())["generate"]
    path = str(tmp_path / "instance.json")
    for j in range(0, workloads.GENERATE_POOL, 32):
        code, _, err = workloads.dispatch_quiet(workloads.generate_args(j, path))
        assert code == 0, (j, err)
        assert workloads.file_sha256(path) == references[j], j


def test_export_pool_matches_the_benchmark_references(tmp_path):
    workloads = load_by_path("workloads")
    references = json.loads((PERFBENCH / "references.json").read_text())["export"]
    source, target = str(tmp_path / "instance.json"), str(tmp_path / "model")
    for j in range(workloads.EXPORT_POOL):
        core.save_instance(generate_instance(workloads.grid_config(j, workloads.EXPORT_GRID)),
                           source)
        for fmt in workloads.FORMATS:
            code, _, err = workloads.dispatch_quiet(workloads.export_args(fmt, source, target))
            assert code == 0, (j, fmt, err)
            assert workloads.file_sha256(target) == references[fmt][j], (j, fmt)


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


def test_one_owner_of_the_vertex_id_rule():
    # a raise whose f-string says "out of range" or "not int" is a copy of
    # core._vertex, bar DirectedGraph's per-arc check, kept inline for speed
    owners = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                texts = [part.value for string in ast.walk(child.exc)
                         if isinstance(string, ast.JoinedStr) for part in string.values
                         if isinstance(part, ast.Constant)]
                if any("out of range" in text or "not int" in text for text in texts):
                    owners.add(".".join(scope))
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    assert owners == {"core._vertex", "core.DirectedGraph.__post_init__"}


def test_readme_python_blocks_run():
    # the blocks build on each other, so they run in order in one namespace
    readme = PACKAGE.parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
