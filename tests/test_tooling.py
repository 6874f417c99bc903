"""The benchmark harness in perfbench/ reaches the package by name.

perfbench/tracer.py wraps each function its TARGETS table names, looked
up with getattr, so `run.py --trace 1` and `selfcheck.py` break when one
of those names goes.  These tests load the tracer by path and leave
perfbench/ as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from wsptools import solvers
from wsptools.core import compute_arrival_times
from wsptools.generator import GeneratorConfig, generate_instance

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
