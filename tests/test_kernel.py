"""Bitwise regression of the fire-arrival kernel and the solvers on it.

The oracle tests in test_core allow 1e-9, which cannot catch a change in
summation order.  The horizon test is strict and release ties are
allowed, so a last-bit change is observable; these tests demand exact
equality with the kernel as it was first written.
"""

import dataclasses
import heapq
import itertools
import json
import math

import numpy as np
import pytest

from wsptools import cli, core, solvers
from wsptools.core import (
    EMPTY_ALLOCATION,
    INF,
    Allocation,
    DirectedGraph,
    FireOutcome,
    StructuralError,
    WspInstance,
    check_feasibility,
    compute_arrival_times,
    fire_arrivals,
    objective,
    save_instance,
    single_source_distances,
    solution_to_json,
)
from wsptools.generator import GeneratorConfig, generate_instance
from wsptools.reductions import mvnp_to_wsp
from wsptools.solvers import SolverBudget, beam_search, brute_force, random_search
from wsptools.testkit import random_mvnp_instance

from helpers import (
    NOT_VERTEX_IDS,
    not_int,
    random_allocation,
    random_grid_instance,
    random_wsp_instance,
)


def reference_arrival_times(instance, alloc=EMPTY_ALLOCATION, vertex_delays=None):
    """The original compute_arrival_times body, adjacency built per call."""
    n = instance.graph.vertex_count
    protected = alloc.protected
    adj = [[] for _ in range(n)]
    for tail, head, time in instance.graph.arcs:
        adj[tail].append((head, time))
    dist = [INF] * n
    dist[instance.ignition] = 0.0
    heap = [(0.0, instance.ignition)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u in protected:
            extra = vertex_delays[u] if vertex_delays is not None else instance.delay
        else:
            extra = 0.0
        for v, t in adj[u]:
            nd = d + t + extra
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return tuple(dist)


@pytest.mark.parametrize("n", [20, 30, 80])
def test_generator_instances_bitwise(n):
    instance = generate_instance(GeneratorConfig(seed=7, n=n))
    rs = random_search(instance, SolverBudget(max_iterations=1), seed=0)
    assert rs.allocation.assignments
    for alloc in (EMPTY_ALLOCATION, rs.allocation):
        assert compute_arrival_times(instance, alloc).arrival == reference_arrival_times(
            instance, alloc
        )


def test_random_instances_bitwise(rng):
    for _ in range(50):
        instance = random_wsp_instance(rng, max_vertices=40)
        alloc = random_allocation(rng, instance)
        delays = [float(d) for d in rng.uniform(0.0, 20.0, size=instance.graph.vertex_count)]
        assert compute_arrival_times(instance, alloc).arrival == reference_arrival_times(
            instance, alloc
        )
        per_vertex = {v: delays[v] for v in alloc.protected}
        assert fire_arrivals(instance.graph, instance.ignition, per_vertex).arrival == (
            reference_arrival_times(instance, alloc, delays)
        )


class TestFireArrivals:
    """The graph-level kernel under per-vertex delays."""

    def test_repair_with_per_vertex_delays_bitwise(self, rng):
        for _ in range(100):
            instance = random_wsp_instance(rng, max_vertices=30)
            graph, source, n = instance.graph, instance.ignition, instance.graph.vertex_count
            values = [0.0, 1e-300, *(float(d) for d in rng.uniform(0.0, 20.0, size=n))]
            delays = {int(v): values[int(rng.integers(0, len(values)))]
                      for v in rng.permutation(n)[: int(rng.integers(0, n + 1))]}
            parent_delays = {v: d for v, d in delays.items() if rng.random() < 0.5}
            parent_outcome = fire_arrivals(graph, source, parent_delays)
            full = fire_arrivals(graph, source, delays)
            repaired = fire_arrivals(graph, source, delays, parent_outcome)
            assert repaired.arrival == full.arrival
            assert repaired.changed == {
                v for v, (a, b) in enumerate(zip(parent_outcome.arrival, full.arrival)) if a != b
            }

    def test_instance_adapter(self, rng):
        for _ in range(20):
            instance = random_wsp_instance(rng, max_vertices=30)
            alloc = random_allocation(rng, instance)
            delays = dict.fromkeys(alloc.protected, instance.delay)
            assert compute_arrival_times(instance, alloc) == fire_arrivals(
                instance.graph, instance.ignition, delays
            )

    def test_free_burn_is_computed_once(self, rng):
        for _ in range(20):
            instance = random_wsp_instance(rng, max_vertices=30)
            free_burn = compute_arrival_times(instance)
            assert compute_arrival_times(instance) is free_burn
            assert compute_arrival_times(instance, EMPTY_ALLOCATION) is free_burn
            assert free_burn == fire_arrivals(instance.graph, instance.ignition, {})
            assert free_burn.arrival == reference_arrival_times(instance)
            assert free_burn.changed is None

    @pytest.mark.parametrize("source, delays, message", [
        (9, {}, "source vertex 9 out of range"),
        (-1, {}, "source vertex -1 out of range"),
        (0, {9: 1.0}, "protected vertex 9 out of range"),
        (0, {-1: 1.0}, "protected vertex -1 out of range"),
    ])
    def test_rejects_vertices_out_of_range(self, figure_instance, source, delays, message):
        with pytest.raises(StructuralError, match=message):
            fire_arrivals(figure_instance.graph, source, delays)

    @pytest.mark.parametrize("value, kind", NOT_VERTEX_IDS)
    def test_rejects_a_source_not_int(self, figure_instance, value, kind):
        # True and 1.0 ran from vertex 1
        with pytest.raises(StructuralError, match=not_int("source vertex", value, kind)):
            fire_arrivals(figure_instance.graph, value, {})

    @pytest.mark.parametrize("value, kind", NOT_VERTEX_IDS)
    def test_rejects_a_delay_key_not_int(self, figure_instance, value, kind):
        # True, 1.0 and np.int64(1) ran as vertex 1; None and '1' raised a bare TypeError
        with pytest.raises(StructuralError, match=not_int("protected vertex", value, kind)):
            fire_arrivals(figure_instance.graph, 0, {3: 1.0, value: 1.0})

    def test_rejects_an_allocation_of_a_bool_vertex(self, figure_instance):
        alloc = Allocation(((0, True),))
        with pytest.raises(StructuralError, match=not_int("protected vertex", True, "bool")):
            compute_arrival_times(figure_instance, alloc)

    @pytest.mark.parametrize("delay", [math.nan, -1.0])
    def test_rejects_negative_or_nan_delays(self, figure_instance, delay):
        # NaN would cut vertex 1 as +inf does; a negative delay would break the repair
        message = f"^protected vertex 1 delay {delay} is negative or NaN$"
        with pytest.raises(StructuralError, match=message):
            fire_arrivals(figure_instance.graph, 0, {3: 1.0, 1: delay})

    @pytest.mark.parametrize("delay", [None, "1", True])
    def test_rejects_delays_that_are_not_numbers(self, figure_instance, delay):
        # a bool is an int, yet True is no delay of one minute
        message = f"^protected vertex 1 delay {delay!r} is not a number$"
        with pytest.raises(StructuralError, match=message):
            fire_arrivals(figure_instance.graph, 0, {3: 1.0, 1: delay})

    def test_int_delays(self, figure_instance):
        graph = figure_instance.graph
        assert fire_arrivals(graph, 0, {1: 2}).arrival == fire_arrivals(graph, 0, {1: 2.0}).arrival
        with pytest.raises(StructuralError, match="^protected vertex 1 delay is too large"):
            fire_arrivals(graph, 0, {1: 10**400})

    def test_infinite_delay_cuts_the_vertex(self, figure_instance):
        # v2 is reached only through v1
        alloc = Allocation(((0, 1),))
        outcome = fire_arrivals(figure_instance.graph, 0, {1: INF})
        assert outcome.arrival[2] == INF
        assert outcome.arrival == reference_arrival_times(figure_instance, alloc, {1: INF})


@pytest.fixture
def settle_runs(monkeypatch):
    """The number of core._settle runs made so far."""
    runs, settle = [0], core._settle

    def counting(*args):
        runs[0] += 1
        return settle(*args)

    monkeypatch.setattr(core, "_settle", counting)
    return runs


@pytest.fixture
def kernel_runs(monkeypatch, settle_runs):
    """kernel_runs(): the (full runs, repairs) made so far.  Each repair
    settles once, so full runs are core._settle runs less core._repair runs."""
    repairs, repair = [0], core._repair

    def counting(*args):
        repairs[0] += 1
        return repair(*args)

    monkeypatch.setattr(core, "_repair", counting)
    return lambda: (settle_runs[0] - repairs[0], repairs[0])


class TestKeptFullRun:
    """The graph keeps its last full run with delays, with its source and
    a copy of its delays; the instance adapter keeps nothing of its own."""

    A = Allocation(((0, 2), (1, 4), (2, 6)))
    B = Allocation(((0, 1),))

    def test_scoring_twice_runs_once(self, figure_instance, kernel_runs):
        first = compute_arrival_times(figure_instance, self.A)
        assert compute_arrival_times(figure_instance, self.A) is first
        assert kernel_runs() == (1, 0)

    def test_alternating_sets_each_run_in_full(self, figure_instance, kernel_runs):
        allocs = (self.A, self.B, self.A)
        outcomes = [compute_arrival_times(figure_instance, alloc) for alloc in allocs]
        assert kernel_runs() == (3, 0)
        assert outcomes[0].arrival != outcomes[1].arrival
        for alloc, outcome in zip(allocs, outcomes):
            assert outcome.arrival == reference_arrival_times(figure_instance, alloc)
            assert outcome.changed is None

    def test_same_vertices_on_other_resources_share_the_run(self, figure_instance, kernel_runs):
        kept = compute_arrival_times(figure_instance, self.A)
        shuffled = Allocation(((0, 6), (1, 2), (2, 4)))
        assert compute_arrival_times(figure_instance, shuffled) is kept
        assert kernel_runs() == (1, 0)

    def test_repairs_neither_read_nor_replace_it(self, figure_instance, kernel_runs):
        free_burn = compute_arrival_times(figure_instance)
        kept = compute_arrival_times(figure_instance, self.A)
        child = self.A.extended([(3, 7)])
        compute_arrival_times(figure_instance, child, parent=kept)
        # a repair of the kept set itself is a repair, not the kept run
        again = compute_arrival_times(figure_instance, self.A, parent=free_burn)
        assert again is not kept and again.arrival == kept.arrival
        assert compute_arrival_times(figure_instance, self.A) is kept
        assert kernel_runs() == (2, 2)

    def test_check_then_score_runs_once(self, figure_instance, kernel_runs):
        assert check_feasibility(figure_instance, self.A) == []
        assert objective(figure_instance, self.A) == 6
        assert kernel_runs() == (1, 0)

    def test_evaluate_command_runs_once(self, figure_instance, kernel_runs, tmp_path, capsys):
        save_instance(figure_instance, tmp_path / "inst.json")
        (tmp_path / "sol.json").write_text(solution_to_json("figure", self.A, 6))
        assert kernel_runs() == (0, 0)
        assert cli.dispatch(["evaluate", "-i", str(tmp_path / "inst.json"),
                             "-s", str(tmp_path / "sol.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["objective"], report["feasible"]) == (6, True)
        assert kernel_runs() == (1, 0)

    def test_instances_with_other_delays_on_one_graph(self, figure_instance, kernel_runs):
        # the graph's kept run is keyed by the delays, not by the protected set
        fast = dataclasses.replace(figure_instance, delay=0.5)
        slow_run = compute_arrival_times(figure_instance, self.A)
        fast_run = compute_arrival_times(fast, self.A)
        assert kernel_runs() == (2, 0)
        assert slow_run.arrival != fast_run.arrival
        assert slow_run.arrival == reference_arrival_times(figure_instance, self.A)
        assert fast_run.arrival == reference_arrival_times(fast, self.A)

    def test_changing_the_delays_after_a_call(self, figure_instance, kernel_runs):
        graph, delays = figure_instance.graph, {1: 2.0}
        first = fire_arrivals(graph, 0, delays)
        delays[1] = 5.0  # the kept run holds a copy, so it no longer matches
        second = fire_arrivals(graph, 0, delays)
        assert second is not first and second.arrival != first.arrival
        assert first.arrival == reference_arrival_times(figure_instance, self.B, {1: 2.0})
        assert second.arrival == reference_arrival_times(figure_instance, self.B, {1: 5.0})
        assert fire_arrivals(graph, 0, {1: 5.0}) is second
        assert kernel_runs() == (2, 0)

    def test_free_and_delayed_runs_keep_their_own_slots(self, figure_instance, settle_runs):
        graph = figure_instance.graph
        free = fire_arrivals(graph, 0, {})
        delayed = fire_arrivals(graph, 0, {1: 2.0})
        assert fire_arrivals(graph, 0, {}) is free  # the delayed run left the free run
        assert fire_arrivals(graph, 0, {1: 2.0}) is delayed  # and the free run the delayed one
        assert settle_runs[0] == 2


class TestKeptFreeRun:
    """A graph keeps its last unprotected run (no parent, empty delays)
    with its source."""

    @staticmethod
    def graph():
        return DirectedGraph(4, ((0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 1.0)))

    def test_same_source_twice_settles_once(self, settle_runs):
        graph = self.graph()
        first = fire_arrivals(graph, 0, {})
        assert fire_arrivals(graph, 0, {}) is first
        assert settle_runs[0] == 1
        assert first.arrival == (0.0, 1.0, 3.0, 4.0) and first.changed is None

    def test_another_source_replaces_it(self, settle_runs):
        graph = self.graph()
        from_0 = fire_arrivals(graph, 0, {})
        from_2 = fire_arrivals(graph, 2, {})
        assert fire_arrivals(graph, 2, {}) is from_2
        assert settle_runs[0] == 2
        again = fire_arrivals(graph, 0, {})
        assert again is not from_0 and again.arrival == from_0.arrival
        assert settle_runs[0] == 3
        assert from_2.arrival == (2.0, 3.0, 0.0, 1.0)

    def test_delays_and_repairs_neither_read_nor_replace_it(self, settle_runs):
        graph = self.graph()
        kept = fire_arrivals(graph, 0, {})
        # a zero delay changes no bit, yet a call with delays is a full run of its own
        zero = fire_arrivals(graph, 0, {1: 0.0})
        assert zero is not kept and zero.arrival == kept.arrival
        delayed = fire_arrivals(graph, 0, {1: 5.0})
        assert delayed.arrival == (0.0, 1.0, 4.0, 5.0)
        assert settle_runs[0] == 3
        repaired = fire_arrivals(graph, 0, {1: 5.0}, kept)
        assert repaired.arrival == delayed.arrival and repaired.changed == {2, 3}
        # a repair under empty delays is a repair, not the kept run
        unchanged = fire_arrivals(graph, 0, {}, kept)
        assert unchanged is not kept and unchanged.changed == frozenset()
        assert fire_arrivals(graph, 0, {}) is kept

    def test_mutating_distances_leaves_the_kept_run(self):
        graph = self.graph()
        distances = single_source_distances(graph, 0)
        distances[1] = -1.0
        assert single_source_distances(graph, 0) == [0.0, 1.0, 3.0, 4.0]
        assert fire_arrivals(graph, 0, {}).arrival == (0.0, 1.0, 3.0, 4.0)

    def test_free_burn_is_the_graphs_run(self, figure_instance, settle_runs):
        free_burn = compute_arrival_times(figure_instance)
        assert compute_arrival_times(figure_instance) is free_burn
        assert fire_arrivals(figure_instance.graph, 0, {}) is free_burn
        # the instance keeps no copy
        assert all(value is not free_burn for value in vars(figure_instance).values())
        # an instance on the same graph shares it
        assert compute_arrival_times(dataclasses.replace(figure_instance, delay=1.0)) is free_burn
        assert settle_runs[0] == 1

    def test_instances_on_one_graph_with_two_ignitions(self, figure_instance, settle_runs):
        other = dataclasses.replace(figure_instance, ignition=3)
        for instance in (figure_instance, other, figure_instance):
            assert compute_arrival_times(instance).arrival == reference_arrival_times(instance)
        assert settle_runs[0] == 3  # each ignition replaces the other's run

    def test_generated_instance_runs_no_free_burn(self, settle_runs):
        # the generator ran the unprotected run for the horizon, on the same graph
        instance = generate_instance(GeneratorConfig(seed=3, n=12))
        settle_runs[0] = 0
        free_burn = compute_arrival_times(instance)
        assert settle_runs[0] == 0
        assert free_burn is fire_arrivals(instance.graph, instance.ignition, {})
        assert free_burn.arrival == reference_arrival_times(instance)


@pytest.fixture
def popped(monkeypatch):
    """The vertex of every heap entry the kernel has popped so far."""
    vertices, heappop = [], core.heappop

    def recording_heappop(heap):
        entry = heappop(heap)
        vertices.append(entry[1])
        return entry

    monkeypatch.setattr(core, "heappop", recording_heappop)
    return vertices


def reduced_instances(seed, count=60, max_vertices=12):
    """Timed reductions of random interdiction instances, which add
    |V| sink leaves per short predecessor of the sink."""
    rng = np.random.default_rng(seed)
    return [mvnp_to_wsp(random_mvnp_instance(rng, max_vertices=max_vertices))[0]
            for _ in range(count)]


class TestSinks:
    """A vertex without out-arcs gets its arrival without a heap entry."""

    def test_fan_out_to_sinks(self, popped):
        # the sinks 1-4 tie at 1.0; the sink 6 gets 3.0 from 0, then 1.0 through 5
        graph = DirectedGraph(7, (
            (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (0, 5, 0.5), (0, 6, 3.0),
            (5, 6, 0.5),
        ))
        instance = WspInstance(graph, 0, horizon=10.0, delay=2.0, schedule=())
        assert fire_arrivals(graph, 0, {}).arrival == reference_arrival_times(instance) == (
            0.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0)
        assert popped == [0, 5]
        popped.clear()
        delayed = fire_arrivals(graph, 0, {5: 2.0})
        assert delayed.arrival == reference_arrival_times(instance, _vertices(5)) == (
            0.0, 1.0, 1.0, 1.0, 1.0, 0.5, 3.0)
        assert popped == [0, 5]

    def test_reduced_instances_bitwise_without_sink_pops(self, popped):
        rng = np.random.default_rng(36)
        sinks_reached = 0
        for instance in reduced_instances(36):
            out_arcs = instance.graph.out_arcs
            for alloc in (EMPTY_ALLOCATION, random_allocation(rng, instance)):
                popped.clear()
                outcome = compute_arrival_times(instance, alloc)
                assert outcome.arrival == reference_arrival_times(instance, alloc)
                # the ignition's own entry is the only one that may be a sink's
                assert all(out_arcs[v] for v in popped[1:])
                sinks_reached += sum(1 for v, a in enumerate(outcome.arrival)
                                     if a < INF and not out_arcs[v])
        assert sinks_reached > 1000

    def test_repairs_of_reduced_instances_exact(self, rng):
        sinks_changed = 0
        for instance in reduced_instances(37):
            graph, n = instance.graph, instance.graph.vertex_count
            # protect the vertices with sink leaves early, so repairs move the leaves
            order = sorted(range(n), key=lambda v: (-len(graph.out_arcs[v]), float(rng.random())))
            for kept, added in ((0, 1), (1, 2), (0, 3)):
                parent_alloc = _vertices_alloc(order[:kept])
                alloc = _vertices_alloc(order[: kept + added])
                parent_outcome = compute_arrival_times(instance, parent_alloc)
                repaired = compute_arrival_times(instance, alloc, parent=parent_outcome)
                assert_repair_exact(instance, parent_outcome, alloc, repaired)
                sinks_changed += sum(1 for v in repaired.changed if not graph.out_arcs[v])
        assert sinks_changed > 100


def _vertices(*vertices):
    return Allocation(tuple(enumerate(vertices)))


# (generator seed, rs result, beam result), recorded from the kernel as first written
PINNED = [
    (
        0,
        (_vertices(274, 325, 177, 330, 93, 258, 15, 77, 101, 158,
                   0, 7, 25, 399, 320, 343, 58, 98, 360, 397), 398),
        (_vertices(252, 229, 274, 290, 329, 268, 226, 202, 176, 107,
                   220, 7, 83, 52, 139, 12, 100, 322, 1, 0), 398),
    ),
    (
        1,
        (_vertices(322, 340, 164, 264, 286, 290, 18, 388, 104, 375,
                   61, 376, 180, 303, 161, 377, 262, 382, 240, 396), 395),
        (_vertices(89, 70, 208, 250, 233, 31, 116, 271, 75, 309,
                   179, 310, 267, 164, 43, 142, 200, 163, 3, 41), 394),
    ),
]


@pytest.mark.parametrize("seed, rs_expected, beam_expected", PINNED)
def test_solver_results_pinned(seed, rs_expected, beam_expected):
    instance = generate_instance(GeneratorConfig(seed=seed, n=20))
    rs = random_search(instance, SolverBudget(max_iterations=3), seed=5)
    beam = beam_search(instance, 2, 3)
    assert (rs.allocation, rs.objective) == rs_expected
    assert (beam.allocation, beam.objective) == beam_expected


# (seed, side, schedule, horizon, delay) of a random_grid_instance and the
# brute_force (assignments, objective) on it, recorded before the solvers
# took resource ids from WspInstance.first_resources; seeds 2 and 4 leave
# the first resources of a release point unused
PINNED_EXACT = [
    ((0, 4, ((2.0, 1), (4.0, 1)), 10.0, 5.0), ((0, 1), (1, 6)), 14),
    ((1, 4, ((2.0, 2), (4.0, 1)), 10.0, 5.0), ((0, 2), (1, 5), (2, 8)), 10),
    ((2, 3, ((1.5, 2), (3.0, 2)), 8.0, 4.0), ((2, 5), (3, 7)), 8),
    ((3, 3, ((1.0, 1), (2.5, 3)), 6.0, 3.0), ((0, 3), (1, 5), (2, 7)), 7),
    ((4, 4, ((3.0, 1), (5.0, 2)), 9.0, 2.0), ((1, 2), (2, 9)), 10),
    ((5, 3, ((0.5, 3),), 5.0, 10.0), ((0, 1), (1, 3)), 3),
]


@pytest.mark.parametrize("grid, assignments, objective", PINNED_EXACT)
def test_brute_force_results_pinned(grid, assignments, objective):
    seed, side, schedule, horizon, delay = grid
    instance = random_grid_instance(np.random.default_rng(seed), side, schedule, horizon, delay)
    result = brute_force(instance)
    assert (result.allocation.assignments, result.objective) == (assignments, objective)


# ---------------------------------------------------------------------------
# Repair from a parent outcome: compute_arrival_times(..., parent=...) must
# give the original kernel's arrivals bit for bit.


def assert_repair_exact(instance, parent_outcome, alloc, repaired):
    expected = reference_arrival_times(instance, alloc)
    assert repaired.arrival == expected
    assert repaired.changed == {
        v for v, (old, new) in enumerate(zip(parent_outcome.arrival, expected)) if old != new
    }


def _vertices_alloc(vertices):
    return Allocation(tuple(enumerate(vertices)))


@pytest.fixture
def repairs(monkeypatch):
    """(instance, parent_outcome, alloc, outcome) of every repaired
    evaluation the solvers make."""
    recorded, evaluate = [], compute_arrival_times

    def recording_evaluate(instance, alloc=EMPTY_ALLOCATION, *, parent=None):
        outcome = evaluate(instance, alloc, parent=parent)
        if parent is not None:
            recorded.append((instance, parent, alloc, outcome))
        return outcome

    monkeypatch.setattr(solvers, "compute_arrival_times", recording_evaluate)
    return recorded


@pytest.mark.parametrize(
    "seed, n, rs_iterations, beam",
    [(0, 20, 3, (2, 3)), (1, 20, 3, (2, 3)), (7, 20, 4, (4, 4)), (7, 30, 4, (4, 4))],
)
def test_solver_repairs_bitwise(seed, n, rs_iterations, beam, repairs):
    """Every (parent, child) pair rs and beam build on the PINNED instances
    and on generator grids of side 20 and 30."""
    instance = generate_instance(GeneratorConfig(seed=seed, n=n))
    random_search(instance, SolverBudget(max_iterations=rs_iterations), seed=5)
    beam_search(instance, *beam)
    assert len(repairs) > 2 * len(instance.schedule)
    assert any(outcome.changed for *_, outcome in repairs)
    for record in repairs:
        assert_repair_exact(*record)


@pytest.fixture
def heap_pops(monkeypatch):
    """The number of heappop calls the kernel has made so far."""
    pops, heappop = [0], core.heappop

    def counting_heappop(heap):
        pops[0] += 1
        return heappop(heap)

    monkeypatch.setattr(core, "heappop", counting_heappop)
    return pops


def test_repair_never_pushes_an_infinite_label(heap_pops):
    """Vertex 2 loses its only finite in-arc; its (inf, 2) seed would
    relax nothing, so the one pop is the candidate walk's."""
    graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    parent = fire_arrivals(graph, 0, {})
    heap_pops[0] = 0
    repaired = fire_arrivals(graph, 0, {1: INF}, parent)
    assert repaired.arrival == (0.0, 1.0, INF)
    assert repaired.changed == {2}
    assert heap_pops[0] == 1


def test_beam_heap_pops_pinned(heap_pops):
    """Deterministic work gate on a generated instance: beam starts from
    the free burn the generator ran and its graph kept (1781 pops while
    beam ran the free burn itself, 2556 before beam repaired along shared
    combination prefixes and the repair stopped pushing infinite labels)."""
    instance = generate_instance(GeneratorConfig(seed=0, n=20))
    heap_pops[0] = 0
    beam_search(instance, 2, 3)
    assert heap_pops[0] == 1240


def test_beam_heap_pops_pinned_on_a_fresh_graph(heap_pops):
    """The same gate, free burn included: the instance on a new graph of
    the same arcs, which has run nothing."""
    generated = generate_instance(GeneratorConfig(seed=0, n=20))
    graph = DirectedGraph(generated.graph.vertex_count, generated.graph.arcs)
    instance = dataclasses.replace(generated, graph=graph)
    heap_pops[0] = 0
    beam_search(instance, 2, 3)
    assert heap_pops[0] == 1781


def test_random_repairs_bitwise(rng):
    for case in range(200):
        instance = random_wsp_instance(rng, max_vertices=30)
        if case % 4 == 0:
            instance = dataclasses.replace(instance, delay=0.0)
        n = instance.graph.vertex_count
        order = [int(v) for v in rng.permutation(n)]
        heads = [v for _, v, _ in instance.graph.out_arcs[instance.ignition]]
        if case % 2 and heads:
            # protect an out-neighbour of the ignition in the child
            order.remove(heads[0])
            order.insert(int(rng.integers(0, n)), heads[0])
        kept = int(rng.integers(0, n))
        added = int(rng.integers(0, n - kept + 1))
        parent_alloc = _vertices_alloc(order[:kept])
        alloc = _vertices_alloc(order[: kept + added])
        parent_outcome = compute_arrival_times(instance, parent_alloc)
        repaired = compute_arrival_times(instance, alloc, parent=parent_outcome)
        assert_repair_exact(instance, parent_outcome, alloc, repaired)
        # a repaired outcome is itself a valid parent
        grandchild = _vertices_alloc(order[: kept + added + 1])
        assert_repair_exact(
            instance, repaired, grandchild,
            compute_arrival_times(instance, grandchild, parent=repaired),
        )


def equal_arrival_instance() -> WspInstance:
    """Arcs of 1e-300 after an arrival of 100.0 cost nothing in floats, so
    tight arcs join vertices of equal arrival."""
    tiny = 1e-300
    graph = DirectedGraph(6, (
        (0, 1, 50.0), (1, 2, 50.0), (1, 3, 50.0), (2, 3, tiny), (3, 2, tiny),
        (0, 2, 200.0), (0, 3, 200.0), (0, 4, 100.0), (4, 5, tiny), (1, 5, 50.0),
    ))
    return WspInstance(graph, 0, horizon=1000.0, delay=10.0, schedule=())


def test_repair_with_equal_arrival_tight_arcs():
    """Vertices 2 and 3 reach 100.0 through 1 and support each other;
    protecting 1 must raise both, though each still has a tight in-arc from
    the other.  Vertex 5 keeps 100.0 through 4 while its tight arc from 1
    breaks."""
    instance = equal_arrival_instance()
    parent_outcome = compute_arrival_times(instance)
    assert parent_outcome.arrival == (0.0, 50.0, 100.0, 100.0, 100.0, 100.0)
    for protected in [(1,), (1, 4), (1, 2), (1, 3), (4, 1, 2, 3)]:
        alloc = _vertices_alloc(protected)
        repaired = compute_arrival_times(instance, alloc, parent=parent_outcome)
        assert_repair_exact(instance, parent_outcome, alloc, repaired)
    repaired = compute_arrival_times(instance, _vertices_alloc((1,)), parent=parent_outcome)
    assert repaired.arrival == (0.0, 50.0, 110.0, 110.0, 100.0, 100.0)
    assert repaired.changed == {2, 3}


def test_protection_at_or_after_t_keeps_earlier_arrivals():
    """random_search narrows its open list level by level on this fact:
    protecting vertices of arrival >= t leaves every arrival below t with
    its bits, so burned stays burned.  A release at 100.0 may protect all of
    2 to 5 (ties are allowed), which are joined by tight 1e-300 arcs."""
    instance = equal_arrival_instance()
    root = compute_arrival_times(instance)
    times = sorted({50.0, 100.0, math.nextafter(100.0, INF), *root.arrival})
    for i, t in enumerate(times):
        open_at_t = [v for v, a in enumerate(root.arrival) if a >= t]
        for protected in itertools.chain.from_iterable(
                itertools.combinations(open_at_t, size) for size in range(len(open_at_t) + 1)):
            alloc = _vertices_alloc(protected)
            for after in (compute_arrival_times(instance, alloc),
                          compute_arrival_times(instance, alloc, parent=root)):
                assert [b for a, b in zip(root.arrival, after.arrival) if a < t] == \
                    [a for a in root.arrival if a < t]
                for later in times[i:]:
                    open_later = [v for v, b in enumerate(after.arrival)
                                  if b >= later and v not in protected]
                    assert [v for v in open_at_t if after.arrival[v] >= later
                            and v not in protected] == open_later


# the one message for a parent that is not a run this repair may start from
REFUSED = "^the parent outcome is not a run from source"


class TestRepairInputs:
    def test_parent_must_protect_a_subset(self, figure_instance):
        parent_outcome = compute_arrival_times(figure_instance, _vertices_alloc((2, 4)))
        with pytest.raises(StructuralError, match=REFUSED):
            compute_arrival_times(figure_instance, _vertices_alloc((2, 5)), parent=parent_outcome)

    def test_rejects_added_vertex_without_a_delay(self, figure_instance):
        graph, source = figure_instance.graph, figure_instance.ignition
        delays = {2: 1.0, 4: 3.0, 5: 1.0}
        # a parent delay that delays lacks, or holds with another value
        for parent_delays in ({2: 1.0, 4: 3.0, 3: 1.0}, {2: 1.0, 4: 2.0}):
            with pytest.raises(StructuralError, match=REFUSED):
                fire_arrivals(graph, source, delays, fire_arrivals(graph, source, parent_delays))
        parent_outcome = fire_arrivals(graph, source, {2: 1.0, 4: 3.0})
        repaired = fire_arrivals(graph, source, delays, parent_outcome)
        assert repaired.arrival == fire_arrivals(graph, source, delays).arrival

    def test_rejects_outcome_of_another_size(self, figure_instance):
        with pytest.raises(StructuralError, match=REFUSED):
            compute_arrival_times(figure_instance, _vertices_alloc((2,)),
                                  parent=compute_arrival_times(
                                      random_grid_instance(np.random.default_rng(0), 2)))

    def test_rejects_a_parent_under_other_delays(self):
        # taken as the run under {}, the parent gave 14 of 36 arrivals unlike a full run
        instance = generate_instance(GeneratorConfig(seed=1, n=6))
        graph, source = instance.graph, instance.ignition
        parent = fire_arrivals(graph, source, {15: 500.0})
        with pytest.raises(StructuralError, match=REFUSED):
            fire_arrivals(graph, source, {20: 500.0}, parent)
        repaired = fire_arrivals(graph, source, {15: 500.0, 20: 500.0}, parent)
        assert repaired == fire_arrivals(graph, source, {15: 500.0, 20: 500.0})

    def test_rejects_a_parent_of_another_instance_delay(self):
        # same graph, same protected set: one arrival came out wrong
        instance = generate_instance(GeneratorConfig(seed=1, n=6))
        faster = dataclasses.replace(instance, delay=instance.delay / 10)
        parent_alloc = _vertices_alloc((7,))
        alloc = parent_alloc.extended([(1, 0)])
        with pytest.raises(StructuralError, match=REFUSED):
            compute_arrival_times(instance, alloc,
                                  parent=compute_arrival_times(faster, parent_alloc))
        repaired = compute_arrival_times(instance, alloc,
                                         parent=compute_arrival_times(instance, parent_alloc))
        assert repaired == compute_arrival_times(instance, alloc)

    def test_rejects_a_parent_on_another_graph_of_the_same_size(self):
        # repaired from g1's run, g2 gave (0.0, 1.0, 2.0) where a full run gives (0.0, 5.0, 12.0)
        g1 = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        g2 = DirectedGraph(3, ((0, 1, 5.0), (1, 2, 5.0), (0, 2, 20.0)))
        with pytest.raises(StructuralError, match=REFUSED + r" 0 on this graph under"):
            fire_arrivals(g2, 0, {1: 2.0}, fire_arrivals(g1, 0, {}))
        assert fire_arrivals(g2, 0, {1: 2.0}, fire_arrivals(g2, 0, {})).arrival == (0.0, 5.0, 12.0)

    def test_rejects_a_parent_on_an_equal_graph(self):
        # the parent's record is its graph's own out_arcs, not an equal value
        g1, g2 = (DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))) for _ in range(2))
        assert g1 == g2
        with pytest.raises(StructuralError, match=REFUSED):
            fire_arrivals(g2, 0, {1: 2.0}, fire_arrivals(g1, 0, {}))

    @pytest.mark.parametrize("n", [3, 5])
    def test_rejects_a_parent_on_another_graph_without_arcs(self, n):
        # such graphs all hold the one empty arcs tuple, yet differ in size
        parent = fire_arrivals(DirectedGraph(4, ()), 0, {})
        with pytest.raises(StructuralError, match=REFUSED):
            fire_arrivals(DirectedGraph(n, ()), 0, {1: 2.0}, parent)

    def test_rejects_a_parent_from_another_source(self, figure_instance):
        graph = figure_instance.graph
        parent = fire_arrivals(graph, 3, {})
        with pytest.raises(StructuralError, match=REFUSED):
            fire_arrivals(graph, 0, {1: 2.0}, parent)
        assert fire_arrivals(graph, 3, {1: 2.0}, parent) == fire_arrivals(graph, 3, {1: 2.0})

    def test_rejects_an_outcome_built_by_hand(self, figure_instance):
        # it records no run, even with the arrivals of one
        parent = FireOutcome(compute_arrival_times(figure_instance).arrival)
        with pytest.raises(StructuralError, match=REFUSED):
            compute_arrival_times(figure_instance, _vertices_alloc((2,)), parent=parent)

    def test_parent_keeps_the_delays_it_ran_under(self, figure_instance):
        graph, delays = figure_instance.graph, {2: 1.0}
        parent = fire_arrivals(graph, 0, delays)
        delays[2] = 5.0  # the caller's dict changes after the run; the parent's copy does not
        assert parent.delays == {2: 1.0}
        with pytest.raises(TypeError):
            parent.delays[2] = 5.0
        with pytest.raises(StructuralError, match=REFUSED):
            fire_arrivals(graph, 0, delays, parent)
        delays[2], delays[4] = 1.0, 3.0
        assert fire_arrivals(graph, 0, delays, parent) == fire_arrivals(graph, 0, delays)

    def test_same_protection_changes_nothing(self, figure_instance):
        alloc = _vertices_alloc((2, 4))
        outcome = compute_arrival_times(figure_instance, alloc)
        repaired = compute_arrival_times(figure_instance, alloc, parent=outcome)
        assert repaired.arrival == outcome.arrival
        assert repaired.changed == frozenset()

    def test_burned_delta(self, figure_instance):
        # beam moves its burned counts by one pass over the repair's changed
        parent_alloc = _vertices_alloc((3,))
        parent = compute_arrival_times(figure_instance, parent_alloc)
        alloc = _vertices_alloc((3, 1))
        repaired = compute_arrival_times(figure_instance, alloc, parent=parent)
        old, new = parent.arrival, repaired.arrival
        for t in sorted(set(parent.arrival) | {0.0, 0.5, 1e9, INF}):
            delta = sum((new[v] < t) - (old[v] < t) for v in repaired.changed)
            assert delta == repaired.burned_count(t) - parent.burned_count(t)
