import gc
import inspect
import itertools
import math
import re

import numpy as np
import pytest

from wsptools import core, reductions, solvers, testkit
from wsptools.core import (
    EMPTY_ALLOCATION,
    DirectedGraph,
    StructuralError,
    compute_arrival_times,
    single_source_distances,
)
from wsptools.reductions import (
    HwspInstance,
    MvnpInstance,
    WwspInstance,
    cost_preserving_augmentation,
    decide_mvnp,
    decide_wsp_brute,
    decide_wwsp_brute,
    decide_hwsp_brute,
    evaluate_hwsp,
    evaluate_wwsp,
    mvnp_to_hwsp,
    mvnp_to_wsp,
    mvnp_to_wwsp,
    solve_mvnp_brute,
    verify_reductions,
)
from wsptools.solvers import LimitExceeded, SolverResult, brute_force, subsets_up_to
from wsptools.testkit import random_digraph, random_mvnp_instance

from helpers import random_grid_instance, random_wsp_instance


def triangle_mvnp():
    """s -> x -> t chain of cost 2 plus a direct s -> t arc of cost 3."""
    graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)))
    return MvnpInstance(graph=graph, source=0, sink=2, k=1, h=3.0)


class TestMvnpBasics:
    def test_validation(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(StructuralError):
            MvnpInstance(graph, 0, 0, 1, 1.0)
        with pytest.raises(StructuralError):
            MvnpInstance(graph, 0, 1, -1, 1.0)

    def test_rejects_infinite_h(self):
        # the reductions would write h into their outputs as an Infinity token
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(StructuralError, match="h must be finite, got inf"):
            MvnpInstance(graph, 0, 1, 1, math.inf)

    def test_brute_solver_on_triangle(self):
        removal, value = solve_mvnp_brute(triangle_mvnp())
        assert removal == frozenset({1})
        assert value == 3.0
        assert decide_mvnp(triangle_mvnp()) is True

    def test_unreachable_sink_counts_as_interdicted(self):
        graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        mvnp = MvnpInstance(graph, 0, 2, k=1, h=100.0)
        removal, value = solve_mvnp_brute(mvnp)
        assert removal == frozenset({1})
        assert value == math.inf
        assert decide_mvnp(mvnp) is True

    def test_zero_budget(self):
        mvnp = MvnpInstance(triangle_mvnp().graph, 0, 2, k=0, h=3.0)
        assert decide_mvnp(mvnp) is False

    def test_node_limit(self, monkeypatch):
        graph = DirectedGraph(
            30, tuple((u, u + 1, 1.0) for u in range(29))
        )
        mvnp = MvnpInstance(graph, 0, 29, k=15, h=100.0)
        monkeypatch.setattr(solvers, "MAX_NODES", 1000)
        with pytest.raises(LimitExceeded):
            solve_mvnp_brute(mvnp)


def subgraph_solve_mvnp_brute(mvnp):
    """solve_mvnp_brute as it was before it scored removal sets on the
    original graph: a new graph without the removed vertices per set."""
    removable = sorted(set(range(mvnp.graph.vertex_count)) - {mvnp.source, mvnp.sink})
    best_set, best_value = frozenset(), -math.inf
    for size in range(min(mvnp.k, len(removable)) + 1):
        for subset in itertools.combinations(removable, size):
            keep = set(range(mvnp.graph.vertex_count)) - set(subset)
            sub_arcs = tuple((u, v, t) for u, v, t in mvnp.graph.arcs if u in keep and v in keep)
            sub = DirectedGraph(vertex_count=mvnp.graph.vertex_count, arcs=sub_arcs)
            value = single_source_distances(sub, mvnp.source)[mvnp.sink]
            if value > best_value:
                best_value, best_set = value, frozenset(subset)
    return best_set, best_value


class TestMvnpRemovalByDelay:
    """An infinite delay on a vertex's out-arcs scores a removal set with
    the same set and the same bits as deleting the vertices."""

    @pytest.mark.parametrize("seed,max_vertices,max_k", [(0, 7, 2), (1, 9, 3)])
    def test_matches_subgraph_solver(self, seed, max_vertices, max_k):
        rng = np.random.default_rng(seed)
        values = set()
        for _ in range(150):
            mvnp = random_mvnp_instance(rng, max_vertices=max_vertices, max_k=max_k)
            expected = subgraph_solve_mvnp_brute(mvnp)
            assert solve_mvnp_brute(mvnp) == expected, mvnp
            values.add(math.isinf(expected[1]))
        assert values == {False, True}  # both cut and uncut sinks occur

    def test_real_valued_costs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mvnp = random_mvnp_instance(rng, max_vertices=6, max_k=2)
            arcs = tuple((u, v, float(rng.uniform(0.1, 3.0))) for u, v, _ in mvnp.graph.arcs)
            mvnp = MvnpInstance(DirectedGraph(mvnp.graph.vertex_count, arcs),
                                mvnp.source, mvnp.sink, mvnp.k, mvnp.h)
            assert solve_mvnp_brute(mvnp) == subgraph_solve_mvnp_brute(mvnp)

    def test_every_path_crosses_a_removable_vertex(self):
        # 0 -> 1 -> 2 and 0 -> 1 -> 3 -> 2: vertex 1 cuts the sink off
        graph = DirectedGraph(4, ((0, 1, 1.0), (1, 2, 5.0), (1, 3, 1.0), (3, 2, 1.0)))
        mvnp = MvnpInstance(graph, 0, 2, k=1, h=10.0)
        assert solve_mvnp_brute(mvnp) == (frozenset({1}), math.inf)
        assert subgraph_solve_mvnp_brute(mvnp) == (frozenset({1}), math.inf)


def subsets_count(n, k):
    return sum(math.comb(n, s) for s in range(min(k, n) + 1))


def diamond_mvnp():
    """Five vertices, two routes and a chord; k = 2 of 3 removable."""
    graph = DirectedGraph(5, ((0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0),
                              (3, 4, 1.0), (1, 2, 1.0)))
    return MvnpInstance(graph, 0, 4, k=2, h=4.0)


def oracle_cases():
    mvnp = diamond_mvnp()
    wsp, wsp_budget = mvnp_to_wsp(mvnp)
    wwsp, wwsp_budget = mvnp_to_wwsp(mvnp)
    hwsp, threshold = mvnp_to_hwsp(mvnp)
    # each estimate counts the vertices its oracle tries: the 3 removable
    # ones; wsp's 0-3, not its 5 sink copies without out-arcs; hwsp's 1-3,
    # not s, t or the 6 auxiliary vertices of delay 0
    assert (wsp.graph.vertex_count, hwsp.graph.vertex_count) == (9, 11)
    return {
        "mvnp": (lambda: solve_mvnp_brute(mvnp), subsets_count(3, 2)),
        "decide_mvnp": (lambda: decide_mvnp(mvnp), subsets_count(3, 2)),
        "wsp": (lambda: decide_wsp_brute(wsp, wsp_budget), subsets_count(4, 2)),
        "wwsp": (lambda: decide_wwsp_brute(wwsp, wwsp_budget), subsets_count(3, 2)),
        "hwsp": (lambda: decide_hwsp_brute(hwsp, threshold), subsets_count(3, 2)),
    }


class TestRefusalBoundary:
    """Every oracle reads solvers.MAX_NODES when it is called."""

    @pytest.mark.parametrize("name", ["mvnp", "decide_mvnp", "wsp", "wwsp", "hwsp"])
    def test_limit_is_inclusive(self, name, monkeypatch):
        run, estimate = oracle_cases()[name]
        monkeypatch.setattr(solvers, "MAX_NODES", estimate)
        run()
        monkeypatch.setattr(solvers, "MAX_NODES", estimate - 1)
        with pytest.raises(LimitExceeded,
                           match=f"search-space estimate {estimate} exceeds limit {estimate - 1}$"):
            run()

    def test_verify_reductions_passes_the_limit_down(self, monkeypatch):
        mvnp = diamond_mvnp()
        largest = max(estimate for _, estimate in oracle_cases().values())
        monkeypatch.setattr(solvers, "MAX_NODES", largest)
        assert verify_reductions(mvnp)["agree"]
        monkeypatch.setattr(solvers, "MAX_NODES", largest - 1)
        with pytest.raises(LimitExceeded):
            verify_reductions(mvnp)

    @pytest.mark.parametrize("oracle", [solvers.protection_sets, solve_mvnp_brute, decide_mvnp,
                                        decide_wsp_brute, decide_wwsp_brute, decide_hwsp_brute,
                                        verify_reductions], ids=lambda f: f.__name__)
    def test_no_oracle_takes_a_limit(self, oracle):
        assert "max_nodes" not in inspect.signature(oracle).parameters


class TestTimedReduction:
    def test_triangle_structure(self):
        instance, budget = mvnp_to_wsp(triangle_mvnp())
        # sink removed, one short predecessor (x) fanned out to |V| leaves
        assert instance.graph.vertex_count == 2 + 3
        assert instance.ignition == 0
        assert instance.horizon == 3.0 and instance.delay == 3.0
        assert instance.schedule == ((0.5, 1),)
        assert budget == 2
        leaf_arcs = [(u, v, t) for u, v, t in instance.graph.arcs if v >= 2]
        assert len(leaf_arcs) == 3
        assert all(u == 1 and t == 1.0 for u, _, t in leaf_arcs)

    def test_direct_sink_arc_not_short(self):
        # the s -> t arc costs exactly h, so s is not a short predecessor
        instance, _ = mvnp_to_wsp(triangle_mvnp())
        assert all(u != 0 or v == 1 for u, v, _ in instance.graph.arcs)

    def test_triangle_equivalence(self):
        instance, budget = mvnp_to_wsp(triangle_mvnp())
        assert decide_wsp_brute(instance, budget) is True

    def test_zero_budget_yields_empty_schedule(self):
        mvnp = MvnpInstance(triangle_mvnp().graph, 0, 2, k=0, h=3.0)
        instance, budget = mvnp_to_wsp(mvnp)
        assert instance.schedule == ()
        assert decide_wsp_brute(instance, budget) is False

    def test_source_with_only_sink_arcs_accepted(self):
        # the source's only arc reaches the sink at h: the sink leaves the
        # reduced graph, and the arc is not short, so no leaf takes its place
        # and the release time falls back to h
        graph = DirectedGraph(3, ((0, 2, 3.0), (1, 2, 1.0)))
        mvnp = MvnpInstance(graph, 0, 2, k=1, h=3.0)
        instance, budget = mvnp_to_wsp(mvnp)
        assert instance.graph == DirectedGraph(2, ())
        assert instance.schedule == ((3.0, 1),)
        assert budget == 2
        answers = verify_reductions(mvnp)
        assert answers == dict.fromkeys(("mvnp", "wsp", "wwsp", "hwsp", "agree"), True)

    def test_vertex_remapping_shifts_after_sink(self):
        # sink in the middle: vertices above it shift down by one
        graph = DirectedGraph(4, ((0, 2, 1.0), (2, 1, 1.0), (0, 3, 1.0), (3, 1, 1.0)))
        mvnp = MvnpInstance(graph, 0, 1, k=1, h=2.5)
        instance, _ = mvnp_to_wsp(mvnp)
        # original 2 keeps id 2... sink is 1, so 2 -> 1 and 3 -> 2
        core = [(u, v, t) for u, v, t in instance.graph.arcs if v < 3]
        assert (0, 1, 1.0) in core and (0, 2, 1.0) in core


class TestWeightedReduction:
    def test_structure(self):
        instance, budget = mvnp_to_wwsp(triangle_mvnp())
        assert budget == 0.0
        assert instance.weights == (0.0, 0.0, 1.0)
        assert instance.forbidden == frozenset({0, 2})
        assert instance.delay == instance.horizon == 3.0

    def test_evaluation(self):
        instance, _ = mvnp_to_wwsp(triangle_mvnp())
        assert evaluate_wwsp(instance, ()) == 1.0  # sink burns at 2 < 3
        assert evaluate_wwsp(instance, [1]) == 0.0

    def test_evaluators_take_any_iterable_of_vertices(self):
        # the protected set is a set: its order and repeats do not matter
        wwsp, _ = mvnp_to_wwsp(triangle_mvnp())
        hwsp, _ = mvnp_to_hwsp(triangle_mvnp())
        for protected in ([1], (1,), {1}, frozenset({1}), iter([1]), [1, 1]):
            assert evaluate_wwsp(wwsp, protected) == 0.0
        for protected in ([1], {1}, iter([1]), [1, 1]):
            assert evaluate_hwsp(hwsp, protected) == evaluate_hwsp(hwsp, (1,))

    def test_forbidden_protection_rejected(self):
        instance, _ = mvnp_to_wwsp(triangle_mvnp())
        with pytest.raises(StructuralError):
            evaluate_wwsp(instance, [2])

    def test_budget_enforced(self):
        # k = 1 and 1, 3 are both removable: the budget, not the forbidden set, refuses
        instance, _ = mvnp_to_wwsp(MvnpInstance(diamond_mvnp().graph, 0, 4, k=1, h=4.0))
        with pytest.raises(StructuralError, match="^allocation exceeds the resource budget$"):
            evaluate_wwsp(instance, [1, 3])

    def test_triangle_equivalence(self):
        instance, budget = mvnp_to_wwsp(triangle_mvnp())
        assert decide_wwsp_brute(instance, budget) is True


class TestAugmentation:
    def test_single_arc_split(self):
        graph = DirectedGraph(2, ((0, 1, 4.0),))
        augmented, aux = cost_preserving_augmentation(graph)
        assert aux == frozenset({2})
        assert set(augmented.arcs) == {(0, 2, 2.0), (2, 1, 2.0)}

    def test_outgoing_costs_homogeneous(self, rng):
        for _ in range(20):
            mvnp = random_mvnp_instance(rng, max_vertices=6)
            augmented, _ = cost_preserving_augmentation(mvnp.graph)
            out_costs = {}
            for u, _, t in augmented.arcs:
                assert out_costs.setdefault(u, t) == t

    def test_distances_preserved(self, rng):
        for _ in range(20):
            mvnp = random_mvnp_instance(rng, max_vertices=6)
            graph = mvnp.graph
            augmented, _ = cost_preserving_augmentation(graph)
            for v in range(graph.vertex_count):
                original = single_source_distances(graph, v)
                lifted = single_source_distances(augmented, v)
                assert lifted[: graph.vertex_count] == original

    def test_empty_graph_returned_unchanged(self):
        graph = DirectedGraph(2, ())
        assert cost_preserving_augmentation(graph) == (graph, frozenset())


class TestHomogeneousReduction:
    def test_structure(self):
        instance, threshold = mvnp_to_hwsp(triangle_mvnp())
        assert threshold == 3.0
        assert instance.targets == frozenset({2})
        assert instance.k == 1
        # delay only on the removable original vertex x = 1
        expected = tuple(
            3.0 if v == 1 else 0.0 for v in range(instance.graph.vertex_count)
        )
        assert instance.vertex_delays == expected

    def test_homogeneity_validated(self):
        graph = DirectedGraph(3, ((0, 1, 1.0), (0, 2, 2.0)))
        with pytest.raises(StructuralError):
            HwspInstance(graph, 0, frozenset({2}), 1, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("arcs, vertex", [
        (((0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0)), 0),
        # of several heterogeneous vertices the lowest id is named, whatever the arc order
        (((2, 0, 1.0), (2, 3, 2.0), (1, 0, 1.0), (1, 3, 2.0)), 1),
    ])
    def test_heterogeneous_vertex_named(self, arcs, vertex):
        graph = DirectedGraph(4, arcs)
        with pytest.raises(StructuralError,
                           match=f"^vertex {vertex} has heterogeneous outgoing arc costs$"):
            HwspInstance(graph, 0, frozenset({3}), 1, (0.0,) * 4)

    @pytest.mark.parametrize("vertex", [-1, 99])
    def test_protected_vertex_out_of_range(self, vertex):
        instance, _ = mvnp_to_hwsp(triangle_mvnp())
        with pytest.raises(StructuralError, match=f"protected vertex {vertex} out of range"):
            evaluate_hwsp(instance, [vertex])

    def test_budget_enforced(self):
        instance, _ = mvnp_to_hwsp(triangle_mvnp())
        with pytest.raises(StructuralError, match="^allocation exceeds the resource budget$"):
            evaluate_hwsp(instance, [1, 3])

    def test_delay_vector_length_validated(self):
        graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
        with pytest.raises(StructuralError, match="length"):
            HwspInstance(graph, 0, frozenset({2}), 1, (0.0, 1.0))

    def test_protecting_aux_vertices_changes_nothing(self):
        instance, _ = mvnp_to_hwsp(triangle_mvnp())
        aux = [v for v in range(instance.graph.vertex_count) if instance.vertex_delays[v] == 0.0
               and v not in (0, 2)]
        base = evaluate_hwsp(instance, ())
        assert evaluate_hwsp(instance, [aux[0]]) == base

    def test_triangle_equivalence(self):
        instance, threshold = mvnp_to_hwsp(triangle_mvnp())
        assert evaluate_hwsp(instance, [1]) >= threshold
        assert decide_hwsp_brute(instance, threshold) is True


class TestEquivalenceSweep:
    def test_graph_without_arcs_agrees(self):
        # the source keeps no arc and the augmentation adds no vertex
        mvnp = MvnpInstance(DirectedGraph(3, ()), 0, 2, k=1, h=3.0)
        answers = verify_reductions(mvnp)
        assert answers == dict.fromkeys(("mvnp", "wsp", "wwsp", "hwsp", "agree"), True)

    def test_one_graph_drawn_per_sample(self, monkeypatch):
        draws = [0]
        draw = testkit.random_digraph

        def counting(*args, **kwargs):
            draws[0] += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(testkit, "random_digraph", counting)
        rng = np.random.default_rng(0)
        for max_vertices in (2, 3, 7):
            for _ in range(50):
                random_mvnp_instance(rng, max_vertices=max_vertices)
        assert draws[0] == 150

    def test_all_reductions_agree_on_random_instances(self, rng):
        yes = no = 0
        for _ in range(40):
            mvnp = random_mvnp_instance(rng, max_vertices=6)
            answers = verify_reductions(mvnp)
            assert answers["agree"], (mvnp, answers)
            if answers["mvnp"]:
                yes += 1
            else:
                no += 1
        # the sweep must exercise both answers to be meaningful
        assert yes > 0 and no > 0


class TestReducedInstanceChecks:
    """The reduced instances reject malformed fields when they are made, as
    MvnpInstance does, so no search reads an invalid delay."""

    PATH = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))

    @pytest.mark.parametrize("change, message", [
        ({"weights": (0.0, 0.0, 1.0, 1.0, 1.0)}, "one entry per vertex (3), got 5"),
        ({"weights": (0.0, 1.0)}, "one entry per vertex (3), got 2"),
        ({"delay": -1.0}, "delay must be nonnegative, got -1.0"),
        ({"delay": math.nan}, "delay must be nonnegative, got nan"),
        ({"k": -1}, "k must be nonnegative, got -1"),
        ({"ignition": 3}, "ignition vertex 3 out of range"),
        ({"weights": (0.0, math.nan, 1.0)}, "weights must be finite"),
        ({"horizon": math.nan}, "horizon must be positive, got nan"),
    ], ids=["long-weights", "short-weights", "negative-delay", "nan-delay", "negative-k",
            "ignition", "nan-weight", "nan-horizon"])
    def test_wwsp_rejects(self, change, message):
        fields = dict(graph=self.PATH, weights=(0.0, 0.0, 1.0), ignition=0, k=1,
                      forbidden=frozenset({0, 2}), delay=2.0, horizon=3.0)
        WwspInstance(**fields)
        with pytest.raises(StructuralError, match=re.escape(message)):
            WwspInstance(**dict(fields, **change))

    @pytest.mark.parametrize("change, message", [
        ({"targets": frozenset()}, "at least one target vertex required"),
        ({"targets": frozenset({2, 9})}, "targets [2, 9] not all in [0, 3)"),
        ({"k": -1}, "k must be nonnegative, got -1"),
        ({"vertex_delays": (0.0, math.nan, 0.0)}, "vertex delays must be nonnegative"),
        ({"vertex_delays": (0.0, -1.0, 0.0)}, "vertex delays must be nonnegative"),
        ({"ignition": -1}, "ignition vertex -1 out of range"),
    ], ids=["no-targets", "target-out-of-range", "negative-k", "nan-delay", "negative-delay",
            "ignition"])
    def test_hwsp_rejects(self, change, message):
        fields = dict(graph=self.PATH, ignition=0, targets=frozenset({2}), k=1,
                      vertex_delays=(0.0, 3.0, 0.0))
        HwspInstance(**fields)
        with pytest.raises(StructuralError, match=re.escape(message)):
            HwspInstance(**dict(fields, **change))


# The exhaustive searches as they were before they skipped protections that
# change no arc cost: every subset of every allowed vertex, each scored by a
# full kernel run.

def plain_brute_force(instance):
    horizon = instance.horizon
    root = compute_arrival_times(instance, EMPTY_ALLOCATION)
    best = [EMPTY_ALLOCATION, root.burned_count(horizon)]
    levels = list(zip(instance.schedule, instance.first_resources))

    def recurse(level, alloc, outcome):
        if level == len(levels):
            obj = outcome.burned_count(horizon)
            if obj < best[1]:
                best[:] = [alloc, obj]
            return
        (release_time, count), first = levels[level]
        candidates = [v for v, a in enumerate(outcome.arrival)
                      if a >= release_time and v not in alloc.protected]
        for combo in subsets_up_to(candidates, count):
            child = alloc.extended([(first + i, v) for i, v in enumerate(combo)])
            recurse(level + 1, child, compute_arrival_times(instance, child))

    recurse(0, EMPTY_ALLOCATION, root)
    return SolverResult(*best)


def wwsp_values(instance):
    allowed = sorted(set(range(instance.graph.vertex_count)) - instance.forbidden)
    return [evaluate_wwsp(instance, s) for s in subsets_up_to(allowed, instance.k)]


def hwsp_values(instance):
    vertices = list(range(instance.graph.vertex_count))
    return [evaluate_hwsp(instance, s) for s in subsets_up_to(vertices, instance.k)]


def random_hwsp_instance(rng):
    """Augmented random graph whose vertex delays are often zero."""
    graph = random_digraph(rng, max_vertices=5, arc_prob=0.5, max_cost=4.0, integer_costs=True)
    while not graph.arcs:
        graph = random_digraph(rng, max_vertices=5, arc_prob=0.5, max_cost=4.0,
                               integer_costs=True)
    graph, _ = cost_preserving_augmentation(graph)
    n = graph.vertex_count
    delays = tuple(float(rng.choice([0.0, 0.0, 1.0, 2.5])) for _ in range(n))
    return HwspInstance(graph, 0, frozenset({n - 1}), int(rng.integers(0, 3)), delays)


def random_wwsp_instance(rng):
    graph = random_digraph(rng, max_vertices=7, arc_prob=0.3, max_cost=4.0, integer_costs=True)
    n = graph.vertex_count
    return WwspInstance(
        graph=graph,
        weights=tuple(float(w) for w in rng.integers(0, 3, size=n)),
        ignition=0,
        k=int(rng.integers(0, 3)),
        forbidden=frozenset({0}),
        delay=float(rng.choice([0.0, 0.5, 2.0, 5.0])),
        horizon=float(rng.integers(2, 9)),
    )


def has_skipped_vertex(graph, delays):
    return any(d == 0 or not graph.out_arcs[v] for v, d in enumerate(delays))


class TestProtectionSkip:
    """The searches skip every protection that changes no arc cost (no
    out-arcs or a zero delay) and still return exactly what the plain
    enumerations return."""

    def test_decisions_match_plain_enumeration(self):
        rng = np.random.default_rng(20)
        skipped = 0
        for _ in range(200):
            mvnp = random_mvnp_instance(rng, max_vertices=6)
            assert solve_mvnp_brute(mvnp) == subgraph_solve_mvnp_brute(mvnp)
            wsp, wsp_budget = mvnp_to_wsp(mvnp)
            assert brute_force(wsp) == plain_brute_force(wsp)
            wwsp, wwsp_budget = mvnp_to_wwsp(mvnp)
            assert decide_wwsp_brute(wwsp, wwsp_budget) == (min(wwsp_values(wwsp)) <= wwsp_budget)
            hwsp, threshold = mvnp_to_hwsp(mvnp)
            assert decide_hwsp_brute(hwsp, threshold) == (max(hwsp_values(hwsp)) >= threshold)
            # the timed reduction's leaves have no out-arcs; the homogeneous
            # one gives the source a zero delay
            skipped += has_skipped_vertex(wsp.graph, [wsp.delay] * wsp.graph.vertex_count)
            assert has_skipped_vertex(hwsp.graph, hwsp.vertex_delays)
        assert skipped > 100

    def test_wwsp_at_every_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            instance = random_wwsp_instance(rng)
            values = wwsp_values(instance)
            for budget in {min(values) - 1.0, *values}:
                expected = any(v <= budget for v in values)
                assert decide_wwsp_brute(instance, budget) == expected, instance

    def test_hwsp_at_every_threshold(self):
        rng = np.random.default_rng(22)
        for _ in range(150):
            instance = random_hwsp_instance(rng)
            values = hwsp_values(instance)
            for threshold in {*values, math.inf}:
                expected = any(v >= threshold for v in values)
                assert decide_hwsp_brute(instance, threshold) == expected, instance

    def test_brute_force_on_random_tiny_graphs(self):
        rng = np.random.default_rng(23)
        skipped = 0
        for _ in range(200):
            instance = random_wsp_instance(rng, max_vertices=7)
            skipped += has_skipped_vertex(instance.graph, [1.0] * instance.graph.vertex_count)
            assert brute_force(instance) == plain_brute_force(instance), instance
        assert skipped > 100

    def test_zero_delay(self):
        instance = random_grid_instance(np.random.default_rng(0), 3, delay=0.0)
        assert brute_force(instance) == plain_brute_force(instance)
        assert brute_force(instance).allocation == EMPTY_ALLOCATION


def test_verify_reductions_kernel_runs_pinned(monkeypatch):
    """Deterministic work gate: fire_arrivals runs of verify_reductions
    over 50 samples (2279 before the searches skipped protections that
    change no arc cost; 748 while the sampler redrew graphs of 2 vertices
    and those whose source had no arc besides the sink's, a different
    sample stream)."""
    calls = [0]
    run = core.fire_arrivals

    def counting(*args, **kwargs):
        calls[0] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(core, "fire_arrivals", counting)
    monkeypatch.setattr(reductions, "fire_arrivals", counting)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert verify_reductions(random_mvnp_instance(rng))["agree"]
    assert calls[0] == 505


def test_searches_leave_no_cyclic_garbage():
    """brute_force and the oracles free what they build by reference
    counting: nothing is left for the cyclic collector."""
    rng = np.random.default_rng(0)
    wsp = random_grid_instance(rng, 3)
    samples = [random_mvnp_instance(rng) for _ in range(5)]
    gc.collect()
    gc.disable()
    try:
        brute_force(wsp)
        assert gc.collect() == 0
        for mvnp in samples:
            verify_reductions(mvnp)
        assert gc.collect() == 0
    finally:
        gc.enable()
