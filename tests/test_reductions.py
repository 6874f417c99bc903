import math

import pytest

from wsptools.core import (
    EMPTY_ALLOCATION,
    Allocation,
    DirectedGraph,
    StructuralError,
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
from wsptools.solvers import LimitExceeded
from wsptools.testkit import random_mvnp_instance


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

    def test_node_limit(self):
        graph = DirectedGraph(
            30, tuple((u, u + 1, 1.0) for u in range(29))
        )
        mvnp = MvnpInstance(graph, 0, 29, k=15, h=100.0)
        with pytest.raises(LimitExceeded):
            solve_mvnp_brute(mvnp, node_limit=1000)


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
        assert evaluate_wwsp(instance, EMPTY_ALLOCATION) == 1.0  # sink burns at 2 < 3
        assert evaluate_wwsp(instance, Allocation(((0, 1),))) == 0.0

    def test_forbidden_protection_rejected(self):
        instance, _ = mvnp_to_wwsp(triangle_mvnp())
        with pytest.raises(StructuralError):
            evaluate_wwsp(instance, Allocation(((0, 2),)))

    def test_budget_enforced(self):
        instance, _ = mvnp_to_wwsp(triangle_mvnp())
        with pytest.raises(StructuralError):
            evaluate_wwsp(instance, Allocation(((0, 1), (1, 2))))

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

    def test_empty_graph_rejected(self):
        with pytest.raises(StructuralError):
            cost_preserving_augmentation(DirectedGraph(2, ()))


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

    def test_protecting_aux_vertices_changes_nothing(self):
        instance, _ = mvnp_to_hwsp(triangle_mvnp())
        aux = [v for v in range(instance.graph.vertex_count) if instance.vertex_delays[v] == 0.0
               and v not in (0, 2)]
        base = evaluate_hwsp(instance, Allocation(()))
        assert evaluate_hwsp(instance, Allocation(((0, aux[0]),))) == base

    def test_triangle_equivalence(self):
        instance, threshold = mvnp_to_hwsp(triangle_mvnp())
        assert evaluate_hwsp(instance, Allocation(((0, 1),))) >= threshold
        assert decide_hwsp_brute(instance, threshold) is True


class TestEquivalenceSweep:
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
