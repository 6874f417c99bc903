import builtins
import inspect
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from wsptools.core import (
    EMPTY_ALLOCATION,
    Allocation,
    DirectedGraph,
    FireOutcome,
    WspInstance,
    check_feasibility,
    compute_arrival_times,
    objective,
)
from wsptools import solvers
from wsptools.generator import GeneratorConfig, generate_instance
from wsptools.solvers import (
    SOLVERS,
    LimitExceeded,
    SolverBudget,
    beam_search,
    brute_force,
    check_search_space,
    perimeter_candidates,
    protection_sets,
    random_search,
    subsets_up_to,
)

from helpers import child_by_child_beam, random_grid_instance, random_wsp_instance


def no_resource_instance():
    graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    return WspInstance(graph, 0, horizon=5.0, delay=2.0, schedule=())


class TestSolverBudget:
    def test_no_bound_means_1000_iterations(self):
        assert SolverBudget().max_iterations == 1000
        assert SolverBudget(max_seconds=1.0).max_iterations is None
        assert SolverBudget(max_iterations=5).max_iterations == 5

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            SolverBudget(max_seconds=0.0)
        with pytest.raises(ValueError):
            SolverBudget(max_iterations=0)

    @pytest.mark.parametrize("field", ["max_iterations", "beam_width", "expansions"])
    def test_rejects_nan_bounds(self, field):
        # a NaN iteration bound never ends rs; a NaN width or expansion
        # count passed the beam's checks and ran it unbounded
        with pytest.raises(ValueError, match="NaN|positive"):
            SolverBudget(**{field: math.nan})

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_seconds(self, seconds):
        # a NaN or infinite time limit never ends a seconds-only search
        with pytest.raises(ValueError, match="finite"):
            SolverBudget(max_seconds=seconds)
        with pytest.raises(ValueError, match="finite"):
            SolverBudget(max_seconds=seconds, max_iterations=1)


class TestSolverTable:
    def test_entries_pass_their_bounds(self, rng):
        instance = random_grid_instance(rng, side=5, schedule_spec=((1.0, 2), (2.5, 1)))
        rs = SOLVERS["rs"](instance, SolverBudget(max_iterations=7), 3)
        assert rs == random_search(instance, SolverBudget(max_iterations=7), seed=3)
        beam = SOLVERS["beam"](instance, SolverBudget(beam_width=2, expansions=3), 0)
        assert beam == beam_search(instance, 2, 3)
        assert SOLVERS["exact"](instance, SolverBudget(), 0) == brute_force(instance)
        with pytest.raises(LimitExceeded):
            SOLVERS["exact"](instance, SolverBudget(max_nodes=1), 0)

    def test_defaults_come_from_the_budget(self):
        assert SolverBudget().max_nodes == solvers.MAX_NODES
        beam = inspect.signature(beam_search).parameters
        assert beam["beam_width"].default == SolverBudget.beam_width
        assert beam["expansions_per_node"].default == SolverBudget.expansions
        assert inspect.signature(brute_force).parameters["max_nodes"].default == solvers.MAX_NODES


class TestSearchCore:
    def test_subsets_order(self):
        assert list(subsets_up_to("abc", 2)) == [
            (), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
        ]

    def test_subsets_clamped(self):
        assert list(subsets_up_to([4, 5], 0)) == [()]
        assert list(subsets_up_to([4, 5], 7)) == [(), (4,), (5,), (4, 5)]
        assert list(subsets_up_to([], 3)) == [()]

    @pytest.mark.parametrize("max_nodes", [0, -5])
    def test_rejects_limit_below_one(self, max_nodes):
        with pytest.raises(ValueError, match=f"max_nodes must be at least 1, got {max_nodes}"):
            check_search_space(4, [1], max_nodes)

    def test_rejects_nan_limit(self):
        # NaN < 1 and estimate > NaN are both false: the search ran unbounded
        with pytest.raises(ValueError, match="max_nodes must be at least 1, got nan"):
            check_search_space(4, [1], math.nan)

    def test_count_above_n_is_clamped(self):
        # 2 ** 4 subsets however large the count; no sum over 10 ** 12 terms
        check_search_space(4, [10 ** 12], 16)
        with pytest.raises(LimitExceeded):
            check_search_space(4, [10 ** 12], 15)

    def test_protection_sets_refuse_when_called(self, monkeypatch):
        # one cost-changing vertex of five: the estimate 1 + 1 counts only it
        graph = DirectedGraph(5, ((0, 1, 1.0),))
        delays = dict.fromkeys(range(5), 1.0)
        monkeypatch.setattr(solvers, "MAX_NODES", 1)
        with pytest.raises(LimitExceeded, match="search-space estimate 2 exceeds limit 1$"):
            protection_sets(graph, delays, 1)  # before the first set is asked for
        monkeypatch.setattr(solvers, "MAX_NODES", 2)
        assert list(protection_sets(graph, delays, 1)) == [(), (0,)]

    def test_protection_sets_are_cost_changing_subsets_in_delays_order(self):
        # 3 has no out-arcs and 2 a zero delay; 5 is not a key of delays
        graph = DirectedGraph(6, ((4, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0), (1, 5, 1.0),
                                  (5, 3, 1.0)))
        delays = {4: 1.0, 0: 2.0, 2: 0.0, 3: 1.0, 1: math.inf}
        assert list(protection_sets(graph, delays, 2)) == [
            (), (4,), (0,), (1,), (4, 0), (4, 1), (0, 1),
        ]
        assert list(protection_sets(graph, delays, 0)) == [()]

    def test_estimate_beyond_float_range(self):
        # one level of 300 resources on a 2000-vertex cycle: over 1e370 subsets,
        # more than a float holds, so a float estimate would overflow, not refuse
        instance = WspInstance(
            DirectedGraph(2000, tuple((v, (v + 1) % 2000, 1.0) for v in range(2000))), 0,
            horizon=10.0, delay=5.0,
            schedule=((1.0, 300),),
        )
        with pytest.raises(LimitExceeded, match="estimate inf exceeds limit 2000000"):
            brute_force(instance)


class TestRandomSearch:
    def test_no_resources_returns_free_burn(self):
        instance = no_resource_instance()
        result = random_search(instance, SolverBudget(max_iterations=5))
        assert result.allocation == EMPTY_ALLOCATION
        assert result.objective == objective(instance)

    def test_deterministic_for_seed(self, rng):
        instance = random_grid_instance(rng)
        a = random_search(instance, SolverBudget(max_iterations=30), seed=7)
        b = random_search(instance, SolverBudget(max_iterations=30), seed=7)
        assert a == b

    def test_result_is_feasible_and_consistent(self, rng):
        for _ in range(10):
            instance = random_grid_instance(rng)
            result = random_search(instance, SolverBudget(max_iterations=20), seed=1)
            assert check_feasibility(instance, result.allocation) == []
            assert result.objective == objective(instance, result.allocation)

    def test_never_worse_than_free_burn(self, rng):
        for _ in range(10):
            instance = random_wsp_instance(rng, max_vertices=15)
            result = random_search(instance, SolverBudget(max_iterations=15), seed=2)
            assert result.objective <= objective(instance)

    def test_time_budget_terminates(self, rng):
        instance = random_grid_instance(rng, side=5)
        result = random_search(instance, SolverBudget(max_seconds=0.2), seed=0)
        assert result.objective >= 1

    def test_matches_optimum_on_figure_example(self, figure_instance):
        result = random_search(figure_instance, SolverBudget(max_iterations=400), seed=0)
        assert result.objective == 6


class TestPerimeterCandidates:
    def test_excludes_burned_protected_and_ignition(self, figure_instance):
        partial = Allocation(((0, 2),))
        outcome = compute_arrival_times(figure_instance, partial)
        cands = perimeter_candidates(figure_instance, partial, 3.0, outcome)
        assert 0 not in cands  # ignition
        assert 1 not in cands and 3 not in cands  # burned at t=1 < 3
        assert 2 not in cands  # already protected
        assert set(cands) <= set(range(9))

    def test_perimeter_vertices_rank_first(self, figure_instance):
        outcome = compute_arrival_times(figure_instance)
        cands = perimeter_candidates(figure_instance, EMPTY_ALLOCATION, 2.0, outcome)
        # free burn: arrivals 0,1,2,1,3,3,4,4,4; burned before t=2: {0,1,3}
        # v2 and v4 each have a burned in-neighbor and the earliest arrivals
        assert cands[0] == 2
        assert cands[1] == 4

    def test_tie_break_is_by_id(self):
        graph = DirectedGraph(4, ((0, 1, 2.0), (0, 2, 2.0), (0, 3, 2.0)))
        instance = WspInstance(graph, 0, horizon=5.0, delay=1.0, schedule=((1.0, 1),))
        outcome = compute_arrival_times(instance)
        assert perimeter_candidates(instance, EMPTY_ALLOCATION, 1.0, outcome) == [1, 2, 3]

    def test_limit_fills_past_a_short_front(self):
        # burned before t=2: {0}; the front is {1, 4}, the rest rank by arrival
        graph = DirectedGraph(6, ((0, 1, 3.0), (0, 4, 2.5), (1, 2, 1.0), (4, 3, 0.5),
                                  (4, 5, 0.5), (2, 5, 9.0)))
        instance = WspInstance(graph, 0, horizon=20.0, delay=1.0, schedule=((2.0, 1),))
        outcome = compute_arrival_times(instance)
        ranked = perimeter_candidates(instance, EMPTY_ALLOCATION, 2.0, outcome)
        assert ranked == [4, 1, 3, 5, 2]
        for limit in range(1, 8):
            assert perimeter_candidates(instance, EMPTY_ALLOCATION, 2.0, outcome,
                                        limit) == ranked[:limit]

    def test_combinations_prefix(self):
        # beam_search ranks only count - 1 + expansions candidates: the first
        # e combinations of k items never use an item past the k - 1 + e-th
        items = list(range(30))
        for k in range(1, 5):
            for e in range(1, 21):
                first = itertools.islice(itertools.combinations(items, k), e)
                prefix = itertools.islice(itertools.combinations(items[: k - 1 + e], k), e)
                assert list(first) == list(prefix)


class TestBeamSearch:
    def test_no_resources_returns_free_burn(self):
        instance = no_resource_instance()
        result = beam_search(instance)
        assert result.objective == objective(instance)

    def test_rejects_zero_width(self, figure_instance):
        with pytest.raises(ValueError):
            beam_search(figure_instance, beam_width=0)

    @pytest.mark.parametrize("expansions", [0, 0.5, -1])
    def test_rejects_fewer_than_one_expansion(self, figure_instance, expansions):
        # 0 emptied the beam ("min() arg is an empty sequence"), -1 broke islice
        with pytest.raises(ValueError, match="expansions_per_node must be at least 1"):
            beam_search(figure_instance, expansions_per_node=expansions)

    @pytest.mark.parametrize("width, expansions", [(math.nan, 3), (2, math.nan)])
    def test_rejects_nan_width_or_expansions(self, figure_instance, width, expansions):
        # NaN < 1 is false, so NaN ran the unbounded beam
        with pytest.raises(ValueError, match="must be at least 1"):
            beam_search(figure_instance, width, expansions)

    def test_feasible_and_consistent(self, rng):
        for _ in range(8):
            instance = random_grid_instance(rng)
            result = beam_search(instance, beam_width=4, expansions_per_node=4)
            assert check_feasibility(instance, result.allocation) == []
            assert result.objective == objective(instance, result.allocation)

    def test_deterministic(self, rng):
        instance = random_grid_instance(rng)
        a = beam_search(instance, beam_width=3, expansions_per_node=5)
        b = beam_search(instance, beam_width=3, expansions_per_node=5)
        assert a == b

    def test_wider_beam_never_hurts(self, rng):
        for _ in range(6):
            instance = random_grid_instance(rng, side=3)
            narrow = beam_search(instance, beam_width=1, expansions_per_node=4)
            wide = beam_search(instance, beam_width=16, expansions_per_node=16)
            assert wide.objective <= narrow.objective

    def test_exhaustive_beam_matches_brute_force(self, rng):
        for _ in range(5):
            instance = random_grid_instance(
                rng, side=3, schedule_spec=((1.5, 1), (3.0, 1)), horizon=8.0, delay=4.0
            )
            exhaustive = beam_search(instance, beam_width=math.inf, expansions_per_node=math.inf)
            exact = brute_force(instance)
            assert exhaustive.objective == exact.objective

    def test_finds_optimum_on_figure_example(self, figure_instance):
        result = beam_search(figure_instance, beam_width=8, expansions_per_node=8)
        assert result.objective == 6

    @staticmethod
    def final_nodes(instance, width, expansions):
        """beam_search's result and the final (key, allocation, outcome)
        nodes it picks the best of."""
        final = []

        def recording_min(*args, **kwargs):
            if "key" in kwargs:  # the pick of the best final node
                final.extend(args[0])
            return builtins.min(*args, **kwargs)

        with mock.patch.object(solvers, "min", recording_min, create=True):
            result = beam_search(instance, width, expansions)
        return result, final

    def test_node_without_candidates_is_ranked_at_the_next_time(self):
        # 4 vertices, arcs (0,2), (2,0), (2,3), ignition 2, 3 release points:
        # nodes run out of candidates before the last level
        instance = random_wsp_instance(np.random.default_rng(2441), 6)
        assert instance.graph.vertex_count == 4 and len(instance.schedule) == 3
        result, final = self.final_nodes(instance, 3, 3)
        # after the last level every key's second count is at the horizon
        assert [key[1] for key, _, _ in final] == [key[0] for key, _, _ in final]
        assert result.allocation.assignments == ((0, 0), (1, 1), (2, 3))
        assert result.objective == objective(instance, result.allocation) == 3

    @pytest.mark.parametrize("n, seed", [(3, 7), (3, 8), (3, 12), (4, 18), (4, 41), (4, 43)])
    @pytest.mark.parametrize("width, expansions", [(32, 16), (2, 3)])
    def test_stuck_nodes_match_the_child_by_child_beam(self, n, seed, width, expansions):
        # ten release points on a 3 x 3 or 4 x 4 grid: nodes run out of
        # candidates, and a key kept from an earlier level decided ties here
        instance = generate_instance(GeneratorConfig(seed=seed, n=n, decision_points=10))
        result, final = self.final_nodes(instance, width, expansions)
        expected, expected_final = child_by_child_beam(instance, width, expansions)
        assert result == expected
        assert [key for key, _, _ in final] == [key for key, _, _ in expected_final]
        assert [(alloc.assignments, outcome.arrival) for _, alloc, outcome in final] == \
            [(alloc.assignments, outcome.arrival) for _, alloc, outcome in expected_final]


class TestBruteForce:
    def test_no_resources(self):
        instance = no_resource_instance()
        result = brute_force(instance)
        assert result.allocation == EMPTY_ALLOCATION
        assert result.objective == 3

    def test_figure_example_optimum(self, figure_instance):
        result = brute_force(figure_instance)
        assert result.objective == 6
        assert check_feasibility(figure_instance, result.allocation) == []

    def test_optimal_lower_bounds_heuristics(self, rng):
        for _ in range(6):
            instance = random_grid_instance(
                rng, side=3, schedule_spec=((1.0, 1), (2.5, 1)), horizon=7.0, delay=3.0
            )
            exact = brute_force(instance)
            rs = random_search(instance, SolverBudget(max_iterations=25), seed=3)
            bs = beam_search(instance, beam_width=4, expansions_per_node=4)
            assert exact.objective <= rs.objective
            assert exact.objective <= bs.objective
            assert check_feasibility(instance, exact.allocation) == []

    def test_partial_use_of_resources_considered(self):
        # protecting the second vertex at the later release is optimal;
        # the first released resource is best left unused
        graph = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 4.0)))
        instance = WspInstance(
            graph, 0, horizon=6.0, delay=10.0, schedule=((0.5, 1), (2.0, 1))
        )
        result = brute_force(instance)
        assert result.objective == 2
        outcome = compute_arrival_times(instance, result.allocation)
        assert outcome.arrival[2] >= 6.0

    def test_independent_enumeration_cross_check(self, rng):
        # re-derive the optimum by brute force over final allocations
        # (resource -> vertex maps checked with the feasibility oracle)
        import itertools

        for _ in range(4):
            instance = random_wsp_instance(rng, max_vertices=6)
            if instance.total_resources > 2 or instance.graph.vertex_count > 5:
                continue
            n = instance.graph.vertex_count
            k = instance.total_resources
            best = objective(instance)
            for size in range(min(n, k) + 1):
                for vertices in itertools.combinations(range(n), size):
                    for resources in itertools.permutations(range(k), size):
                        alloc = Allocation(tuple(zip(resources, vertices)))
                        if check_feasibility(instance, alloc) == []:
                            best = min(best, objective(instance, alloc))
            assert brute_force(instance).objective == best

    def test_limit_refusal(self):
        graph = DirectedGraph(
            40, tuple((u, v, 1.0) for u in range(40) for v in range(40) if u != v)
        )
        instance = WspInstance(
            graph, 0, horizon=50.0, delay=5.0,
            schedule=((1.0, 10), (2.0, 10), (3.0, 10)),
        )
        with pytest.raises(LimitExceeded):
            brute_force(instance, max_nodes=1000)

    def test_limit_boundary(self):
        # 3 of 4 vertices tried (3 has no out-arc), levels of 2 and 1:
        # (1 + 3 + 3) * (1 + 3) = 28
        instance = WspInstance(
            DirectedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))), 0,
            horizon=10.0, delay=5.0, schedule=((1.0, 2), (2.0, 1)),
        )
        assert brute_force(instance, max_nodes=28) == brute_force(instance)
        with pytest.raises(LimitExceeded, match="estimate 28 exceeds limit 27"):
            brute_force(instance, max_nodes=27)

    def test_estimate_counts_only_the_vertices_tried(self):
        # a star from the ignition to 10 leaves: only the ignition has out-arcs,
        # so two resources give the estimate 1 + 1 = 2, not the 67 of 11 vertices
        instance = WspInstance(
            DirectedGraph(11, tuple((0, v, 1.0) for v in range(1, 11))), 0,
            horizon=10.0, delay=5.0, schedule=((1.0, 2),),
        )
        assert brute_force(instance, max_nodes=5).objective == objective(instance) == 11


class TestEvaluationCount:
    """Deterministic gate on arrival evaluations: no solver step scores an
    allocation that an earlier step already scored."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Protected sets evaluated by the solvers, the number of those
        evaluations repaired from a parent outcome, and the number of
        allocations they built by extension."""
        evaluated, repaired, extensions = [], [0], [0]
        evaluate, extend = compute_arrival_times, Allocation.extended

        def counting_evaluate(instance, alloc=EMPTY_ALLOCATION, *, parent=None):
            evaluated.append(alloc.protected)
            repaired[0] += parent is not None
            return evaluate(instance, alloc, parent=parent)

        def counting_extend(alloc, pairs):
            extensions[0] += 1
            return extend(alloc, pairs)

        monkeypatch.setattr(solvers, "compute_arrival_times", counting_evaluate)
        monkeypatch.setattr(Allocation, "extended", counting_extend)
        return evaluated, repaired, extensions

    @staticmethod
    def instance(name, request):
        if name == "figure":
            return request.getfixturevalue("figure_instance")
        if name == "grid3":
            return random_grid_instance(np.random.default_rng(0), 3)
        return generate_instance(GeneratorConfig(seed=0, n=20))

    @pytest.mark.parametrize("name, pinned", [("figure", 16), ("n20", 77)])
    def test_beam_evaluates_each_prefix_once(self, name, pinned, counted, request):
        evaluated, repaired, extensions = counted
        beam_search(self.instance(name, request), 2, 3)
        # one evaluation of the empty allocation, then one per prefix of a
        # level's combinations: siblings share their common prefixes
        assert len(evaluated) == len(set(evaluated)) == 1 + extensions[0] == pinned
        # every prefix is repaired from the prefix one protection shorter
        assert repaired[0] == extensions[0]

    @pytest.mark.parametrize("name, pinned", [("figure", 16), ("n20", 51)])
    def test_random_search_evaluates_each_placing_level_once(self, name, pinned, counted,
                                                             request):
        evaluated, repaired, extensions = counted
        random_search(self.instance(name, request), SolverBudget(max_iterations=5), seed=1)
        # one evaluation of the empty allocation, then one per level that
        # placed a resource, repaired from the level before
        assert len(evaluated) == 1 + extensions[0] == pinned
        assert repaired[0] == extensions[0]

    @pytest.mark.parametrize("name, pinned", [("figure", 64), ("grid3", 30)])
    def test_brute_force_evaluates_each_extension_once(self, name, pinned, counted, request):
        evaluated, repaired, extensions = counted
        brute_force(self.instance(name, request))
        # one full run of the empty allocation, then one per allocation
        # that places a resource on vertices with out-arcs (the figure's
        # vertex 8 has none); placing nothing reuses the outcome
        assert len(evaluated) == 1 + extensions[0] == pinned
        assert repaired[0] == 0


class TestBeamWork:
    """Deterministic gate on beam's work outside the kernel: each node
    carries its fire state, so no step scans every vertex per parent."""

    @staticmethod
    def instance():
        return generate_instance(GeneratorConfig(seed=0, n=20))

    def test_burned_count_runs_only_on_the_root(self, monkeypatch):
        instance = self.instance()
        counted, burned_count = [], FireOutcome.burned_count

        def counting_burned_count(outcome, t):
            counted.append(outcome)
            return burned_count(outcome, t)

        monkeypatch.setattr(FireOutcome, "burned_count", counting_burned_count)
        beam_search(instance, 2, 3)
        # the root's count at H; every other count comes from a carried open
        # list or a repair's changed vertices
        assert len(counted) == 1
        root = compute_arrival_times(instance)  # the free burn the graph keeps
        assert all(outcome is root for outcome in counted)

    def test_perimeter_candidates_runs_once_per_expanded_parent(self, monkeypatch):
        instance = self.instance()
        calls, rank = [], perimeter_candidates

        def recording_candidates(instance, alloc, t, outcome, limit=None, fire=None):
            calls.append((t, alloc, fire))
            return rank(instance, alloc, t, outcome, limit, fire)

        monkeypatch.setattr(solvers, "perimeter_candidates", recording_candidates)
        beam_search(instance, 2, 3)
        levels = [t for t, _ in instance.schedule]
        # the root, then two parents at each of the other levels
        assert len(levels) == 10
        assert [t for t, _, _ in calls] == levels[:1] + [t for t in levels[1:] for _ in (0, 1)]
        assert len({(t, alloc) for t, alloc, _ in calls}) == len(calls) == 19
        assert all(fire is not None for _, _, fire in calls)
