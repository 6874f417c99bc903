import json
import math
import re
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from wsptools.core import (
    EMPTY_ALLOCATION,
    Allocation,
    DirectedGraph,
    StructuralError,
    WspInstance,
    check_feasibility,
    compute_arrival_times,
    instance_from_json,
    instance_to_json,
    objective,
    single_source_distances,
    solution_from_json,
    solution_to_json,
)
from wsptools.generator import GeneratorConfig, generate_instance
from wsptools.reductions import MvnpInstance, mvnp_to_wsp

from helpers import random_allocation, random_wsp_instance


def bellman_ford_arrivals(instance, alloc):
    """Independent label-correcting oracle for delayed shortest paths."""
    n = instance.graph.vertex_count
    protected = alloc.protected
    dist = [math.inf] * n
    dist[instance.ignition] = 0.0
    for _ in range(n):
        changed = False
        for u, v, t in instance.graph.arcs:
            cost = t + (instance.delay if u in protected else 0.0)
            if dist[u] + cost < dist[v]:
                dist[v] = dist[u] + cost
                changed = True
        if not changed:
            break
    return dist


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(StructuralError):
            DirectedGraph(2, ((0, 0, 1.0),))

    def test_rejects_duplicate_arc(self):
        with pytest.raises(StructuralError):
            DirectedGraph(2, ((0, 1, 1.0), (0, 1, 2.0)))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(StructuralError):
            DirectedGraph(2, ((0, 1, 0.0),))

    @pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_time(self, time):
        # an infinite time would be saved as Infinity, which no load accepts
        with pytest.raises(StructuralError, match=r"^arc \(1,0\) travel time .* not finite"):
            DirectedGraph(2, ((0, 1, 1.0), (1, 0, time)))

    def test_rejects_bad_vertex(self):
        with pytest.raises(StructuralError):
            DirectedGraph(2, ((0, 2, 1.0),))

    @pytest.mark.parametrize("head, shown, kind", [
        (1.5, "1.5", "float"), (True, "True", "bool"), (np.int64(1), "1", "int64"),
        ("1", "1", "str"), (None, "None", "NoneType"),
    ], ids=["float", "bool", "numpy", "str", "none"])
    def test_rejects_vertex_id_not_an_int(self, head, shown, kind):
        # a float id would fail only later, in fire_arrivals, and True would pass as vertex 1;
        # a str or None id made the sort raise a bare TypeError; the type tells the str
        # "1" from the int 1
        with pytest.raises(StructuralError,
                           match=rf"^arc \(0,{shown}\) has a vertex id of type {kind}, not int$"):
            DirectedGraph(3, ((0, head, 1.0), (0, 2, 1.0)))

    def test_vertex_id_type_named_for_a_bad_tail(self):
        with pytest.raises(StructuralError, match=r"^arc \(0\.5,1\) has a vertex id of type float"):
            DirectedGraph(2, ((0.5, 1, 1.0),))

    @pytest.mark.parametrize("arcs, shown", [
        (((0, 1, "x"),), "'x'"),  # 0 < "x" raised a bare TypeError
        (((0, 1, "x"), (0, 1, 2.0)), "'x'"),  # the sort of a duplicate pair raised it
        (((0, 1, True), (1, 0, 2.0)), "True"),  # accepted, written as true, refused on load
        # fire_arrivals raised a bare TypeError, and the writer did
        (((0, 1, Decimal("2.5")), (1, 0, 2.0)), r"Decimal\('2\.5'\)"),
        (((0, 1, Fraction(5, 2)),), r"Fraction\(5, 2\)"),  # no JSON number
        (((0, 1, np.int64(3)),), r"np\.int64\(3\)"),  # no JSON number
    ], ids=["str", "str-duplicate", "bool", "decimal", "fraction", "numpy-int"])
    def test_time_not_a_number_names_its_arc(self, arcs, shown):
        with pytest.raises(StructuralError,
                           match=rf"^arc \(0,1\) travel time {shown} is not a number$"):
            DirectedGraph(2, arcs)

    def test_arcs_of_mixed_sequence_types_refused(self):
        # every arc passes its checks, but a list and a tuple do not sort
        with pytest.raises(StructuralError, match=r"^arcs must be \(tail, head, travel time\) tuples$"):
            DirectedGraph(2, ((0, 1, 1.0), [1, 0, 2.0]))

    def test_int_time_past_float_range_names_its_arc(self):
        # fire_arrivals raised a bare OverflowError
        with pytest.raises(StructuralError,
                           match=r"^arc \(1,0\) travel time is too large to convert to float$"):
            DirectedGraph(2, ((0, 1, 1.0), (1, 0, 10**400)))

    def test_accepts_int_and_float_subclass_times(self):
        graph = DirectedGraph(3, ((1, 2, np.float64(2.5)), (0, 1, 3)))
        assert graph.arcs == ((0, 1, 3), (1, 2, 2.5))

    def test_rejects_duplicate_pair_apart_in_the_input(self):
        with pytest.raises(StructuralError, match=r"^duplicate arc \(0,1\)$"):
            DirectedGraph(2, ((0, 1, 2.0), (1, 0, 1.0), (0, 1, 1.0)))

    def test_message_names_the_lowest_bad_arc(self):
        # arcs are checked in (tail, head) order, not in the order given
        with pytest.raises(StructuralError, match=r"^arc \(0,9\) has vertex id out of range$"):
            DirectedGraph(3, ((5, 0, 1.0), (0, 9, 1.0)))

    def test_arcs_stored_sorted(self):
        rng = np.random.default_rng(4)
        pairs = [(u, v) for u in range(6) for v in range(6) if u != v]
        chosen = rng.permutation(len(pairs))[:20]
        given = tuple((*pairs[i], float(rng.uniform(1.0, 2.0))) for i in chosen)
        graph = DirectedGraph(6, given)
        assert graph.arcs == tuple(sorted(given))
        assert all(any(a is b for b in given) for a in graph.arcs)
        for u, arcs in enumerate(graph.out_arcs):
            heads = [v for _, v, _ in arcs]
            assert heads == sorted(heads) and all(a[0] == u for a in arcs)
        for v, arcs in enumerate(graph.in_arcs):
            tails = [u for u, _, _ in arcs]
            assert tails == sorted(tails) and all(a[1] == v for a in arcs)


class TestArrivalTimes:
    def test_single_path_with_protection(self):
        # s -> u -> v, both arcs 2; protecting u adds 5 to its out-arc
        graph = DirectedGraph(3, ((0, 1, 2.0), (1, 2, 2.0)))
        instance = WspInstance(graph, 0, horizon=20.0, delay=5.0, schedule=((1.0, 1),))
        outcome = compute_arrival_times(instance, Allocation(((0, 1),)))
        assert outcome.arrival == (0.0, 2.0, 9.0)

    def test_empty_allocation_is_plain_shortest_path(self, rng):
        for _ in range(20):
            instance = random_wsp_instance(rng, max_vertices=30)
            outcome = compute_arrival_times(instance, EMPTY_ALLOCATION)
            assert list(outcome.arrival) == single_source_distances(
                instance.graph, instance.ignition
            )

    def test_matches_label_correcting_oracle(self, rng):
        for _ in range(100):
            instance = random_wsp_instance(rng, max_vertices=60)
            alloc = random_allocation(rng, instance)
            outcome = compute_arrival_times(instance, alloc)
            oracle = bellman_ford_arrivals(instance, alloc)
            assert all(
                a == b or abs(a - b) <= 1e-9
                for a, b in zip(outcome.arrival, oracle)
            )

    def test_unreachable_is_infinite(self):
        graph = DirectedGraph(3, ((0, 1, 1.0),))
        instance = WspInstance(graph, 0, horizon=5.0, delay=0.0, schedule=())
        outcome = compute_arrival_times(instance)
        assert outcome.arrival[2] == math.inf

    def test_invalid_protected_vertex(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        instance = WspInstance(graph, 0, horizon=5.0, delay=1.0, schedule=((1.0, 1),))
        with pytest.raises(StructuralError):
            compute_arrival_times(instance, Allocation(((0, 7),)))

    def test_monotone_in_protection(self, rng):
        for _ in range(40):
            instance = random_wsp_instance(rng, max_vertices=25)
            alloc = random_allocation(rng, instance)
            if not alloc.assignments:
                continue
            smaller = Allocation(alloc.assignments[:-1])
            a_small = compute_arrival_times(instance, smaller).arrival
            a_big = compute_arrival_times(instance, alloc).arrival
            assert all(x <= y + 1e-9 for x, y in zip(a_small, a_big))

    def test_zero_delay_ignores_allocation(self, rng):
        for _ in range(20):
            instance = random_wsp_instance(rng, max_vertices=20)
            instance = WspInstance(
                instance.graph, instance.ignition, instance.horizon, 0.0, instance.schedule
            )
            alloc = random_allocation(rng, instance)
            assert (
                compute_arrival_times(instance, alloc).arrival
                == compute_arrival_times(instance).arrival
            )


class TestBurnedSet:
    """Vertices burned at time t are those with arrival strictly below t;
    FireOutcome.burned_count counts them."""

    def test_zero_time_is_empty(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        instance = WspInstance(graph, 0, horizon=5.0, delay=0.0, schedule=())
        outcome = compute_arrival_times(instance)
        assert outcome.burned_count(0.0) == 0

    def test_strict_inequality(self):
        from wsptools.core import FireOutcome

        outcome = FireOutcome((0.0, 1.0, 2.0, 3.0))
        assert outcome.burned_count(2.0) == 2
        assert [outcome.burned_count(t) for t in (0.0, 1.0, 2.5, 3.0, math.inf)] == [0, 1, 3, 3, 4]

    def test_count_matches_enumeration(self, rng):
        for _ in range(20):
            instance = random_wsp_instance(rng, max_vertices=40)
            outcome = compute_arrival_times(instance)
            ordered = sorted(outcome.arrival)
            for t in [instance.horizon, *outcome.arrival]:
                assert outcome.burned_count(t) == bisect_left(ordered, t)


class TestObjective:
    def test_figure_example(self, figure_instance):
        alloc = Allocation(((0, 2), (1, 4), (2, 6)))
        assert check_feasibility(figure_instance, alloc) == []
        assert objective(figure_instance, alloc) == 6
        outcome = compute_arrival_times(figure_instance, alloc)
        assert outcome.burned_count(5.0) == 6
        assert [v for v, a in enumerate(outcome.arrival) if a < 5.0] == [0, 1, 2, 3, 4, 6]

    def test_ignition_always_burns(self, rng):
        for _ in range(10):
            instance = random_wsp_instance(rng, max_vertices=15)
            assert objective(instance) >= 1

    def test_empty_allocation_counts_free_burn(self, rng):
        instance = random_wsp_instance(rng, max_vertices=20)
        outcome = compute_arrival_times(instance)
        assert objective(instance) == outcome.burned_count(instance.horizon)


class TestFeasibility:
    def test_early_burning_vertex_rejected(self, figure_instance):
        # v1 burns at time 1, before the first release at time 2
        alloc = Allocation(((0, 1),))
        violations = check_feasibility(figure_instance, alloc)
        assert len(violations) == 1
        assert violations[0].vertex == 1

    def test_empty_allocation_feasible(self, figure_instance):
        assert check_feasibility(figure_instance, EMPTY_ALLOCATION) == []

    def test_arrival_tie_is_protectable(self):
        graph = DirectedGraph(2, ((0, 1, 3.0),))
        instance = WspInstance(graph, 0, horizon=10.0, delay=1.0, schedule=((3.0, 1),))
        assert check_feasibility(instance, Allocation(((0, 1),))) == []

    def test_incremental_construction_always_feasible(self, rng):
        for _ in range(30):
            instance = random_wsp_instance(rng, max_vertices=20)
            alloc = EMPTY_ALLOCATION
            resource = 0
            for release_time, count in instance.schedule:
                outcome = compute_arrival_times(instance, alloc)
                candidates = [
                    v
                    for v in range(instance.graph.vertex_count)
                    if outcome.arrival[v] >= release_time and v not in alloc.protected
                ]
                take = min(count, len(candidates))
                if take:
                    chosen = rng.choice(len(candidates), size=take, replace=False)
                    alloc = alloc.extended(
                        (resource + i, candidates[c]) for i, c in enumerate(sorted(chosen))
                    )
                resource += count
            assert check_feasibility(instance, alloc) == []

    def test_unknown_resource_id(self, figure_instance):
        alloc = Allocation(((9, 2),))
        violations = check_feasibility(figure_instance, alloc)
        assert violations and "resource" in violations[0].reason


class TestEffectiveTravelTime:
    """Arc lookups go through DirectedGraph.out_arcs; a protected tail adds
    the delay to each of its out-arcs."""

    def test_unprotected(self, figure_instance):
        graph = figure_instance.graph
        assert graph.out_arcs[0] == ((0, 1, 1.0), (0, 3, 1.0))
        # the graph's own arc tuples, in arc order, not copies
        assert all(a is b for a, b in zip(graph.out_arcs[0], graph.arcs[:2]))
        assert sum(len(arcs) for arcs in graph.out_arcs) == len(graph.arcs)
        assert graph.out_arcs is graph.out_arcs  # built once

    def test_in_arcs_mirror_out_arcs(self, figure_instance):
        graph = figure_instance.graph
        for v, arcs in enumerate(graph.in_arcs):
            # the graph's own arc tuples entering v, in arc order
            assert list(arcs) == [arc for arc in graph.arcs if arc[1] == v]
            assert all(arc in graph.out_arcs[arc[0]] for arc in arcs)
        assert graph.in_arcs[0] == ()
        assert graph.in_arcs is graph.in_arcs  # built once

    def test_protected_adds_delay(self):
        # s -> u -> v; protecting u delays v by exactly the delay
        graph = DirectedGraph(3, ((0, 1, 2.0), (1, 2, 1.0)))
        instance = WspInstance(graph, 0, horizon=20.0, delay=2.0, schedule=((1.0, 1),))
        assert graph.out_arcs[1] == ((1, 2, 1.0),)
        assert compute_arrival_times(instance).arrival[2] == 3.0
        assert compute_arrival_times(instance, Allocation(((0, 1),))).arrival[2] == 5.0

    def test_missing_arc(self, figure_instance):
        out_arcs = figure_instance.graph.out_arcs
        assert 8 not in {head for _, head, _ in out_arcs[0]}
        assert out_arcs[8] == ()

    def test_path_sum_matches_arrival_recurrence(self, figure_instance):
        alloc = Allocation(((0, 2), (1, 4), (2, 6)))
        out_arcs = figure_instance.graph.out_arcs
        path = [0, 3, 4, 7, 8]
        total = 0.0
        for u, v in zip(path, path[1:]):
            (t,) = [t for _, head, t in out_arcs[u] if head == v]
            total += t + (figure_instance.delay if u in alloc.protected else 0.0)
        outcome = compute_arrival_times(figure_instance, alloc)
        assert outcome.arrival[8] <= total + 1e-12


class TestAllocation:
    def test_rejects_duplicate_vertex(self):
        with pytest.raises(StructuralError):
            Allocation(((0, 3), (1, 3)))

    def test_rejects_duplicate_resource(self):
        with pytest.raises(StructuralError):
            Allocation(((0, 3), (0, 4)))

    def test_protected_is_the_vertex_set_outside_eq_hash_and_repr(self):
        alloc, vertices = EMPTY_ALLOCATION, set()
        for resource, vertex in enumerate([5, 2, 9, 0, 7]):
            alloc = alloc.extended([(resource, vertex)])
            vertices.add(vertex)
            assert alloc.protected == vertices
            assert isinstance(alloc.protected, frozenset)
        alloc = alloc.extended([(5, 1), (6, 4)])
        assert alloc.protected == {5, 2, 9, 0, 7, 1, 4}
        same = Allocation(alloc.assignments)
        assert same == alloc and hash(same) == hash(alloc)
        assert repr(alloc) == f"Allocation(assignments={alloc.assignments!r})"
        # the same vertices under other resources: another allocation
        other = Allocation(tuple((r + 1, v) for r, v in alloc.assignments))
        assert other.protected == alloc.protected and other != alloc

    def test_resource_release_lookup(self, figure_instance):
        assert figure_instance.resource_release_time(0) == 2.0
        assert figure_instance.resource_release_time(2) == 4.0
        assert figure_instance.release_point_of(2) == 2


def linear_release_point(schedule, resource):
    """The release-point lookup as first written: a walk over the schedule."""
    offset = 0
    for i, (_, count) in enumerate(schedule):
        if resource < offset + count:
            return i
        offset += count
    return None


class TestReleaseTable:
    def test_matches_linear_walk(self, rng):
        for _ in range(200):
            instance = random_wsp_instance(rng, max_vertices=4)
            schedule = instance.schedule
            total = sum(count for _, count in schedule)
            assert instance.first_resources[-1] == instance.total_resources == total
            for r in range(total):
                point = linear_release_point(schedule, r)
                assert instance.release_point_of(r) == point
                assert instance.resource_release_time(r) == schedule[point][0]

    def test_first_resources(self, figure_instance):
        assert figure_instance.first_resources == (0, 1, 2, 3)
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        instance = WspInstance(graph, 0, horizon=9.0, delay=1.0, schedule=((2.0, 3), (5.0, 2)))
        assert instance.first_resources == (0, 3, 5)
        assert [instance.release_point_of(r) for r in range(5)] == [0, 0, 0, 1, 1]
        assert WspInstance(graph, 0, horizon=9.0, delay=1.0, schedule=()).first_resources == (0,)

    def test_out_of_range_ids_raise(self, rng):
        for _ in range(50):
            instance = random_wsp_instance(rng, max_vertices=4)
            total = instance.total_resources
            for lookup in (instance.release_point_of, instance.resource_release_time):
                with pytest.raises(StructuralError, match="invalid resource id -1"):
                    lookup(-1)
                with pytest.raises(StructuralError, match=f"beyond schedule total {total}"):
                    lookup(total)


def reduced_instance():
    """mvnp_to_wsp's output: the leaf arcs it appends after the core arcs
    have tails below a core arc's."""
    graph = DirectedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))
    return mvnp_to_wsp(MvnpInstance(graph, source=0, sink=3, k=1, h=10.0))[0]


class TestSerialization:
    def test_round_trip(self, figure_instance):
        generated = generate_instance(GeneratorConfig(seed=3, n=9))
        for instance in (figure_instance, generated, reduced_instance()):
            text = instance_to_json(instance)
            back = instance_from_json(text)
            assert back == instance
            assert back.meta == instance.meta
            assert instance_to_json(back) == text

    def test_arc_order_is_canonical(self):
        g1 = DirectedGraph(3, ((1, 2, 1.0), (0, 1, 1.0)))
        g2 = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        assert g1 == g2
        i1 = WspInstance(g1, 0, 5.0, 0.0, ())
        i2 = WspInstance(g2, 0, 5.0, 0.0, ())
        assert instance_to_json(i1) == instance_to_json(i2)

    def test_solution_round_trip(self):
        alloc = Allocation(((1, 5), (0, 3)))
        text = solution_to_json("inst-1", alloc, 12)
        name, back, obj = solution_from_json(text)
        assert name == "inst-1"
        assert set(back.assignments) == set(alloc.assignments)
        assert obj == 12


def indented_json(instance):
    """instance_to_json as first written: the whole document through
    json.dumps(indent=1, sort_keys=True)."""
    doc = {
        "version": 1,
        "vertex_count": instance.graph.vertex_count,
        "ignition": instance.ignition,
        "horizon_min": instance.horizon,
        "delay_min": instance.delay,
        "schedule": [{"t_min": t, "count": c} for t, c in instance.schedule],
        "arcs": [[t, h, w] for t, h, w in sorted(instance.graph.arcs)],
        "meta": instance.meta,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


class TestInstanceJsonWriter:
    ARCS = ((2, 0, 4.5), (0, 1, 1.0), (1, 2, 0.1), (0, 2, 1e-7), (2, 1, 12345678.9))

    def instance(self, arcs=ARCS, meta=None, horizon=50.0):
        graph = DirectedGraph(3, tuple(arcs))
        return WspInstance(graph, 0, horizon, 2.5, ((1.0, 2), (horizon, 1)), meta or {})

    @pytest.mark.parametrize(
        "case",
        ["no arcs", "float times", "int times", "numpy times", "inf horizon"],
    )
    def test_equals_indented_encoder(self, case):
        arcs = {
            "no arcs": (),
            "float times": self.ARCS,
            "int times": [(u, v, int(t) + 1) for u, v, t in self.ARCS],
            "numpy times": [(u, v, np.float64(t) / 3) for u, v, t in self.ARCS],
            "inf horizon": self.ARCS,
        }[case]
        instance = self.instance(arcs, horizon=math.inf if case == "inf horizon" else 50.0)
        assert instance_to_json(instance) == indented_json(instance)

    def test_inf_time_never_reaches_the_writer(self):
        # the graph refuses it, so no instance file holds an arc time Infinity
        arcs = [(u, v, math.inf if u == 1 else t) for u, v, t in self.ARCS]
        with pytest.raises(StructuralError, match=r"^arc \(1,2\) travel time inf is not"):
            self.instance(arcs)

    def test_nested_meta(self):
        meta = {
            "zeta": [1, 2.5, {"b": None, "a": [True, False]}],
            "arcs": [[0, 1, 2.0]],
            "alpha": {"nested": {"deeper": [[], {}]}, "text": "a], [b, c"},
        }
        instance = self.instance(meta=meta)
        assert instance_to_json(instance) == indented_json(instance)

    def test_generated_and_reduced_instances(self, figure_instance):
        generated = generate_instance(GeneratorConfig(seed=3, n=9, decision_points=3))
        for instance in (generated, figure_instance):
            assert instance_to_json(instance) == indented_json(instance)

    def test_unserializable_time_never_reaches_the_writer(self):
        # the graph refuses a time json cannot write, or one no load reads back as a float
        for time in (Decimal("2.5"), 10**400):
            with pytest.raises(StructuralError, match=r"^arc \(1,2\) travel time "):
                self.instance([(0, 1, 1.0), (1, 2, time)])


class TestInstanceValidation:
    def test_release_after_horizon(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(StructuralError):
            WspInstance(graph, 0, horizon=5.0, delay=0.0, schedule=((6.0, 1),))

    def test_nonincreasing_release_times(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(StructuralError):
            WspInstance(graph, 0, horizon=5.0, delay=0.0, schedule=((2.0, 1), (2.0, 1)))

    @pytest.mark.parametrize("change, message", [
        ({"ignition": 2}, "ignition vertex 2 out of range"),
        ({"ignition": -1}, "ignition vertex -1 out of range"),
        ({"schedule": ((1.0, 1), (2.0, 0))}, "release count 0 must be >= 1"),
    ], ids=["ignition-past-end", "negative-ignition", "zero-count"])
    def test_rejects_bad_field(self, change, message):
        fields = dict(graph=DirectedGraph(2, ((0, 1, 1.0),)), ignition=0, horizon=5.0,
                      delay=0.0, schedule=((1.0, 1),))
        WspInstance(**fields)
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            WspInstance(**dict(fields, **change))

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_horizon_must_be_positive(self, horizon):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(StructuralError, match="^horizon must be positive$"):
            WspInstance(graph, 0, horizon=horizon, delay=0.0, schedule=())

    def test_total_resources(self, figure_instance):
        assert figure_instance.total_resources == 3

    def test_delay_must_be_finite(self):
        graph = DirectedGraph(2, ((0, 1, 1.0),))
        for delay in (math.nan, math.inf, -1.0):
            with pytest.raises(StructuralError):
                WspInstance(graph, 0, horizon=5.0, delay=delay, schedule=())


class TestInstanceLoader:
    @pytest.mark.parametrize(
        "key, value",
        [
            # NaN would make every protection silently do nothing
            ("delay_min", math.nan),
            ("delay_min", math.inf),
            ("version", 99),
            ("ignition", True),
        ],
    )
    def test_rejects_malformed_field(self, figure_instance, key, value):
        doc = json.loads(instance_to_json(figure_instance))
        doc[key] = value
        with pytest.raises(StructuralError):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"instance"', "null"])
    def test_rejects_non_object_document(self, text):
        with pytest.raises(StructuralError, match="JSON object"):
            instance_from_json(text)

    @pytest.mark.parametrize("value", [None, "9", 9.0, True])
    def test_rejects_bad_vertex_count(self, figure_instance, value):
        doc = json.loads(instance_to_json(figure_instance))
        if value is None:
            del doc["vertex_count"]
        else:
            doc["vertex_count"] = value
        with pytest.raises(StructuralError, match="vertex_count"):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "arc",
        [
            [0, 1],
            [0, 1, 1.0, 2.0],
            [0, "1", 1.0],
            [0.0, 1, 1.0],
            [0, 1, "1.0"],
            [0, 1, True],
            [0, 1, None],
            [0, 1, [1.0]],
            {"tail": 0, "head": 1, "time": 1.0},
        ],
    )
    def test_rejects_malformed_arc(self, figure_instance, arc):
        doc = json.loads(instance_to_json(figure_instance))
        doc["arcs"][3] = arc
        with pytest.raises(StructuralError, match="arc entry"):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize("time", [math.inf, math.nan])
    def test_nonfinite_arc_time_names_the_arc(self, figure_instance, time):
        # json reads Infinity and NaN as floats; the graph refuses them by arc
        doc = json.loads(instance_to_json(figure_instance))
        doc["arcs"][3][2] = time
        with pytest.raises(StructuralError,
                           match=rf"^arc \(1,4\) travel time {time} is not finite and positive$"):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "entry",
        [{"count": 1}, {"t_min": 2.0}, {"t_min": 2.0, "count": 1.5}, [2.0, 1]],
    )
    def test_rejects_malformed_schedule_entry(self, figure_instance, entry):
        doc = json.loads(instance_to_json(figure_instance))
        doc["schedule"][0] = entry
        with pytest.raises(StructuralError):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["arcs", "schedule", "horizon_min", "delay_min"])
    def test_rejects_missing_field(self, figure_instance, key):
        doc = json.loads(instance_to_json(figure_instance))
        del doc[key]
        with pytest.raises(StructuralError, match=key):
            instance_from_json(json.dumps(doc))
