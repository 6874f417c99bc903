"""Property tests of the instance file format, the fire-arrival kernel and
the solvers' candidate lists and beam (needs hypothesis)."""

import builtins
import dataclasses
import json
import math
from unittest import mock

import pytest
from helpers import child_by_child_beam
from test_core import indented_json

from wsptools import solvers
from wsptools.core import (
    Allocation,
    DirectedGraph,
    StructuralError,
    WspInstance,
    compute_arrival_times,
    instance_from_json,
    instance_to_json,
)
from wsptools.generator import GeneratorConfig, generate_instance
from wsptools.solvers import beam_search, perimeter_candidates

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
json_scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1]), max_size=20))
    arcs = tuple((u, v, draw(positive.filter(math.isfinite))) for u, v in sorted(pairs))
    horizon = draw(positive)
    times = sorted(draw(st.sets(st.floats(min_value=0.0, max_value=horizon, exclude_min=True),
                                max_size=4)))
    schedule = tuple((t, draw(st.integers(min_value=1, max_value=5))) for t in times)
    return WspInstance(
        graph=DirectedGraph(n, arcs),
        ignition=draw(st.integers(0, n - 1)),
        horizon=horizon,
        delay=draw(st.floats(min_value=0.0, allow_infinity=False)),
        schedule=schedule,
        meta=draw(st.dictionaries(st.text(), json_values, max_size=3)),
    )


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(instances())
def test_round_trip(instance):
    text = instance_to_json(instance)
    assert text == indented_json(instance)
    back = instance_from_json(text)
    assert back == instance
    assert back.meta == instance.meta
    assert instance_to_json(back) == text


# Arc times of 1e-300 and 1e-17 leave a float arrival unchanged, which makes
# tight arcs between vertices of equal arrival; delay 0.0 and 1e-300 leave
# some protections without effect.
arc_times = st.sampled_from([1e-300, 1e-17, 0.5, 1.0, 2.0]) | st.floats(1e-3, 100.0)
delays = st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 50.0)


@st.composite
def nested_protections(draw):
    """An instance and two protected vertex lists, the first a prefix of the second."""
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1]), max_size=30))
    arcs = tuple((u, v, draw(arc_times)) for u, v in sorted(pairs))
    instance = WspInstance(DirectedGraph(n, arcs), ignition=draw(st.integers(0, n - 1)),
                           horizon=math.inf, delay=draw(delays), schedule=())
    order = draw(st.permutations(range(n)))
    more = draw(st.integers(0, n))
    fewer = draw(st.integers(0, more))
    return instance, order[:fewer], order[:more]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(nested_protections())
def test_more_protection_never_lowers_arrivals_and_repair_is_exact(case):
    instance, fewer, more = case
    parent_alloc = Allocation(tuple(enumerate(fewer)))
    alloc = Allocation(tuple(enumerate(more)))
    parent = compute_arrival_times(instance, parent_alloc)
    full = compute_arrival_times(instance, alloc)
    assert all(a <= b for a, b in zip(parent.arrival, full.arrival))
    repaired = compute_arrival_times(instance, alloc, parent=(parent_alloc, parent))
    assert repaired.arrival == full.arrival
    assert repaired.changed == {
        v for v, (a, b) in enumerate(zip(parent.arrival, full.arrival)) if a != b
    }


@st.composite
def grid_front_cases(draw):
    """A grid instance with tied arrivals, a protected vertex set, its
    outcome and a time t: an arrival, one just past it, or any time."""
    side = draw(st.integers(min_value=2, max_value=5))
    arcs = tuple((y * side + x, ny * side + nx, draw(arc_times))
                 for y in range(side) for x in range(side)
                 for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                 if 0 <= nx < side and 0 <= ny < side)
    n = side * side
    instance = WspInstance(DirectedGraph(n, arcs), ignition=draw(st.integers(0, n - 1)),
                           horizon=math.inf, delay=draw(delays), schedule=())
    protected = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    alloc = Allocation(tuple(enumerate(protected)))
    outcome = compute_arrival_times(instance, alloc)
    arrival = draw(st.sampled_from(outcome.arrival))
    t = draw(st.sampled_from([arrival, math.nextafter(arrival, math.inf)])
             | st.floats(0.0, 500.0))
    return instance, alloc, outcome, t


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(grid_front_cases(), st.integers(min_value=1, max_value=30))
def test_perimeter_limit_is_a_prefix(case, limit):
    instance, alloc, outcome, t = case
    arrival = outcome.arrival
    near_fire = {v for u, a in enumerate(arrival) if a < t
                 for _, v, _ in instance.graph.out_arcs[u]}
    # the order as first written: one keyed sort of every open vertex
    expected = sorted((v for v, a in enumerate(arrival) if a >= t and v != instance.ignition
                       and v not in alloc.protected),
                      key=lambda v: (v not in near_fire, arrival[v], v))
    assert perimeter_candidates(instance, alloc, t, outcome) == expected
    assert perimeter_candidates(instance, alloc, t, outcome, limit) == expected[:limit]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(grid_front_cases(), st.data())
def test_protecting_at_or_after_t_keeps_earlier_arrivals(case, data):
    """random_search narrows its open list level by level on this fact: a
    vertex of arrival below t keeps it, bit for bit, when the new
    protections all have arrival >= t, so a vertex open later was open at t."""
    instance, alloc, outcome, t = case
    arrival, n = outcome.arrival, instance.graph.vertex_count
    open_at_t = [v for v in range(n) if arrival[v] >= t and v not in alloc.protected]
    added = data.draw(st.lists(st.sampled_from(open_at_t), unique=True) if open_at_t
                      else st.just([]))
    child = alloc.extended((n + i, v) for i, v in enumerate(added))
    for after in (compute_arrival_times(instance, child),
                  compute_arrival_times(instance, child, parent=(alloc, outcome))):
        assert [b for a, b in zip(arrival, after.arrival) if a < t] == \
            [a for a in arrival if a < t]
        later = data.draw(st.sampled_from([t, math.nextafter(t, math.inf)])
                          | st.floats(min_value=t, allow_nan=False))
        assert [v for v in open_at_t if after.arrival[v] >= later and v not in child.protected] \
            == [v for v in range(n) if after.arrival[v] >= later and v not in child.protected]


@st.composite
def beam_cases(draw):
    """An instance with 1 to 3 release points of 1 to 3 resources each, and
    a beam width and expansion count, each finite or math.inf: a random
    grid with tied arrivals, or a generated landscape with its release
    times.  Unbounded expansions run on grids of at most 16 vertices."""
    counts = st.integers(min_value=1, max_value=3)
    if draw(st.booleans()):
        side = draw(st.integers(min_value=2, max_value=4))
        arcs = tuple((y * side + x, ny * side + nx, draw(arc_times))
                     for y in range(side) for x in range(side)
                     for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                     if 0 <= nx < side and 0 <= ny < side)
        horizon = draw(st.floats(1.0, 30.0))
        times = sorted(draw(st.sets(st.floats(0.0, horizon, exclude_min=True),
                                    min_size=1, max_size=3)))
        instance = WspInstance(DirectedGraph(side * side, arcs),
                               ignition=draw(st.integers(0, side * side - 1)), horizon=horizon,
                               delay=draw(delays), schedule=tuple((t, draw(counts)) for t in times))
        expansions = st.integers(1, 6) | st.just(math.inf)
    else:
        instance = generate_instance(GeneratorConfig(seed=draw(st.integers(0, 10**6)),
                                                     n=draw(st.integers(3, 8)),
                                                     decision_points=draw(st.integers(1, 3))))
        instance = dataclasses.replace(
            instance, schedule=tuple((t, draw(counts)) for t, _ in instance.schedule))
        expansions = st.integers(1, 6)
    expansions = draw(st.just(1) | expansions)
    width = draw(st.integers(1, 6) | (st.just(math.inf) if expansions <= 3 else st.nothing()))
    return instance, width, expansions


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(beam_cases())
def test_beam_equals_the_child_by_child_beam(case):
    """Repairing along shared combination prefixes changes no key, node or
    result of the beam that repairs each child from its parent."""
    instance, width, expansions = case
    final = []

    def recording_min(*args, **kwargs):
        if "key" in kwargs:  # the pick of the best final node
            final.extend(args[0])
        return builtins.min(*args, **kwargs)

    with mock.patch.object(solvers, "min", recording_min, create=True):
        result = beam_search(instance, width, expansions)
    expected, expected_final = child_by_child_beam(instance, width, expansions)
    assert result == expected
    assert [key for key, _, _ in final] == [key for key, _, _ in expected_final]
    assert [(alloc.assignments, outcome.arrival) for _, alloc, outcome in final] == \
        [(alloc.assignments, outcome.arrival) for _, alloc, outcome in expected_final]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(beam_cases())
def test_beam_carries_the_fire_state_of_every_node(case):
    """The (open, front) beam hands perimeter_candidates, advanced from the
    node's beam parent, is the state built from scratch on the node's
    outcome: the vertices of arrival >= t, and those with an in-neighbor
    of arrival < t."""
    instance, width, expansions = case
    calls = []

    def recording_candidates(instance, alloc, t, outcome, limit=None, fire=None):
        calls.append((t, outcome, fire))
        return perimeter_candidates(instance, alloc, t, outcome, limit, fire)

    with mock.patch.object(solvers, "perimeter_candidates", recording_candidates):
        result = beam_search(instance, width, expansions)
    assert result == child_by_child_beam(instance, width, expansions)[0]
    in_arcs = instance.graph.in_arcs
    assert calls
    for t, outcome, (open_, front) in calls:
        arrival = outcome.arrival
        assert open_ == [v for v, a in enumerate(arrival) if a >= t]
        assert front == {v for v in open_ if any(arrival[w] < t for w, _, _ in in_arcs[v])}


mistyped = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(), max_size=2) \
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
bad_int = mistyped | st.floats()
bad_number = mistyped | st.sampled_from([math.nan, -math.inf])
# +inf is invalid only as a delay or an arc time: an infinite horizon, and
# an infinite release time under it, make a valid instance
bad_finite = bad_number | st.just(math.inf)


@st.composite
def corrupted_documents(draw):
    """A valid instance document with one field set to a mistyped or
    non-finite value."""
    doc = json.loads(instance_to_json(draw(instances())))
    fields = ["version", "vertex_count", "ignition", "horizon_min", "delay_min"]
    fields += ["arc"] * bool(doc["arcs"]) + ["t_min", "count"] * bool(doc["schedule"])
    field = draw(st.sampled_from(fields))
    if field in ("version", "vertex_count", "ignition"):
        doc[field] = draw(bad_int)
    elif field == "horizon_min":
        doc[field] = draw(bad_number)
    elif field == "delay_min":
        doc[field] = draw(bad_finite)
    elif field == "arc":
        arc = draw(st.sampled_from(doc["arcs"]))
        position = draw(st.integers(0, 2))
        arc[position] = draw(bad_finite if position == 2 else bad_int)
    else:
        entry = draw(st.sampled_from(doc["schedule"]))
        entry[field] = draw(bad_number if field == "t_min" else bad_int)
    return json.dumps(doc)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(corrupted_documents())
def test_loader_rejects_mistyped_or_non_finite_fields(text):
    with pytest.raises(StructuralError):
        instance_from_json(text)
