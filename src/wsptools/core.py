"""Problem representation and exact fire-spread evaluation of allocations.

Fire spread is modeled as shortest paths from an ignition vertex over
positive arc travel times (minutes).  Protecting a vertex adds a delay to
all of its outgoing arcs.  A vertex burns at time t if its fire arrival
time is strictly below t.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

INF = math.inf


class StructuralError(ValueError):
    """Malformed instance, graph, or allocation data."""


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph with positive arc travel times in minutes.

    Arcs are stored as (tail, head, travel_time) tuples, at most one per
    ordered vertex pair, no self-loops.
    """

    vertex_count: int
    arcs: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        for tail, head, time in self.arcs:
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise StructuralError(f"arc ({tail},{head}) has vertex id out of range")
            if tail == head:
                raise StructuralError(f"self-loop at vertex {tail}")
            if (tail, head) in seen:
                raise StructuralError(f"duplicate arc ({tail},{head})")
            if not time > 0:
                raise StructuralError(f"arc ({tail},{head}) has nonpositive travel time {time}")
            seen.add((tail, head))

    @cached_property
    def out_arcs(self) -> tuple[tuple[tuple[int, int, float], ...], ...]:
        """out_arcs[u]: the graph's own (u, v, t) arc tuples leaving u, in arc order.

        Built on first use and kept: the graph is immutable.
        """
        out: list[list[tuple[int, int, float]]] = [[] for _ in range(self.vertex_count)]
        for arc in self.arcs:
            out[arc[0]].append(arc)
        return tuple(map(tuple, out))


@dataclass(frozen=True)
class WspInstance:
    """A wildfire suppression problem instance.

    schedule is a list of (release_time, count) pairs with strictly
    increasing release times in (0, horizon].  Resource ids 0..k-1 are
    assigned to release points in order: the first count_1 resources
    belong to the first release time, and so on.
    """

    graph: DirectedGraph
    ignition: int
    horizon: float
    delay: float
    schedule: tuple[tuple[float, int], ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (0 <= self.ignition < self.graph.vertex_count):
            raise StructuralError(f"ignition vertex {self.ignition} out of range")
        if not self.horizon > 0:
            raise StructuralError("horizon must be positive")
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise StructuralError(f"delay must be finite and nonnegative, got {self.delay}")
        prev = 0.0
        for t, count in self.schedule:
            if not (0 < t <= self.horizon):
                raise StructuralError(f"release time {t} outside (0, horizon]")
            if t <= prev and prev > 0:
                raise StructuralError("release times must be strictly increasing")
            if count < 1:
                raise StructuralError(f"release count {count} must be >= 1")
            prev = t

    @cached_property
    def first_resources(self) -> tuple[int, ...]:
        """first_resources[i]: first resource id of release point i; the
        last entry is the total number of resources."""
        first = [0]
        for _, count in self.schedule:
            first.append(first[-1] + count)
        return tuple(first)

    @property
    def total_resources(self) -> int:
        return self.first_resources[-1]

    def release_point_of(self, resource: int) -> int:
        """Index of the release point (0-based) a resource belongs to."""
        first = self.first_resources
        if resource < 0:
            raise StructuralError(f"invalid resource id {resource}")
        if resource >= first[-1]:
            raise StructuralError(f"resource id {resource} beyond schedule total {first[-1]}")
        return bisect_right(first, resource) - 1

    def resource_release_time(self, resource: int) -> float:
        """Release time of resource id (0-based)."""
        return self.schedule[self.release_point_of(resource)][0]


@dataclass(frozen=True)
class Allocation:
    """Injective partial map from resource ids to protected vertex ids."""

    assignments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        resources = [r for r, _ in self.assignments]
        vertices = [v for _, v in self.assignments]
        if len(set(resources)) != len(resources):
            raise StructuralError("a resource appears twice in the allocation")
        if len(set(vertices)) != len(vertices):
            raise StructuralError("a vertex is protected twice")

    @cached_property
    def protected(self) -> frozenset[int]:
        return frozenset(v for _, v in self.assignments)

    def extended(self, pairs) -> "Allocation":
        return Allocation(self.assignments + tuple(pairs))


EMPTY_ALLOCATION = Allocation(())


@dataclass(frozen=True)
class FireOutcome:
    """Fire arrival time per vertex; +inf marks unreachable vertices."""

    arrival: tuple[float, ...]

    def burned_set(self, t: float) -> set[int]:
        """Vertices with arrival strictly below t (burned at time t)."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        return {v for v, a in enumerate(self.arrival) if a < t}

    def burned_count(self, t: float) -> int:
        return sum(1 for a in self.arrival if a < t)


def _shortest_paths(graph: DirectedGraph, source: int, delays: dict[int, float]) -> list[float]:
    """Heap Dijkstra from source over graph.out_arcs; +inf if unreachable.

    An arc leaving a vertex u in delays costs (d + t) + delays[u], any
    other arc d + t.  Callers rely on this exact summation order: the
    horizon test is strict, so a last-bit change is observable.
    """
    out_arcs = graph.out_arcs
    dist = [INF] * graph.vertex_count
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u not in delays:
            for _, v, t in out_arcs[u]:
                nd = d + t
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        else:
            extra = delays[u]
            for _, v, t in out_arcs[u]:
                nd = d + t + extra
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
    return dist


def compute_arrival_times(
    instance: WspInstance,
    alloc: Allocation = EMPTY_ALLOCATION,
    vertex_delays: list[float] | None = None,
) -> FireOutcome:
    """Shortest-path fire arrival times under an allocation.

    The cost of arc (u, v) is t_uv plus the delay if u is protected.  The
    delay is the instance's uniform value unless vertex_delays overrides
    it per vertex (used by the heterogeneous-delay problem variant).
    """
    n = instance.graph.vertex_count
    protected = alloc.protected
    for v in protected:
        if not (0 <= v < n):
            raise StructuralError(f"protected vertex {v} out of range")
    if vertex_delays is None:
        delays = dict.fromkeys(protected, instance.delay)
    elif len(vertex_delays) != n:
        raise StructuralError("vertex delay vector length mismatch")
    else:
        delays = {v: vertex_delays[v] for v in protected}
    return FireOutcome(tuple(_shortest_paths(instance.graph, instance.ignition, delays)))


def single_source_distances(graph: DirectedGraph, source: int) -> list[float]:
    """Plain shortest-path distances from source; +inf if unreachable."""
    return _shortest_paths(graph, source, {})


def objective(instance: WspInstance, alloc: Allocation = EMPTY_ALLOCATION) -> int:
    """Number of vertices burned before the horizon under the allocation."""
    outcome = compute_arrival_times(instance, alloc)
    return outcome.burned_count(instance.horizon)


@dataclass(frozen=True)
class Violation:
    resource: int | None
    vertex: int | None
    reason: str


def check_feasibility(instance: WspInstance, alloc: Allocation) -> list[Violation]:
    """Feasibility of an allocation; an empty list means feasible.

    A resource may only protect a vertex whose arrival time, under the
    full allocation, is at least the resource's release time.  Ties
    (arrival exactly equal to the release time) are allowed.
    """
    violations: list[Violation] = []
    n = instance.graph.vertex_count
    k = instance.total_resources
    for resource, vertex in alloc.assignments:
        if not (0 <= vertex < n):
            violations.append(Violation(resource, vertex, "vertex id out of range"))
        if not (0 <= resource < k):
            violations.append(Violation(resource, vertex, "resource id not in schedule"))
    if violations:
        return violations

    outcome = compute_arrival_times(instance, alloc)
    for resource, vertex in alloc.assignments:
        release = instance.resource_release_time(resource)
        if outcome.arrival[vertex] < release:
            violations.append(
                Violation(
                    resource,
                    vertex,
                    f"vertex burns at {outcome.arrival[vertex]:g} before release {release:g}",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Instance / solution files


def _arcs_json(graph: DirectedGraph) -> str:
    """The arcs, sorted, as json.dumps(..., indent=1) writes them as the
    value of a top-level key.

    The compact C encoder writes every number, so ints, floats, Infinity
    and float subclasses come out as the indented encoder would write
    them; the brackets and separators are then respaced.  Arc entries
    are numbers, so "], [" and ", " occur only between them.
    """
    if not graph.arcs:
        return "[]"
    compact = json.dumps(sorted(graph.arcs))
    inner = compact[2:-2].replace("], [", "\n  ],\n  [\n   ").replace(", ", ",\n   ")
    return "[\n  [\n   " + inner + "\n  ]\n ]"


def instance_to_json(instance: WspInstance) -> str:
    """Serialize an instance to canonical, byte-stable JSON text.

    The text is json.dumps(doc, indent=1, sort_keys=True) + "\n" of the
    whole document; "arcs", its first key, is written by _arcs_json,
    since the indented encoder runs in pure Python.
    """
    from wsptools import INSTANCE_FORMAT_VERSION

    doc = {
        "version": INSTANCE_FORMAT_VERSION,
        "vertex_count": instance.graph.vertex_count,
        "ignition": instance.ignition,
        "horizon_min": instance.horizon,
        "delay_min": instance.delay,
        "schedule": [{"t_min": t, "count": c} for t, c in instance.schedule],
        "meta": instance.meta,
    }
    arcs = _arcs_json(instance.graph)
    rest = json.dumps(doc, indent=1, sort_keys=True)
    return '{\n "arcs": ' + arcs + ",\n" + rest[2:] + "\n"


def _json_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructuralError(f"{key} must be an integer, got {value!r}")
    return value


def _json_float(doc: dict, key: str) -> float:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructuralError(f"{key} must be a number, got {value!r}")
    return float(value)


def _json_list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise StructuralError(f"{key} must be a list, got {value!r}")
    return value


def _json_arcs(doc: dict) -> tuple[tuple[int, int, float], ...]:
    # json.loads yields exact int/float/list types, so type() tests suffice
    # (and reject bool); one pass, as every load of a large instance runs it
    arcs = []
    for entry in _json_list(doc, "arcs"):
        if not (
            type(entry) is list
            and len(entry) == 3
            and type(entry[0]) is int
            and type(entry[1]) is int
            and type(entry[2]) in (float, int)
            and math.isfinite(entry[2])
        ):
            raise StructuralError(f"arc entry {entry!r} must be [tail, head, finite travel time]")
        arcs.append((entry[0], entry[1], float(entry[2])))
    return tuple(arcs)


def _json_release(entry) -> tuple[float, int]:
    if not isinstance(entry, dict):
        raise StructuralError(f"schedule entry {entry!r} must be an object")
    return _json_float(entry, "t_min"), _json_int(entry, "count")


def instance_from_json(text: str) -> WspInstance:
    from wsptools import INSTANCE_FORMAT_VERSION

    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StructuralError("instance document must be a JSON object")
    version = _json_int(doc, "version")
    if version != INSTANCE_FORMAT_VERSION:
        raise StructuralError(
            f"instance format version {version} is not supported (expected {INSTANCE_FORMAT_VERSION})"
        )
    graph = DirectedGraph(
        vertex_count=_json_int(doc, "vertex_count"),
        arcs=_json_arcs(doc),
    )
    return WspInstance(
        graph=graph,
        ignition=_json_int(doc, "ignition"),
        horizon=_json_float(doc, "horizon_min"),
        delay=_json_float(doc, "delay_min"),
        schedule=tuple(map(_json_release, _json_list(doc, "schedule"))),
        meta=doc.get("meta", {}),
    )


def save_instance(instance: WspInstance, path) -> None:
    with open(path, "w") as f:
        f.write(instance_to_json(instance))


def load_instance(path) -> WspInstance:
    with open(path) as f:
        return instance_from_json(f.read())


def solution_to_json(instance_id: str, alloc: Allocation, objective_value: int) -> str:
    doc = {
        "instance_id": instance_id,
        "assignments": [[r, v] for r, v in sorted(alloc.assignments)],
        "objective": objective_value,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _json_assignment(entry) -> tuple[int, int]:
    if not (type(entry) is list and len(entry) == 2 and all(type(x) is int for x in entry)):
        raise StructuralError(f"assignment {entry!r} must be [resource, vertex] integers")
    return entry[0], entry[1]


def solution_from_json(text: str) -> tuple[str, Allocation, int]:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StructuralError("solution document must be a JSON object")
    instance_id = doc.get("instance_id")
    if not isinstance(instance_id, str):
        raise StructuralError(f"instance_id must be a string, got {instance_id!r}")
    objective_value = _json_int(doc, "objective")
    alloc = Allocation(tuple(map(_json_assignment, _json_list(doc, "assignments"))))
    return instance_id, alloc, objective_value
