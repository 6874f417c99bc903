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
from heapq import heapify, heappop, heappush

from wsptools import INSTANCE_FORMAT_VERSION

INF = math.inf


class StructuralError(ValueError):
    """Malformed instance, graph, or allocation data."""


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph with finite, positive arc travel times in minutes.

    Arcs are (tail, head, travel_time) tuples, stored sorted by (tail,
    head): at most one per ordered vertex pair, no self-loops.
    """

    vertex_count: int
    arcs: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        try:  # the sort compares times only within a duplicate pair, refused below
            arcs = tuple(sorted(self.arcs))
        except TypeError:  # an id or a time that does not compare: the checks name its arc
            arcs = None
        n, last_tail, last_head = self.vertex_count, None, None
        for tail, head, time in self.arcs if arcs is None else arcs:
            if type(tail) is not int or type(head) is not int:  # bool and numpy ints too
                kind = type(head if type(tail) is int else tail).__name__
                raise StructuralError(f"arc ({tail},{head}) has a vertex id of type {kind}, not int")
            if not (0 <= tail < n and 0 <= head < n):
                raise StructuralError(f"arc ({tail},{head}) has vertex id out of range")
            if tail == head:
                raise StructuralError(f"self-loop at vertex {tail}")
            if head == last_head and tail == last_tail:
                raise StructuralError(f"duplicate arc ({tail},{head})")
            if type(time) is not float:  # one type test on the common path; the kernel and
                # the writer take ints in float range and floats, as instance files hold
                if type(time) is bool or not isinstance(time, (int, float)):
                    raise StructuralError(f"arc ({tail},{head}) travel time {time!r} is not a number")
                _float(time, f"arc ({tail},{head}) travel time")
            if not 0 < time < INF:  # NaN fails
                raise StructuralError(f"arc ({tail},{head}) travel time {time} is not finite and positive")
            last_tail, last_head = tail, head
        if arcs is None:  # each arc passed, yet they do not sort: sequences of mixed types
            raise StructuralError("arcs must be (tail, head, travel time) tuples")
        object.__setattr__(self, "arcs", arcs)

    @cached_property
    def out_arcs(self) -> tuple[tuple[tuple[int, int, float], ...], ...]:
        """out_arcs[u]: the graph's own (u, v, t) arc tuples leaving u, heads ascending.

        Built on first use and kept: the graph is immutable.
        """
        out: list[list[tuple[int, int, float]]] = [[] for _ in range(self.vertex_count)]
        for arc in self.arcs:
            out[arc[0]].append(arc)
        return tuple(map(tuple, out))

    @cached_property
    def in_arcs(self) -> tuple[tuple[tuple[int, int, float], ...], ...]:
        """in_arcs[v]: the graph's own (u, v, t) arc tuples entering v, tails ascending."""
        into: list[list[tuple[int, int, float]]] = [[] for _ in range(self.vertex_count)]
        for arc in self.arcs:
            into[arc[1]].append(arc)
        return tuple(map(tuple, into))


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
            if t <= prev:
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

    @cached_property
    def free_burn(self) -> FireOutcome:
        """Fire arrivals with nothing protected, computed on first use and kept."""
        return fire_arrivals(self.graph, self.ignition, {})


@dataclass(frozen=True)
class Allocation:
    """Injective partial map from resource ids to protected vertex ids."""

    assignments: tuple[tuple[int, int], ...]
    protected: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        protected = frozenset([v for _, v in self.assignments])
        if len({r for r, _ in self.assignments}) != len(self.assignments):
            raise StructuralError("a resource appears twice in the allocation")
        if len(protected) != len(self.assignments):
            raise StructuralError("a vertex is protected twice")
        object.__setattr__(self, "protected", protected)

    def extended(self, pairs) -> "Allocation":
        return Allocation(self.assignments + tuple(pairs))


EMPTY_ALLOCATION = Allocation(())


@dataclass(frozen=True)
class FireOutcome:
    """Fire arrival time per vertex; +inf marks unreachable vertices.

    changed, for an outcome repaired from a parent outcome (see
    fire_arrivals), holds the vertices whose arrival differs from the
    parent's; otherwise it is None.  It is a frozenset, not a tuple:
    freed tuples of under 20 items stay on per-size free lists, and one
    of assorted size per evaluation grew the memory of a process running
    rs and beam on 20 x 20 grids by 4 MB over a thousand runs.
    """

    arrival: tuple[float, ...]
    changed: frozenset[int] | None = field(default=None, compare=False, repr=False)

    def burned_count(self, t: float) -> int:
        return len([a for a in self.arrival if a < t])


def _settle(out_arcs, dist: list[float], heap: list, delays: dict[int, float]) -> list[float]:
    """Heap Dijkstra over out_arcs from the (d, v) entries of heap, which
    must be a heap with d == dist[v]; lowers dist in place and returns it.

    An arc leaving a vertex u in delays costs (d + t) + delays[u], any
    other arc d + t.  Callers rely on this exact summation order: the
    horizon test is strict, so a last-bit change is observable.
    """
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


def _repair(
    graph: DirectedGraph,
    arrival: tuple[float, ...],
    delays: dict[int, float],
    added: frozenset[int],
) -> FireOutcome:
    """The outcome under delays, given the arrivals under the parent
    delays, delays without the vertices added (Ramalingam & Reps 1996;
    Frigioni, Marchetti-Spaccamela & Nanni 2000).

    Delays only raise arc costs, so arrivals only rise.  A vertex keeps
    its arrival a_v while an in-arc from a vertex w that keeps its own is
    still tight under the new costs: (a_w + t) + extra_w == a_v.  The
    other vertices are affected, and only they are recomputed:

    1. Walk candidates in order of arrival, starting from the heads of
       the tight arcs leaving the added vertices.  A candidate with no
       tight in-arc from an unaffected tail of strictly smaller arrival
       is affected, and the heads of its tight out-arcs (under the
       parent's costs) become candidates.
    2. Reset each affected vertex to its best in-arc from an unaffected
       tail.
    3. Settle the affected vertices with _settle.  An unaffected vertex
       already holds its least cost, so no relaxation lowers it.

    Each arrival is the least path cost under _settle's summation order,
    so the result equals a full run's bit for bit.  The source (0.0) has
    no tight in-arc, so it is never affected.  The strict "smaller
    arrival" keeps step 1 sound on arcs too short to change a float
    (100.0 + 1e-300 == 100.0): a tail of equal arrival may itself turn
    out affected later, so such a vertex is recomputed instead.
    """
    in_arcs, out_arcs = graph.in_arcs, graph.out_arcs
    candidates = [(arrival[v], v) for u in added
                  for _, v, t in out_arcs[u] if arrival[u] + t == arrival[v]]
    heapify(candidates)
    affected: set[int] = set()
    while candidates:
        a_v, v = heappop(candidates)
        if a_v == INF:
            break  # unreachable stays unreachable
        if v in affected:
            continue
        for w, _, t in in_arcs[v]:
            a_w = arrival[w]
            if a_w < a_v and w not in affected and a_w + t + delays.get(w, 0.0) == a_v:
                break
        else:
            affected.add(v)
            extra = 0.0 if v in added else delays.get(v, 0.0)
            for _, x, t in out_arcs[v]:
                if a_v + t + extra == arrival[x]:
                    heappush(candidates, (arrival[x], x))

    dist = list(arrival)
    heap = []
    for v in affected:
        best = INF
        for w, _, t in in_arcs[v]:
            if w not in affected:
                nd = arrival[w] + t + delays.get(w, 0.0)
                if nd < best:
                    best = nd
        dist[v] = best
        if best < INF:  # an infinite label relaxes nothing
            heap.append((best, v))
    heapify(heap)
    _settle(out_arcs, dist, heap, delays)
    return FireOutcome(tuple(dist), frozenset([v for v in affected if dist[v] != arrival[v]]))


def fire_arrivals(
    graph: DirectedGraph,
    source: int,
    delays: dict[int, float],
    parent: tuple[frozenset[int], FireOutcome] | None = None,
) -> FireOutcome:
    """Shortest-path fire arrival times from source; +inf if unreachable.

    delays maps a vertex to the extra minutes on each of its outgoing
    arcs (a protected vertex).  Arc (u, v) costs (d + t_uv) + delays[u]
    for u in delays and d + t_uv otherwise; see _settle.  A delay may be
    +inf: the vertex's out-arcs then never finish, so no fire spreads
    through it.

    parent, if given, is (added, parent_outcome): a set of vertices in
    delays, and the outcome from the same source under delays without
    them.  The arrivals are then repaired from parent_outcome (see
    _repair), with the same bits as a full run, and the result's changed
    holds the vertices whose arrival differs from the parent's.
    """
    n = graph.vertex_count
    if not (0 <= source < n):
        raise StructuralError(f"source vertex {source} out of range")
    for v in delays:
        if not (0 <= v < n):
            raise StructuralError(f"protected vertex {v} out of range")
    if parent is None:
        dist = [INF] * n
        dist[source] = 0.0
        return FireOutcome(tuple(_settle(graph.out_arcs, dist, [(0.0, source)], delays)))
    added, parent_outcome = parent
    if not added <= delays.keys():
        raise StructuralError("an added vertex has no delay")
    if len(parent_outcome.arrival) != n:
        raise StructuralError("parent outcome length mismatch")
    return _repair(graph, parent_outcome.arrival, delays, added)


def compute_arrival_times(
    instance: WspInstance,
    alloc: Allocation = EMPTY_ALLOCATION,
    *,
    parent: tuple[Allocation, FireOutcome] | None = None,
) -> FireOutcome:
    """fire_arrivals from the ignition with the instance's delay on each
    vertex alloc protects.  parent, if given, is (parent_alloc,
    parent_outcome): an allocation whose protected vertices alloc protects
    too, and its outcome on this instance, to repair the arrivals from.
    With neither, the result is instance.free_burn.  The instance keeps
    any other full run, with alloc.protected, until the next one: the
    delay is uniform, so the same set again returns it, and checking then
    scoring one allocation runs the kernel once.  Repairs neither read nor
    replace it.
    """
    if parent is not None:
        if not parent[0].protected <= alloc.protected:
            raise StructuralError("the parent protects a vertex the allocation does not")
        parent = (alloc.protected - parent[0].protected, parent[1])
    elif not alloc.assignments:
        return instance.free_burn
    elif (kept := instance.__dict__.get("_full_run")) and kept[0] == alloc.protected:
        return kept[1]
    delays = dict.fromkeys(alloc.protected, instance.delay)
    outcome = fire_arrivals(instance.graph, instance.ignition, delays, parent)
    if parent is None:  # in the instance's __dict__, as cached_property keeps free_burn
        instance.__dict__["_full_run"] = (alloc.protected, outcome)
    return outcome


def single_source_distances(graph: DirectedGraph, source: int) -> list[float]:
    """Plain shortest-path distances from source; +inf if unreachable."""
    return list(fire_arrivals(graph, source, {}).arrival)


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
        arrival, release = outcome.arrival[vertex], instance.resource_release_time(resource)
        if arrival < release:
            reason = f"vertex burns at {arrival:g} before release {release:g}"
            violations.append(Violation(resource, vertex, reason))
    return violations


# ---------------------------------------------------------------------------
# Instance / solution files


def _arcs_json(graph: DirectedGraph) -> str:
    """The arcs, as stored, as json.dumps(..., indent=1) writes them as
    the value of a top-level key.

    The compact C encoder writes the times in one pass, so ints, floats
    and float subclasses come out as the indented encoder would write
    them (a number's text holds no ", ", the separator split on); the
    vertex ids are ints (the graph refuses any other type), whose
    f-string is json's text.
    """
    if not graph.arcs:
        return "[]"
    times = json.dumps([t for _, _, t in graph.arcs], check_circular=False)[1:-1].split(", ")
    return "[\n  " + ",\n  ".join([
        f"[\n   {u},\n   {v},\n   {text}\n  ]" for (u, v, _), text in zip(graph.arcs, times)
    ]) + "\n ]"


def _graph_json(doc: dict, graph: DirectedGraph) -> str:
    """json.dumps(doc with the graph's "vertex_count" and "arcs",
    indent=1, sort_keys=True) + "\n".  Every key of doc must sort after
    "arcs", the first key, which _arcs_json writes: the indented encoder
    runs in pure Python."""
    rest = json.dumps({**doc, "vertex_count": graph.vertex_count}, indent=1, sort_keys=True)
    return '{\n "arcs": ' + _arcs_json(graph) + ",\n" + rest[2:] + "\n"


def instance_to_json(instance: WspInstance) -> str:
    """Serialize an instance to canonical, byte-stable JSON text."""
    return _graph_json({
        "version": INSTANCE_FORMAT_VERSION,
        "ignition": instance.ignition,
        "horizon_min": instance.horizon,
        "delay_min": instance.delay,
        "schedule": [{"t_min": t, "count": c} for t, c in instance.schedule],
        "meta": instance.meta,
    }, instance.graph)


def _json_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructuralError(f"{key} must be an integer, got {value!r}")
    return value


def _float(value, what: str) -> float:
    """float(value); an int past float range is refused with what named."""
    try:
        return float(value)
    except OverflowError:
        raise StructuralError(f"{what} is too large to convert to float") from None


def _json_float(doc: dict, key: str) -> float:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructuralError(f"{key} must be a number, got {value!r}")
    return _float(value, key)


def _json_list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise StructuralError(f"{key} must be a list, got {value!r}")
    return value


def _json_graph(doc: dict) -> DirectedGraph:
    """The checked graph of a document's "vertex_count", then "arcs"."""
    vertex_count = _json_int(doc, "vertex_count")
    # json.loads yields exact int/float/list types, so type() tests suffice
    # (and reject bool); one pass, as every load of a large instance runs it
    arcs = []
    try:
        for entry in _json_list(doc, "arcs"):
            if not (
                type(entry) is list
                and len(entry) == 3
                and type(entry[0]) is int
                and type(entry[1]) is int
                and type(entry[2]) in (float, int)
            ):
                raise StructuralError(f"arc entry {entry!r} must be [tail, head, travel time]")
            arcs.append((entry[0], entry[1], float(entry[2])))
    except OverflowError:  # float(entry[2]) overflowed: _float raises again, naming the arc
        _float(entry[2], f"arc ({entry[0]},{entry[1]}) travel time")
    return DirectedGraph(vertex_count, tuple(arcs))


def _json_release(entry) -> tuple[float, int]:
    if not isinstance(entry, dict):
        raise StructuralError(f"schedule entry {entry!r} must be an object")
    return _json_float(entry, "t_min"), _json_int(entry, "count")


def instance_from_json(text: str) -> WspInstance:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StructuralError("instance document must be a JSON object")
    version = _json_int(doc, "version")
    if version != INSTANCE_FORMAT_VERSION:
        raise StructuralError(
            f"instance format version {version} is not supported (expected {INSTANCE_FORMAT_VERSION})"
        )
    return WspInstance(
        graph=_json_graph(doc),
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
