"""Constructive hardness reductions and small-instance decision oracles.

Transforms a most-vital-nodes interdiction instance into equivalent
suppression instances (timed, weighted, and homogeneous-cost variants),
and provides exhaustive evaluators to verify the equivalences on small
graphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from wsptools.core import (
    Allocation,
    DirectedGraph,
    StructuralError,
    WspInstance,
    compute_arrival_times,
    single_source_distances,
)
from wsptools.solvers import LimitExceeded

DEFAULT_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class MvnpInstance:
    """Remove at most k vertices (never s or t) so the s-t shortest path
    is at least h."""

    graph: DirectedGraph
    source: int
    sink: int
    k: int
    h: float

    def __post_init__(self):
        n = self.graph.vertex_count
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise StructuralError(f"source {self.source} or sink {self.sink} out of range")
        if self.source == self.sink:
            raise StructuralError("source and sink must differ")
        if self.k < 0 or not self.h > 0:
            raise StructuralError("require k >= 0 and h > 0")


@dataclass(frozen=True)
class WwspInstance:
    """Weighted burned-value minimization; all resources at t = 0 and a
    forbidden set that cannot be protected."""

    graph: DirectedGraph
    weights: tuple[float, ...]
    ignition: int
    k: int
    forbidden: frozenset[int]
    delay: float
    horizon: float


@dataclass(frozen=True)
class HwspInstance:
    """Maximize the earliest target arrival; per-vertex delays and
    cost-homogeneous outgoing arcs."""

    graph: DirectedGraph
    ignition: int
    targets: frozenset[int]
    k: int
    vertex_delays: tuple[float, ...]

    def __post_init__(self):
        out_costs: dict[int, float] = {}
        for u, _, t in self.graph.arcs:
            if u in out_costs and out_costs[u] != t:
                raise StructuralError(f"vertex {u} has heterogeneous outgoing arc costs")
            out_costs[u] = t
        if any(d < 0 for d in self.vertex_delays):
            raise StructuralError("vertex delays must be nonnegative")


# ---------------------------------------------------------------------------
# Reductions


def mvnp_to_wsp(mvnp: MvnpInstance) -> tuple[WspInstance, int]:
    """Timed-suppression reduction.

    The sink is replaced by |V| leaf vertices per short predecessor; the
    original vertex set minus the sink keeps its ids (vertices after the
    sink shift down by one).  All k resources are released at half the
    cheapest arc out of the source; horizon and delay equal h; the
    decision budget is |V| - 1.
    """
    g, s, t = mvnp.graph, mvnp.source, mvnp.sink
    dist = single_source_distances(g, s)
    short_preds = sorted(u for u, head, cost in g.arcs if head == t and dist[u] + cost < mvnp.h)

    def remap(v: int) -> int:
        return v if v < t else v - 1

    n_core = g.vertex_count - 1
    arcs = []
    for u, v, cost in g.arcs:
        if u == t or v == t:
            continue
        arcs.append((remap(u), remap(v), cost))
    leaf = n_core
    leaf_cost = {u: cost for u, head, cost in g.arcs if head == t}
    for v in short_preds:
        for _ in range(g.vertex_count):
            arcs.append((remap(v), leaf, leaf_cost[v]))
            leaf += 1
    new_graph = DirectedGraph(vertex_count=leaf, arcs=tuple(arcs))

    source_arcs = [cost for u, _, cost in arcs if u == remap(s)]
    if not source_arcs:
        raise StructuralError("source has no outgoing arcs in the reduced graph")
    # half the cheapest escape from the source, clamped to the horizon:
    # when even that exceeds h, no vertex can burn before the horizon and
    # the release time is immaterial
    release = min(min(source_arcs) / 2.0, mvnp.h)
    schedule = ((release, mvnp.k),) if mvnp.k > 0 else ()
    instance = WspInstance(
        graph=new_graph,
        ignition=remap(s),
        horizon=mvnp.h,
        delay=mvnp.h,
        schedule=schedule,
        meta={"reduction": "mvnp_to_wsp", "core_vertices": n_core},
    )
    return instance, g.vertex_count - 1


def mvnp_to_wwsp(mvnp: MvnpInstance) -> tuple[WwspInstance, float]:
    """Weighted reduction: unit value on the sink, zero elsewhere;
    source and sink forbidden; budget zero."""
    weights = tuple(1.0 if v == mvnp.sink else 0.0 for v in range(mvnp.graph.vertex_count))
    instance = WwspInstance(
        graph=mvnp.graph,
        weights=weights,
        ignition=mvnp.source,
        k=mvnp.k,
        forbidden=frozenset({mvnp.source, mvnp.sink}),
        delay=mvnp.h,
        horizon=mvnp.h,
    )
    return instance, 0.0


def cost_preserving_augmentation(graph: DirectedGraph) -> tuple[DirectedGraph, frozenset[int]]:
    """Split every arc through an auxiliary vertex so all original
    vertices have cost-homogeneous outgoing arcs while path costs are
    preserved.  Returns the new graph and the set of auxiliary ids."""
    if not graph.arcs:
        raise StructuralError("graph has no arcs to augment")
    eps = min(t for _, _, t in graph.arcs)
    arcs = []
    aux = graph.vertex_count
    aux_ids = []
    for u, v, t in sorted(graph.arcs):
        arcs.append((u, aux, eps / 2.0))
        arcs.append((aux, v, t - eps / 2.0))
        aux_ids.append(aux)
        aux += 1
    return DirectedGraph(vertex_count=aux, arcs=tuple(arcs)), frozenset(aux_ids)


def mvnp_to_hwsp(mvnp: MvnpInstance) -> tuple[HwspInstance, float]:
    """Homogeneous-cost reduction over the augmented graph with the
    delay concentrated on the removable original vertices."""
    augmented, aux = cost_preserving_augmentation(mvnp.graph)
    delays = tuple(
        0.0 if v in aux or v in (mvnp.source, mvnp.sink) else mvnp.h
        for v in range(augmented.vertex_count)
    )
    instance = HwspInstance(
        graph=augmented,
        ignition=mvnp.source,
        targets=frozenset({mvnp.sink}),
        k=mvnp.k,
        vertex_delays=delays,
    )
    return instance, mvnp.h


# ---------------------------------------------------------------------------
# Evaluators


def _as_wsp(graph: DirectedGraph, ignition: int, horizon: float, delay: float) -> WspInstance:
    return WspInstance(graph=graph, ignition=ignition, horizon=horizon, delay=delay, schedule=())


def evaluate_wwsp(instance: WwspInstance, alloc: Allocation) -> float:
    """Weighted burned value under an allocation (resources at t = 0)."""
    bad = alloc.protected & instance.forbidden
    if bad:
        raise StructuralError(f"allocation protects forbidden vertices {sorted(bad)}")
    if len(alloc.protected) > instance.k:
        raise StructuralError("allocation exceeds the resource budget")
    host = _as_wsp(instance.graph, instance.ignition, instance.horizon, instance.delay)
    outcome = compute_arrival_times(host, alloc)
    return math.fsum(
        instance.weights[v] for v in range(instance.graph.vertex_count)
        if outcome.arrival[v] < instance.horizon
    )


def evaluate_hwsp(instance: HwspInstance, alloc: Allocation) -> float:
    """Earliest fire arrival among the targets under an allocation."""
    if len(alloc.protected) > instance.k:
        raise StructuralError("allocation exceeds the resource budget")
    host = _as_wsp(instance.graph, instance.ignition, horizon=1.0, delay=0.0)
    outcome = compute_arrival_times(host, alloc, vertex_delays=list(instance.vertex_delays))
    return min(outcome.arrival[v] for v in instance.targets)


# ---------------------------------------------------------------------------
# Exhaustive oracles


def _subsets_up_to(items, k: int):
    for size in range(min(k, len(items)) + 1):
        yield from itertools.combinations(items, size)


def _check_limit(n_items: int, k: int, limit: int) -> None:
    total = sum(math.comb(n_items, s) for s in range(min(k, n_items) + 1))
    if total > limit:
        raise LimitExceeded(f"enumeration of {total} subsets exceeds limit {limit}")


def solve_mvnp_brute(
    mvnp: MvnpInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> tuple[frozenset[int], float]:
    """Best removal set and the resulting s-t distance (may be +inf)."""
    removable = sorted(set(range(mvnp.graph.vertex_count)) - {mvnp.source, mvnp.sink})
    _check_limit(len(removable), mvnp.k, node_limit)
    best_set: frozenset[int] = frozenset()
    best_value = -math.inf
    for subset in _subsets_up_to(removable, mvnp.k):
        keep = set(range(mvnp.graph.vertex_count)) - set(subset)
        sub_arcs = tuple(
            (u, v, t) for u, v, t in mvnp.graph.arcs if u in keep and v in keep
        )
        sub = DirectedGraph(vertex_count=mvnp.graph.vertex_count, arcs=sub_arcs)
        value = single_source_distances(sub, mvnp.source)[mvnp.sink]
        if value > best_value:
            best_value = value
            best_set = frozenset(subset)
    return best_set, best_value


def decide_mvnp(mvnp: MvnpInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> bool:
    _, value = solve_mvnp_brute(mvnp, node_limit)
    return value >= mvnp.h


def decide_wsp_brute(
    instance: WspInstance, budget: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> bool:
    """Exhaustive decision: some feasible allocation burns at most budget
    vertices before the horizon."""
    from wsptools.solvers import SearchLimits, brute_force

    result = brute_force(instance, SearchLimits(max_nodes=node_limit))
    return result.objective <= budget


def decide_wwsp_brute(
    instance: WwspInstance, budget: float, node_limit: int = DEFAULT_NODE_LIMIT
) -> bool:
    allowed = sorted(set(range(instance.graph.vertex_count)) - instance.forbidden)
    _check_limit(len(allowed), instance.k, node_limit)
    for subset in _subsets_up_to(allowed, instance.k):
        alloc = Allocation(tuple((i, v) for i, v in enumerate(subset)))
        if evaluate_wwsp(instance, alloc) <= budget:
            return True
    return False


def decide_hwsp_brute(
    instance: HwspInstance, threshold: float, node_limit: int = DEFAULT_NODE_LIMIT
) -> bool:
    vertices = sorted(range(instance.graph.vertex_count))
    _check_limit(len(vertices), instance.k, node_limit)
    for subset in _subsets_up_to(vertices, instance.k):
        alloc = Allocation(tuple((i, v) for i, v in enumerate(subset)))
        if evaluate_hwsp(instance, alloc) >= threshold:
            return True
    return False


def verify_reductions(mvnp: MvnpInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> dict:
    """Decision answers across all reductions for one interdiction
    instance; 'agree' is true iff all four coincide."""
    answer = decide_mvnp(mvnp, node_limit)
    wsp, wsp_budget = mvnp_to_wsp(mvnp)
    wwsp, wwsp_budget = mvnp_to_wwsp(mvnp)
    hwsp, hwsp_threshold = mvnp_to_hwsp(mvnp)
    answers = {
        "mvnp": answer,
        "wsp": decide_wsp_brute(wsp, wsp_budget, node_limit),
        "wwsp": decide_wwsp_brute(wwsp, wwsp_budget, node_limit),
        "hwsp": decide_hwsp_brute(hwsp, hwsp_threshold, node_limit),
    }
    answers["agree"] = len(set(answers.values())) == 1
    return answers
