"""Constructive hardness reductions and small-instance decision oracles.

Transforms a most-vital-nodes interdiction instance into equivalent
suppression instances (timed, weighted, and homogeneous-cost variants),
and provides exhaustive evaluators to verify the equivalences on small
graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from wsptools import solvers
from wsptools.core import (
    DirectedGraph,
    StructuralError,
    WspInstance,
    _vertex,
    fire_arrivals,
    single_source_distances,
)


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
        _vertex(self.source, self.graph.vertex_count, "source")
        _vertex(self.sink, self.graph.vertex_count, "sink")
        if self.source == self.sink:
            raise StructuralError("source and sink must differ")
        if self.k < 0 or not self.h > 0:
            raise StructuralError("require k >= 0 and h > 0")
        if not math.isfinite(self.h):
            raise StructuralError(f"h must be finite, got {self.h}")


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

    def __post_init__(self):
        n = self.graph.vertex_count
        _vertex(self.ignition, n, "ignition vertex")
        if len(self.weights) != n:
            raise StructuralError(
                f"weights must have one entry per vertex ({n}), got {len(self.weights)}"
            )
        if not all(math.isfinite(w) for w in self.weights):
            raise StructuralError("weights must be finite")
        if self.k < 0:
            raise StructuralError(f"k must be nonnegative, got {self.k}")
        if not self.delay >= 0:  # NaN included
            raise StructuralError(f"delay must be nonnegative, got {self.delay}")
        if not self.horizon > 0:
            raise StructuralError(f"horizon must be positive, got {self.horizon}")


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
        n = self.graph.vertex_count
        for u, arcs in enumerate(self.graph.out_arcs):
            if len({t for _, _, t in arcs}) > 1:
                raise StructuralError(f"vertex {u} has heterogeneous outgoing arc costs")
        _vertex(self.ignition, n, "ignition vertex")
        if not self.targets:
            raise StructuralError("at least one target vertex required")
        for v in self.targets:
            _vertex(v, n, "target")
        if self.k < 0:
            raise StructuralError(f"k must be nonnegative, got {self.k}")
        if len(self.vertex_delays) != n:
            raise StructuralError("vertex delay vector length mismatch")
        if not all(d >= 0 for d in self.vertex_delays):  # NaN included
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
    # (u, cost) of each arc into the sink that is short, in order of u
    short_preds = [(u, cost) for u, _, cost in g.in_arcs[t] if dist[u] + cost < mvnp.h]

    def remap(v: int) -> int:
        return v if v < t else v - 1

    n_core = g.vertex_count - 1
    arcs = []
    for u, v, cost in g.arcs:
        if u == t or v == t:
            continue
        arcs.append((remap(u), remap(v), cost))
    leaf = n_core
    for u, cost in short_preds:
        for _ in range(g.vertex_count):
            arcs.append((remap(u), leaf, cost))
            leaf += 1
    new_graph = DirectedGraph(vertex_count=leaf, arcs=tuple(arcs))

    # half the cheapest escape from the source, clamped to the horizon: when
    # even that exceeds h, or no arc is left, no vertex but the source can
    # burn before the horizon and the release time is immaterial
    cheapest = min((cost for _, _, cost in new_graph.out_arcs[remap(s)]), default=math.inf)
    release = min(cheapest / 2.0, mvnp.h)
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
    preserved.  Returns the new graph and the set of auxiliary ids; a
    graph without arcs comes back equal, with no auxiliary vertex."""
    eps = min((t for _, _, t in graph.arcs), default=0.0)
    n, m = graph.vertex_count, len(graph.arcs)  # arc i goes through vertex n + i
    arcs = [arc for aux, (u, v, t) in enumerate(graph.arcs, n)
            for arc in ((u, aux, eps / 2.0), (aux, v, t - eps / 2.0))]
    return DirectedGraph(vertex_count=n + m, arcs=tuple(arcs)), frozenset(range(n, n + m))


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


def evaluate_wwsp(instance: WwspInstance, protected) -> float:
    """Weighted burned value with the given vertices protected (resources
    at t = 0)."""
    protected = frozenset(protected)
    bad = protected & instance.forbidden
    if bad:
        raise StructuralError(f"allocation protects forbidden vertices {sorted(bad)}")
    if len(protected) > instance.k:
        raise StructuralError("allocation exceeds the resource budget")
    delays = dict.fromkeys(protected, instance.delay)
    outcome = fire_arrivals(instance.graph, instance.ignition, delays)
    return math.fsum(
        instance.weights[v] for v, a in enumerate(outcome.arrival) if a < instance.horizon
    )


def evaluate_hwsp(instance: HwspInstance, protected) -> float:
    """Earliest fire arrival among the targets with the given vertices
    protected."""
    protected = frozenset(protected)
    if len(protected) > instance.k:
        raise StructuralError("allocation exceeds the resource budget")
    for v in protected:
        _vertex(v, instance.graph.vertex_count, "protected vertex")
    delays = {v: instance.vertex_delays[v] for v in protected}
    outcome = fire_arrivals(instance.graph, instance.ignition, delays)
    return min(outcome.arrival[v] for v in instance.targets)


# ---------------------------------------------------------------------------
# Exhaustive oracles: each refuses a search above solvers.MAX_NODES, read
# when it is called, so patching that one constant moves every refusal


def removal_distances(mvnp: MvnpInstance):
    """(removal set, s-t distance) for each protection_sets removal set of
    the vertices but s and t, refusing when called.  An infinite delay on
    a removal set's out-arcs scores it: the s-t distance is then the least
    path cost avoiding it, the same bits as without it, and may be +inf."""
    g, s, t = mvnp.graph, mvnp.source, mvnp.sink
    removable = {v: math.inf for v in range(g.vertex_count) if v not in (s, t)}
    subsets = solvers.protection_sets(g, removable, mvnp.k)
    return ((subset, fire_arrivals(g, s, dict.fromkeys(subset, math.inf)).arrival[t])
            for subset in subsets)


def solve_mvnp_brute(mvnp: MvnpInstance) -> tuple[frozenset[int], float]:
    """The first removal set of removal_distances with the longest s-t
    distance, and that distance."""
    best_set, best_value = max(removal_distances(mvnp), key=lambda pair: pair[1])
    return frozenset(best_set), best_value


def decide_mvnp(mvnp: MvnpInstance) -> bool:
    return any(value >= mvnp.h for _, value in removal_distances(mvnp))


def decide_wsp_brute(instance: WspInstance, budget: int) -> bool:
    """Exhaustive decision: some feasible allocation burns at most budget
    vertices before the horizon."""
    # complete_allocations' default limit was bound when it was defined
    leaves = solvers.complete_allocations(instance, solvers.MAX_NODES)
    return any(outcome.burned_count(instance.horizon) <= budget for _, outcome in leaves)


def decide_wwsp_brute(instance: WwspInstance, budget: float) -> bool:
    n, forbidden = instance.graph.vertex_count, instance.forbidden
    delays = {v: instance.delay for v in range(n) if v not in forbidden}
    subsets = solvers.protection_sets(instance.graph, delays, instance.k)
    return any(evaluate_wwsp(instance, subset) <= budget for subset in subsets)


def decide_hwsp_brute(instance: HwspInstance, threshold: float) -> bool:
    delays = dict(enumerate(instance.vertex_delays))
    subsets = solvers.protection_sets(instance.graph, delays, instance.k)
    return any(evaluate_hwsp(instance, subset) >= threshold for subset in subsets)


def verify_reductions(mvnp: MvnpInstance) -> dict:
    """Decision answers across all reductions for one interdiction
    instance; 'agree' is true iff all four coincide."""
    answer = decide_mvnp(mvnp)
    wsp, wsp_budget = mvnp_to_wsp(mvnp)
    wwsp, wwsp_budget = mvnp_to_wwsp(mvnp)
    hwsp, hwsp_threshold = mvnp_to_hwsp(mvnp)
    answers = {
        "mvnp": answer,
        "wsp": decide_wsp_brute(wsp, wsp_budget),
        "wwsp": decide_wwsp_brute(wwsp, wwsp_budget),
        "hwsp": decide_hwsp_brute(hwsp, hwsp_threshold),
    }
    answers["agree"] = len(set(answers.values())) == 1
    return answers
