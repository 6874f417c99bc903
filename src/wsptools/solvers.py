"""Baseline and heuristic solvers plus an exhaustive exact solver.

All solvers build allocations incrementally across release times, always
choosing vertices that are unburned under the current partial allocation,
so every returned allocation is feasible by construction.  Runs are
deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from wsptools.core import (
    EMPTY_ALLOCATION,
    Allocation,
    DirectedGraph,
    FireOutcome,
    WspInstance,
    _float,
    compute_arrival_times,
)


MAX_NODES = 2_000_000


class LimitExceeded(RuntimeError):
    """Search-space estimate above the configured node limit."""


def subsets_up_to(items, k: int):
    """Every subset of items with at most k elements, as tuples: the empty
    set first, then each size in itertools.combinations order."""
    for size in range(min(k, len(items)) + 1):
        yield from itertools.combinations(items, size)


def cost_changing(graph: DirectedGraph, delays: dict[int, float]) -> list[int]:
    """The vertices of delays, in its order, whose protection can change an
    arc cost: those with out-arcs and a positive delay.

    delays maps a vertex to its delay, as in core.fire_arrivals.  Any other
    protection leaves every arrival's bits as they are without it ((d + t)
    + 0.0 is d + t, and a vertex without out-arcs relaxes nothing), and
    subsets_up_to yields that smaller set first.  So a search over
    subsets_up_to of these vertices that keeps the first best, by a strict
    comparison, returns what a search over every vertex would.
    """
    out_arcs = graph.out_arcs
    return [v for v, d in delays.items() if d > 0 and out_arcs[v]]


def check_search_space(n: int, counts, max_nodes: int) -> None:
    """Refuse an exhaustive search that picks up to count of n items at
    each level: the estimate, the product over levels of the number of
    subsets of at most count items, must not exceed max_nodes."""
    if not max_nodes >= 1:  # NaN included
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    estimate = math.prod(sum(math.comb(n, s) for s in range(min(k, n) + 1)) for k in counts)
    if estimate > max_nodes:
        # an exact integer; past the float range it prints as inf
        shown = f"{estimate:.3g}" if estimate < 1e308 else "inf"
        raise LimitExceeded(f"search-space estimate {shown} exceeds limit {max_nodes}")


def protection_sets(graph: DirectedGraph, delays: dict[int, float], k: int):
    """The protection sets an exhaustive search over delays tries: the
    subsets_up_to k of its cost_changing vertices, the empty set first.

    Refuses when called, before the first set, by check_search_space over
    those vertices with the limit MAX_NODES as it is at the call.
    """
    useful = cost_changing(graph, delays)
    check_search_space(len(useful), [k], MAX_NODES)
    return subsets_up_to(useful, k)


@dataclass(frozen=True)
class SolverBudget:
    """Every work bound of the solvers, with its default.

    rs stops after max_seconds or max_iterations, whichever comes first,
    and runs 1000 iterations when neither is set; beam reads beam_width
    and expansions, exact reads max_nodes.
    """

    max_seconds: float | None = None
    max_iterations: int | None = None
    beam_width: int | float = 32
    expansions: int | float = 16
    max_nodes: int = MAX_NODES

    def __post_init__(self):
        if self.max_seconds is None and self.max_iterations is None:
            object.__setattr__(self, "max_iterations", 1000)
        if self.max_seconds is not None and not (
            math.isfinite(self.max_seconds) and self.max_seconds > 0
        ):
            raise ValueError(f"max_seconds must be positive and finite, got {self.max_seconds}")
        if self.max_iterations is not None and not self.max_iterations > 0:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        beam_width = _float(self.beam_width, "beam_width")  # names an int past float range
        if math.isnan(beam_width) or math.isnan(_float(self.expansions, "expansions")):
            raise ValueError("beam_width and expansions must not be NaN")


@dataclass(frozen=True)
class SolverResult:
    allocation: Allocation
    objective: int


def random_search(instance: WspInstance, budget: SolverBudget, seed: int = 0) -> SolverResult:
    """Repeatedly build random incremental allocations, keep the best.

    Per iteration: start from the empty allocation; at each release time
    draw the released resources uniformly without replacement from the
    vertices that are neither burned (under the current partial
    allocation) nor already protected.
    """
    rng = np.random.default_rng(seed)
    horizon = instance.horizon
    empty_outcome = compute_arrival_times(instance, EMPTY_ALLOCATION)
    best_alloc, best_obj = EMPTY_ALLOCATION, empty_outcome.burned_count(horizon)
    start = time.monotonic()
    iterations = 0
    while True:
        if budget.max_iterations is not None and iterations >= budget.max_iterations:
            break
        if budget.max_seconds is not None and time.monotonic() - start >= budget.max_seconds:
            break
        iterations += 1
        alloc, outcome = EMPTY_ALLOCATION, empty_outcome
        candidates = range(instance.graph.vertex_count)
        for (t, count), first in zip(instance.schedule, instance.first_resources):
            # Filter the previous level's open list: that level protected only
            # vertices of arrival >= its time, so every earlier arrival keeps
            # its bits (delays only raise arrivals) and burned stays burned.
            arrival, protected = outcome.arrival, alloc.protected
            candidates = [v for v in candidates if arrival[v] >= t and v not in protected]
            take = min(count, len(candidates))
            if take == 0:
                continue
            chosen = rng.choice(len(candidates), size=take, replace=False)
            pairs = [(first + i, candidates[c]) for i, c in enumerate(sorted(chosen.tolist()))]
            alloc = alloc.extended(pairs)
            outcome = compute_arrival_times(instance, alloc, parent=outcome)
        obj = outcome.burned_count(horizon)
        if obj < best_obj:
            best_alloc, best_obj = alloc, obj
    return SolverResult(best_alloc, best_obj)


def _fire_state(out_arcs, arrival, t: float, fire=None) -> tuple[list[int], set[int]]:
    """(open, front) at time t: the vertices of arrival >= t in id order
    (protected ones too: they still burn and spread) and the set of them
    with an in-neighbor of arrival < t.  fire, if given, is this state at
    an earlier time t' under arrivals that burn the same vertices before
    t'; only its open vertices are filtered, and the out-neighbors of
    those that burned since join its front.
    """
    open_, front = fire or (range(len(arrival)), ())
    front = {v for v in front if arrival[v] >= t}
    front |= {x for u in open_ if arrival[u] < t for _, x, _ in out_arcs[u] if arrival[x] >= t}
    return [v for v in open_ if arrival[v] >= t], front


def perimeter_candidates(
    instance: WspInstance,
    partial_alloc: Allocation,
    t: float,
    outcome: FireOutcome,
    limit: int | None = None,
    fire: tuple[list[int], set[int]] | None = None,
) -> list[int]:
    """Feasible protection targets at release time t, fire-perimeter first.

    Returns the unburned, unprotected, non-ignition vertices ordered by
    (has a burned in-neighbor, earlier arrival, lower id), or the first
    limit of them; the vertices off the fire front are sorted only when it
    holds fewer than limit.  outcome must be the arrival times under
    partial_alloc, and fire, if given, its _fire_state at t, else built.
    """
    arrival = outcome.arrival
    open_, front = fire or _fire_state(instance.graph.out_arcs, arrival, t)
    closed = partial_alloc.protected | {instance.ignition}
    ranked = sorted((arrival[v], v) for v in front if v not in closed)
    if limit is None or len(ranked) < limit:
        ranked += sorted((arrival[v], v) for v in open_ if v not in front and v not in closed)
    return [v for _, v in ranked[:limit]]


def beam_search(
    instance: WspInstance,
    beam_width: int | float = SolverBudget.beam_width,
    expansions_per_node: int | float = SolverBudget.expansions,
) -> SolverResult:
    """Level-by-level beam over release times.

    Each node holds a partial allocation; children assign the level's
    resources to combinations of the top perimeter candidates, and a node
    without any goes on through the one, empty, combination.  Children
    are ranked by the horizon objective, ties by fewer burned vertices at
    the level's next release time (the horizon after the last level),
    then by the lexicographically smallest allocation.  beam_width and
    expansions_per_node may be math.inf for exhaustive behavior.

    Every allocation is evaluated once, when it is created: each prefix of
    a node's combinations is repaired once, from the prefix one shorter,
    and kept by its prefix tuple for the siblings that share it.  A node
    carries its rank key, fire outcome and the _fire_state it advances
    from; its burned counts are its prefix's plus the repair's change.
    """
    if not (beam_width >= 1 and expansions_per_node >= 1):
        raise ValueError("beam_width and expansions_per_node must be at least 1")

    schedule, horizon = instance.schedule, instance.horizon
    expansions = int(expansions_per_node) if math.isfinite(expansions_per_node) else None
    root = compute_arrival_times(instance, EMPTY_ALLOCATION)
    # a key's counts are at H and at the release after the level that made it
    # (H after the last); the root's second count is read only without levels
    burned = root.burned_count(horizon)
    beam = [((burned, burned, ()), EMPTY_ALLOCATION, root, None)]
    next_times = [t for t, _ in schedule[1:]] + [horizon]
    for (release_time, count), first, next_time in zip(schedule, instance.first_resources,
                                                        next_times):
        # the first e combinations of k candidates draw on the first k - 1 + e only
        limit = None if expansions is None else count - 1 + expansions
        children = []
        for key, alloc, outcome, fire in beam:
            # a level protects only vertices of arrival >= its time, so before the
            # parent's level a node burns what its parent burns: its state advances
            arrival = outcome.arrival
            fire = _fire_state(instance.graph.out_arcs, arrival, release_time, fire)
            candidates = perimeter_candidates(instance, alloc, release_time, outcome, limit,
                                              fire=fire)
            # without candidates the one combination is empty: the node goes on re-keyed
            combos = itertools.combinations(candidates, min(count, len(candidates)))
            burned_next = len(arrival) - len([v for v in fire[0] if arrival[v] >= next_time])
            # prefix -> (burned at H, burned at next_time, allocation, outcome),
            # each repaired once from the prefix one shorter and shared by siblings
            prefixes = {(): (key[0], burned_next, alloc, outcome)}
            for combo in itertools.islice(combos, expansions):
                for size, v in enumerate(combo):
                    if combo[: size + 1] in prefixes:
                        continue
                    burned_h, burned_next, p_alloc, p_outcome = prefixes[combo[:size]]
                    node = p_alloc.extended([(first + size, v)])
                    node_outcome = compute_arrival_times(instance, node, parent=p_outcome)
                    old, new = p_outcome.arrival, node_outcome.arrival
                    for u in node_outcome.changed:
                        burned_h += (new[u] < horizon) - (old[u] < horizon)
                        burned_next += (new[u] < next_time) - (old[u] < next_time)
                    prefixes[combo[: size + 1]] = (burned_h, burned_next, node, node_outcome)
                burned_h, burned_next, node, node_outcome = prefixes[combo]
                vertices = tuple(sorted(v for _, v in node.assignments))
                children.append(((burned_h, burned_next, vertices), node, node_outcome, fire))
        children.sort(key=itemgetter(0))
        if math.isfinite(beam_width):
            children = children[: int(beam_width)]
        beam = children

    key, best, _ = min([node[:3] for node in beam], key=itemgetter(0))
    return SolverResult(best, key[0])


def _leaves(instance: WspInstance, useful: list[int], levels, alloc: Allocation,
            outcome: FireOutcome):
    """Yield (allocation, outcome) for every complete allocation that
    extends alloc, whose outcome is given, over levels: at each level
    every subset of the open useful vertices up to the released count, in
    subsets_up_to order.  Placing nothing keeps the allocation and its
    outcome; a new allocation is scored by a full kernel run."""
    if not levels:
        yield alloc, outcome
        return
    ((release_time, count), first), rest = levels[0], levels[1:]
    # every open useful vertex: the oracle does not rely on the level filter of rs and beam
    arrival = outcome.arrival
    candidates = [v for v in useful if arrival[v] >= release_time and v not in alloc.protected]
    for combo in subsets_up_to(candidates, count):
        if not combo:
            yield from _leaves(instance, useful, rest, alloc, outcome)
            continue
        child = alloc.extended([(first + i, v) for i, v in enumerate(combo)])
        yield from _leaves(instance, useful, rest, child, compute_arrival_times(instance, child))


def complete_allocations(instance: WspInstance, max_nodes: int = MAX_NODES):
    """The _leaves of instance from the empty allocation over its
    cost_changing vertices and every release level, deliberately unused
    resources included.  Full kernel runs, not repairs, keep this oracle
    apart from the repair it checks.  Refuses when called, before the
    first leaf, when check_search_space over those vertices exceeds
    max_nodes."""
    graph = instance.graph
    useful = cost_changing(graph, dict.fromkeys(range(graph.vertex_count), instance.delay))
    check_search_space(len(useful), [count for _, count in instance.schedule], max_nodes)
    root = compute_arrival_times(instance, EMPTY_ALLOCATION)
    levels = list(zip(instance.schedule, instance.first_resources))
    return _leaves(instance, useful, levels, EMPTY_ALLOCATION, root)


def brute_force(instance: WspInstance, max_nodes: int = MAX_NODES) -> SolverResult:
    """Provably optimal allocation: the first of complete_allocations, in
    its order, that burns the fewest vertices before the horizon."""
    horizon = instance.horizon
    leaves = complete_allocations(instance, max_nodes)
    best, outcome = min(leaves, key=lambda leaf: leaf[1].burned_count(horizon))
    return SolverResult(best, outcome.burned_count(horizon))


# name -> (instance, budget, seed) -> SolverResult.  Each entry looks its
# solver up as a module global when called, so a wrapper installed on the
# module attribute sees every run.
SOLVERS = {
    "rs": lambda instance, budget, seed: random_search(instance, budget, seed),
    "beam": lambda instance, budget, seed: beam_search(
        instance, budget.beam_width, budget.expansions
    ),
    "exact": lambda instance, budget, seed: brute_force(instance, budget.max_nodes),
}
