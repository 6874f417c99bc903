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
    FireOutcome,
    WspInstance,
    compute_arrival_times,
)


class LimitExceeded(RuntimeError):
    """Search-space estimate above the configured node limit."""


@dataclass(frozen=True)
class SolverBudget:
    """Stop after max_seconds or max_iterations, whichever comes first."""

    max_seconds: float | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if self.max_seconds is None and self.max_iterations is None:
            raise ValueError("at least one budget bound must be set")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class SolverResult:
    allocation: Allocation
    objective: int


def _objective(instance: WspInstance, alloc: Allocation) -> int:
    return compute_arrival_times(instance, alloc).burned_count(instance.horizon)


def random_search(instance: WspInstance, budget: SolverBudget, seed: int = 0) -> SolverResult:
    """Repeatedly build random incremental allocations, keep the best.

    Per iteration: start from the empty allocation; at each release time
    draw the released resources uniformly without replacement from the
    vertices that are neither burned (under the current partial
    allocation) nor already protected.
    """
    rng = np.random.default_rng(seed)
    empty_outcome = compute_arrival_times(instance, EMPTY_ALLOCATION)
    best_alloc = EMPTY_ALLOCATION
    best_obj = empty_outcome.burned_count(instance.horizon)
    start = time.monotonic()
    iterations = 0
    while True:
        if budget.max_iterations is not None and iterations >= budget.max_iterations:
            break
        if budget.max_seconds is not None and time.monotonic() - start >= budget.max_seconds:
            break
        iterations += 1
        alloc, outcome = EMPTY_ALLOCATION, empty_outcome
        resource = 0
        for release_time, count in instance.schedule:
            candidates = [
                v
                for v in range(instance.graph.vertex_count)
                if outcome.arrival[v] >= release_time and v not in alloc.protected
            ]
            take = min(count, len(candidates))
            if take == 0:
                resource += count
                continue
            chosen = rng.choice(len(candidates), size=take, replace=False)
            pairs = []
            for offset in sorted(chosen.tolist()):
                pairs.append((resource, candidates[offset]))
                resource += 1
            resource += max(0, count - len(pairs))  # unplaceable resources stay unused
            alloc = alloc.extended(pairs)
            outcome = compute_arrival_times(instance, alloc)
        obj = outcome.burned_count(instance.horizon)
        if obj < best_obj:
            best_obj = obj
            best_alloc = alloc
    return SolverResult(best_alloc, best_obj)


def perimeter_candidates(
    instance: WspInstance,
    partial_alloc: Allocation,
    t: float,
    outcome: FireOutcome | None = None,
) -> list[int]:
    """Feasible protection targets at release time t, fire-perimeter first.

    Returns the unburned, unprotected, non-ignition vertices ordered by
    (has a burned in-neighbor, earlier arrival, lower id).  outcome, if
    given, must be the arrival times under partial_alloc.
    """
    if outcome is None:
        outcome = compute_arrival_times(instance, partial_alloc)
    arrival = outcome.arrival
    out_arcs = instance.graph.out_arcs
    near_fire = {head for u, a in enumerate(arrival) if a < t for _, head, _ in out_arcs[u]}
    protected = partial_alloc.protected
    candidates = [
        v
        for v in range(instance.graph.vertex_count)
        if arrival[v] >= t and v not in protected and v != instance.ignition
    ]
    candidates.sort(key=lambda v: (0 if v in near_fire else 1, arrival[v], v))
    return candidates


def beam_search(
    instance: WspInstance,
    beam_width: int | float = 32,
    expansions_per_node: int | float = 16,
    seed: int = 0,
) -> SolverResult:
    """Level-by-level beam over release times.

    Each node holds a partial allocation; children assign the level's
    resources to combinations of the top perimeter candidates.  Nodes are
    ranked by the horizon objective of the partial allocation, ties by
    fewer burned vertices at the next release time, then by the
    lexicographically smallest allocation.  beam_width and
    expansions_per_node may be math.inf for exhaustive behavior.

    Every allocation is evaluated once, when it is created; a node
    carries its rank key and fire outcome to the next level.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    del seed  # beam search is deterministic; kept for a uniform solver signature

    release_times = instance.release_times()
    resource_release = [t for t, count in instance.schedule for _ in range(count)]

    def node(alloc: Allocation) -> tuple[tuple, Allocation, FireOutcome]:
        outcome = compute_arrival_times(instance, alloc)
        burned_h = outcome.burned_count(instance.horizon)
        assigned = max((resource_release[r] for r, _ in alloc.assignments), default=0.0)
        next_t = next((rt for rt in release_times if rt > 0 and rt > assigned), None)
        burned_next = outcome.burned_count(next_t) if next_t is not None else burned_h
        key_alloc = tuple(sorted(v for _, v in alloc.assignments))
        return (burned_h, burned_next, key_alloc), alloc, outcome

    beam = [node(EMPTY_ALLOCATION)]
    resource = 0
    for release_time, count in instance.schedule:
        children = []
        for parent in beam:
            _, alloc, outcome = parent
            candidates = perimeter_candidates(instance, alloc, release_time, outcome)
            take = min(count, len(candidates))
            if take == 0:
                children.append(parent)
                continue
            combos = itertools.combinations(candidates, take)
            if math.isfinite(expansions_per_node):
                combos = itertools.islice(combos, int(expansions_per_node))
            for combo in combos:
                pairs = [(resource + i, v) for i, v in enumerate(combo)]
                children.append(node(alloc.extended(pairs)))
        resource += count
        children.sort(key=itemgetter(0))
        if math.isfinite(beam_width):
            children = children[: int(beam_width)]
        beam = children

    key, best, _ = min(beam, key=itemgetter(0))
    return SolverResult(best, key[0])


@dataclass(frozen=True)
class SearchLimits:
    max_nodes: int = 2_000_000


def _search_space_estimate(instance: WspInstance) -> float:
    n = instance.graph.vertex_count
    estimate = 1.0
    for _, count in instance.schedule:
        level = sum(math.comb(n, s) for s in range(count + 1))
        estimate *= level
    return estimate


def brute_force(instance: WspInstance, limits: SearchLimits = SearchLimits()) -> SolverResult:
    """Provably optimal allocation by exhaustive incremental enumeration.

    At each release time every subset of the feasible candidates up to
    the released count is tried, so deliberately unused resources are
    covered.  Refuses with the size estimate when the search space
    exceeds limits.max_nodes.
    """
    estimate = _search_space_estimate(instance)
    if estimate > limits.max_nodes:
        raise LimitExceeded(
            f"search-space estimate {estimate:.3g} exceeds limit {limits.max_nodes}"
        )

    best_alloc = EMPTY_ALLOCATION
    best_obj = _objective(instance, best_alloc)
    schedule = instance.schedule
    offsets = [0]
    for _, count in schedule:
        offsets.append(offsets[-1] + count)

    def recurse(level: int, alloc: Allocation):
        nonlocal best_alloc, best_obj
        if level == len(schedule):
            obj = _objective(instance, alloc)
            if obj < best_obj:
                best_obj = obj
                best_alloc = alloc
            return
        release_time, count = schedule[level]
        outcome = compute_arrival_times(instance, alloc)
        candidates = [
            v
            for v in range(instance.graph.vertex_count)
            if outcome.arrival[v] >= release_time and v not in alloc.protected
        ]
        base = offsets[level]
        for size in range(min(count, len(candidates)) + 1):
            for combo in itertools.combinations(candidates, size):
                pairs = [(base + i, v) for i, v in enumerate(combo)]
                recurse(level + 1, alloc.extended(pairs))

    recurse(0, EMPTY_ALLOCATION)
    return SolverResult(best_alloc, best_obj)
