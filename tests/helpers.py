"""Builders and readers shared by the tests.

Random WSP instances, allocations and grids build on
`wsptools.testkit.random_digraph`, the graph distribution the
reduction-verification command also draws from.  The assignment helpers
at the end read a linear model against an allocation, for the tests that
cross-check `wsptools.mip` with the solvers.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

import numpy as np

from wsptools.core import (
    EMPTY_ALLOCATION,
    Allocation,
    DirectedGraph,
    StructuralError,
    WspInstance,
    check_feasibility,
    compute_arrival_times,
)
from wsptools.mip import EQ, GE, LE, LinearModel, _arrival_upper_bound, _vname
from wsptools.solvers import SolverResult, perimeter_candidates
from wsptools.testkit import random_digraph


def random_wsp_instance(rng: np.random.Generator, max_vertices: int = 60) -> WspInstance:
    graph = random_digraph(rng, max_vertices)
    horizon = float(rng.uniform(5.0, 50.0))
    n_points = int(rng.integers(0, 4))
    times = sorted(float(t) for t in rng.uniform(0.1, horizon, size=n_points))
    times = sorted(set(times))
    schedule = tuple((t, int(rng.integers(1, 4))) for t in times)
    return WspInstance(
        graph=graph,
        ignition=int(rng.integers(0, graph.vertex_count)),
        horizon=horizon,
        delay=float(rng.uniform(0.0, horizon)),
        schedule=schedule,
    )


def random_allocation(rng: np.random.Generator, instance: WspInstance) -> Allocation:
    """Random injective assignment; not necessarily feasible."""
    k = instance.total_resources
    if k == 0:
        return Allocation(())
    n = instance.graph.vertex_count
    size = int(rng.integers(0, min(k, n) + 1))
    vertices = rng.choice(n, size=size, replace=False)
    resources = rng.choice(k, size=size, replace=False)
    return Allocation(tuple(zip(sorted(int(r) for r in resources), (int(v) for v in vertices))))


def random_grid_instance(
    rng: np.random.Generator,
    side: int = 4,
    schedule_spec=((2.0, 1), (4.0, 1)),
    horizon: float = 10.0,
    delay: float = 5.0,
) -> WspInstance:
    """Small 4-neighbor grid with random arc times, ignition at a corner."""
    arcs = []
    for y in range(side):
        for x in range(side):
            u = y * side + x
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if 0 <= nx < side and 0 <= ny < side:
                    arcs.append((u, ny * side + nx, float(rng.uniform(0.5, 3.0))))
    graph = DirectedGraph(vertex_count=side * side, arcs=tuple(arcs))
    return WspInstance(graph=graph, ignition=0, horizon=horizon, delay=delay,
                       schedule=tuple(schedule_spec))


def profile_value(curve, tau: float) -> float:
    """P(tau) of a performance-profile step curve: the fraction at the last
    breakpoint at or below tau, 0 before the first."""
    return max((p for point, p in curve.breakpoints if point <= tau), default=0.0)


def child_by_child_beam(instance: WspInstance, beam_width, expansions_per_node):
    """beam_search as it was before siblings shared their prefixes: each
    child is repaired from its parent's outcome in one step.  Returns the
    result and the final level's (key, allocation, outcome) nodes."""
    if beam_width < 1 or expansions_per_node < 1:
        raise ValueError("beam_width and expansions_per_node must be at least 1")

    schedule, horizon = instance.schedule, instance.horizon
    times = [t for t, _ in schedule] + [horizon]
    expansions = int(expansions_per_node) if math.isfinite(expansions_per_node) else None
    root = compute_arrival_times(instance, EMPTY_ALLOCATION)
    beam = [((root.burned_count(horizon), root.burned_count(times[0]), ()), EMPTY_ALLOCATION, root)]
    for level, ((release_time, count), first) in enumerate(zip(schedule, instance.first_resources)):
        next_time = times[level + 1]
        limit = None if expansions is None else count - 1 + expansions
        children = []
        for _, alloc, outcome in beam:
            candidates = perimeter_candidates(instance, alloc, release_time, outcome, limit)
            take = min(count, len(candidates))
            if take == 0:
                # the node goes on, ranked at this level's next time like its siblings
                key = (outcome.burned_count(horizon), outcome.burned_count(next_time),
                       tuple(sorted(v for _, v in alloc.assignments)))
                children.append((key, alloc, outcome))
                continue
            combos = itertools.combinations(candidates, take)
            if expansions is not None:
                combos = itertools.islice(combos, expansions)
            for combo in combos:
                child = alloc.extended([(first + i, v) for i, v in enumerate(combo)])
                child_outcome = compute_arrival_times(instance, child, parent=(alloc, outcome))
                key = (
                    child_outcome.burned_count(horizon),
                    child_outcome.burned_count(next_time),
                    tuple(sorted(v for _, v in child.assignments)),
                )
                children.append((key, child, child_outcome))
        children.sort(key=itemgetter(0))
        if math.isfinite(beam_width):
            children = children[: int(beam_width)]
        beam = children

    key, best, _ = min(beam, key=itemgetter(0))
    return SolverResult(best, key[0]), beam


FEASIBILITY_TOL = 1e-6


def allocation_to_assignment(instance: WspInstance, alloc: Allocation) -> dict[str, float]:
    """Variable assignment induced by a feasible allocation.

    r_iv follows the allocation, a_v the computed arrival times (clamped
    to the variable upper bound for unreachable vertices), and y_v marks
    arrival before the horizon.
    """
    violations = check_feasibility(instance, alloc)
    if violations:
        raise StructuralError(f"allocation infeasible: {violations[0].reason}")
    n = instance.graph.vertex_count
    T = len(instance.schedule)
    outcome = compute_arrival_times(instance, alloc)
    a_upper = _arrival_upper_bound(instance)

    assignment: dict[str, float] = {}
    for v in range(n):
        a = outcome.arrival[v]
        assignment[_vname("a", v)] = min(a, a_upper)
        assignment[_vname("y", v)] = 1.0 if a < instance.horizon else 0.0
    for i in range(T):
        for v in range(n):
            assignment[_vname("r", i, v)] = 0.0
    for resource, vertex in alloc.assignments:
        point = instance.release_point_of(resource)
        assignment[_vname("r", point, vertex)] = 1.0
    return assignment


def validate_assignment(
    model: LinearModel, assignment: dict[str, float], tol: float = FEASIBILITY_TOL
) -> list[tuple[str, float]]:
    """Violated constraints with residuals; empty iff feasible within tol.

    The residual is the amount by which the constraint is violated
    (always positive for reported entries).  Variable bounds are checked
    as pseudo-constraints named bound:<var>.
    """
    missing = [v.name for v in model.variables if v.name not in assignment]
    if missing:
        raise StructuralError(f"assignment missing variables: {missing[:5]}")
    violated: list[tuple[str, float]] = []
    for v in model.variables:
        x = assignment[v.name]
        if x < v.lower - tol:
            violated.append((f"bound:{v.name}", v.lower - x))
        elif x > v.upper + tol:
            violated.append((f"bound:{v.name}", x - v.upper))
    for c in model.constraints:
        value = math.fsum(coef * assignment[var] for coef, var in c.terms)
        if c.sense == LE:
            residual = value - c.rhs
        elif c.sense == GE:
            residual = c.rhs - value
        else:
            residual = abs(value - c.rhs)
        if residual > tol:
            violated.append((c.name, residual))
    return violated


def evaluate_objective(model: LinearModel, assignment: dict[str, float]) -> float:
    return math.fsum(coef * assignment[var] for coef, var in model.objective_terms)
