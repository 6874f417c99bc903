"""Builders and readers shared by the tests.

Random WSP instances, allocations and grids build on
`wsptools.testkit.random_digraph`, the graph distribution the
reduction-verification command also draws from.
"""

from __future__ import annotations

import numpy as np

from wsptools.core import Allocation, DirectedGraph, WspInstance
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
