"""Random instance builders for verification and testing.

Shared by the reduction-verification command and the test suite so both
exercise the same distribution of small instances.
"""

from __future__ import annotations

import numpy as np

from wsptools.core import DirectedGraph
from wsptools.reductions import MvnpInstance


def random_digraph(rng: np.random.Generator, max_vertices: int = 60, arc_prob: float = 0.3,
                   max_cost: float = 10.0, integer_costs: bool = False) -> DirectedGraph:
    n = int(rng.integers(2, max_vertices + 1))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < arc_prob:
                if integer_costs:
                    cost = float(rng.integers(1, int(max_cost) + 1))
                else:
                    cost = float(rng.uniform(0.1, max_cost))
                arcs.append((u, v, cost))
    return DirectedGraph(vertex_count=n, arcs=tuple(arcs))


def random_mvnp_instance(
    rng: np.random.Generator,
    max_vertices: int = 7,
    max_k: int = 2,
    max_cost: int = 5,
) -> MvnpInstance:
    """Small interdiction instance with integer costs and a guaranteed
    source-to-sink arc set (the sink may still be unreachable).  Graphs
    of fewer than 3 vertices are redrawn, so max_vertices must be at
    least 3."""
    if max_vertices < 3:
        raise ValueError(f"max_vertices must be at least 3, got {max_vertices}")
    while True:
        graph = random_digraph(
            rng, max_vertices=max_vertices, arc_prob=0.4, max_cost=max_cost, integer_costs=True
        )
        n = graph.vertex_count
        if n < 3:
            continue
        source, sink = 0, n - 1
        # the timed reduction needs an arc out of the source that survives
        # sink removal
        if not any(u == source and v != sink for u, v, _ in graph.arcs):
            continue
        k = int(rng.integers(0, max_k + 1))
        h = float(rng.integers(1, 3 * max_cost))
        return MvnpInstance(graph=graph, source=source, sink=sink, k=k, h=h)
