"""Random instance builders for verification and testing.

Shared by the reduction-verification command and the test suite so both
exercise the same distribution of small instances.
"""

from __future__ import annotations

import numpy as np

from wsptools.core import DirectedGraph
from wsptools.reductions import MvnpInstance

# random_mvnp_instance's largest max_vertices: its draw is O(n**2) Python steps
MAX_VERTICES = 200


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
    """Small interdiction instance with integer costs, source 0 and
    sink the last vertex (the sink may be unreachable).  One graph is
    drawn per instance, of 2 to max_vertices (at most MAX_VERTICES)."""
    if max_vertices < 2:
        raise ValueError(f"max_vertices must be at least 2, got {max_vertices}")
    if max_vertices > MAX_VERTICES:
        raise ValueError(f"max_vertices must be at most {MAX_VERTICES}, got {max_vertices}")
    graph = random_digraph(
        rng, max_vertices=max_vertices, arc_prob=0.4, max_cost=max_cost, integer_costs=True
    )
    k = int(rng.integers(0, max_k + 1))
    h = float(rng.integers(1, 3 * max_cost))
    return MvnpInstance(graph=graph, source=0, sink=graph.vertex_count - 1, k=k, h=h)
