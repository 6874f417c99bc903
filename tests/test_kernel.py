"""Bitwise regression of the fire-arrival kernel and the solvers on it.

The oracle tests in test_core allow 1e-9, which cannot catch a change in
summation order.  The horizon test is strict and release ties are
allowed, so a last-bit change is observable; these tests demand exact
equality with the kernel as it was first written.
"""

import heapq

import pytest

from wsptools.core import (
    EMPTY_ALLOCATION,
    INF,
    Allocation,
    compute_arrival_times,
)
from wsptools.generator import GeneratorConfig, generate_instance
from wsptools.solvers import SolverBudget, beam_search, random_search
from wsptools.testkit import random_allocation, random_wsp_instance


def reference_arrival_times(instance, alloc=EMPTY_ALLOCATION, vertex_delays=None):
    """The original compute_arrival_times body, adjacency built per call."""
    n = instance.graph.vertex_count
    protected = alloc.protected
    adj = [[] for _ in range(n)]
    for tail, head, time in instance.graph.arcs:
        adj[tail].append((head, time))
    dist = [INF] * n
    dist[instance.ignition] = 0.0
    heap = [(0.0, instance.ignition)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u in protected:
            extra = vertex_delays[u] if vertex_delays is not None else instance.delay
        else:
            extra = 0.0
        for v, t in adj[u]:
            nd = d + t + extra
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return tuple(dist)


@pytest.mark.parametrize("n", [20, 30, 80])
def test_generator_instances_bitwise(n):
    instance = generate_instance(GeneratorConfig(seed=7, n=n))
    rs = random_search(instance, SolverBudget(max_iterations=1), seed=0)
    assert rs.allocation.assignments
    for alloc in (EMPTY_ALLOCATION, rs.allocation):
        assert compute_arrival_times(instance, alloc).arrival == reference_arrival_times(
            instance, alloc
        )


def test_random_instances_bitwise(rng):
    for _ in range(50):
        instance = random_wsp_instance(rng, max_vertices=40)
        alloc = random_allocation(rng, instance)
        delays = [float(d) for d in rng.uniform(0.0, 20.0, size=instance.graph.vertex_count)]
        assert compute_arrival_times(instance, alloc).arrival == reference_arrival_times(
            instance, alloc
        )
        assert compute_arrival_times(instance, alloc, delays).arrival == (
            reference_arrival_times(instance, alloc, delays)
        )


def _vertices(*vertices):
    return Allocation(tuple(enumerate(vertices)))


# (generator seed, rs result, beam result), recorded from the kernel as first written
PINNED = [
    (
        0,
        (_vertices(274, 325, 177, 330, 93, 258, 15, 77, 101, 158,
                   0, 7, 25, 399, 320, 343, 58, 98, 360, 397), 398),
        (_vertices(252, 229, 274, 290, 329, 268, 226, 202, 176, 107,
                   220, 7, 83, 52, 139, 12, 100, 322, 1, 0), 398),
    ),
    (
        1,
        (_vertices(322, 340, 164, 264, 286, 290, 18, 388, 104, 375,
                   61, 376, 180, 303, 161, 377, 262, 382, 240, 396), 395),
        (_vertices(89, 70, 208, 250, 233, 31, 116, 271, 75, 309,
                   179, 310, 267, 164, 43, 142, 200, 163, 3, 41), 394),
    ),
]


@pytest.mark.parametrize("seed, rs_expected, beam_expected", PINNED)
def test_solver_results_pinned(seed, rs_expected, beam_expected):
    instance = generate_instance(GeneratorConfig(seed=seed, n=20))
    rs = random_search(instance, SolverBudget(max_iterations=3), seed=5)
    beam = beam_search(instance, 2, 3)
    assert (rs.allocation, rs.objective) == rs_expected
    assert (beam.allocation, beam.objective) == beam_expected
