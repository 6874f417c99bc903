"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by 20% or more over seconds
to minutes (on a 2-core Xeon VM a fixed block of pure-Python work read
about 25 ms in one period and about 37 ms in the next).  Raw wall times
of one run then depend on the periods it happened to meet, more than on
the code.

So the run times a fixed calibration block of pure-Python work written
here and independent of wsptools (a heap Dijkstra over a seeded grid,
small objects, a keyed sort, float math and text formatting: the mix
the package's hot paths are made of) right before and right after every
request, and scales the request's wall time by REFERENCE_BLOCK_S over
the mean of those two block times.  The result is the request's time on
a machine on which the block takes REFERENCE_BLOCK_S: a change to the
package moves it, a slow period of the host does not.  Of the blocks
tried (the Dijkstra alone, the Dijkstra with JSON output, the object
part alone, small numpy array arithmetic, and this one), this one
followed the workloads' own drift best overall: over 15-s windows of one
process it cut the spread of the median request time from 0.05-0.27 of
the median to 0.02-0.08.  Garbage collection is off during a block,
so the package's heap size does not leak into the block's time.

Raw wall times are kept in each run's result file beside the scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time

# Seconds one block takes on the reference machine: about its median on a
# 2-core Intel Xeon VM under CPython 3.11.7.
REFERENCE_BLOCK_S = 0.0065

GRID = 30
ITEMS = 3000


def _grid_graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(12345)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(GRID * GRID)]
    for row in range(GRID):
        for col in range(GRID):
            for d_row, d_col in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                r, c = row + d_row, col + d_col
                if 0 <= r < GRID and 0 <= c < GRID:
                    adjacency[row * GRID + col].append((r * GRID + c, rng.uniform(1.0, 3.0)))
    return adjacency


_GRAPH = _grid_graph()


class _Item:
    __slots__ = ("key", "index")

    def __init__(self, key: float, index: int):
        self.key = key
        self.index = index


def _block() -> tuple[float, float, int]:
    distance = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for w, cost in _GRAPH[v]:
            candidate = d + cost
            if candidate < distance.get(w, float("inf")):
                distance[w] = candidate
                heapq.heappush(heap, (candidate, w))

    rng = random.Random(7)
    items = [_Item(rng.random(), i) for i in range(ITEMS)]
    items.sort(key=lambda item: item.key)
    total = sum(math.exp(-item.key) * item.index for item in items)
    text = "".join(f"{item.key:.6f} x{item.index}\n" for item in items[: ITEMS // 2])
    return sum(distance.values()), total, len(text)


_EXPECTED: tuple[float, float, int] | None = None


def block_seconds() -> float:
    """Wall seconds of one calibration block."""
    global _EXPECTED
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = _block()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if _EXPECTED is None:
        _EXPECTED = total
    elif total != _EXPECTED:
        raise RuntimeError("calibration block gave another result")
    return elapsed
