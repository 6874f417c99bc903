"""Seeded 2D gradient noise with output in [0, 1].

Classic lattice gradient noise: pseudo-random unit gradients at integer
lattice points, a quintic fade, and bilinear blending.  Determinism is a
hard contract: the same (seed, channel, x, y) always yields the same
value.  Channels keep the terrain, wind-angle, wind-speed, and base-rate
fields independent for one instance seed.
"""

from __future__ import annotations

import math

import numpy as np

_TABLE_SIZE = 256
_TABLE_MASK = _TABLE_SIZE - 1

# Normalizes raw 2D gradient noise (range +-sqrt(2)/2) to [-1, 1].
_NORM = 2.0 / math.sqrt(2.0)

# Permutation tables by (seed, channel).  An instance reads four channels
# of one seed, so a few entries give every hit; the oldest entry is
# dropped beyond that, since a process may generate any number of seeds.
PERM_CACHE_SIZE = 8
_perm_cache: dict[tuple[int, int], np.ndarray] = {}


def _mix_seed(seed: int, channel: int) -> int:
    # splitmix-style mix so nearby (seed, channel) pairs decorrelate
    z = (seed * 0x9E3779B97F4A7C15 + channel * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 30
    z = (z * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    return z


def _permutation(seed: int, channel: int) -> np.ndarray:
    key = (seed, channel)
    table = _perm_cache.get(key)
    if table is None:
        rng = np.random.default_rng(_mix_seed(seed, channel))
        table = rng.permutation(_TABLE_SIZE).astype(np.int64)
        if len(_perm_cache) >= PERM_CACHE_SIZE:
            _perm_cache.pop(next(iter(_perm_cache)), None)
        _perm_cache[key] = table
    return table


_GRADIENTS = [
    (math.cos(2 * math.pi * i / 16), math.sin(2 * math.pi * i / 16)) for i in range(16)
]


def _gradient(table: np.ndarray, ix: int, iy: int) -> tuple[float, float]:
    h = table[(table[ix & _TABLE_MASK] + iy) & _TABLE_MASK] & 15
    return _GRADIENTS[h]


def _fade(t: float) -> float:
    return t * t * t * (t * (t * 6 - 15) + 10)


def gradient_noise(seed: int, channel: int, x: float, y: float) -> float:
    """Deterministic, continuous gradient noise value in [0, 1]."""
    table = _permutation(seed, channel)
    x0, y0 = math.floor(x), math.floor(y)
    fx, fy = x - x0, y - y0

    n00 = _dot(_gradient(table, x0, y0), fx, fy)
    n10 = _dot(_gradient(table, x0 + 1, y0), fx - 1, fy)
    n01 = _dot(_gradient(table, x0, y0 + 1), fx, fy - 1)
    n11 = _dot(_gradient(table, x0 + 1, y0 + 1), fx - 1, fy - 1)

    u, v = _fade(fx), _fade(fy)
    nx0 = n00 + u * (n10 - n00)
    nx1 = n01 + u * (n11 - n01)
    raw = nx0 + v * (nx1 - nx0)

    value = 0.5 * (raw * _NORM + 1.0)
    return min(1.0, max(0.0, value))


def _dot(grad: tuple[float, float], dx: float, dy: float) -> float:
    return grad[0] * dx + grad[1] * dy
