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


def _mix_seed(seed: int, channel: int) -> int:
    # splitmix-style mix so nearby (seed, channel) pairs decorrelate
    z = (seed * 0x9E3779B97F4A7C15 + channel * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 30
    z = (z * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    return z


def _permutation(seed: int, channel: int) -> np.ndarray:
    rng = np.random.default_rng(_mix_seed(seed, channel))
    return rng.permutation(_TABLE_SIZE).astype(np.int64)


# Unit gradients at 16 angles, as x and y component tables.
_GRADIENT_X = np.array([math.cos(2 * math.pi * i / 16) for i in range(16)])
_GRADIENT_Y = np.array([math.sin(2 * math.pi * i / 16) for i in range(16)])


def _fade(t):
    return t * t * t * (t * (t * 6 - 15) + 10)


def gradient_noise(seed: int, channel: int, x, y):
    """Deterministic, continuous gradient noise value in [0, 1].

    x and y are scalars or coordinate arrays of one shape; the result is
    a float for scalars and a float64 array otherwise.  Only + - * and
    comparisons touch the values, so an array entry is bitwise equal to
    the scalar result at that point.
    """
    table = _permutation(seed, channel)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x0, y0 = np.floor(x), np.floor(y)
    fx, fy = x - x0, y - y0
    ix, iy = x0.astype(np.int64), y0.astype(np.int64)

    def dot(cx, cy, dx, dy):
        h = table[(table[cx & _TABLE_MASK] + cy) & _TABLE_MASK] & 15
        return _GRADIENT_X[h] * dx + _GRADIENT_Y[h] * dy

    n00 = dot(ix, iy, fx, fy)
    n10 = dot(ix + 1, iy, fx - 1, fy)
    n01 = dot(ix, iy + 1, fx, fy - 1)
    n11 = dot(ix + 1, iy + 1, fx - 1, fy - 1)

    u, v = _fade(fx), _fade(fy)
    nx0 = n00 + u * (n10 - n00)
    nx1 = n01 + u * (n11 - n01)
    raw = nx0 + v * (nx1 - nx0)

    value = 0.5 * (raw * _NORM + 1.0)
    # min(1.0, max(0.0, value)), comparison for comparison
    value = np.where(value > 0.0, value, 0.0)
    value = np.where(value < 1.0, value, 1.0)
    return float(value) if value.ndim == 0 else value
