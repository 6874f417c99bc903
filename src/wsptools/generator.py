"""Seeded generation of suppression instances on n x n grid landscapes.

A landscape is an n x n grid of square cells covering roughly
N_xy x N_xy square feet.  Gradient noise fields drive terrain heights,
base spread rates, and a wind field (one vector per arc, the same for
(u, v) and (v, u)); the physics module turns these into directional arc
travel times.  The horizon, delay, and resource schedule are derived
from the free-burn arrival times so that instances are neither
trivially small nor dominated by unburnable vertices.

Generation is a pure function of the configuration (including the seed):
serialized instances are byte-stable across runs.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass

import numpy as np

from wsptools import __version__
from wsptools.core import (
    DirectedGraph,
    WspInstance,
    _float,
    single_source_distances,
)
from wsptools.noise import gradient_noise, _mix_seed
from wsptools.rothermel import DomainError, albini_multipliers, per_distinct, travel_time


class GenerationError(ValueError):
    """The configuration cannot produce a valid instance."""


# Noise channels, one independent field per landscape attribute.
CHANNEL_TERRAIN = 0
CHANNEL_WIND_ANGLE = 1
CHANNEL_WIND_SPEED = 2
CHANNEL_BASE_ROS = 3

# Lattice cells per noise period; gives a handful of terrain features
# per landscape at the supported grid sizes.
NOISE_PERIOD_CELLS = 8.0

GRID_LEVELS = {"small": 20, "medium": 30, "large": 40, "huge": 80}
SLOPE_LEVELS = {"flat": 10.0, "moderate": 20.0, "steep": 40.0}  # degrees
WIND_LEVELS = {  # midflame wind speed interval, ft/min
    "light": (94.5, 195.0),
    "moderate": (324.9, 466.5),
    "strong": (637.8, 815.1),
}
RESOURCE_LEVELS = {"few": lambda n: n // 2, "moderate": lambda n: n, "many": lambda n: 2 * n}
DELAY_LEVELS = {"low": lambda h: h / 3.0, "medium": lambda h: h / 2.0, "high": lambda h: h}
FIRST_RELEASE_LEVELS = {"early": 5.0, "late": 10.0, "very_late": 20.0}  # burn percentiles
LAST_RELEASE_LEVELS = {"very_early": 60.0, "early": 70.0, "late": 80.0, "very_late": 95.0}

BASE_ROS_RANGE = (1.0, 15.0)  # ft/min
MAX_SLOPE_TANGENT = 1.0  # tan(45 degrees)
WIND_ANGLE_SPREAD = math.pi / 6.0

# build_resource_schedule builds lists and a permutation over every point,
# though at most resource_count of them get a resource
MAX_DECISION_POINTS = 100_000
# arrays grow with n**2 (a side of 320 takes 1.7 s and 218 MB): a side of
# a few thousand asks for gigabytes, and 10**6 fails in numpy's allocator
MAX_GRID_SIDE = 1000

HOURS_24 = 1440.0  # minutes
HOURS_48 = 2880.0

STANDARD_GRID_SIZES = frozenset(GRID_LEVELS.values())

# Unit suffixes of the GeneratorConfig fields whose instance meta keys carry one
META_UNITS = {"landscape_extent": "_ft", "wind_direction": "_rad"}


@dataclass(frozen=True)
class GeneratorConfig:
    """Factor levels, seed, and landscape extent for one instance."""

    seed: int = 0
    n: int = 30
    landscape_extent: float = 26240.0  # N_xy, feet
    slope_level: str = "moderate"
    wind_level: str = "light"
    wind_direction: float = 0.0  # radians, 0 = +x
    decision_points: int = 10
    resources_level: str = "moderate"
    delay_level: str = "high"
    first_release: str = "early"
    last_release: str = "very_late"

    def __post_init__(self):
        if self.n < 2:
            raise GenerationError("grid side must be at least 2")
        if self.n > MAX_GRID_SIDE:
            raise GenerationError(f"grid side must be at most {MAX_GRID_SIDE}, got {self.n}")
        if not self.n <= self.landscape_extent <= self.n * 2.0**53:
            raise GenerationError(
                f"landscape extent must be between n = {self.n} and n * 2**53 feet,"
                f" got {self.landscape_extent}"
            )
        if not math.isfinite(self.wind_direction):
            raise GenerationError(
                f"wind direction must be a finite number of radians, got {self.wind_direction}"
            )
        for name, value, table in [
            ("slope_level", self.slope_level, SLOPE_LEVELS),
            ("wind_level", self.wind_level, WIND_LEVELS),
            ("resources_level", self.resources_level, RESOURCE_LEVELS),
            ("delay_level", self.delay_level, DELAY_LEVELS),
            ("first_release", self.first_release, FIRST_RELEASE_LEVELS),
            ("last_release", self.last_release, LAST_RELEASE_LEVELS),
        ]:
            if value not in table:
                raise GenerationError(f"unknown {name} {value!r}; choose from {sorted(table)}")
        if _float(self.decision_points, "decision_points") < 1:  # names an int past float range
            raise GenerationError("decision_points must be at least 1")
        if self.decision_points > MAX_DECISION_POINTS:
            raise GenerationError(f"decision_points must be at most {MAX_DECISION_POINTS},"
                                  f" got {self.decision_points}")

    @property
    def max_height(self) -> float:
        """N_z: maximum terrain elevation in feet."""
        return self.landscape_extent * math.tan(math.radians(SLOPE_LEVELS[self.slope_level]))

    @property
    def cell_spacing(self) -> int:
        """Planar distance between adjacent cell centers, feet."""
        return math.ceil(self.landscape_extent / self.n)

    @property
    def resource_count(self) -> int:
        return RESOURCE_LEVELS[self.resources_level](self.n)

    @property
    def ignition(self) -> int:
        c = self.n // 2
        return c * self.n + c


@dataclass(frozen=True, eq=False)
class Landscape:
    """Float64 arrays: heights (ft) and base spread rates (ft/min) per
    vertex, and the (arcs, 2) wind vectors in the graph's arc order."""

    heights: np.ndarray
    base_ros: np.ndarray
    wind_vectors: np.ndarray


# Unit steps to the 4 neighbours of a cell, heads ascending: up, left, right, down.
_STEPS_X = np.array([0, -1, 1, 0])
_STEPS_Y = np.array([-1, 0, 0, 1])


@functools.lru_cache(maxsize=len(GRID_LEVELS))
def _grid_arcs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tails, heads and unit steps (dx, dy) of the directed 4-neighbour
    arcs of an n x n grid in the graph's arc order: tails ascending
    (row-major vertex ids), each tail's neighbours up, left, right, down.
    Kept per n (an instance reads them twice), read-only as callers share them."""
    cells = np.arange(n * n)
    x, y = (cells % n)[:, None] + _STEPS_X, (cells // n)[:, None] + _STEPS_Y
    inside = (0 <= x) & (x < n) & (0 <= y) & (y < n)
    tails = np.broadcast_to(cells[:, None], inside.shape)[inside]
    dx = np.broadcast_to(_STEPS_X, inside.shape)[inside]
    dy = np.broadcast_to(_STEPS_Y, inside.shape)[inside]
    arrays = tails, tails + dx + n * dy, dx, dy
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _cell_noise(config: GeneratorConfig, channel: int) -> np.ndarray:
    """Noise of one channel at every cell, in vertex order."""
    cells = np.arange(config.n * config.n)
    return gradient_noise(
        config.seed,
        channel,
        (cells % config.n) / NOISE_PERIOD_CELLS,
        (cells // config.n) / NOISE_PERIOD_CELLS,
    )


def generate_terrain(config: GeneratorConfig) -> np.ndarray:
    """Vertex heights in [0, N_z] feet from the terrain noise field."""
    return config.max_height * _cell_noise(config, CHANNEL_TERRAIN)


def generate_base_ros(config: GeneratorConfig) -> np.ndarray:
    """Per-vertex no-wind, no-slope spread rates in [1, 15] ft/min."""
    lo, hi = BASE_ROS_RANGE
    return lo + (hi - lo) * _cell_noise(config, CHANNEL_BASE_ROS)


def generate_wind_field(config: GeneratorConfig) -> np.ndarray:
    """Wind vector (x, y) per arc: an (arcs, 2) float64 array in the
    graph's arc order (_grid_arcs), so row i belongs to the graph's arc i.

    The predominant direction is rotated by an angle noise in
    [-pi/6, pi/6] and scaled to a magnitude within the configured
    interval.  Both noises are evaluated at the midpoint of the arc's
    cells, which (u, v) and (v, u) share: the field is symmetric, so it
    is computed once per undirected edge, at its forward arc (u < v),
    and each arc takes the row of its edge.
    """
    lo, hi = WIND_LEVELS[config.wind_level]
    base = (math.cos(config.wind_direction), math.sin(config.wind_direction))
    n = config.n
    tails, heads, _, _ = _grid_arcs(n)
    forward = tails < heads
    edges = np.minimum(tails, heads) * (n * n) + np.maximum(tails, heads)
    row = np.searchsorted(edges[forward], edges)
    tails, heads = tails[forward], heads[forward]
    mx = (tails % n + heads % n) / 2.0 / NOISE_PERIOD_CELLS
    my = (tails // n + heads // n) / 2.0 / NOISE_PERIOD_CELLS
    angle_noise = gradient_noise(config.seed, CHANNEL_WIND_ANGLE, mx, my)
    speed_noise = gradient_noise(config.seed, CHANNEL_WIND_SPEED, mx, my)
    angle = ((2.0 * angle_noise - 1.0) * WIND_ANGLE_SPREAD).tolist()
    speed = lo + (hi - lo) * speed_noise
    cos_a = np.array([math.cos(t) for t in angle])
    sin_a = np.array([math.sin(t) for t in angle])
    wx = speed * (cos_a * base[0] - sin_a * base[1])
    wy = speed * (sin_a * base[0] + cos_a * base[1])
    return np.stack((wx, wy), axis=1)[row]


def generate_landscape(config: GeneratorConfig) -> Landscape:
    return Landscape(
        heights=generate_terrain(config),
        base_ros=generate_base_ros(config),
        wind_vectors=generate_wind_field(config),
    )


def build_travel_times(config: GeneratorConfig, landscape: Landscape) -> DirectedGraph:
    """4-neighbor grid graph with directional fire travel times.

    For each ordered arc (u, v): the slope tangent comes from the height
    difference capped at 45 degrees, the wind component is the projection
    of the arc's wind vector onto the arc direction, and the travel time
    is the 3D arc length over the harmonic mean of the two directional
    spread rates.  Both rates share the arc's one Albini multiplier.

    All arcs are evaluated as arrays with the operations, in the order,
    of the per-arc formulas; math.hypot (of |dz|, the same bits) and the
    multiplier's powers run in Python once per distinct input, so every
    travel time is bitwise the scalar one.
    """
    n = config.n
    d = float(config.cell_spacing)
    tails, heads, dx, dy = _grid_arcs(n)
    heights, base_ros, wind = landscape.heights, landscape.base_ros, landscape.wind_vectors
    if wind.shape != (len(tails), 2):
        raise DomainError(f"wind field must have shape ({len(tails)}, 2), got {wind.shape}")
    nonpositive = base_ros[base_ros <= 0]
    if nonpositive.size:
        raise DomainError(f"base rate of spread must be positive, got {nonpositive[0]}")
    dz = heights[heads] - heights[tails]
    # cap the slope angle at 45 degrees: max(-cap, min(cap, dz))
    cap = MAX_SLOPE_TANGENT * d
    dz = np.where(dz < cap, dz, cap)
    dz = np.where(dz > -cap, dz, -cap)
    slope_tan = dz / d
    wind_component = wind[:, 0] * dx + wind[:, 1] * dy
    multiplier = albini_multipliers(wind_component, slope_tan)
    r_tail = base_ros[tails] * multiplier
    r_head = base_ros[heads] * multiplier
    length = per_distinct(functools.partial(math.hypot, d), np.abs(dz))
    times = travel_time(length, r_tail, r_head)
    return DirectedGraph(
        vertex_count=n * n, arcs=tuple(zip(tails.tolist(), heads.tolist(), times.tolist()))
    )


def free_burn_quantile(arrivals, p: float, positive: bool = False) -> float:
    """Largest arrival time t with at most p% of the vertices burned before t.

    Evaluated over the finite multiset of arrival values; p = 100 yields
    the maximum finite arrival time.  With positive, a quantile of 0.0
    (the ignition's arrival, on grids too small for p% to pass it) gives
    way to the least positive arrival, as a release time must be positive.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    finite = sorted(filter(math.isfinite, arrivals))  # a sorted input sorts in one pass
    if not finite:
        raise GenerationError("no vertex has a finite free-burn arrival time")
    threshold = (p / 100.0) * len(arrivals)
    # at most i values lie strictly below finite[i] (exactly i at the first
    # of its ties), so the answer is the value at the last index <= threshold
    index = min(int(threshold), len(finite) - 1)
    if positive:
        index = max(index, bisect_right(finite, 0.0))
        if index == len(finite):
            raise GenerationError("no vertex has a positive free-burn arrival time")
    return finite[index]


def compute_horizon(arrivals) -> float:
    """Horizon in minutes: at least 24h, capped at 48h unless 70% of the
    vertices burn even later."""
    q100 = free_burn_quantile(arrivals, 100.0)
    q70 = free_burn_quantile(arrivals, 70.0)
    return max(min(max(q100, HOURS_24), HOURS_48), q70)


def build_resource_schedule(
    config: GeneratorConfig, horizon: float, arrivals, rng: np.random.Generator
) -> tuple[tuple[float, int], ...]:
    """Release times and counts: T points equally spaced over the release
    window, with the resources balanced across points and the quantities
    randomly permuted.  Zero-count points are dropped."""
    t = config.decision_points
    k = config.resource_count
    first = free_burn_quantile(arrivals, FIRST_RELEASE_LEVELS[config.first_release], positive=True)
    last = free_burn_quantile(arrivals, LAST_RELEASE_LEVELS[config.last_release])
    last = min(last, horizon)  # release times must not exceed the horizon
    if t > 1 and not first < last:
        raise GenerationError(
            f"degenerate release window: q({FIRST_RELEASE_LEVELS[config.first_release]:g}) = "
            f"{first:g} >= q({LAST_RELEASE_LEVELS[config.last_release]:g}) clamped to {last:g}"
        )
    if t == 1:
        times = [first]
    else:
        step = (last - first) / (t - 1)
        times = [first + i * step for i in range(t - 1)] + [last]
    counts = [k // t + (1 if i + 1 <= k % t else 0) for i in range(t)]
    counts = [counts[i] for i in rng.permutation(t)]
    return tuple((times[i], counts[i]) for i in range(t) if counts[i] > 0)


def generate_instance(config: GeneratorConfig) -> WspInstance:
    """Compose all generation steps into a complete instance."""
    landscape = generate_landscape(config)
    graph = build_travel_times(config, landscape)
    # sorted once, so each free_burn_quantile sort is one pass
    arrivals = sorted(single_source_distances(graph, config.ignition))
    horizon = compute_horizon(arrivals)
    delay = DELAY_LEVELS[config.delay_level](horizon)
    rng = np.random.default_rng(_mix_seed(config.seed, 1000))
    schedule = build_resource_schedule(config, horizon, arrivals, rng)
    meta = {"generator": {name + META_UNITS.get(name, ""): value
                          for name, value in asdict(config).items()}}
    meta["generator"].update(
        version=__version__,
        cell_spacing_ft=config.cell_spacing,
        horizon_min=horizon,
        delay_min=delay,
        resource_count=config.resource_count,
        release_times_min=[t for t, _ in schedule],
        nonstandard_grid=config.n not in STANDARD_GRID_SIZES,
    )
    return WspInstance(
        graph=graph,
        ignition=config.ignition,
        horizon=horizon,
        delay=delay,
        schedule=schedule,
        meta=meta,
    )
