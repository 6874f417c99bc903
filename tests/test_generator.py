import math

import numpy as np
import pytest

from wsptools.core import instance_to_json, single_source_distances
from wsptools.generator import (
    DELAY_LEVELS,
    FIRST_RELEASE_LEVELS,
    GRID_LEVELS,
    LAST_RELEASE_LEVELS,
    RESOURCE_LEVELS,
    SLOPE_LEVELS,
    WIND_LEVELS,
    GenerationError,
    GeneratorConfig,
    build_resource_schedule,
    build_travel_times,
    compute_horizon,
    free_burn_quantile,
    generate_base_ros,
    generate_instance,
    generate_landscape,
    generate_terrain,
    generate_wind_field,
)
from wsptools import noise
from wsptools.noise import gradient_noise
from wsptools.rothermel import rate_of_spread, travel_time


class TestNoise:
    def test_deterministic(self):
        pts = [(0.3, 0.7), (1.5, 2.25), (-3.1, 4.9)]
        for x, y in pts:
            assert gradient_noise(42, 0, x, y) == gradient_noise(42, 0, x, y)

    def test_range(self, rng):
        for _ in range(500):
            x, y = rng.uniform(-10, 10, size=2)
            v = gradient_noise(7, int(rng.integers(0, 4)), float(x), float(y))
            assert 0.0 <= v <= 1.0

    def test_channels_are_independent(self):
        a = [gradient_noise(5, 0, x / 7.0, 0.4) for x in range(20)]
        b = [gradient_noise(5, 1, x / 7.0, 0.4) for x in range(20)]
        assert a != b

    def test_seeds_differ(self):
        a = [gradient_noise(1, 0, x / 7.0, 0.4) for x in range(20)]
        b = [gradient_noise(2, 0, x / 7.0, 0.4) for x in range(20)]
        assert a != b

    def test_continuity_probe(self, rng):
        # adjacent samples a tiny step apart must stay close
        for _ in range(50):
            x, y = (float(v) for v in rng.uniform(-5, 5, size=2))
            v0 = gradient_noise(3, 2, x, y)
            v1 = gradient_noise(3, 2, x + 1e-6, y)
            assert abs(v1 - v0) < 1e-4

    def test_permutation_cache_is_bounded(self):
        def config(seed):
            return GeneratorConfig(seed=seed, n=6, decision_points=2)

        first = instance_to_json(generate_instance(config(0)))
        for seed in range(1, 51):
            generate_instance(config(seed))
            assert len(noise._perm_cache) <= noise.PERM_CACHE_SIZE
        # seed 0's tables were evicted and are rebuilt identically
        assert instance_to_json(generate_instance(config(0))) == first


class TestLevelTables:
    def test_grid_sizes(self):
        assert GRID_LEVELS == {"small": 20, "medium": 30, "large": 40, "huge": 80}

    def test_slope_degrees(self):
        assert SLOPE_LEVELS == {"flat": 10.0, "moderate": 20.0, "steep": 40.0}

    def test_wind_intervals(self):
        assert WIND_LEVELS["light"] == (94.5, 195.0)
        assert WIND_LEVELS["moderate"] == (324.9, 466.5)
        assert WIND_LEVELS["strong"] == (637.8, 815.1)

    def test_resource_counts_scale_with_grid_side(self):
        assert RESOURCE_LEVELS["few"](30) == 15
        assert RESOURCE_LEVELS["moderate"](30) == 30
        assert RESOURCE_LEVELS["many"](30) == 60

    def test_delay_fractions(self):
        assert DELAY_LEVELS["low"](600.0) == 200.0
        assert DELAY_LEVELS["medium"](600.0) == 300.0
        assert DELAY_LEVELS["high"](600.0) == 600.0

    def test_release_percentiles(self):
        assert FIRST_RELEASE_LEVELS == {"early": 5.0, "late": 10.0, "very_late": 20.0}
        assert LAST_RELEASE_LEVELS == {
            "very_early": 60.0,
            "early": 70.0,
            "late": 80.0,
            "very_late": 95.0,
        }


class TestConfig:
    def test_cell_spacing_default_grid(self):
        assert GeneratorConfig(n=30).cell_spacing == 875
        assert GeneratorConfig(n=20).cell_spacing == 1312
        assert GeneratorConfig(n=80).cell_spacing == 328

    def test_ignition_is_center(self):
        assert GeneratorConfig(n=30).ignition == 15 * 30 + 15
        assert GeneratorConfig(n=5).ignition == 2 * 5 + 2

    def test_max_height(self):
        cfg = GeneratorConfig(slope_level="flat")
        assert cfg.max_height == pytest.approx(26240.0 * math.tan(math.radians(10.0)))

    def test_rejects_unknown_level(self):
        with pytest.raises(GenerationError):
            GeneratorConfig(wind_level="gale")

    def test_rejects_tiny_grid(self):
        with pytest.raises(GenerationError):
            GeneratorConfig(n=1)


class TestLandscapeFields:
    def test_terrain_in_height_range(self):
        cfg = GeneratorConfig(seed=11, n=12)
        heights = generate_terrain(cfg)
        assert len(heights) == 144
        assert all(0.0 <= h <= cfg.max_height for h in heights)
        assert len(set(heights)) > 1

    def test_base_rates_in_range(self):
        rates = generate_base_ros(GeneratorConfig(seed=11, n=12))
        assert all(1.0 <= r <= 15.0 for r in rates)

    def test_wind_magnitudes_in_level_interval(self):
        cfg = GeneratorConfig(seed=4, n=10, wind_level="moderate")
        field = generate_wind_field(cfg)
        lo, hi = WIND_LEVELS["moderate"]
        assert len(field) == 2 * 10 * 9  # undirected 4-neighbor adjacencies
        for wx, wy in field.values():
            assert lo - 1e-9 <= math.hypot(wx, wy) <= hi + 1e-9

    def test_wind_directions_within_spread(self):
        cfg = GeneratorConfig(seed=4, n=10, wind_direction=0.5)
        for wx, wy in generate_wind_field(cfg).values():
            diff = math.atan2(wy, wx) - 0.5
            assert abs(diff) <= math.pi / 6.0 + 1e-9

    def test_wind_keys_are_undirected(self):
        field = generate_wind_field(GeneratorConfig(seed=1, n=6))
        assert all(u < v for u, v in field)


class TestTravelTimes:
    def test_arc_count_and_positivity(self):
        cfg = GeneratorConfig(seed=2, n=8)
        graph = build_travel_times(cfg, generate_landscape(cfg))
        assert graph.vertex_count == 64
        assert len(graph.arcs) == 4 * 8 * 7
        assert all(t > 0 for _, _, t in graph.arcs)

    def test_arc_time_matches_physics_oracle(self):
        cfg = GeneratorConfig(seed=9, n=6)
        landscape = generate_landscape(cfg)
        graph = build_travel_times(cfg, landscape)
        d = float(cfg.cell_spacing)
        times = {(u, v): t for u, v, t in graph.arcs}
        # horizontal arc from (1,2) to (2,2)
        u, v = 2 * 6 + 1, 2 * 6 + 2
        dz = landscape.heights[v] - landscape.heights[u]
        dz = max(-d, min(d, dz))
        wind = landscape.wind_vectors[(u, v)]
        expected = travel_time(
            math.hypot(d, dz),
            rate_of_spread(landscape.base_ros[u], wind[0], dz / d),
            rate_of_spread(landscape.base_ros[v], wind[0], dz / d),
        )
        assert times[(u, v)] == pytest.approx(expected, rel=1e-12)

    def test_reverse_arc_uses_opposite_orientation(self):
        cfg = GeneratorConfig(seed=9, n=6)
        landscape = generate_landscape(cfg)
        graph = build_travel_times(cfg, landscape)
        d = float(cfg.cell_spacing)
        times = {(u, v): t for u, v, t in graph.arcs}
        u, v = 2 * 6 + 1, 2 * 6 + 2
        dz = landscape.heights[u] - landscape.heights[v]
        dz = max(-d, min(d, dz))
        wind = landscape.wind_vectors[(u, v)]
        expected = travel_time(
            math.hypot(d, dz),
            rate_of_spread(landscape.base_ros[v], -wind[0], dz / d),
            rate_of_spread(landscape.base_ros[u], -wind[0], dz / d),
        )
        assert times[(v, u)] == pytest.approx(expected, rel=1e-12)


class TestQuantilesAndHorizon:
    def test_four_point_median(self):
        assert free_burn_quantile([0.0, 1.0, 2.0, 3.0], 50.0) == 2.0

    def test_full_quantile_is_max_finite(self):
        assert free_burn_quantile([0.0, 5.0, math.inf, 3.0], 100.0) == 5.0

    def test_ties_count_once(self):
        # threshold 2: at value 4 three arrivals lie strictly below
        assert free_burn_quantile([0.0, 1.0, 1.0, 4.0], 50.0) == 1.0

    def test_rejects_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            free_burn_quantile([1.0], 0.0)

    def test_rejects_all_unreachable(self):
        with pytest.raises(GenerationError):
            free_burn_quantile([math.inf, math.inf], 50.0)

    def test_horizon_floor_is_24h(self):
        assert compute_horizon([0.0, 10.0, 20.0]) == 1440.0

    def test_horizon_cap_is_48h(self):
        arrivals = [0.0] * 8 + [100.0, 5000.0]
        assert compute_horizon(arrivals) == 2880.0

    def test_slow_fires_extend_past_cap(self):
        arrivals = [0.0, 100.0, 4000.0, 4000.0, 5000.0]
        # q(70) = 4000 dominates the 48h cap
        assert compute_horizon(arrivals) == 4000.0


class TestSchedule:
    # five distinct arrival values shaped so q(5) = 100 and q(95) = 500
    ARRIVALS = [0.0] * 5 + [100.0] + [300.0] * 89 + [500.0] * 5

    def test_release_times_equally_spaced(self):
        cfg = GeneratorConfig(seed=0, n=5, decision_points=5, resources_level="many")
        schedule = build_resource_schedule(
            cfg, 1000.0, self.ARRIVALS, np.random.default_rng(0)
        )
        assert [t for t, _ in schedule] == [100.0, 200.0, 300.0, 400.0, 500.0]

    def test_counts_are_balanced_permutation(self):
        # 7 resources over 3 points -> quantities {3, 2, 2} in some order
        cfg = GeneratorConfig(seed=0, n=14, decision_points=3, resources_level="few")
        assert cfg.resource_count == 7
        schedule = build_resource_schedule(
            cfg, 1000.0, self.ARRIVALS, np.random.default_rng(3)
        )
        assert sorted(c for _, c in schedule) == [2, 2, 3]
        assert sum(c for _, c in schedule) == 7

    def test_single_decision_point(self):
        cfg = GeneratorConfig(seed=0, n=5, decision_points=1)
        schedule = build_resource_schedule(
            cfg, 1000.0, self.ARRIVALS, np.random.default_rng(0)
        )
        assert schedule == ((100.0, 5),)

    def test_zero_count_points_dropped(self):
        # 2 resources over 10 points: only two release points survive
        cfg = GeneratorConfig(seed=0, n=4, decision_points=10, resources_level="few")
        assert cfg.resource_count == 2
        schedule = build_resource_schedule(
            cfg, 1000.0, self.ARRIVALS, np.random.default_rng(0)
        )
        assert len(schedule) == 2
        assert all(c == 1 for _, c in schedule)

    def test_degenerate_window_rejected(self):
        cfg = GeneratorConfig(seed=0, n=5, decision_points=4)
        with pytest.raises(GenerationError):
            build_resource_schedule(cfg, 1000.0, [1.0] * 10, np.random.default_rng(0))


class TestGenerateInstance:
    def test_byte_stable(self):
        cfg = GeneratorConfig(seed=77, n=20)
        a = instance_to_json(generate_instance(cfg))
        b = instance_to_json(generate_instance(cfg))
        assert a == b

    def test_seeds_produce_different_instances(self):
        a = generate_instance(GeneratorConfig(seed=1, n=12))
        b = generate_instance(GeneratorConfig(seed=2, n=12))
        assert instance_to_json(a) != instance_to_json(b)

    def test_structure_and_derived_quantities(self):
        cfg = GeneratorConfig(seed=5, n=20)
        inst = generate_instance(cfg)
        assert inst.graph.vertex_count == 400
        assert inst.ignition == cfg.ignition
        assert inst.total_resources == cfg.resource_count == 20
        assert inst.delay == inst.horizon  # "high" delay level
        assert 1440.0 <= inst.horizon
        assert all(0 < t <= inst.horizon for t, _ in inst.schedule)
        assert inst.meta["generator"]["seed"] == 5
        assert inst.meta["generator"]["nonstandard_grid"] is False

    def test_nonstandard_grid_is_flagged(self):
        inst = generate_instance(GeneratorConfig(seed=5, n=12))
        assert inst.meta["generator"]["nonstandard_grid"] is True

    def test_most_vertices_burn_by_horizon(self):
        inst = generate_instance(GeneratorConfig(seed=5, n=20))
        arrivals = single_source_distances(inst.graph, inst.ignition)
        burned = sum(1 for a in arrivals if a < inst.horizon)
        assert burned >= 0.7 * inst.graph.vertex_count
