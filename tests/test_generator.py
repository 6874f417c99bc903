import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from wsptools.core import instance_to_json, single_source_distances
from wsptools.generator import (
    BASE_ROS_RANGE,
    DELAY_LEVELS,
    FIRST_RELEASE_LEVELS,
    GRID_LEVELS,
    LAST_RELEASE_LEVELS,
    MAX_DECISION_POINTS,
    META_UNITS,
    RESOURCE_LEVELS,
    SLOPE_LEVELS,
    WIND_LEVELS,
    GenerationError,
    GeneratorConfig,
    Landscape,
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
from wsptools.rothermel import DomainError, rate_of_spread, travel_time


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

    def test_arrays_equal_scalar_calls(self, rng):
        xs = rng.uniform(-20, 20, size=(7, 9))
        ys = rng.uniform(-20, 20, size=(7, 9))
        values = gradient_noise(4, 1, xs, ys)
        assert values.shape == (7, 9) and values.dtype == np.float64
        for x, y, value in zip(xs.flat, ys.flat, values.flat):
            scalar = gradient_noise(4, 1, float(x), float(y))
            assert type(scalar) is float
            assert scalar.hex() == float(value).hex()

    def test_integer_lattice_points(self):
        xs = np.arange(-3, 4)
        assert gradient_noise(2, 0, xs, 0.5).tolist() == [
            gradient_noise(2, 0, float(x), 0.5) for x in range(-3, 4)
        ]

    def test_seed_regenerates_after_other_seeds(self):
        def config(seed):
            return GeneratorConfig(seed=seed, n=6, decision_points=2)

        first = instance_to_json(generate_instance(config(0)))
        for seed in range(1, 51):
            generate_instance(config(seed))
        # the noise tables are a function of (seed, channel) alone
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

    def test_rejects_no_decision_point(self):
        with pytest.raises(GenerationError, match="^decision_points must be at least 1$"):
            GeneratorConfig(decision_points=0)

    def test_decision_points_are_bounded(self):
        # the schedule is built over every point: 10**6 of them cost 0.5 s and 100 MB
        assert GeneratorConfig(decision_points=MAX_DECISION_POINTS).decision_points == 100_000
        with pytest.raises(GenerationError,
                           match="^decision_points must be at most 100000, got 100001$"):
            GeneratorConfig(decision_points=MAX_DECISION_POINTS + 1)

    def test_rejects_tiny_grid(self):
        with pytest.raises(GenerationError):
            GeneratorConfig(n=1)

    # zero gave a ZeroDivisionError, a negative extent a meaningless instance;
    # under n ft the spacing rounded up to 1 ft while meta kept the extent,
    # past n * 2**53 ft it was an integer no double can hold
    @pytest.mark.parametrize("extent", [0.0, -100.0, math.nan, math.inf, 1e-300,
                                        math.nextafter(30.0, 0.0),
                                        math.nextafter(30 * 2.0**53, math.inf), 1e300])
    def test_rejects_bad_extent(self, extent):
        with pytest.raises(GenerationError, match="landscape extent"):
            GeneratorConfig(landscape_extent=extent)

    def test_extent_bounds_are_inclusive(self):
        assert GeneratorConfig(n=9, landscape_extent=9.0).cell_spacing == 1
        assert GeneratorConfig(n=9, landscape_extent=9 * 2.0**53).cell_spacing == 2**53

    @pytest.mark.parametrize("direction", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_wind_direction(self, direction):
        # nan makes every wind vector nan, so every multiplier would be 1.0
        # and the wind silently ignored; math.cos fails on an infinity
        with pytest.raises(GenerationError, match=f"wind direction .* got {direction}"):
            GeneratorConfig(wind_direction=direction)


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
        assert field.shape == (4 * 10 * 9, 2)  # one row per 4-neighbor arc
        for wx, wy in field:
            assert lo - 1e-9 <= math.hypot(wx, wy) <= hi + 1e-9

    def test_wind_directions_within_spread(self):
        cfg = GeneratorConfig(seed=4, n=10, wind_direction=0.5)
        for wx, wy in generate_wind_field(cfg):
            diff = math.atan2(wy, wx) - 0.5
            assert abs(diff) <= math.pi / 6.0 + 1e-9

    def test_wind_rows_are_undirected(self):
        cfg = GeneratorConfig(seed=1, n=6)
        field = generate_wind_field(cfg)
        arcs = build_travel_times(cfg, generate_landscape(cfg)).arcs
        assert field.shape == (len(arcs), 2)
        row = {(u, v): bits(field[i]) for i, (u, v, _) in enumerate(arcs)}
        assert all(row[(u, v)] == row[(v, u)] for u, v in row)

    def test_wind_row_i_belongs_to_arc_i(self):
        config = GeneratorConfig(seed=3, n=5, wind_level="strong")
        landscape = generate_landscape(config)
        arcs = build_travel_times(config, landscape).arcs
        pairs = scalar_landscape(config).wind_vectors
        assert [bits(row) for row in generate_wind_field(config)] == [
            bits(pairs[(min(u, v), max(u, v))]) for u, v, _ in arcs
        ]
        # on flat ground without wind, a wind along arc i alone moves arc i's time alone
        calm = Landscape(np.zeros(25), landscape.base_ros, np.zeros((len(arcs), 2)))
        calm_times = [t for _, _, t in build_travel_times(config, calm).arcs]
        for i in (0, 17, len(arcs) - 1):
            u, v, _ = arcs[i]
            wind = np.zeros((len(arcs), 2))
            wind[i] = (100.0 * (v % 5 - u % 5), 100.0 * (v // 5 - u // 5))
            times = [t for _, _, t in build_travel_times(config, dataclasses.replace(
                calm, wind_vectors=wind)).arcs]
            assert [j for j, (a, b) in enumerate(zip(calm_times, times)) if a != b] == [i]

    @pytest.mark.parametrize(
        "shape", [(1, 2), (47, 2), (48, 3)], ids=["one-row", "one-row-short", "three-columns"]
    )
    def test_wind_field_of_wrong_shape_rejected(self, shape):
        # numpy would broadcast a (1, 2) field over every arc
        config = GeneratorConfig(seed=1, n=4)  # 48 arcs
        landscape = dataclasses.replace(generate_landscape(config), wind_vectors=np.ones(shape))
        with pytest.raises(DomainError, match=re.escape(f"shape (48, 2), got {shape}")):
            build_travel_times(config, landscape)


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
        row = {(u, v): i for i, (u, v, _) in enumerate(graph.arcs)}
        # horizontal arc from (1,2) to (2,2)
        u, v = 2 * 6 + 1, 2 * 6 + 2
        dz = landscape.heights[v] - landscape.heights[u]
        dz = max(-d, min(d, dz))
        wind = landscape.wind_vectors[row[(u, v)]]
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
        row = {(u, v): i for i, (u, v, _) in enumerate(graph.arcs)}
        u, v = 2 * 6 + 1, 2 * 6 + 2
        dz = landscape.heights[u] - landscape.heights[v]
        dz = max(-d, min(d, dz))
        # the arc (v, u) has the pair's vector, projected onto -x
        wind = landscape.wind_vectors[row[(v, u)]]
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

    def test_equals_first_definition(self, rng):
        def reference(arrivals, p):
            # the first implementation: scan the distinct values in order
            finite = sorted(a for a in arrivals if math.isfinite(a))
            threshold = (p / 100.0) * len(arrivals)
            best, strictly_less, i = None, 0, 0
            while i < len(finite):
                j = i
                while j < len(finite) and finite[j] == finite[i]:
                    j += 1
                if strictly_less <= threshold:
                    best = finite[i]
                strictly_less, i = j, j
            return best

        for _ in range(300):
            size = int(rng.integers(1, 40))
            arrivals = [float(a) for a in rng.integers(0, 8, size=size)]
            for k in rng.choice(size, size=int(rng.integers(0, size)), replace=False):
                arrivals[k] = math.inf
            if not any(math.isfinite(a) for a in arrivals):
                continue
            for p in (0.5, 5.0, 20.0, 50.0, 70.0, 95.0, 100.0, float(rng.uniform(0.1, 100))):
                assert free_burn_quantile(arrivals, p) == reference(arrivals, p)

    def test_positive_skips_the_ignition(self):
        # q(5) of nine arrivals is the ignition's 0.0, which is no release time
        arrivals = [0.0, 7.0, 3.0, 3.0, math.inf, 9.0, 4.0, 5.0, 6.0]
        assert free_burn_quantile(arrivals, 5.0) == 0.0
        assert free_burn_quantile(arrivals, 5.0, positive=True) == 3.0
        assert free_burn_quantile(arrivals, 50.0, positive=True) == 5.0
        with pytest.raises(GenerationError, match="positive"):
            free_burn_quantile([0.0, math.inf], 5.0, positive=True)

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

    # the meta["generator"] keys beside those of the GeneratorConfig fields
    # record what generation derived
    DERIVED_KEYS = {
        "version", "cell_spacing_ft", "horizon_min", "delay_min", "resource_count",
        "release_times_min", "nonstandard_grid",
    }

    @pytest.mark.parametrize(
        "config",
        [
            GeneratorConfig(seed=5, n=9, slope_level="steep", wind_direction=-2.7),
            GeneratorConfig(
                seed=8, n=12, landscape_extent=10000.0, wind_level="strong",
                decision_points=5, resources_level="many", delay_level="low",
                first_release="late", last_release="early",
            ),
            GeneratorConfig(seed=3, n=3, wind_direction=1.3, first_release="very_late"),
        ],
        ids=lambda c: f"s{c.seed}-n{c.n}",
    )
    def test_regenerates_from_meta(self, config):
        text = instance_to_json(generate_instance(config))
        meta = json.loads(text)["meta"]["generator"]
        names = [f.name for f in dataclasses.fields(GeneratorConfig)]
        keys = {name: name + META_UNITS.get(name, "") for name in names}
        assert set(keys.values()) == set(meta) - self.DERIVED_KEYS
        rebuilt = GeneratorConfig(**{name: meta[key] for name, key in keys.items()})
        assert instance_to_json(generate_instance(rebuilt)) == text

    def test_nonstandard_grid_is_flagged(self):
        inst = generate_instance(GeneratorConfig(seed=5, n=12))
        assert inst.meta["generator"]["nonstandard_grid"] is True

    def test_most_vertices_burn_by_horizon(self):
        inst = generate_instance(GeneratorConfig(seed=5, n=20))
        arrivals = single_source_distances(inst.graph, inst.ignition)
        burned = sum(1 for a in arrivals if a < inst.horizon)
        assert burned >= 0.7 * inst.graph.vertex_count


# (seed, n, wind level, slope level, wind direction, other config fields,
# sha256 of instance_to_json(generate_instance(config))), recorded from the
# per-cell scalar generator and the fully indented json.dumps writer.  The
# n = 3 rows release first at the 20% quantile: the default 5% quantile of
# a grid with n <= 4 is the ignition's arrival 0.0, not a valid release time.
GOLDEN_INSTANCES = [
    (100, 3, "light", "flat", 0.0, {"first_release": "very_late"},
     "0ee7ba7c2c2fe9f5d103fbaeb4c74685c8a2e75565147094e14ae37dc6044854"),
    (101, 12, "light", "flat", 1.3, {},
     "83a0af502322b70675edc219b240da2e881e8d0f4563c0a629dce0881c84c01b"),
    (102, 20, "light", "flat", -2.7, {},
     "81a67f6c655e4e946e2484090589f870245e52983091f170bcde0ce1f967d32c"),
    (103, 40, "light", "moderate", 0.0, {},
     "b6bee4ff12591fb4b8b1ea3dde56339095fc7b497251ecabf069e3d9e304f0da"),
    (104, 7, "light", "moderate", 1.3, {},
     "4efd4567c9a371bfd8c1fb3d66717f503658ba158fb8eedf1c1723050494c5f6"),
    (105, 3, "light", "moderate", -2.7, {"first_release": "very_late"},
     "29bdbd31112dc32c5408b1aa9e49dd3b078d279937ff30ccfef02f6f01fce3cb"),
    (106, 12, "light", "steep", 0.0, {},
     "6b910a920f534c1ab62863bcdf1094fd2441d23817d986c19dda9ca1fb4772ee"),
    (107, 20, "light", "steep", 1.3, {},
     "7d5bbff612e301c5e6dcac32fdfa60e7f9d71a2c6891ca84627048a1ca618fce"),
    (108, 40, "light", "steep", -2.7, {},
     "b1617ee2796969ad1f70ddf6d610c0a53be77fafcb61f7a2af3eb84768193457"),
    (109, 7, "moderate", "flat", 0.0, {},
     "57d57f8b678ec3ba1711fe49541ddc27a12d4a18887a606f4775331218fc9d13"),
    (110, 3, "moderate", "flat", 1.3, {"first_release": "very_late"},
     "8fae3689d2bc292836a158e2e20c5b0826e6d3b745c8084fef581b5cc7d73c2d"),
    (111, 12, "moderate", "flat", -2.7, {},
     "a2a68802e6956ce16f3ce255315f0fd067fc4500a091c14ed3596cbdb4e3fbfd"),
    (112, 20, "moderate", "moderate", 0.0, {},
     "1f152b739f06d85ff8c4edb31354353a8d9341ad7215cb870e8b27ec8e1a4093"),
    (113, 40, "moderate", "moderate", 1.3, {},
     "506455681b499b1566bcb1ec6cc5ebde1e69932a8d8f407a383272331ed82d80"),
    (114, 7, "moderate", "moderate", -2.7, {},
     "f3b482ed8ffe2ef2ec1152beb3e5c40f144d9fecbaf2704755bfac2edc5ec151"),
    (115, 3, "moderate", "steep", 0.0, {"first_release": "very_late"},
     "f24ba46ea14be9e8f4f44284ff802173823f006ebb6f44b3a0e6c1a626ac9a5a"),
    (116, 12, "moderate", "steep", 1.3, {},
     "7afacb04f9439c01f829834ce9f44df2901a46bd6f5a49c0b104934c3591ffaa"),
    (117, 20, "moderate", "steep", -2.7, {},
     "cfb4e703294fa1ab23aee6ff14b6b65514c30caba047663b37ba2f49c5b93107"),
    (118, 40, "strong", "flat", 0.0, {},
     "907a229d2b5bdd1d7619a847ccc272a37b79db57dfa32fdfc520776479fa198a"),
    (119, 7, "strong", "flat", 1.3, {},
     "76c79ed03e3797a65b79b6fcaf94c3d3b64b63e1ad309417a1e2499986543411"),
    (120, 3, "strong", "flat", -2.7, {"first_release": "very_late"},
     "1bd5074efea64fe9c34e4ce118570d1ce735bf7651b1c3097ffb95332d9f6a0e"),
    (121, 12, "strong", "moderate", 0.0, {},
     "0f0dbe1b868304d5d87aa3fa575e86d462d80bb4d7afaf3034c99161f383b55c"),
    (122, 20, "strong", "moderate", 1.3, {},
     "1d690481cf849627a371816dcad46e2df48e2d4d77f638c61a1d08236f0537b2"),
    (123, 40, "strong", "moderate", -2.7, {},
     "f84beec1a22fc942e5d442ddbb7722b6d3c3d59993424f4c6eaa46a21e2eb3ac"),
    (124, 7, "strong", "steep", 0.0, {},
     "141ab66f690553361042b45d1c477d88afeb69707987fdd7acae971ac3bfcd40"),
    (125, 3, "strong", "steep", 1.3, {"first_release": "very_late"},
     "b78bd7ec3970fd95f3280116bec43791ac7b973fb4681b8f0a982b935d31f1d8"),
    (126, 12, "strong", "steep", -2.7, {},
     "8fdbce88971c543c4e8eccc712506498f15c64df6d8d609b00e3a22c2017c049"),
    (7, 20, "light", "moderate", 0.0,
     {"resources_level": "few", "delay_level": "low", "first_release": "late",
      "last_release": "very_early"},
     "77fb630d4a5f1713711881980db507d4c9dcfc805eb38dac8d6a2577ca7804e9"),
    (8, 12, "light", "moderate", 0.0,
     {"resources_level": "many", "delay_level": "medium", "first_release": "very_late",
      "last_release": "early", "decision_points": 5},
     "58706b05edddbfb67dac9481de2455a3f8100f4d1e7684154e71015f51b7a01d"),
    (9, 40, "strong", "steep", 1.3,
     {"resources_level": "few", "delay_level": "medium", "first_release": "very_late",
      "last_release": "late", "decision_points": 20},
     "f0594595167768e63d37d84d3c40ed9c8d245281a8282eb984198ed129a123f7"),
    (10, 25, "light", "flat", 0.0,
     {"resources_level": "many", "delay_level": "low", "first_release": "late",
      "last_release": "early", "decision_points": 1, "landscape_extent": 10000.0},
     "1ae1877f158edfbce31ce5410c5c4f690d582705da5db5b4bd09eac14234166b"),
]


class TestGoldenInstances:
    """Instance files are byte-identical to those of the first generator."""

    @pytest.mark.parametrize(
        "seed, n, wind, slope, direction, fields, digest",
        GOLDEN_INSTANCES,
        ids=[f"seed{row[0]}-n{row[1]}" for row in GOLDEN_INSTANCES],
    )
    def test_instance_sha256(self, seed, n, wind, slope, direction, fields, digest):
        config = GeneratorConfig(
            seed=seed, n=n, wind_level=wind, slope_level=slope, wind_direction=direction, **fields
        )
        text = instance_to_json(generate_instance(config))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_covers_every_level(self):
        rows = [dict(row[5], wind_level=row[2], slope_level=row[3]) for row in GOLDEN_INSTANCES]
        for name, table in [
            ("wind_level", WIND_LEVELS),
            ("slope_level", SLOPE_LEVELS),
            ("resources_level", RESOURCE_LEVELS),
            ("delay_level", DELAY_LEVELS),
            ("first_release", FIRST_RELEASE_LEVELS),
            ("last_release", LAST_RELEASE_LEVELS),
        ]:
            default = getattr(GeneratorConfig(), name)
            assert {row.get(name, default) for row in rows} == set(table), name


# ---------------------------------------------------------------------------
# The per-cell scalar generator as first written (noise, landscape fields,
# physics and the arc loop), frozen as the bitwise reference of the array
# generator.  It shares only the permutation tables of wsptools.noise.


GRADIENTS = [(math.cos(2 * math.pi * i / 16), math.sin(2 * math.pi * i / 16)) for i in range(16)]


def scalar_noise(seed, channel, x, y):
    table = noise._permutation(seed, channel)
    x0, y0 = math.floor(x), math.floor(y)
    fx, fy = x - x0, y - y0

    def dot(ix, iy, dx, dy):
        grad = GRADIENTS[table[(table[ix & 255] + iy) & 255] & 15]
        return grad[0] * dx + grad[1] * dy

    def fade(t):
        return t * t * t * (t * (t * 6 - 15) + 10)

    n00 = dot(x0, y0, fx, fy)
    n10 = dot(x0 + 1, y0, fx - 1, fy)
    n01 = dot(x0, y0 + 1, fx, fy - 1)
    n11 = dot(x0 + 1, y0 + 1, fx - 1, fy - 1)
    u, v = fade(fx), fade(fy)
    nx0 = n00 + u * (n10 - n00)
    nx1 = n01 + u * (n11 - n01)
    raw = nx0 + v * (nx1 - nx0)
    value = 0.5 * (raw * (2.0 / math.sqrt(2.0)) + 1.0)
    return min(1.0, max(0.0, value))


def scalar_neighbors(n, x, y):
    if x > 0:
        yield x - 1, y
    if x < n - 1:
        yield x + 1, y
    if y > 0:
        yield x, y - 1
    if y < n - 1:
        yield x, y + 1


def scalar_landscape(config):
    n, period = config.n, 8.0
    cells = [(x, y) for y in range(n) for x in range(n)]
    heights = tuple(
        config.max_height * scalar_noise(config.seed, 0, x / period, y / period) for x, y in cells
    )
    lo, hi = BASE_ROS_RANGE
    base_ros = tuple(
        lo + (hi - lo) * scalar_noise(config.seed, 3, x / period, y / period) for x, y in cells
    )
    lo, hi = WIND_LEVELS[config.wind_level]
    base = (math.cos(config.wind_direction), math.sin(config.wind_direction))
    wind = {}
    for x, y in cells:
        u = y * n + x
        for nx, ny in scalar_neighbors(n, x, y):
            v = ny * n + nx
            if u > v:
                continue
            mx = (x + nx) / 2.0 / period
            my = (y + ny) / 2.0 / period
            angle = (2.0 * scalar_noise(config.seed, 1, mx, my) - 1.0) * (math.pi / 6.0)
            speed = lo + (hi - lo) * scalar_noise(config.seed, 2, mx, my)
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            wind[(u, v)] = (
                speed * (cos_a * base[0] - sin_a * base[1]),
                speed * (sin_a * base[0] + cos_a * base[1]),
            )
    return Landscape(heights=heights, base_ros=base_ros, wind_vectors=wind)


# The factor coefficients and the fuel bed (beta, sigma, beta_rel) as
# literals of their own, so the reference reads nothing of wsptools.rothermel.
A_S, B_S = 5.275, 0.3
A_W, B_W, C_W, D_W, E_W, F_W, G_W = 7.47, 0.133, 0.55, 0.02526, 0.54, 0.715, 3.59e-4
BETA, SIGMA, BETA_REL = 0.005, 2000.0, 1.0


def scalar_rate_of_spread(base_rate, u, a):
    if base_rate <= 0:
        raise DomainError(f"base rate of spread must be positive, got {base_rate}")

    def phi_s(a):
        return A_S * BETA ** (-B_S) * a**2

    def phi_w(u):
        c_w = (A_W * math.exp(-B_W * SIGMA**C_W)) * (BETA_REL ** (-D_W * math.exp(-E_W * SIGMA)))
        return c_w * u ** (F_W * SIGMA**G_W)

    if a >= 0 and u >= 0:
        r = 1.0 + phi_w(u) + phi_s(a)
    elif a < 0 and u >= 0:
        r = 1.0 + max(0.0, phi_w(u) - phi_s(a))
    elif a >= 0 and u < 0:
        r = 1.0 + max(0.0, phi_s(a) - phi_w(abs(u)))
    else:
        r = 1.0
    return base_rate * r


def scalar_arcs(config, landscape):
    n = config.n
    d = float(config.cell_spacing)
    arcs = []
    for y in range(n):
        for x in range(n):
            u = y * n + x
            for nx, ny in scalar_neighbors(n, x, y):
                v = ny * n + nx
                dz = landscape.heights[v] - landscape.heights[u]
                dz = max(-1.0 * d, min(1.0 * d, dz))
                slope_tan = dz / d
                wind = landscape.wind_vectors[(min(u, v), max(u, v))]
                component = wind[0] * (nx - x) + wind[1] * (ny - y)
                r_tail = scalar_rate_of_spread(landscape.base_ros[u], component, slope_tan)
                r_head = scalar_rate_of_spread(landscape.base_ros[v], component, slope_tan)
                length = math.hypot(d, dz)
                arcs.append((u, v, length * (r_tail + r_head) / (2.0 * r_tail * r_head)))
    return tuple(arcs)


def bits(values):
    """Floats as hex strings, so equality is bitwise (it tells -0.0 from 0.0)."""
    return [float(v).hex() for v in values]


def reference_arc_wind(config, pairs):
    """The reference's pair dict as one row per arc, arcs in (tail, head)
    order as the graph stores them; (u, v) and (v, u) read the same pair."""
    n = config.n
    arcs = sorted(
        (y * n + x, ny * n + nx)
        for y in range(n)
        for x in range(n)
        for nx, ny in scalar_neighbors(n, x, y)
    )
    return np.array([pairs[(min(u, v), max(u, v))] for u, v in arcs], dtype=np.float64)


BITWISE_CONFIGS = [
    GeneratorConfig(seed=seed, n=n, wind_level=wind, slope_level=slope, wind_direction=direction)
    for seed, (n, wind, slope, direction) in enumerate(
        (n, wind, slope, direction)
        for n in (2, 3, 7, 12)
        for wind in WIND_LEVELS
        for slope in SLOPE_LEVELS
        for direction in (0.0, 1.3, -2.7)
    )
] + [
    GeneratorConfig(seed=5, n=20, slope_level="steep"),
    GeneratorConfig(seed=6, n=9, wind_level="strong"),
    GeneratorConfig(seed=7, n=10, slope_level="steep", landscape_extent=900.0),
]


class TestScalarReference:
    """The array generator equals the frozen scalar loops bit for bit."""

    @pytest.mark.parametrize("config", BITWISE_CONFIGS, ids=lambda c: f"s{c.seed}-n{c.n}")
    def test_landscape_and_arcs_bitwise(self, config):
        landscape = generate_landscape(config)
        reference = scalar_landscape(config)
        assert bits(landscape.heights) == bits(reference.heights)
        assert bits(landscape.base_ros) == bits(reference.base_ros)
        wind = reference_arc_wind(config, reference.wind_vectors)
        assert landscape.wind_vectors.shape == wind.shape
        assert bits(landscape.wind_vectors.ravel()) == bits(wind.ravel())
        arcs = build_travel_times(config, landscape).arcs
        expected = sorted(scalar_arcs(config, reference))
        assert [a[:2] for a in arcs] == [a[:2] for a in expected]
        assert bits(a[2] for a in arcs) == bits(a[2] for a in expected)

    def test_hand_made_landscape_hits_every_case(self, rng):
        # heights far apart (the 45-degree cap binds both ways), winds of
        # both signs and exact zeros: all four Albini cases and both caps
        config = GeneratorConfig(seed=0, n=6)
        d = config.cell_spacing
        n2 = config.n * config.n
        heights = tuple(float(h) for h in rng.uniform(0.0, 3.0 * d, size=n2))
        base_ros = tuple(float(r) for r in rng.uniform(0.5, 20.0, size=n2))
        wind = {}
        for (u, v), w in scalar_landscape(config).wind_vectors.items():
            choice = int(rng.integers(0, 4))
            wind[(u, v)] = [(0.0, 0.0), (-0.0, -0.0), (-w[0], -w[1]), w][choice]
        reference = Landscape(heights=heights, base_ros=base_ros, wind_vectors=wind)
        landscape = Landscape(
            heights=np.array(heights),
            base_ros=np.array(base_ros),
            wind_vectors=reference_arc_wind(config, wind),
        )
        arcs = build_travel_times(config, landscape).arcs
        expected = sorted(scalar_arcs(config, reference))
        assert bits(a[2] for a in arcs) == bits(a[2] for a in expected)

    def test_nonpositive_base_rate_rejected(self):
        config = GeneratorConfig(seed=1, n=4)
        landscape = generate_landscape(config)
        base_ros = landscape.base_ros.copy()
        base_ros[5] = 0.0
        bad = Landscape(landscape.heights, base_ros, landscape.wind_vectors)
        with pytest.raises(DomainError, match="base rate of spread must be positive, got 0.0"):
            build_travel_times(config, bad)
        reference = scalar_landscape(config)
        with pytest.raises(DomainError, match="got 0.0"):
            scalar_arcs(config, dataclasses.replace(reference, base_ros=tuple(base_ros.tolist())))
