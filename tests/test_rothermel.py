import math

import numpy as np
import pytest

from wsptools import rothermel
from wsptools.rothermel import (
    A_S,
    A_W,
    B_S,
    B_W,
    BETA,
    BETA_REL,
    C_W,
    D_W,
    E_W,
    F_W,
    G_W,
    SIGMA,
    DomainError,
    albini_multiplier,
    albini_multipliers,
    rate_of_spread,
    slope_factor,
    travel_time,
    wind_factor,
)

# Frozen from a 50-digit evaluation of the closed forms with the default
# constants (see formulas in wsptools.rothermel).
PHI_S_TAN1_BETA_0005 = 25.854221349058093
PHI_W_100_DEFAULTS = 0.033864572923739816


class TestSlopeFactor:
    def test_flat_terrain_is_zero(self):
        assert slope_factor(0.0) == 0.0

    def test_frozen_reference_value(self):
        assert slope_factor(1.0) == pytest.approx(PHI_S_TAN1_BETA_0005, abs=1e-9)

    def test_even_in_tangent(self):
        for a in np.linspace(-2.0, 2.0, 17):
            assert slope_factor(a) == slope_factor(-a)


class TestWindFactor:
    def test_no_wind_is_zero(self):
        assert wind_factor(0.0) == 0.0

    def test_frozen_reference_value(self):
        assert wind_factor(100.0) == pytest.approx(PHI_W_100_DEFAULTS, abs=1e-9)

    def test_strictly_increasing(self):
        speeds = np.linspace(1.0, 900.0, 40)
        values = [wind_factor(u) for u in speeds]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_negative_speed(self):
        with pytest.raises(DomainError):
            wind_factor(-1.0)


class TestAlbiniMultiplier:
    def test_downslope_backfire_is_one(self):
        assert albini_multiplier(-100.0, -0.5) == 1.0

    def test_degenerate_boundary_is_one(self):
        assert albini_multiplier(0.0, 0.0) == 1.0

    def test_upslope_headfire_sums_factors(self):
        expected = 1.0 + wind_factor(120.0) + slope_factor(0.4)
        assert albini_multiplier(120.0, 0.4) == expected

    def test_matches_case_table_oracle(self, rng):
        for _ in range(200):
            u = float(rng.uniform(-900, 900))
            a = float(rng.uniform(-2, 2))
            phi_w = wind_factor(abs(u))
            phi_s = slope_factor(abs(a))
            if a >= 0 and u >= 0:
                expected = 1 + phi_w + phi_s
            elif a < 0 and u >= 0:
                expected = 1 + max(0.0, phi_w - phi_s)
            elif a >= 0 and u < 0:
                expected = 1 + max(0.0, phi_s - phi_w)
            else:
                expected = 1.0
            assert albini_multiplier(u, a) == expected

    def test_never_below_one(self, rng):
        for _ in range(100):
            u = float(rng.uniform(-900, 900))
            a = float(rng.uniform(-2, 2))
            assert albini_multiplier(u, a) >= 1.0

    def test_boundary_signs_route_to_headfire_upslope(self):
        # U = 0 picks the headfire branches, A = 0 the upslope ones
        assert albini_multiplier(0.0, 0.5) == 1.0 + slope_factor(0.5)
        assert albini_multiplier(50.0, 0.0) == 1.0 + wind_factor(50.0)


class TestAlbiniMultipliers:
    def test_entries_equal_case_table(self, rng):
        # zeros of both signs sit on the case boundaries
        u = np.concatenate([rng.uniform(-900, 900, 300), [0.0, -0.0, 0.0, -0.0, 5.0, -5.0]])
        a = np.concatenate([rng.uniform(-2, 2, 300), [0.0, -0.0, -0.3, 0.3, 0.0, -0.0]])
        values = albini_multipliers(u, a)
        assert values.shape == u.shape
        for ui, ai, value in zip(u.tolist(), a.tolist(), values.tolist()):
            phi_w = wind_factor(abs(ui))
            phi_s = slope_factor(ai)
            if ai >= 0 and ui >= 0:
                expected = 1.0 + phi_w + phi_s
            elif ai < 0 and ui >= 0:
                expected = 1.0 + max(0.0, phi_w - phi_s)
            elif ai >= 0 and ui < 0:
                expected = 1.0 + max(0.0, phi_s - phi_w)
            else:
                expected = 1.0
            assert value.hex() == expected.hex()

    def test_nan_selects_no_case(self):
        assert albini_multipliers([math.nan, 10.0], [0.5, math.nan]).tolist() == [1.0, 1.0]

    def test_powers_only_where_used(self):
        # a downslope backfire never squares its tangent, so no overflow
        assert albini_multiplier(-1.0, -1e200) == 1.0
        with pytest.raises(OverflowError):
            albini_multiplier(1.0, -1e200)

    def test_empty(self):
        assert albini_multipliers([], []).shape == (0,)

    def test_reads_the_factor_functions(self, monkeypatch):
        # the multiplier takes phi_w and phi_s from wind_factor and slope_factor,
        # the one owner of each formula; both are even, so each gets the magnitude
        # (slope_factor squares its tangent) and runs once per distinct one
        seen = []
        monkeypatch.setattr(rothermel, "wind_factor", lambda w: 10.0 * w)
        monkeypatch.setattr(rothermel, "slope_factor", lambda t: seen.append(t) or 100.0 * t)
        u, a = [2.0, 2.0, -3.0, 3.0, -1.0], [0.5, -0.1, 0.5, -0.5, -1.0]
        assert albini_multipliers(u, a).tolist() == [
            1.0 + 20.0 + 50.0, 1.0 + 20.0 - 10.0, 1.0 + 50.0 - 30.0, 1.0, 1.0]
        assert seen == [0.1, 0.5]


class TestRateOfSpread:
    def test_backfire_keeps_base_rate(self):
        assert rate_of_spread(7.0, -10.0, -0.1) == 7.0

    def test_linear_in_base_rate(self, rng):
        for _ in range(50):
            u = float(rng.uniform(-900, 900))
            a = float(rng.uniform(-2, 2))
            r = albini_multiplier(u, a)
            assert rate_of_spread(3.0, u, a) == pytest.approx(3.0 * r, rel=1e-12)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(DomainError):
            rate_of_spread(0.0, 1.0, 1.0)


class TestTravelTime:
    def test_equal_rates(self):
        assert travel_time(800.0, 10.0, 10.0) == 80.0

    def test_harmonic_mean_formula(self):
        assert travel_time(800.0, 5.0, 20.0) == 100.0

    def test_symmetric_in_rates(self, rng):
        for _ in range(50):
            a = float(rng.uniform(0.1, 50))
            b = float(rng.uniform(0.1, 50))
            assert travel_time(500.0, a, b) == travel_time(500.0, b, a)

    def test_harmonic_mean_bound(self, rng):
        for _ in range(50):
            a = float(rng.uniform(0.1, 50))
            b = float(rng.uniform(0.1, 50))
            speed = 500.0 / travel_time(500.0, a, b)
            assert min(a, b) - 1e-9 <= speed <= max(a, b) + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            travel_time(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            travel_time(1.0, 0.0, 1.0)

    def test_arrays_equal_scalar_calls(self, rng):
        d, a, b = (rng.uniform(0.1, 50, 40) for _ in range(3))
        times = travel_time(d, a, b)
        assert times.tolist() == [
            travel_time(*args) for args in zip(d.tolist(), a.tolist(), b.tolist())
        ]
        assert type(travel_time(800.0, 5.0, 20.0)) is float

    def test_rejects_bad_array_entries(self):
        ones = np.ones(3)
        with pytest.raises(DomainError, match="got -2.0"):
            travel_time(np.array([1.0, -2.0, 0.0]), ones, ones)
        with pytest.raises(DomainError, match="spread rates"):
            travel_time(ones, ones, np.array([1.0, 1.0, 0.0]))


class TestConstants:
    def test_defaults_match_reference_table(self):
        assert (A_S, B_S) == (5.275, 0.3)
        assert (A_W, B_W, C_W) == (7.47, 0.133, 0.55)
        assert (D_W, E_W, F_W, G_W) == (0.02526, 0.54, 0.715, 3.59e-4)

    def test_default_params(self):
        assert (BETA, SIGMA, BETA_REL) == (0.005, 2000.0, 1.0)
