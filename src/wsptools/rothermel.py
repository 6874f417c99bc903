"""Closed-form surface fire spread physics.

Implements the slope factor, wind factor, the four-case directional
multiplier, the resulting rate of spread, and the arc travel time from
the harmonic mean of the cell spread rates.  All quantities are in
imperial units: feet, ft/min, minutes.  The multiplier and the travel
time also take arrays, one entry per arc, for the instance generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Input outside the physical domain of a formula."""


@dataclass(frozen=True)
class FuelConstants:
    """Empirical coefficients of the slope and wind factor formulas."""

    a_s: float = 5.275
    b_s: float = 0.3
    a_w: float = 7.47
    b_w: float = 0.133
    c_w: float = 0.55
    d_w: float = 0.02526
    e_w: float = 0.54
    f_w: float = 0.715
    g_w: float = 3.59e-4


@dataclass(frozen=True)
class SpreadParams:
    """Fuel-bed parameters: packing ratio, surface-area-to-volume ratio
    (ft^2/ft^3), and relative packing ratio."""

    beta: float = 0.005
    sigma: float = 2000.0
    beta_rel: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or self.sigma <= 0 or self.beta_rel <= 0:
            raise DomainError("spread parameters must be strictly positive")


DEFAULT_CONSTANTS = FuelConstants()
DEFAULT_PARAMS = SpreadParams()


def _slope_coefficient(beta: float, constants: FuelConstants) -> float:
    """a_s * beta^-b_s: the slope factor per squared slope tangent."""
    if beta <= 0:
        raise DomainError(f"packing ratio must be positive, got {beta}")
    return constants.a_s * beta ** (-constants.b_s)


def _wind_coefficients(params: SpreadParams, constants: FuelConstants) -> tuple[float, float]:
    """(C, B) of the wind factor C * U^B."""
    c_w = (constants.a_w * math.exp(-constants.b_w * params.sigma**constants.c_w)) * (
        params.beta_rel ** (-constants.d_w * math.exp(-constants.e_w * params.sigma))
    )
    b_w = constants.f_w * params.sigma**constants.g_w
    return c_w, b_w


def slope_factor(
    slope_tangent: float,
    beta: float = DEFAULT_PARAMS.beta,
    constants: FuelConstants = DEFAULT_CONSTANTS,
) -> float:
    """Dimensionless slope factor; quadratic in the slope tangent."""
    return _slope_coefficient(beta, constants) * slope_tangent**2


def wind_factor(
    wind_speed: float,
    params: SpreadParams = DEFAULT_PARAMS,
    constants: FuelConstants = DEFAULT_CONSTANTS,
) -> float:
    """Dimensionless wind factor for a nonnegative midflame wind speed (ft/min).

    Sign handling for backing winds belongs to the directional multiplier;
    callers pass the magnitude.
    """
    if wind_speed < 0:
        raise DomainError(f"wind speed must be nonnegative, got {wind_speed}")
    c_w, b_w = _wind_coefficients(params, constants)
    return c_w * wind_speed**b_w


def albini_multipliers(
    wind_speeds_signed,
    slope_tangents_signed,
    params: SpreadParams = DEFAULT_PARAMS,
    constants: FuelConstants = DEFAULT_CONSTANTS,
) -> np.ndarray:
    """Directional spread multiplier r >= 1 for each (wind component,
    slope tangent) pair of two equal-length sequences, as a float64 array.

    Four cases on the signs of the wind component (>= 0 headfire) and the
    slope tangent (>= 0 upslope):

      upslope headfire:    1 + phi_w + phi_s
      downslope headfire:  1 + max(0, phi_w - phi_s)
      upslope backfire:    1 + max(0, phi_s - phi_w)
      downslope backfire:  1

    The factor constants are computed once per call.  The powers run as
    Python float operations, and only for pairs whose case uses them:
    numpy's power is not bitwise equal to Python's on every platform.
    """
    u = np.asarray(wind_speeds_signed, dtype=np.float64)
    a = np.asarray(slope_tangents_signed, dtype=np.float64)
    cases = [(a >= 0) & (u >= 0), (a < 0) & (u >= 0), (a >= 0) & (u < 0)]
    live = cases[0] | cases[1] | cases[2]
    c_w, b_w = _wind_coefficients(params, constants)
    k_s = _slope_coefficient(params.beta, constants)
    phi_w = np.zeros(u.shape)
    phi_s = np.zeros(a.shape)
    phi_w[live] = [c_w * abs(w) ** b_w for w in u[live].tolist()]
    phi_s[live] = [k_s * t**2 for t in a[live].tolist()]
    wind_excess = phi_w - phi_s
    slope_excess = phi_s - phi_w
    # max(0.0, x) is x only where x > 0.0
    return np.select(
        cases,
        [
            1.0 + phi_w + phi_s,
            1.0 + np.where(wind_excess > 0.0, wind_excess, 0.0),
            1.0 + np.where(slope_excess > 0.0, slope_excess, 0.0),
        ],
        1.0,
    )


def albini_multiplier(
    wind_speed_signed: float,
    slope_tangent_signed: float,
    params: SpreadParams = DEFAULT_PARAMS,
    constants: FuelConstants = DEFAULT_CONSTANTS,
) -> float:
    """Directional spread multiplier r >= 1 of one pair (see albini_multipliers)."""
    return float(
        albini_multipliers([wind_speed_signed], [slope_tangent_signed], params, constants)[0]
    )


def rate_of_spread(
    base_rate: float,
    wind_speed_signed: float,
    slope_tangent_signed: float,
    params: SpreadParams = DEFAULT_PARAMS,
    constants: FuelConstants = DEFAULT_CONSTANTS,
) -> float:
    """Directional rate of spread (ft/min): base rate times the multiplier."""
    if base_rate <= 0:
        raise DomainError(f"base rate of spread must be positive, got {base_rate}")
    return base_rate * albini_multiplier(wind_speed_signed, slope_tangent_signed, params, constants)


def travel_time(distance_3d, rate_tail, rate_head):
    """Fire travel time (minutes) across an arc of the given 3D length (ft).

    Uses the harmonic mean of the two cell spread rates; reduces to d/R
    when the rates are equal.  The arguments are scalars, giving a float,
    or equal-length arrays, giving one time per arc.
    """
    distances = np.asarray(distance_3d)
    if (distances <= 0).any():
        raise DomainError(f"distance must be positive, got {distances[distances <= 0].flat[0]}")
    if (np.asarray(rate_tail) <= 0).any() or (np.asarray(rate_head) <= 0).any():
        raise DomainError("spread rates must be positive")
    return distance_3d * (rate_tail + rate_head) / (2.0 * rate_tail * rate_head)
