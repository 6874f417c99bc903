"""Closed-form surface fire spread physics.

Implements the slope factor, wind factor, the four-case directional
multiplier, the resulting rate of spread, and the arc travel time from
the harmonic mean of the cell spread rates.  All quantities are in
imperial units: feet, ft/min, minutes.  The multiplier and the travel
time also take arrays, one entry per arc, for the instance generator.
The fuel bed and the factor coefficients are fixed module constants.
"""

from __future__ import annotations

import math

import numpy as np


class DomainError(ValueError):
    """Input outside the physical domain of a formula."""


# Empirical coefficients of the slope factor a_s * beta^-b_s * tan^2 and
# the wind factor C * U^B (Rothermel 1972, USDA Forest Service Research
# Paper INT-115).
A_S, B_S = 5.275, 0.3
A_W, B_W, C_W, D_W, E_W, F_W, G_W = 7.47, 0.133, 0.55, 0.02526, 0.54, 0.715, 3.59e-4

# The fuel bed: packing ratio, surface-area-to-volume ratio (ft^2/ft^3)
# and relative packing ratio.
BETA, SIGMA, BETA_REL = 0.005, 2000.0, 1.0

# The slope factor per squared slope tangent, and (C, B) of the wind factor.
_K_S = A_S * BETA ** (-B_S)
_C_W = (A_W * math.exp(-B_W * SIGMA**C_W)) * (BETA_REL ** (-D_W * math.exp(-E_W * SIGMA)))
_B_W = F_W * SIGMA**G_W


def slope_factor(slope_tangent: float) -> float:
    """Dimensionless slope factor; quadratic in the slope tangent."""
    return _K_S * slope_tangent**2


def wind_factor(wind_speed: float) -> float:
    """Dimensionless wind factor for a nonnegative midflame wind speed (ft/min).

    Sign handling for backing winds belongs to the directional multiplier;
    callers pass the magnitude.
    """
    if wind_speed < 0:
        raise DomainError(f"wind speed must be nonnegative, got {wind_speed}")
    return _C_W * wind_speed**_B_W


def per_distinct(f, values: np.ndarray) -> np.ndarray:
    """[f(x) for x in values.tolist()] as a float64 array, calling f once per
    distinct value; 0.0 and -0.0 count as one, so f must map both to the
    same bits."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([f(x) for x in distinct.tolist()], dtype=np.float64)[inverse]


def albini_multipliers(wind_speeds_signed, slope_tangents_signed) -> np.ndarray:
    """Directional spread multiplier r >= 1 for each (wind component,
    slope tangent) pair of two equal-length sequences, as a float64 array.

    Four cases on the signs of the wind component (>= 0 headfire) and the
    slope tangent (>= 0 upslope):

      upslope headfire:    1 + phi_w + phi_s
      downslope headfire:  1 + max(0, phi_w - phi_s)
      upslope backfire:    1 + max(0, phi_s - phi_w)
      downslope backfire:  1

    The powers run as Python float operations, once per distinct value
    and only for pairs whose case uses them: numpy's power is not bitwise
    equal to Python's on every platform.
    """
    u = np.asarray(wind_speeds_signed, dtype=np.float64)
    a = np.asarray(slope_tangents_signed, dtype=np.float64)
    cases = [(a >= 0) & (u >= 0), (a < 0) & (u >= 0), (a >= 0) & (u < 0)]
    live = cases[0] | cases[1] | cases[2]
    phi_w = np.zeros(u.shape)
    phi_s = np.zeros(a.shape)
    phi_w[live] = per_distinct(wind_factor, np.abs(u[live]))
    # (-x)**2 is x**2 bit for bit, so the slope factor runs once per distinct |tan|
    phi_s[live] = per_distinct(slope_factor, np.abs(a[live]))
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


def albini_multiplier(wind_speed_signed: float, slope_tangent_signed: float) -> float:
    """Directional spread multiplier r >= 1 of one pair (see albini_multipliers)."""
    return float(albini_multipliers([wind_speed_signed], [slope_tangent_signed])[0])


def rate_of_spread(
    base_rate: float, wind_speed_signed: float, slope_tangent_signed: float
) -> float:
    """Directional rate of spread (ft/min): base rate times the multiplier."""
    if base_rate <= 0:
        raise DomainError(f"base rate of spread must be positive, got {base_rate}")
    return base_rate * albini_multiplier(wind_speed_signed, slope_tangent_signed)


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
