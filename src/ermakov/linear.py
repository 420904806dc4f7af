"""Adaptive integration of the linear partner equation y'' + Omega^2(q) y = 0.

The equation has no first-derivative term, so the Wronskian of any two
solutions is exactly constant; the engine certifies each integrated pair by
measuring the pointwise drift of y1*y2' - y1'*y2 against its anchor value.

:func:`integrate_outward` is the package's one integration seam: every pair
column and every directly integrated amplitude runs through it.  It applies
an adaptive embedded Runge-Kutta method of order 8(5,3) (DOP853) outward
from an anchor, with output sampled on the caller's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConfigurationError,
    IntegrationFailureError,
    NodeApproachError,
    SingularEndpointError,
)

GRID_POINTS = 2001  # samples of the output grid when a library caller gives none


@dataclass(frozen=True)
class IntegrationSettings:
    """Tolerances and step bound for one integration run.

    The defaults are tight because integrated pairs feed the invariant
    certificates: at 1e-10 relative tolerance the parabolic-cylinder pair
    already shows ~3e-9 Wronskian drift on [-4, 4], which would eat the
    whole certification budget.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_step: float = math.inf

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ConfigurationError("tolerances must be positive and finite")
        if not self.max_step > 0:
            raise ConfigurationError("max_step must be positive")


DEFAULT_SETTINGS = IntegrationSettings()


@dataclass(frozen=True)
class Column:
    """One sampled solution with its derivative."""

    grid: np.ndarray
    y: np.ndarray
    dy: np.ndarray


@dataclass(frozen=True)
class FundamentalPair:
    """Two independent solutions on a shared grid with constant Wronskian W."""

    grid: np.ndarray
    y1: np.ndarray
    dy1: np.ndarray
    y2: np.ndarray
    dy2: np.ndarray
    W: float

    def __post_init__(self):
        if self.W == 0.0:
            raise ConfigurationError("fundamental pair requires a nonzero Wronskian")
        if np.any(np.diff(self.grid) <= 0):
            raise ConfigurationError("pair grid must be strictly increasing")

    def column(self, index: int) -> Column:
        if index == 1:
            return Column(self.grid, self.y1, self.dy1)
        if index == 2:
            return Column(self.grid, self.y2, self.dy2)
        raise ConfigurationError(f"column index must be 1 or 2, got {index!r}")

    def wronskian_samples(self) -> np.ndarray:
        return self.y1 * self.dy2 - self.dy1 * self.y2

    def subgrid(self, indices) -> "FundamentalPair":
        """Restriction of the pair to a subset of grid points."""
        idx = np.asarray(indices)
        return FundamentalPair(
            self.grid[idx], self.y1[idx], self.dy1[idx], self.y2[idx], self.dy2[idx], self.W
        )


def wronskian_check(pair: FundamentalPair) -> float:
    """Max absolute drift of the pointwise Wronskian from the pair's W."""
    return float(np.max(np.abs(pair.wronskian_samples() - pair.W)))


def normal_form_system(profile, k: float = 0.0):
    """Right-hand side of y'' = -Omega^2(q) y + k / y^3 as a first-order system.

    The state stacks n columns as (y_1 .. y_n, y_1' .. y_n').  k = 0 is the
    linear partner equation; k > 0 is the amplitude equation, one column.
    A frequency that cannot be evaluated gives NaN, which
    :func:`integrate_outward` reports as an integration failure.
    """
    omega2 = profile.omega2_array

    def rhs(q, y):
        try:
            w2 = float(omega2(np.asarray(q)))
        except (SingularEndpointError, FloatingPointError, ZeroDivisionError):
            w2 = math.nan
        n = y.size // 2
        accel = -w2 * y[:n]
        if k != 0.0:
            accel += k / y[:n] ** 3
        # a list of floats converts faster than a concatenated array
        return [*y[n:].tolist(), *accel.tolist()]

    return rhs


def integrate_outward(
    rhs,
    grid: np.ndarray,
    anchor: float,
    y0,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
    node_floor: float | None = None,
) -> np.ndarray:
    """Solve y' = rhs(q, y) with y(anchor) = y0 outward to both ends of ``grid``.

    The half-ranges right and left of the anchor are integrated separately,
    each to its grid end, and sampled on the grid points they hold.  Returns
    the state at every grid point, shape (len(y0), grid.size).

    Raises :class:`NodeApproachError` where y[0] falls below ``node_floor``
    (when given) and :class:`IntegrationFailureError` when the solver fails
    or leaves the finite range.
    """
    y0 = np.asarray(y0, dtype=float)
    kwargs = {}
    if math.isfinite(settings.max_step):
        kwargs["max_step"] = settings.max_step
    if node_floor is not None:

        def node(q, y):
            return y[0] - node_floor

        node.terminal = True
        node.direction = -1.0
        kwargs["events"] = node

    out = np.empty((y0.size, grid.size))
    right = grid >= anchor
    for mask, end in ((right, float(grid[-1])), (~right, float(grid[0]))):
        if not np.any(mask):
            continue
        if end == anchor:  # the half-range is the anchor itself
            out[:, mask] = y0[:, None]
            continue
        order = slice(None) if end > anchor else slice(None, None, -1)
        sol = solve_ivp(
            rhs,
            (anchor, end),
            y0,
            method="DOP853",
            t_eval=grid[mask][order],
            rtol=settings.rel_tol,
            atol=settings.abs_tol,
            **kwargs,
        )
        if node_floor is not None and sol.t_events[0].size:
            raise NodeApproachError(float(sol.t_events[0][0]))
        if not sol.success or not np.all(np.isfinite(sol.y)):
            last = float(sol.t[-1]) if sol.t.size else float(anchor)
            raise IntegrationFailureError(f"integration failed: {sol.message}", last_q=last)
        out[:, mask] = sol.y[:, order]
    return out


def _integrate_columns(profile, interval, anchor, ics, settings, grid):
    """(grid, stacked state) of the columns with data ``ics`` at ``anchor``."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError(f"empty integration interval {interval!r}")
    if grid is None:
        grid = np.linspace(lo, hi, GRID_POINTS)
    else:
        grid = np.asarray(grid, dtype=float)
        if np.any(np.diff(grid) <= 0):
            raise ConfigurationError("output grid must be strictly increasing")
        if grid[0] < lo - 1e-12 or grid[-1] > hi + 1e-12:
            raise ConfigurationError("output grid exceeds the integration interval")
    if not lo <= anchor <= hi:
        raise ConfigurationError(f"anchor {anchor!r} outside interval {interval!r}")
    y0 = [float(ic[0]) for ic in ics] + [float(ic[1]) for ic in ics]
    return grid, integrate_outward(normal_form_system(profile), grid, float(anchor), y0, settings)


def integrate_normal_form(
    profile,
    interval: tuple[float, float],
    ic: tuple[float, float],
    settings: IntegrationSettings = DEFAULT_SETTINGS,
    grid: np.ndarray | None = None,
    anchor: float | None = None,
) -> Column:
    """Integrate y'' + Omega^2 y = 0 with data ``ic`` posed at ``anchor``.

    The anchor defaults to the left end of ``interval``.  When it lies in
    the interior the two half-ranges are integrated outward separately, so
    the returned samples cover the whole grid.
    """
    if ic[0] == 0.0 and ic[1] == 0.0:
        raise ConfigurationError("initial data (0, 0) only generates the trivial solution")
    a = interval[0] if anchor is None else anchor
    grid, (y, dy) = _integrate_columns(profile, interval, a, [ic], settings, grid)
    return Column(grid, y, dy)


def fundamental_pair(
    profile,
    interval: tuple[float, float],
    anchor: float,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
    grid: np.ndarray | None = None,
    ic1: tuple[float, float] = (1.0, 0.0),
    ic2: tuple[float, float] = (0.0, 1.0),
) -> FundamentalPair:
    """Pair with data ic1/ic2 at the anchor (identity data by default, W = 1).

    Both columns are integrated together as one four-component system.
    """
    w = ic1[0] * ic2[1] - ic1[1] * ic2[0]
    if w == 0.0:
        raise ConfigurationError("initial data sets are linearly dependent")
    grid, (y1, y2, dy1, dy2) = _integrate_columns(
        profile, interval, anchor, [ic1, ic2], settings, grid
    )
    return FundamentalPair(grid, y1, dy1, y2, dy2, float(w))


def companion_pair(
    profile,
    column: Column,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> FundamentalPair:
    """Complete a single solution column with a second-kind companion.

    The companion is generated by identity-type data (0, 1) posed where the
    given column is largest in magnitude, so W = y1(anchor) is well away
    from zero.
    """
    idx = int(np.argmax(np.abs(column.y)))
    w = float(column.y[idx])
    if w == 0.0:
        raise ConfigurationError("column vanishes identically; no companion exists")
    y2, dy2 = integrate_outward(
        normal_form_system(profile), column.grid, float(column.grid[idx]), (0.0, 1.0), settings
    )
    return FundamentalPair(column.grid, column.y, column.dy, y2, dy2, w)


def clip_interval(
    sector, interval: tuple[float, float], offset_fraction: float = 1e-3
) -> tuple[float, float]:
    """Pull the interval off singular sector endpoints by a fixed fraction."""
    lo, hi = float(interval[0]), float(interval[1])
    span = hi - lo
    pad = offset_fraction * span
    if lo in sector.singular_endpoints:
        lo += pad
    if hi in sector.singular_endpoints:
        hi -= pad
    if not lo < hi:
        raise ConfigurationError("interval collapsed while clipping singular endpoints")
    return lo, hi
