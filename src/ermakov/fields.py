"""Physical guiding fields built from normalized amplitudes.

The stationary continuity equation integrates to p = C / R^2 per sector,
with R = rho / sqrt(s) the physical amplitude.  C = 0 marks bound
(zero-current) sectors; C != 0 marks open ones.  Trajectories of
x' = C / (m R^2(x)) are the quadrature t(x) = t0 + (m/C) int_{x0}^{x} R^2 dx,
evaluated exactly on a cubic spline of R^2 and inverted by Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Not called here: bound only so that the benchmark's tracer
# (perfbench/tracing.py), which wraps fields.solve_ivp, finds the name.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.interpolate import CubicSpline

from .catalog import SectorSpec
from .errors import (
    ConfigurationError,
    IntegrationFailureError,
    NodeApproachError,
    NodeSingularityError,
    PathExitsGridError,
    SingularEndpointError,
)
from .pinney import ErmakovAmplitude

FLUX_TOLERANCE = 1e-12  # default bound on |sum C_i|
_WEIGHT_FLOOR = 1e-12
_NODE_FLOOR = 1e-10
_TRAJECTORY_FLOOR = 1e-8
_NEWTON_STEPS = 8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FluxLedger:
    """Flux constants of all sectors of one run."""

    entries: tuple[tuple[str, float], ...]

    def total(self) -> float:
        return float(sum(c for _, c in self.entries))


@dataclass(frozen=True)
class FluxCheck:
    residual: float
    passed: bool
    enforced: bool
    note: str = ""


def physical_amplitude(amplitude: ErmakovAmplitude, sector: SectorSpec) -> np.ndarray:
    """R = rho / sqrt(s) on the amplitude grid."""
    s = np.asarray(sector.weight.value(amplitude.grid), dtype=float)
    bad = ~np.isfinite(s) | (s < _WEIGHT_FLOOR)
    if np.any(bad):
        raise SingularEndpointError(
            float(amplitude.grid[int(np.argmax(bad))]),
            "weight vanishes on the requested grid; clip it off the singular endpoint",
        )
    return amplitude.rho / np.sqrt(s)


def momentum_field(C: float, R: np.ndarray) -> np.ndarray:
    """p = C / R^2; identically zero for C = 0 regardless of nodes."""
    R = np.asarray(R, dtype=float)
    if C == 0.0:
        return np.zeros_like(R)
    nodes = np.abs(R) <= _NODE_FLOOR
    if np.any(nodes):
        raise NodeSingularityError(np.flatnonzero(nodes).tolist())
    return C / R**2


def quantum_potential(
    psi: np.ndarray, d2psi: np.ndarray, m: float = 1.0, hbar: float = 1.0
) -> np.ndarray:
    """Curvature potential -(hbar^2/2m) psi''/psi from explicit samples."""
    psi = np.asarray(psi, dtype=float)
    d2psi = np.asarray(d2psi, dtype=float)
    nodes = psi == 0.0
    if np.any(nodes):
        raise NodeSingularityError(np.flatnonzero(nodes).tolist())
    return -(hbar**2 / (2.0 * m)) * d2psi / psi


def quantum_potential_ep(
    omega2: np.ndarray,
    k: float,
    rho: np.ndarray,
    m: float = 1.0,
    hbar: float = 1.0,
) -> np.ndarray:
    """Curvature potential of the amplitude itself.

    Substituting the amplitude equation rho'' = -Omega^2 rho + k/rho^3 gives
    -(hbar^2/2m) rho''/rho = (hbar^2/2m)(Omega^2 - k/rho^4), which is what
    enters the separated energy balance p^2/2m + V + Q = E.
    """
    rho = np.asarray(rho, dtype=float)
    return (hbar**2 / (2.0 * m)) * (np.asarray(omega2, dtype=float) - k / rho**4)


def trajectory(
    C: float,
    grid: np.ndarray,
    R: np.ndarray,
    m: float,
    x0: float,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Path of x' = C / (m R^2(x)) from x(t0) = x0 on the given time grid.

    The equation integrates to the quadrature t(x) - t0 = (m/C) S(x) with
    S(x) = int_{x0}^{x} R^2.  R^2 is taken as a not-a-knot cubic spline and
    integrated exactly cell by cell; the node values of S are summed outward
    from x0's cell, so no large partial sum is subtracted near x0.  S(x) = s
    is then solved by Newton steps from a linear-interpolation guess.  The
    path stops with an error if it meets a node of R or leaves the grid.
    """
    grid = np.asarray(grid, dtype=float)
    R = np.asarray(R, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    lo, hi = float(grid[0]), float(grid[-1])
    if not lo <= x0 <= hi:
        raise ConfigurationError(f"x0 = {x0!r} outside the field grid [{lo}, {hi}]")
    if C == 0.0:
        return np.full_like(t_grid, float(x0))

    c = CubicSpline(grid, R * R).c  # c[0] (x - x_i)^3 + ... + c[3] on cell i
    h = np.diff(grid)

    def cell_integral(i, d):
        return (((c[0, i] * d / 4.0 + c[1, i] / 3.0) * d + c[2, i] / 2.0) * d + c[3, i]) * d

    def cell_r2(i, d):
        return ((c[0, i] * d + c[1, i]) * d + c[2, i]) * d + c[3, i]

    def locate(x):
        i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
        return i, x - grid[i]

    # S at the nodes, accumulated outward from x0's cell in both directions
    k, d0 = locate(float(x0))
    cells = cell_integral(np.arange(h.size), h)
    head = cell_integral(k, d0)
    S = np.empty_like(grid)
    S[k::-1] = -head - np.concatenate(([0.0], np.cumsum(cells[:k][::-1])))
    S[k + 1:] = cells[k] - head + np.concatenate(([0.0], np.cumsum(cells[k + 1:])))

    def S_at(x):
        i, d = locate(x)
        return S[i] + cell_integral(i, d), cell_r2(i, d)

    # Nodes: samples, interior cell minima of the R^2 spline (which can ring
    # below zero between positive samples) and x0 itself where R^2 is at the
    # floor, and sign changes of R.  S is monotone between x0 and the nearest
    # node on either side.
    with np.errstate(divide="ignore", invalid="ignore"):  # local-minimum offsets
        d_min = -c[2] / (c[1] + np.sqrt(c[1] ** 2 - 3.0 * c[0] * c[2]))
    inner = np.flatnonzero((d_min > 0.0) & (d_min < h))
    at = np.concatenate((grid, grid[inner] + d_min[inner], [x0]))
    r2 = np.concatenate((R * R, cell_r2(inner, d_min[inner]), [S_at(float(x0))[1]]))
    j = np.flatnonzero(R[1:] * R[:-1] < 0.0)
    nodes = np.concatenate((
        at[r2 <= _TRAJECTORY_FLOOR**2], grid[j] - R[j] * h[j] / (R[j + 1] - R[j])
    ))
    x_left = nodes[nodes <= x0].max(initial=-np.inf)
    x_right = nodes[nodes >= x0].min(initial=np.inf)
    s_left = S_at(x_left)[0] if np.isfinite(x_left) else -np.inf
    s_right = S_at(x_right)[0] if np.isfinite(x_right) else np.inf

    v = C / m
    t0 = float(t_grid[0])
    s = v * (t_grid - t0)
    s_lo, s_hi = min(0.0, float(s.min())), max(0.0, float(s.max()))
    for x_n, s_n, reached in ((x_right, s_right, s_hi > 0.0 and s_hi >= s_right),
                              (x_left, s_left, s_lo < 0.0 and s_lo <= s_left)):
        if reached:
            t_n = t0 + float(np.clip(s_n, s_lo, s_hi)) / v
            raise NodeApproachError(
                float(x_n), f"trajectory approached an amplitude node at t = {t_n!r}"
            )
    # S on the stretch the path can reach; flat beyond the nearest nodes
    table = np.where(grid <= x_left, s_left, np.where(grid >= x_right, s_right, S))
    # Rounding pad: a path landing exactly on the grid boundary is not an exit.
    pad = 1e-9 * (hi - lo)
    if s_hi > table[-1] + pad * R[-1] ** 2:
        raise PathExitsGridError(t0 + float(table[-1]) / v, hi)
    if s_lo < table[0] - pad * R[0] ** 2:
        raise PathExitsGridError(t0 + float(table[0]) / v, lo)

    x = np.interp(s, table, grid)
    for _ in range(_NEWTON_STEPS):
        f, slope = S_at(x)
        step = (f - s) / slope
        x = x - step
        if not np.any(np.abs(step) > _EPS * (hi - lo)):  # also stops on nan
            break
    f, slope = S_at(x)
    roundoff = 64.0 * _EPS * (max(abs(S[0]), abs(S[-1])) + np.abs(x * slope))
    bad = ~(np.abs(f - s) <= roundoff)
    if np.any(bad):
        worst = int(np.argmax(bad))
        raise IntegrationFailureError(
            f"trajectory inversion left residual {float(f[worst] - s[worst])!r} in int R^2 dx",
            float(x[worst]),
        )
    return x


def flux_constraint_check(
    ledger: FluxLedger, enforce: bool = True, tolerance: float = FLUX_TOLERANCE
) -> FluxCheck:
    """Residual |sum C_i| against the stationary global constraint."""
    if not ledger.entries:
        raise ConfigurationError("flux ledger is empty")
    residual = abs(ledger.total())
    if not enforce:
        return FluxCheck(
            residual, True, False, "constraint not enforced (open/scattering sectors)"
        )
    return FluxCheck(residual, residual <= tolerance, True)
