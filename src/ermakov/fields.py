"""Guiding fields built from the normal-form amplitude alone.

The current s R^2 S' of R = rho / sqrt(s) is rho^2 S' = C, so p = C / rho^2
(where g^qq = 1); the weight s enters only Omega_geom^2 and the R column.
C = 0 marks bound sectors, C != 0 open ones.  Trajectories of
x' = C / (m rho^2) are the quadrature t = t0 + (m/C) int_{x0}^{x} rho^2 dx,
exact on cubic Hermite cells of rho^2 (its samples and exact slope
2 rho rho'), inverted by Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import SectorSpec
from .errors import (
    ConfigurationError,
    IntegrationFailureError,
    NodeApproachError,
    NodeSingularityError,
    PathExitsGridError,
    SingularEndpointError,
)
# Not called here: bound only so that the benchmark's tracer
# (perfbench/tracing.py), which wraps fields.solve_ivp, finds the name.
from .linear import solve_ivp  # noqa: F401
from .pinney import ErmakovAmplitude

FLUX_TOLERANCE = 1e-12  # default bound on |sum C_i| / sum |C_i|
_WEIGHT_FLOOR = 1e-12
_NEWTON_STEPS = 8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FluxLedger:
    """Flux constants of all sectors of one run."""

    entries: tuple[tuple[str, float], ...]

    def residual(self) -> float:
        """|sum C_i| / sum |C_i|, 0 when every C_i is 0: unchanged by C -> lambda C."""
        scale = sum(abs(c) for _, c in self.entries)
        return abs(sum(c for _, c in self.entries)) / scale if scale else 0.0


@dataclass(frozen=True)
class FluxCheck:
    residual: float
    passed: bool
    enforced: bool
    note: str = ""


def physical_amplitude(amplitude: ErmakovAmplitude, sector: SectorSpec) -> np.ndarray:
    """R = rho / sqrt(s) on the amplitude grid (the R output column)."""
    s = np.asarray(sector.weight.value(amplitude.grid), dtype=float)
    bad = ~np.isfinite(s) | (s < _WEIGHT_FLOOR)
    if np.any(bad):
        raise SingularEndpointError(
            float(amplitude.grid[int(np.argmax(bad))]),
            "weight vanishes on the requested grid; clip it off the singular endpoint",
        )
    return amplitude.rho / np.sqrt(s)


def momentum_field(C: float, rho: np.ndarray) -> np.ndarray:
    """p = C / rho^2 from rho^2 p = C, zero for C = 0; a node (a sample where
    C / rho^2 is not finite) raises :class:`NodeSingularityError`."""
    rho = np.asarray(rho, dtype=float)
    if C == 0.0:
        return np.zeros_like(rho)
    with np.errstate(divide="ignore", over="ignore"):
        p = C / rho**2
    nodes = np.flatnonzero(~np.isfinite(p))
    if nodes.size:
        raise NodeSingularityError(nodes.tolist())
    return p


def quantum_potential_ep(
    omega2_phys: np.ndarray, k: float, rho: np.ndarray, m: float = 1.0, hbar: float = 1.0
) -> np.ndarray:
    """Physical Bohm potential Q = -(hbar^2/2m)(s R')'/(s R) from the amplitude.

    Substituting rho'' = -(Omega_geom^2 + Omega_phys^2) rho + k/rho^3 gives
    Q = (hbar^2/2m)(Omega_phys^2 - k/rho^4), which enters the separated
    energy balance p^2/2m + V + Q = E; the amplitude's own curvature
    -(hbar^2/2m) rho''/rho is Q + (hbar^2/2m) Omega_geom^2.  The k/rho^4 term,
    formed as (k/rho^2)/rho^2 so that it stays in range where rho^4 would not,
    is taken only for k != 0, so a bound amplitude's nodes stay finite.
    """
    rho = np.asarray(rho, dtype=float)
    q = np.broadcast_to(np.asarray(omega2_phys, dtype=float), rho.shape)
    return (hbar**2 / (2.0 * m)) * (q - (k / rho**2) / rho**2 if k != 0.0 else q)


def trajectory(
    C: float,
    grid: np.ndarray,
    rho: np.ndarray,
    drho2: np.ndarray,
    m: float,
    x0: float,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Path of x' = C / (m rho^2(x)) from x(t0) = x0 on the given time grid.

    ``drho2`` is the slope of rho^2 at the grid points.  The equation integrates
    to the quadrature t(x) - t0 = (m/C) S(x) with S(x) = int_{x0}^{x} rho^2.
    On each cell rho^2 is taken as the cubic Hermite interpolant of its values
    and slopes at the cell's ends (error O(h^4)) and integrated exactly; the
    node values of S are summed outward from x0's cell, so no large partial
    sum is subtracted near x0.  S(x) = s is then solved by Newton steps from
    a linear-interpolation guess.  The path stops with an error if it meets
    a node of rho or leaves the grid.
    """
    grid = np.asarray(grid, dtype=float)
    rho = np.asarray(rho, dtype=float)
    drho2 = np.asarray(drho2, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    lo, hi = float(grid[0]), float(grid[-1])
    if not lo <= x0 <= hi:
        raise ConfigurationError(f"x0 = {x0!r} outside the field grid [{lo}, {hi}]")
    if C == 0.0:
        return np.full_like(t_grid, float(x0))

    # c[0] (x - x_i)^3 + ... + c[3] on cell i: the Hermite cubic of rho^2
    h = np.diff(grid)
    r2 = rho * rho
    secant = np.diff(r2) / h
    with np.errstate(over="ignore"):  # a cell wider than ~1e154 has h^2 = inf, c[0] = 0
        c = np.stack((
            (drho2[:-1] + drho2[1:] - 2.0 * secant) / h**2,
            (3.0 * secant - 2.0 * drho2[:-1] - drho2[1:]) / h,
            drho2[:-1],
            r2[:-1],
        ))

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

    # Nodes: samples, interior cell minima of the rho^2 cubic (which can dip
    # below zero between positive samples) and x0 itself where rho^2 falls to
    # 64 eps of its cell's larger end sample, and sign changes of rho: both
    # scale-free.  S is monotone between x0 and the nearest node on either side.
    r2_end = np.maximum(r2[:-1], r2[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # cell-minimum offsets
        c0, c1, c2 = c[:3] / r2_end  # the cubic over r2_end, so c1^2 stays in range
        d_min = -c2 / (c1 + np.sqrt(c1**2 - 3.0 * c0 * c2))
    inner = np.flatnonzero((d_min > 0.0) & (d_min < h))
    at = np.concatenate((grid, grid[inner] + d_min[inner], [x0]))
    r2_at = np.concatenate((r2, cell_r2(inner, d_min[inner]), [S_at(float(x0))[1]]))
    j = np.flatnonzero(np.sign(rho[1:]) * np.sign(rho[:-1]) < 0.0)
    nodes = np.concatenate((at[r2_at <= 64.0 * _EPS * r2_end[locate(at)[0]]],
                            grid[j] - rho[j] * h[j] / (rho[j + 1] - rho[j])))
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
    if s_hi > table[-1] + pad * rho[-1] ** 2:
        raise PathExitsGridError(t0 + float(table[-1]) / v, hi)
    if s_lo < table[0] - pad * rho[0] ** 2:
        raise PathExitsGridError(t0 + float(table[0]) / v, lo)

    x = np.interp(s, table, grid)
    for _ in range(_NEWTON_STEPS):
        f, slope = S_at(x)
        step = (f - s) / slope
        x = x - step
        if not np.any(np.abs(step) > _EPS * (hi - lo)):  # also stops on nan
            break
    # x0 itself, which x0 - grid[k] can round away in a cell far wider than |x0|
    x[s == 0.0] = x0
    f, slope = S_at(x)
    roundoff = 64.0 * _EPS * (max(abs(S[0]), abs(S[-1])) + np.abs(x * slope))
    bad = ~(np.abs(f - s) <= roundoff)
    if np.any(bad):
        worst = int(np.argmax(bad))
        raise IntegrationFailureError(
            f"trajectory inversion left residual {float(f[worst] - s[worst])!r} in int rho^2 dx",
            float(x[worst]),
        )
    return x


def flux_constraint_check(
    ledger: FluxLedger, enforce: bool = True, tolerance: float = FLUX_TOLERANCE
) -> FluxCheck:
    """Relative residual of the stationary global constraint sum C_i = 0."""
    if not ledger.entries:
        raise ConfigurationError("flux ledger is empty")
    residual = ledger.residual()
    if not enforce:
        return FluxCheck(
            residual, True, False, "constraint not enforced (open/scattering sectors)"
        )
    return FluxCheck(residual, residual <= tolerance, True)
