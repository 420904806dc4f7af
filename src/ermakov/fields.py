"""Guiding fields built from the normal-form amplitude alone.

The current s R^2 S' of R = rho / sqrt(s) is rho^2 S' = C, so p = C / rho^2
(where g^qq = 1); the weight s enters only Omega_geom^2 and the R column.
C = 0 marks bound sectors, C != 0 open ones.  Trajectories of
x' = C / (m rho^2) are the quadrature t = t0 + (m/C) int_{x0}^{x} rho^2 dx,
exact on cubic Hermite cells of rho^2 (its samples and exact slope
2 rho rho'), inverted by bracketed Newton steps; one call takes all of a
sector's requests, builds the cells once and steps every path in one loop.
"""

from __future__ import annotations

import numpy as np

from .catalog import SectorSpec
from .errors import (
    ConfigurationError,
    EngineError,
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

_STEPS = 64  # Newton and bisection steps of a path: 53 halvings take any bracket below eps
_EPS = float(np.finfo(float).eps)


def physical_amplitude(amplitude: ErmakovAmplitude, sector: SectorSpec) -> np.ndarray:
    """R = rho / sqrt(s) on the amplitude grid (the R output column); a sample
    where s is not positive and finite, or R is not finite, raises
    :class:`SingularEndpointError`."""
    weight = sector.weight  # a unit weight is s = 1.0, with no array to build
    s = 1.0 if weight.kind == "unit" else np.asarray(weight.value(amplitude.grid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        R = amplitude.rho / np.sqrt(s)
    bad = ~((s > 0.0) & np.isfinite(s) & np.isfinite(R))
    if np.any(bad):
        raise SingularEndpointError(
            float(amplitude.grid[int(np.argmax(bad))]),
            "weight vanishes on the requested grid; clip it off the singular endpoint",
        )
    return R


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
    requests,
) -> list[np.ndarray]:
    """Paths of x' = C / (m rho^2(x)) from x(t_grid[0]) = x0, one per request (x0, t_grid).

    ``drho2`` is the slope of rho^2 at the grid points.  The equation integrates
    to the quadrature t(x) - t0 = (m/C) S(x) with S(x) = int_{x0}^{x} rho^2.
    On each cell rho^2 is taken as the cubic Hermite interpolant of its values
    and slopes at the cell's ends (error O(h^4)) and integrated exactly, once
    for all requests; each path's node values of S are summed outward from its
    x0's cell, so no large partial sum is subtracted near x0.  S(x) = s is then
    solved by Newton steps from a linear-interpolation guess, all samples in
    one loop, each path until its own steps stop; a step out of the bracket of
    rho's nearest nodes (or grid ends), where S is monotone, bisects it.  A path
    stops with an error if it meets a node of rho or leaves the grid, and a
    travel max |C/m (t - t0)| / rho^2(x0) within the spacing of doubles in x0's
    cell is a configuration error; the first failing request's error is raised.
    """
    grid = np.asarray(grid, dtype=float)
    rho = np.asarray(rho, dtype=float)
    drho2 = np.asarray(drho2, dtype=float)
    requests = [(x0, np.asarray(t_grid, dtype=float)) for x0, t_grid in requests]
    lo, hi = float(grid[0]), float(grid[-1])

    def on_grid(x0):
        if not lo <= x0 <= hi:
            raise ConfigurationError(f"x0 = {x0!r} outside the field grid [{lo}, {hi}]")
        return x0

    if C == 0.0 or all(t_grid.size == 1 for _, t_grid in requests):  # each path is x0
        return [np.full_like(t_grid, float(on_grid(x0))) for x0, t_grid in requests]

    # c[0] (x - x_i)^3 + ... + c[3] on cell i: the Hermite cubic of rho^2
    h = np.diff(grid)
    r2 = rho * rho
    secant = np.diff(r2) / h
    with np.errstate(over="ignore"):  # c[0] = 0 where h^2 is inf (h > ~1e154) or 0 (h < ~1e-162)
        c = np.stack((
            (drho2[:-1] + drho2[1:] - 2.0 * secant) / np.where(h**2 > 0.0, h**2, np.inf),
            (3.0 * secant - 2.0 * drho2[:-1] - drho2[1:]) / h,
            drho2[:-1],
            r2[:-1],
        ))

    def cell_integral(ci, d):  # ci: the coefficients c[:, i] of the cells i
        return (((ci[0] * d / 4.0 + ci[1] / 3.0) * d + ci[2] / 2.0) * d + ci[3]) * d

    def cell_r2(ci, d):
        return ((ci[0] * d + ci[1]) * d + ci[2]) * d + ci[3]

    # cell i holds [lower[i], upper[i]): end cells open-ended, a non-finite x in none
    lower = np.concatenate(([-np.finfo(float).max], grid[1:-1]))
    upper = np.concatenate((grid[1:-1], [np.inf]))

    def locate(x, i=None):  # (cell holding x, offset); searched only where cell i does not hold x
        if i is None:
            i = np.searchsorted(grid[1:-1], x, side="right")
        elif not (held := (lower[i] <= x) & (x < upper[i])).all():
            i[~held] = np.searchsorted(grid[1:-1], x[~held], side="right")
        return i, x - grid[i]

    def S_at(x, S, row=0, i=None):  # (S, rho^2, cell) of the path whose node values start at S[row]
        i, d = locate(x, i)
        return S[row + i] + cell_integral(ci := c[:, i], d), cell_r2(ci, d), i

    cells = cell_integral(c, h)
    # Nodes: samples, interior cell minima of the rho^2 cubic (which can dip
    # below zero between positive samples) and x0 itself where rho^2 falls to
    # 64 eps of its cell's larger end sample, and sign changes of rho: both
    # scale-free.  S is monotone between x0 and the nearest node on either side.
    r2_end = np.maximum(r2[:-1], r2[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # cell-minimum offsets
        c0, c1, c2 = c[:3] / r2_end  # the cubic over r2_end, so c1^2 stays in range
        d_min = -c2 / (c1 + np.sqrt(c1**2 - 3.0 * c0 * c2))
    inner = np.flatnonzero((d_min > 0.0) & (d_min < h))
    at = np.concatenate((grid, grid[inner] + d_min[inner]))
    r2_at = np.concatenate((r2, cell_r2(c[:, inner], d_min[inner])))
    j = np.flatnonzero(np.sign(rho[1:]) * np.sign(rho[:-1]) < 0.0)
    nodes = np.concatenate((at[r2_at <= 64.0 * _EPS * r2_end[locate(at)[0]]],
                            grid[j] - rho[j] * h[j] / (rho[j + 1] - rho[j])))
    v = C / m
    # Rounding pad: a path landing exactly on the grid boundary is not an exit.
    pad = 1e-9 * (hi - lo)

    # S of every path at the nodes, summed outward from its x0's cell both ways
    # by one cumsum over zero-padded rows of the cells left of it (reversed) and
    # right of it, in the order of a 1-D cumsum.  Off-grid x0 raise in prepare.
    k, d0 = locate(np.array([x0 if lo <= x0 <= hi else lo for x0, _ in requests], dtype=float))
    outward = np.zeros((2, k.size, grid.size))
    for row, k_path in enumerate(k.tolist()):
        outward[0, row, grid.size - k_path :] = cells[:k_path][::-1]
        outward[1, row, k_path + 2 :] = cells[k_path + 1 :]
    head, kk, outward = cell_integral(c[:, k], d0)[:, None], k[:, None], np.cumsum(outward, axis=2)
    S_rows = np.where(np.arange(grid.size) <= kk, -head - outward[0, :, ::-1],
                      cells[kk] - head + outward[1])
    r2_rows = cell_r2(c[:, k], d0)

    def prepare(x0, t_grid, S, k, r2_0):
        """(S at the nodes, targets of S, Newton guess, x0, scale of S, nearest nodes) of a path."""
        on_grid(x0)
        near = np.append(nodes, x0) if r2_0 <= 64.0 * _EPS * r2_end[k] else nodes
        x_left = near[near <= x0].max(initial=-np.inf)
        x_right = near[near >= x0].min(initial=np.inf)
        s_left = S_at(x_left, S)[0] if np.isfinite(x_left) else -np.inf
        s_right = S_at(x_right, S)[0] if np.isfinite(x_right) else np.inf

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
        # travel at x0's rho^2 within the spacing of doubles in x0's cell: the
        # quadrature's offsets from grid[k] cannot resolve the path
        spacing = _EPS * (abs(float(grid[k])) + float(h[k]))
        if r2_0 > 0.0 and 0.0 < max(s_hi, -s_lo) / r2_0 <= spacing:
            raise ConfigurationError(
                f"the grid cell holding x0 = {x0!r} is too wide to resolve the trajectory; "
                "refine the grid there"
            )
        # S on the stretch the path can reach; flat beyond the nearest nodes
        table = (S if x_left == -np.inf and x_right == np.inf  # no node on either side
                 else np.where(grid <= x_left, s_left, np.where(grid >= x_right, s_right, S)))
        if s_hi > table[-1] + pad * rho[-1] ** 2:
            raise PathExitsGridError(t0 + float(table[-1]) / v, hi)
        if s_lo < table[0] - pad * rho[0] ** 2:
            raise PathExitsGridError(t0 + float(table[0]) / v, lo)
        return (S, s, np.interp(s, table, grid), float(x0), max(abs(S[0]), abs(S[-1])),
                x_left, x_right)

    def solve(paths):
        S_rows, s, x, starts, scale, a, b = map(np.hstack, zip(*paths))
        sizes = [path[1].size for path in paths]
        which = np.repeat(np.arange(len(paths)), sizes)  # the path of each sample
        a, b = np.maximum(a[which], lo - 2.0 * pad), np.minimum(b[which], hi + 2.0 * pad)
        x, row, live = np.minimum(np.maximum(x, a), b), which * grid.size, np.arange(x.size)
        last = np.full(x.size, np.inf)  # each sample's last |step|
        cell = locate(x)[0]  # each sample's cell at its last evaluation
        for _ in range(_STEPS):
            f, slope, cell[live] = S_at(x_live := x[live], S_rows, row[live], cell[live])
            step = (f - s[live]) / slope
            x[live] = x_live - step
            if not (inside := (x >= a) & (x <= b)).all():
                at = np.searchsorted(live, out := np.flatnonzero(~inside))  # out's places in live
                a[out], b[out] = np.where(f[at] < s[out], (x_live[at], b[out]), (a[out], x_live[at]))
                x[out], step[at] = 0.5 * (a[out] + b[out]), np.inf
            # a path steps on while any of its steps is large (nan is not) and not settled:
            # a finite step no smaller than its last, from a residual within the final bound
            size, bound = np.abs(step), 64.0 * _EPS * (scale[which[live]] + np.abs(x_live * slope))
            settled = (size >= last[live]) & (size < np.inf) & (np.abs(f - s[live]) <= bound)
            last[live] = size
            moving = np.bincount(which[live], (size > _EPS * (hi - lo)) & ~settled, len(paths)) > 0
            live = live[moving[which[live]]]
            if not live.size:
                break
        # x0 itself, which x0 - grid[k] can round away in a cell far wider than |x0|
        x[s == 0.0] = starts[which[s == 0.0]]
        f, slope, _ = S_at(x, S_rows, row, cell)
        roundoff = 64.0 * _EPS * (scale[which] + np.abs(x * slope))
        bad = ~(np.abs(f - s) <= roundoff)
        if np.any(bad):
            worst = int(np.argmax(bad))
            raise IntegrationFailureError(
                f"trajectory inversion left residual {float(f[worst] - s[worst])!r} in int rho^2 dx",
                float(x[worst]),
            )
        return np.split(x, np.cumsum(sizes)[:-1])

    paths = []
    for (x0, t_grid), S, k_path, r2_0 in zip(requests, S_rows, k.tolist(), r2_rows.tolist()):
        try:
            paths.append(prepare(x0, t_grid, S, k_path, r2_0))
        except EngineError:  # after the requests before it, which fail first
            if paths:
                solve(paths)
            raise
    return solve(paths)
