"""Integration of the linear partner equation y'' + Omega^2(q) y = 0.

The equation has no first-derivative term, so the Wronskian of any two
solutions is exactly constant.

:func:`magnus_outward` builds every integrated pair column.  It propagates
(y, y') across each cell of the output grid with fourth-order Magnus steps
(two Gauss points per step, Iserles & Norsett 1999; Blanes, Casas, Oteo &
Ros 2009), doubling a cell's substep count until a Richardson estimate meets
the cell's share of the tolerances.  Every Magnus step has determinant 1, so
the pointwise Wronskian of an integrated pair stays at roundoff whatever the
truncation error is; the certificate of the integration is instead a global
Richardson estimate, the difference between the columns propagated with the
final and with the halved substep counts, stored as
:attr:`FundamentalPair.error`.

:func:`integrate_normal_form`, :func:`fundamental_pair` and
:func:`companion_pair` take the frequency profile, the output grid and an
anchor; the grid and the anchor alone fix the range integrated.  In a
preset the profile is the sector's own (see :mod:`ermakov.problems`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EngineError,
    IntegrationFailureError,
    SingularEndpointError,
)

# Gauss-Legendre nodes on [0, 1] and the commutator weight of the Magnus step.
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_COMMUTATOR = math.sqrt(3.0) / 12.0
# Refinement caps: substeps in one output-grid cell, and in one pass over
# all unconverged cells (this bounds the memory a pass allocates).
MAX_SUBSTEPS = 2**18
MAX_PASS_SUBSTEPS = 2**22
# Floor of a cell's tolerance, relative to the size of its matrix: below a
# few ulp the Richardson difference is roundoff and refining cannot meet it.
_ULP_FLOOR = 4.0 * np.finfo(float).eps
_SCAN_SPLIT = 256  # prefix-product length below which a scan level doubles shifts
# |s^2| below which cosh s and sinh(s)/s come from their Taylor series,
# truncated after the s^6 term (remainder below 3e-17).
_SERIES_S2 = 1e-3


@dataclass(frozen=True)
class IntegrationSettings:
    """Tolerances and step bound for one integration run.

    For a Magnus-integrated column, ``rel_tol`` and ``abs_tol`` are shared
    out over the output-grid cells of each half-range in proportion to their
    width and bound each cell matrix's Richardson estimate; ``max_step``
    bounds the starting substep length.  The defaults are tight because
    integrated pairs feed the invariant certificates.
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
    """One sampled solution with its derivative.

    ``error`` is the global integration error estimate, relative to the
    column's maximum (0 for closed-form and series columns).
    """

    grid: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    error: float = 0.0


@dataclass(frozen=True)
class FundamentalPair:
    """Two independent solutions on a shared grid with constant Wronskian W.

    ``error`` is the larger global integration error estimate of the two
    columns (0 when neither was integrated).
    """

    grid: np.ndarray
    y1: np.ndarray
    dy1: np.ndarray
    y2: np.ndarray
    dy2: np.ndarray
    W: float
    error: float = 0.0

    def __post_init__(self):
        w2 = self.W * self.W  # the quadratic form's constraint divides by W^2
        if w2 == 0.0:
            raise ConfigurationError(f"pair Wronskian {self.W!r} squares to 0")
        if not math.isfinite(w2):
            raise EngineError(f"pair Wronskian {self.W!r} squares past the double range")
        if np.any(np.diff(self.grid) <= 0):
            raise ConfigurationError("pair grid must be strictly increasing")

    def wronskian_samples(self) -> np.ndarray:
        return self.y1 * self.dy2 - self.dy1 * self.y2


def wronskian_check(pair: FundamentalPair) -> float:
    """Max absolute drift of the pointwise Wronskian from the pair's W."""
    return float(np.max(np.abs(pair.wronskian_samples() - pair.W)))


def _increasing(grid) -> np.ndarray:
    """``grid`` as floats; a grid not strictly increasing is a configuration error."""
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ConfigurationError("output grid must be strictly increasing")
    return grid


# ---------------------------------------------------------------------------
# Magnus propagator.  A 2x2 matrix, or an array of them, is stored as the
# rows (m11, m12, m21, m22) of an array of shape (4, ...).
# ---------------------------------------------------------------------------

def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise 2x2 products a @ b."""
    return np.stack((
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ))


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Inverse of determinant-1 matrices: the step back across each cell."""
    return np.stack((m[3], -m[1], -m[2], m[0]))


def _magnus_steps(w2: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp of the fourth-order Magnus generator of each step.

    ``w2[..., 0]`` and ``w2[..., 1]`` are Omega^2 at the step's two Gauss
    points, ``h`` the step length.  With w the mean of the two samples and
    d = sqrt(3)/12 h^2 (w2_1 - w2_0) from their commutator, the generator
    G = [[d, h], [-h w, -d]] is traceless with G^2 = s^2 I, s^2 = d^2 - h^2 w,
    so exp(G) = C I + S G exactly, where C = cosh s and S = sinh(s)/s (cos and
    sin for s^2 < 0, their Taylor series near s^2 = 0).
    """
    d = _COMMUTATOR * h * h * (w2[..., 1] - w2[..., 0])
    hw = 0.5 * h * (w2[..., 0] + w2[..., 1])
    s2 = d * d - h * hw
    c = 1.0 + s2 * (1 / 2 + s2 * (1 / 24 + s2 / 720))
    s = 1.0 + s2 * (1 / 6 + s2 * (1 / 120 + s2 / 5040))
    big = np.abs(s2) >= _SERIES_S2
    if big.any():
        r = np.sqrt(np.abs(s2[big]))
        grow = s2[big] > 0.0
        c[big] = np.where(grow, np.cosh(r), np.cos(r))
        s[big] = np.where(grow, np.sinh(r), np.sin(r)) / r
    m = np.empty((4, *s2.shape))  # filled row by row to bound the temporaries
    m[0] = c + s * d
    m[1] = s * h
    m[2] = -s * hw
    m[3] = c - s * d
    return m


def _cell_matrices(profile, starts, widths, counts) -> np.ndarray:
    """Propagator across each cell as the product of ``counts`` equal steps.

    One frequency call serves every cell; the steps of a cell are multiplied
    pairwise, in log2(count) passes.
    """
    groups, points = [], []
    for count in np.unique(counts) if counts.min() < counts.max() else counts[:1]:
        sel = np.flatnonzero(counts == count)
        h = widths[sel] / count
        offsets = np.arange(count)[:, None] + _GAUSS  # (count, 2), in steps
        groups.append((sel, h, (sel.size, count, 2)))
        points.append((starts[sel, None, None] + h[:, None, None] * offsets).ravel())
    try:
        w2 = profile.omega2_array(points[0] if len(points) == 1 else np.concatenate(points))
    except (SingularEndpointError, FloatingPointError, ZeroDivisionError) as exc:
        raise IntegrationFailureError(f"frequency could not be evaluated: {exc}") from None
    del points  # the samples are not needed past this point
    out = np.empty((4, widths.size))
    used = 0
    for sel, h, shape in groups:
        size = math.prod(shape)
        steps = _magnus_steps(w2[used:used + size].reshape(shape), h[:, None])
        used += size
        while steps.shape[2] > 1:
            if steps.shape[2] % 2:  # an identity step last keeps the pairs aligned
                eye = np.zeros((4, sel.size, 1))
                eye[[0, 3]] = 1.0
                steps = np.concatenate((steps, eye), axis=2)
            steps = _matmul(steps[:, :, 1::2], steps[:, :, 0::2])
        out[:, sel] = steps[:, :, 0]
    return out


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Running products m[..., k] @ ... @ m[..., 0] along the last axis.

    Above _SCAN_SPLIT matrices a work-efficient level: the products of
    adjacent pairs are scanned recursively, which gives the odd prefixes, and
    each even prefix is one more product.  Below it, log2(n) passes that each
    multiply every prefix by the one a doubling shift before it, which takes
    fewer (larger) array operations.
    """
    n = m.shape[-1]
    if n > _SCAN_SPLIT:
        odd = _prefix_products(_matmul(m[..., 1::2], m[..., 0:n - 1:2]))
        out = np.empty_like(m)
        out[..., 0] = m[..., 0]
        out[..., 1::2] = odd
        out[..., 2::2] = _matmul(m[..., 2::2], odd[..., : (n - 1) // 2])
        return out
    p = m.copy()
    shift = 1
    while shift < n:
        p[..., shift:] = _matmul(p[..., shift:], p[..., :-shift])
        shift *= 2
    return p


@np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
def magnus_outward(
    profile,
    grid: np.ndarray,
    anchor: float,
    y0,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, float]:
    """Solve y'' + Omega^2 y = 0 from data at ``anchor`` out to both grid ends.

    ``y0`` stacks n columns as (y_1 .. y_n, y_1' .. y_n').  The cells are the
    intervals between consecutive grid points, with the anchor added as a
    node when it is not one.  Each cell's substep count starts at
    ceil(width / max_step) and doubles until the Richardson estimate
    |M(h) - M(h/2)^2| / 15 of its matrix M meets the cell's share
    width / half-range of rel_tol |M| + abs_tol, floored at a few ulp of |M|.

    Returns the state at every grid point, shape (2n, grid.size), and the
    global error estimate: the largest max |Y_fine - Y_coarse| / 15 of a
    state row relative to that row's maximum, where Y_coarse is propagated
    with every cell's halved final substep count.

    Raises :class:`IntegrationFailureError`, with ``last_q`` the last node
    reached outward from the anchor, when a cell needs more than
    :data:`MAX_SUBSTEPS` substeps, a pass more than :data:`MAX_PASS_SUBSTEPS`,
    or a cell matrix or state is not finite.
    """
    y0 = np.asarray(y0, dtype=float)
    n = y0.size // 2
    pos = int(np.searchsorted(grid, anchor))
    on_grid = pos < grid.size and grid[pos] == anchor
    nodes = grid if on_grid else np.insert(grid, pos, anchor)
    starts, widths = nodes[:-1], np.diff(nodes)
    right = np.arange(widths.size) >= pos  # cell i spans nodes[i] .. nodes[i + 1]
    share = widths / np.where(right, nodes[-1] - anchor, anchor - nodes[0])

    def failure(message, reached):
        """Error at the failure nearest the anchor; ``reached`` holds the
        last node reached before each failure."""
        nearest = reached[np.argmin(np.abs(reached - anchor))]
        return IntegrationFailureError(message, last_q=float(nearest))

    def cell_failure(message, cells):
        # the anchor-side end of a cell is the last node reached before it
        return failure(message, np.where(right[cells], starts[cells], nodes[cells + 1]))

    counts = np.ones(widths.size, dtype=np.int64)
    if math.isfinite(settings.max_step):
        counts = np.ceil(np.clip(widths / settings.max_step, 1, MAX_SUBSTEPS + 1))  # >= 1 step
        counts = counts.astype(np.int64)
    cells = np.empty((4, 2, widths.size))  # axis 1: final (fine, coarse) cell matrices
    todo, coarse = np.arange(widths.size), None
    while todo.size:
        if counts[todo].max() > MAX_SUBSTEPS or counts[todo].sum() > MAX_PASS_SUBSTEPS:
            over = todo[counts[todo] == counts[todo].max()]
            raise cell_failure("Magnus refinement reached its substep cap", over)
        new = _cell_matrices(profile, starts[todo], widths[todo], counts[todo])
        bad = ~np.all(np.isfinite(new), axis=0)
        if bad.any():
            raise cell_failure("cell propagator is not finite", todo[bad])
        if coarse is not None:
            size = np.max(np.abs(new), axis=0)
            estimate = np.max(np.abs(new - coarse), axis=0) / 15.0
            tol = np.maximum(
                share[todo] * (settings.rel_tol * size + settings.abs_tol), _ULP_FLOOR * size
            )
            done = estimate <= tol
            cells[:, 0, todo[done]] = new[:, done]
            cells[:, 1, todo[done]] = coarse[:, done]
            todo, new = todo[~done], new[:, ~done]
        coarse = new
        counts[todo] *= 2

    # propagators from the anchor to every node, fine and coarse together
    phi = np.empty((4, 2, nodes.size))
    phi[..., :pos] = _prefix_products(_adjugate(cells[..., :pos])[..., ::-1])[..., ::-1]
    phi[:, :, pos] = np.array([1.0, 0.0, 0.0, 1.0])[:, None]
    phi[..., pos + 1:] = _prefix_products(cells[..., pos:])
    y, dy = y0[:n, None], y0[n:, None]
    state, coarse_state = (
        np.concatenate((p[0] * y + p[1] * dy, p[2] * y + p[3] * dy)) for p in phi.swapaxes(0, 1)
    )
    bad = ~np.all(np.isfinite(state), axis=0)
    if bad.any():
        first = np.flatnonzero(bad)
        reached = np.where(first > pos, first - 1, first + 1)
        raise failure("integration left the finite range", nodes[reached])
    scale = np.maximum(np.max(np.abs(state), axis=1), np.finfo(float).tiny)
    error = float(np.max(np.max(np.abs(state - coarse_state), axis=1) / scale)) / 15.0
    if not on_grid:
        state = np.delete(state, pos, axis=1)
    return state, error


# Not called here: bound only so that the benchmark's tracer
# (perfbench/tracing.py), which wraps linear.solve_ivp, finds the name.
def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


# ---------------------------------------------------------------------------
# Pair and column builders
# ---------------------------------------------------------------------------

def _integrate_columns(profile, grid, anchor, ics, settings):
    """(grid, stacked state, error) of the columns with data ``ics`` at ``anchor``."""
    grid = _increasing(grid)
    y0 = [float(ic[0]) for ic in ics] + [float(ic[1]) for ic in ics]
    return (grid, *magnus_outward(profile, grid, float(anchor), y0, settings))


def integrate_normal_form(
    profile,
    grid: np.ndarray,
    anchor: float,
    ic: tuple[float, float],
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> Column:
    """Integrate y'' + Omega^2 y = 0 with data ``ic`` posed at ``anchor``.

    The solution is carried outward from the anchor to both ends of
    ``grid``, which fix the range integrated; an anchor off the grid, or
    beyond either end, is added as a node.
    """
    if ic[0] == 0.0 and ic[1] == 0.0:
        raise ConfigurationError("initial data (0, 0) only generates the trivial solution")
    grid, (y, dy), error = _integrate_columns(profile, grid, anchor, [ic], settings)
    return Column(grid, y, dy, error)


def fundamental_pair(
    profile,
    grid: np.ndarray,
    anchor: float,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
    ic1: tuple[float, float] = (1.0, 0.0),
    ic2: tuple[float, float] = (0.0, 1.0),
) -> FundamentalPair:
    """Pair with data ic1/ic2 at the anchor (identity data by default, W = 1).

    Both columns are propagated by the same cell matrices, outward from the
    anchor to both ends of ``grid``.
    """
    w = ic1[0] * ic2[1] - ic1[1] * ic2[0]
    if w == 0.0:
        raise ConfigurationError("initial data sets are linearly dependent")
    grid, (y1, y2, dy1, dy2), error = _integrate_columns(
        profile, grid, anchor, [ic1, ic2], settings
    )
    return FundamentalPair(grid, y1, dy1, y2, dy2, float(w), error)


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
    (y2, dy2), error = magnus_outward(
        profile, column.grid, float(column.grid[idx]), (0.0, 1.0), settings
    )
    return FundamentalPair(
        column.grid, column.y, column.dy, y2, dy2, w, max(column.error, error)
    )

