"""Integration of the linear partner equation y'' + Omega^2(q) y = 0.

The equation has no first-derivative term, so the Wronskian of any two
solutions is exactly constant.

:func:`magnus_outward` builds every integrated pair column.  It propagates
(y, y') across each cell of the output grid with sixth-order Magnus steps
(three Gauss points per step; Blanes, Casas, Oteo & Ros 2009, section 4),
refining the cells until a Richardson estimate meets each cell's share of
the tolerance.  Every Magnus step has determinant 1, so the pointwise
Wronskian of an integrated pair stays at roundoff whatever the truncation
error is; the certificate of the integration is instead a global
Richardson estimate, the difference between the columns propagated with
the final and with the coarse cell matrices, stored as
:attr:`FundamentalPair.error`.

:func:`magnus_outward` is the one way to integrate a column: it takes the
frequency profile, the output grid and an anchor, and the grid and the
anchor alone fix the range integrated.  :func:`fundamental_pair` and
:func:`companion_pair` pose their columns through it, as do the basis
builders of :mod:`ermakov.bases`.  In a preset the profile is the sector's
own (see :mod:`ermakov.problems`).
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

# Gauss-Legendre nodes on [0, 1] of the Magnus step.
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_RICHARDSON = 63.0  # 2^6 - 1: the step is sixth order
# Relative width difference up to which two adjacent cells share a first-pass
# Richardson partner: with unequal widths the one-step-against-two estimate
# undercounts the error.
_PAIR_WIDTHS = 1e-6
# Refinement caps: substeps in one output-grid cell, and in one pass over
# all unconverged cells (this bounds the memory a pass allocates).
MAX_SUBSTEPS = 2**18
MAX_PASS_SUBSTEPS = 2**22
# Floor of a cell's tolerance, relative to the size of its matrix: below a
# few ulp the Richardson difference is roundoff and refining cannot meet it.
_ULP_FLOOR = 4.0 * np.finfo(float).eps
_LOG_MAX = math.log(np.finfo(float).max)  # growth exponent past which a matrix overflows
_SCAN_SPLIT = 256  # prefix-product length below which a scan level doubles shifts
# |s^2| below which cosh s and sinh(s)/s come from their Taylor series,
# truncated after the s^6 term (remainder below 3e-17).
_SERIES_S2 = 1e-3


@dataclass(frozen=True)
class IntegrationSettings:
    """Tolerance of one integration run.

    For a Magnus-integrated column, ``rel_tol`` is shared out over the
    output-grid cells of each half-range in proportion to their width and
    bounds each cell matrix's sixth-order Richardson estimate
    |M - M_coarse| / 63 relative to that matrix, first against one step
    across two equal neighbouring cells (see :func:`magnus_outward`).  The
    default is tight because integrated pairs feed the invariant
    certificates.
    """

    rel_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ConfigurationError("rel_tol must be positive and finite")


DEFAULT_SETTINGS = IntegrationSettings()


@dataclass(frozen=True)
class Column:
    """One closed-form or series solution, sampled with its exact derivative."""

    grid: np.ndarray
    y: np.ndarray
    dy: np.ndarray


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
        _pair_wronskian(self.W)
        _increasing(self.grid)

    def wronskian_samples(self) -> np.ndarray:
        return self.y1 * self.dy2 - self.dy1 * self.y2

    def condition(self) -> float:
        """kappa = max(|y1 y2'| + |y1' y2|) / |W|: a Wronskian-based check on
        the pair (the invariant among them) is at roundoff near eps kappa."""
        products = np.abs(self.y1 * self.dy2) + np.abs(self.dy1 * self.y2)
        return float(np.max(products)) / abs(self.W)


def _pair_wronskian(w: float) -> float:
    """``w`` as a pair's Wronskian W, checked before any propagation: the
    form's constraint divides by W^2, so W^2 must be nonzero and finite."""
    w = float(w)
    if w * w == 0.0:
        raise ConfigurationError(f"pair Wronskian {w!r} squares to 0")
    if not math.isfinite(w * w):
        raise EngineError(f"pair Wronskian {w!r} squares past the double range")
    return w


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
    """Elementwise 2x2 products a @ b, a and b of equal ndim: entry (i, k) is
    a_i0 b_0k + a_i1 b_1k, each term one broadcast over (i, k), so that no
    temporary is larger than the output."""
    a, b = a.reshape(2, 2, 1, *a.shape[1:]), b.reshape(1, 2, 2, *b.shape[1:])
    out = np.multiply(a[:, 0], b[:, 0], order="C")  # fancy-indexed operands hold entries innermost
    out += np.multiply(a[:, 1], b[:, 1], order="C")
    return out.reshape(4, *out.shape[2:])


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Inverse of determinant-1 matrices: the step back across each cell."""
    adj = m[[3, 1, 2, 0]]
    np.negative(adj[1:3], out=adj[1:3])
    return adj


def _magnus_steps(w2: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of the sixth-order Magnus generator of each step, and its growth
    exponent max(Re s, 0), infinite where the generator is not finite.

    ``w2[0]``, ``w2[1]`` and ``w2[2]`` are Omega^2 at the step's three Gauss
    points, ``h`` the step length.  With A = [[0, 1], [-Omega^2, 0]] and
    a1 = h A(1/2), a2 = sqrt(15) h/3 (A_3 - A_1), a3 = 10 h/3 (A_3 - 2 A_2 + A_1),
    the generator is G = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240 with
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1]/60 (Blanes, Casas, Oteo & Ros 2009,
    section 4).  Written out, G = [[g, b], [c, -g]] is traceless with
    G^2 = s^2 I, s^2 = g^2 + b c, so exp(G) = C I + S G exactly, where
    C = cosh s and S = sinh(s)/s (cos and sin for s^2 < 0, their Taylor series
    near s^2 = 0).
    """
    k2 = (math.sqrt(15.0) / 3.0) * h * (w2[2] - w2[0])
    k3 = (10.0 / 3.0) * h * (w2[2] - 2.0 * w2[1] + w2[0])
    hw = h * w2[1]
    hk2 = h * k2
    g = hk2 * (1 / 12 + h * (hw / 180 + k3 / 7200))
    b = h * (1.0 + h * (hk2 * k2 / 3600 + k3 / 180))
    c = (hw * (h * (k3 / 180 - hk2 * k2 / 3600) - 1.0) - k3 / 12
         + h * (k3 * k3 / 3600 - k2 * k2 / 120))
    s2 = g * g + b * c
    cosh = 1.0 + s2 * (1 / 2 + s2 * (1 / 24 + s2 / 720))
    sinc = 1.0 + s2 * (1 / 6 + s2 * (1 / 120 + s2 / 5040))
    big = np.abs(s2) >= _SERIES_S2
    if big.any():
        r = np.sqrt(np.abs(s2[big]))
        grow = s2[big] > 0.0
        cosh[big] = np.where(grow, np.cosh(r), np.cos(r))
        sinc[big] = np.where(grow, np.sinh(r), np.sin(r)) / r
    m = np.empty((4, *s2.shape))  # filled row by row to bound the temporaries
    m[0] = cosh + sinc * g
    m[1] = sinc * b
    m[2] = sinc * c
    m[3] = cosh - sinc * g
    return m, np.where(np.isfinite(s2), np.sqrt(np.maximum(s2, 0.0)), np.inf)


def _cell_matrices(profile, starts, widths, count) -> tuple[np.ndarray, np.ndarray]:
    """Propagator across each cell as the product of ``count`` equal steps,
    and the cell's growth exponent, the sum of its steps' (see
    :func:`_magnus_steps`); |propagator| grows about as its exponential.

    One frequency call serves every cell, its points laid out node by node
    as (3, cells, count); the steps of a cell are multiplied pairwise, in
    log2(count) passes.
    """
    h = widths / count
    offsets = np.arange(count) + _GAUSS[:, None, None]  # (3, 1, count), in steps
    try:
        w2 = profile.omega2_array((starts[:, None] + h[:, None] * offsets).ravel())
    except (SingularEndpointError, FloatingPointError, ZeroDivisionError) as exc:
        raise IntegrationFailureError(f"frequency could not be evaluated: {exc}") from None
    w2 = w2.reshape(3, widths.size, count)
    steps, growth = _magnus_steps(w2, h[:, None])
    while steps.shape[2] > 1:
        steps = _matmul(steps[:, :, 1::2], steps[:, :, 0::2])
    return steps[:, :, 0], growth.sum(axis=1)


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


@np.errstate(over="ignore", invalid="ignore")  # non-finite results refine or raise below
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
    node when it is not one; each cell's tolerance is its share of rel_tol,
    width / half-range * rel_tol, and a cell matrix M meets it when its
    Richardson estimate |M - M_coarse| / 63 is at most max(tolerance,
    a few ulp) * |M|.

    The first pass takes one sixth-order step per cell, and pairs the cells
    outward from the anchor: two adjacent cells of equal width on the same
    side are both done when their product F2 F1 meets the summed tolerance
    of the two against one step P across both, and the second cell's coarse
    matrix is then P adj(F1), so the coarse matrices multiply to P.  The
    other cells go on at two substeps with their one-step matrix as coarse
    partner, and the cells still refining share one substep count, which
    doubles on each pass.  A cell matrix that is not finite although the
    generators of its steps are (one step across a wide, growing cell can
    overflow where finer steps do not) is not converged and refines, until
    its growth exponent has settled above log(DBL_MAX): it moved since the
    previous count by no more than its excess over that bound, so the
    propagator itself overflows.

    Returns the state at every grid point, shape (2n, grid.size), and the
    global error estimate: the largest max |Y_fine - Y_coarse| / 63 of a
    state row relative to that row's maximum, where Y_coarse is propagated
    with the coarse cell matrices.

    Raises :class:`ConfigurationError` if ``grid`` is not strictly
    increasing, and :class:`IntegrationFailureError`, with ``last_q`` the
    last node reached outward from the anchor, when a step's generator is
    not finite (an Omega^2 sample is not, or the step is so wide that the
    generator overflows, which no affordable refinement undoes) or a cell's
    settled growth exponent is past the double range, a cell needs more than
    :data:`MAX_SUBSTEPS` substeps, a pass more than :data:`MAX_PASS_SUBSTEPS`,
    or a state is not finite.
    """
    grid = _increasing(grid)
    y, dy = np.asarray(y0, dtype=float).reshape(2, -1, 1)  # (y_1 .. y_n), (y_1' .. y_n')
    pos = int(np.searchsorted(grid, anchor))
    on_grid = pos < grid.size and grid[pos] == anchor
    nodes = grid if on_grid else np.insert(grid, pos, anchor)
    starts, widths = nodes[:-1], np.diff(nodes)
    right = np.arange(widths.size) >= pos  # cell i spans nodes[i] .. nodes[i + 1]
    tol = widths / np.where(right, nodes[-1] - anchor, anchor - nodes[0]) * settings.rel_tol

    def failure(message, reached):
        """Error at the failure nearest the anchor; ``reached`` holds the
        last node reached before each failure."""
        nearest = reached[np.argmin(np.abs(reached - anchor))]
        return IntegrationFailureError(message, last_q=float(nearest))

    def cell_failure(message, cells):
        # the anchor-side end of a cell is the last node reached before it
        return failure(message, np.where(right[cells], starts[cells], nodes[cells + 1]))

    def converged(fine, coarse, bound):
        """Whether each finite ``fine`` matrix meets ``bound`` against ``coarse``."""
        estimate = np.max(np.abs(fine - coarse), axis=0) / _RICHARDSON
        size = np.max(np.abs(fine), axis=0)
        return np.all(np.isfinite(fine), axis=0) & (estimate <= np.maximum(bound, _ULP_FLOOR) * size)

    def cell_pass(near, span_starts, span_widths, count):
        """Matrices across the spans of one pass; ``near`` holds, per span,
        the cell that shares its anchor-side end, for the failure messages."""
        if count > MAX_SUBSTEPS or count * near.size > MAX_PASS_SUBSTEPS:
            raise cell_failure("Magnus refinement reached its substep cap", near)
        matrices, growth = _cell_matrices(profile, span_starts, span_widths, count)
        if not np.isfinite(growth).all():
            raise cell_failure("cell propagator is not finite", near[~np.isfinite(growth)])
        return matrices, growth

    # first pass: one step per cell, and one across each pair (i, i + 1) of
    # equal cells, counted outward from the anchor on either side
    lower = np.arange(pos % 2, widths.size - 1, 2)
    lower = lower[np.abs(widths[lower + 1] - widths[lower]) <= _PAIR_WIDTHS * widths[lower]]
    every = np.arange(widths.size)
    new, growth = cell_pass(
        np.concatenate((every, np.where(right[lower], lower, lower + 1))),
        np.concatenate((starts, starts[lower])),
        np.concatenate((widths, nodes[lower + 2] - starts[lower])),
        1,
    )
    fine, pair = new[:, :widths.size], new[:, widths.size:]
    cells = np.stack((fine, fine), axis=1)  # axis 1: final (fine, coarse) cell matrices
    ok = converged(_matmul(fine[:, lower + 1], fine[:, lower]), pair, tol[lower] + tol[lower + 1])
    lower = lower[ok]
    cells[:, 1, lower + 1] = _matmul(pair[:, ok], _adjugate(fine[:, lower]))
    todo = every[np.bincount(np.concatenate((lower, lower + 1)), minlength=every.size) == 0]
    coarse, grown, count = fine[:, todo], growth[todo], 2
    while todo.size:
        new, growth = cell_pass(todo, starts[todo], widths[todo], count)
        stuck = ~np.all(np.isfinite(new), axis=0) & (np.abs(growth - grown) <= growth - _LOG_MAX)
        if stuck.any():
            raise cell_failure("cell propagator is not finite", todo[stuck])
        done = converged(new, coarse, tol[todo])
        cells[:, 0, todo[done]] = new[:, done]
        cells[:, 1, todo[done]] = coarse[:, done]
        todo, coarse, grown = todo[~done], new[:, ~done], growth[~done]
        count *= 2

    # propagators from the anchor to every node, fine and coarse together
    phi = np.empty((4, 2, nodes.size))
    phi[..., :pos] = _prefix_products(_adjugate(cells[..., :pos])[..., ::-1])[..., ::-1]
    phi[:, :, pos] = np.array([1.0, 0.0, 0.0, 1.0])[:, None]
    phi[..., pos + 1:] = _prefix_products(cells[..., pos:])
    state, coarse_state = (
        np.concatenate((p[0] * y + p[1] * dy, p[2] * y + p[3] * dy)) for p in phi.swapaxes(0, 1)
    )
    bad = ~np.all(np.isfinite(state), axis=0)
    if bad.any():
        first = np.flatnonzero(bad)
        reached = np.where(first > pos, first - 1, first + 1)
        raise failure("integration left the finite range", nodes[reached])
    scale = np.maximum(np.max(np.abs(state), axis=1), np.finfo(float).tiny)
    error = float(np.max(np.max(np.abs(state - coarse_state), axis=1) / scale)) / _RICHARDSON
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
    w = _pair_wronskian(ic1[0] * ic2[1] - ic1[1] * ic2[0])
    grid = np.asarray(grid, dtype=float)
    (y1, y2, dy1, dy2), error = magnus_outward(
        profile, grid, anchor, (ic1[0], ic2[0], ic1[1], ic2[1]), settings
    )
    return FundamentalPair(grid, y1, dy1, y2, dy2, w, error)


def companion_pair(
    profile,
    column: Column,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> FundamentalPair:
    """Complete a single solution column with a second-kind companion.

    The companion is generated by identity-type data (0, 1) posed where the
    given column is largest in magnitude, so W = y1(anchor) is well away
    from zero: at the first sample within 1e-9 of that magnitude, because
    mirror-image maxima (|D_n| on a symmetric grid) differ by rounding only,
    which must not choose between them.
    """
    magnitude = np.abs(column.y)
    near = np.flatnonzero(magnitude >= (1.0 - 1e-9) * np.max(magnitude))
    idx = int(near[0]) if near.size else int(np.argmax(magnitude))
    w = _pair_wronskian(column.y[idx])
    (y2, dy2), error = magnus_outward(
        profile, column.grid, float(column.grid[idx]), (0.0, 1.0), settings
    )
    return FundamentalPair(column.grid, column.y, column.dy, y2, dy2, w, error)

