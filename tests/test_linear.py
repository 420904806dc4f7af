"""Linear partner integration and Wronskian certification."""

import math

import numpy as np
import pytest

from ermakov.catalog import FrequencyProfile, SectorSpec, Weight
from ermakov import linear
from ermakov.errors import ConfigurationError, EngineError, IntegrationFailureError
from ermakov.linear import (
    Column,
    FundamentalPair,
    IntegrationSettings,
    companion_pair,
    fundamental_pair,
    magnus_outward,
    wronskian_check,
)


def unit_profile(omega2):
    """Unit-weight profile whose Omega^2 is the callable ``omega2``."""
    return FrequencyProfile(SectorSpec("q", (-math.inf, math.inf), Weight.unit()), omega2)


CONST_ONE = unit_profile(lambda q: np.ones_like(np.asarray(q, float)))
CONST_ZERO = unit_profile(lambda q: np.zeros_like(np.asarray(q, float)))


def weber_profile(nu):
    return unit_profile(
        lambda xi: nu + 0.5 - 0.25 * np.asarray(xi, float) ** 2
    )


def test_sine_endpoint():
    (y, dy), _ = magnus_outward(CONST_ONE, np.linspace(0.0, math.pi / 2, 2001), 0.0, (0.0, 1.0))
    assert abs(y[-1] - 1.0) <= 1e-9
    assert abs(dy[-1]) <= 1e-9


def test_linear_endpoint():
    (y, _), _ = magnus_outward(CONST_ZERO, np.linspace(0.0, 3.0, 2001), 0.0, (0.0, 1.0))
    assert abs(y[-1] - 3.0) <= 1e-10


def test_weber_ground_state_value():
    # D_0(xi) = exp(-xi^2/4); data (1, 0) at 0 gives y(2) = e^{-1}
    (y, _), _ = magnus_outward(weber_profile(0.0), np.linspace(0.0, 2.0, 2001), 0.0, (1.0, 0.0))
    assert abs(y[-1] - math.exp(-1.0)) <= 1e-8


def test_fundamental_pair_trig():
    grid = np.linspace(-2.0, 5.0, 701)
    pair = fundamental_pair(CONST_ONE, grid, 0.0)
    assert pair.W == 1.0
    np.testing.assert_allclose(pair.y1, np.cos(grid), atol=1e-9)
    np.testing.assert_allclose(pair.y2, np.sin(grid), atol=1e-9)
    assert wronskian_check(pair) <= 1e-9


def test_fundamental_pair_zero_frequency():
    grid = np.linspace(-1.0, 4.0, 501)
    pair = fundamental_pair(CONST_ZERO, grid, 0.0)
    np.testing.assert_allclose(pair.y1, np.ones_like(grid), atol=1e-12)
    np.testing.assert_allclose(pair.y2, grid, atol=1e-11)


def test_wronskian_drift_harmonic_pair():
    grid = np.linspace(-4.0, 4.0, 1001)
    pair = fundamental_pair(weber_profile(0.5), grid, 0.0)
    assert wronskian_check(pair) <= 1e-9 * max(1.0, abs(pair.W))


def test_wronskian_exact_trig_pair():
    grid = np.linspace(0.0, 6.0, 400)
    pair = FundamentalPair(
        grid, np.cos(grid), -np.sin(grid), np.sin(grid), np.cos(grid), 1.0
    )
    assert wronskian_check(pair) <= 1e-14


def test_wronskian_detects_corruption():
    grid = np.linspace(0.0, 6.0, 400)
    y2 = np.sin(grid)
    y2[200:] *= 1.0 + 1e-3
    pair = FundamentalPair(grid, np.cos(grid), -np.sin(grid), y2, np.cos(grid), 1.0)
    assert wronskian_check(pair) > 1e-4


def fd_residual(grid, y, omega2):
    h = grid[1] - grid[0]
    return np.max(
        np.abs((y[:-2] - 2 * y[1:-1] + y[2:]) / h**2 + omega2[1:-1] * y[1:-1])
    )


def test_residual_second_order_in_grid_spacing():
    profile = weber_profile(0.3)
    res = {}
    for n in (801, 1601):
        grid = np.linspace(0.0, 3.0, n)
        (y, _), _ = magnus_outward(profile, grid, 0.0, (1.0, 0.0))
        res[n] = fd_residual(grid, y, profile.omega2_array(grid))
    ratio = res[801] / res[1601]
    assert 3.5 <= ratio <= 4.5


def test_tolerance_monotonicity_against_closed_form():
    errors = []
    grid = np.linspace(0.0, math.pi / 2, 41)
    for rel in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        settings = IntegrationSettings(rel_tol=rel)
        (y, _), _ = magnus_outward(CONST_ONE, grid, 0.0, (0.0, 1.0), settings)
        errors.append(abs(y[-1] - 1.0))
    for coarse, fine in zip(errors, errors[1:]):
        # ties to within round-off happen when both runs take the same steps
        assert fine <= coarse * (1 + 1e-6) + 1e-14


def test_endpoint_reproducible_under_refinement():
    rel = 1e-8
    grid = np.linspace(0.0, 4.0, 41)
    (base, _), _ = magnus_outward(
        weber_profile(0.5), grid, 0.0, (1.0, 0.0), IntegrationSettings(rel_tol=rel)
    )
    (refined, _), _ = magnus_outward(
        weber_profile(0.5), grid, 0.0, (1.0, 0.0), IntegrationSettings(rel_tol=rel / 2)
    )
    assert abs(base[-1] - refined[-1]) <= 10 * rel * max(1.0, abs(base[-1]))


def test_integration_failure_carries_last_q():
    # Frequency turns non-evaluable past q = 0.5; the solver must stall there.
    profile = unit_profile(
        lambda q: np.where(np.asarray(q, float) < 0.5, 1.0, np.nan)
    )
    with pytest.raises(IntegrationFailureError) as err:
        magnus_outward(profile, np.linspace(0.0, 2.0, 2001), 0.0, (1.0, 0.0))
    assert err.value.last_q is not None
    assert err.value.last_q <= 0.75


def test_settings_validation():
    for rel_tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            IntegrationSettings(rel_tol=rel_tol)


def test_trivial_data_rejected():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigurationError):  # data (0, 0) only gives y = 0, and W = 0
        fundamental_pair(CONST_ONE, grid, 0.0, ic1=(0.0, 0.0), ic2=(0.0, 1.0))
    with pytest.raises(ConfigurationError):  # the grid must increase strictly
        magnus_outward(CONST_ONE, grid[::-1], 0.0, (1.0, 0.0))
    with pytest.raises(ConfigurationError):
        fundamental_pair(CONST_ONE, grid, 0.0, ic1=(1.0, 2.0), ic2=(0.5, 1.0))


def test_anchor_splits_interval():
    grid = np.linspace(-3.0, 3.0, 301)
    (y, _), _ = magnus_outward(CONST_ONE, grid, 0.0, (1.0, 0.0))
    np.testing.assert_allclose(y, np.cos(grid), atol=1e-9)


def test_companion_pair_builds_independent_second_solution():
    grid = np.linspace(-4.0, 4.0, 801)
    (y, dy), _ = magnus_outward(CONST_ONE, grid, 0.0, (1.0, 0.0))
    pair = companion_pair(CONST_ONE, Column(grid, y, dy))
    assert pair.W != 0.0
    assert wronskian_check(pair) <= 1e-9 * max(1.0, abs(pair.W))


def test_companion_pair_anchored_at_grid_end():
    # A growing column peaks at the right end, so that half-range is empty.
    grid = np.linspace(0.0, 2.0, 201)
    growing = unit_profile(lambda q: -np.ones_like(np.asarray(q, float)))
    pair = companion_pair(growing, Column(grid, np.cosh(grid), np.sinh(grid)))
    assert pair.W == np.cosh(2.0)
    np.testing.assert_allclose(pair.y2, np.sinh(grid - 2.0), atol=1e-9)
    assert wronskian_check(pair) <= 1e-9 * pair.W


@pytest.mark.parametrize("seed, error", [(1e200, EngineError), (1e-200, ConfigurationError),
                                         (0.0, ConfigurationError)])
def test_pair_wronskian_is_checked_before_any_propagation(monkeypatch, seed, error):
    # W^2 past the double range is a numerical failure, W^2 = 0 a configuration
    # error; both builders see it in their seed data, before any Magnus pass.
    def no_pass(*args, **kwargs):
        raise AssertionError("a Magnus pass ran")

    monkeypatch.setattr(linear, "_cell_matrices", no_pass)
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(error, match="pair Wronskian"):
        fundamental_pair(CONST_ONE, grid, 0.5, ic1=(seed, 0.0), ic2=(0.0, 1.0))
    with pytest.raises(error, match="pair Wronskian"):
        companion_pair(CONST_ONE, Column(grid, np.full(11, seed), np.zeros(11)))


# ---------------------------------------------------------------------------
# Magnus propagator
# ---------------------------------------------------------------------------


def constant_propagator(w2, t):
    """Exact (y, y') propagator entries of y'' + w2 y = 0 over a span t."""
    if w2 > 0:
        w = math.sqrt(w2)
        return np.cos(w * t), np.sin(w * t) / w, -w * np.sin(w * t), np.cos(w * t)
    if w2 < 0:
        g = math.sqrt(-w2)
        return np.cosh(g * t), np.sinh(g * t) / g, g * np.sinh(g * t), np.cosh(g * t)
    return np.ones_like(t), t, np.zeros_like(t), np.ones_like(t)


@pytest.mark.parametrize("w2", [4.0, -1.0, 0.0])
def test_magnus_constant_frequency_closed_form(w2):
    profile = unit_profile(lambda q: np.full_like(np.asarray(q, float), w2))
    grid = np.linspace(-3.0, 5.0, 81)
    anchor = 0.33  # not a grid point: it is added as a node and dropped again
    state, error = magnus_outward(profile, grid, anchor, (1.0, 0.0, 0.0, 1.0))
    m11, m12, m21, m22 = constant_propagator(w2, grid - anchor)
    # rows: y1, y2 (data (1, 0) and (0, 1)), then y1', y2'
    for row, exact in zip(state, (m11, m12, m21, m22)):
        assert np.max(np.abs(row - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))
    assert error <= 1e-13


def ground_state_column(points):
    """D_0(x) = exp(-x^2/4) on ``points`` nodes over [0, 4] under a loose
    tolerance, so the first Richardson check passes and every cell takes the
    same substep count: halving the grid spacing halves the step."""
    grid = np.linspace(0.0, 4.0, points)
    (y, dy), error = magnus_outward(
        weber_profile(0.0), grid, 0.0, (1.0, 0.0), IntegrationSettings(rel_tol=1e-2)
    )
    exact = np.exp(-(grid**2) / 4.0)
    true = max(np.max(np.abs(y - exact)) / np.max(exact),
               np.max(np.abs(dy + 0.5 * grid * exact)) / np.max(np.abs(0.5 * grid * exact)))
    return true, error


def test_magnus_error_falls_64x_per_halving():
    # sixth order: the global error falls by 2^6 when the step halves
    errors = [ground_state_column(points) for points in (9, 17, 33)]
    for (coarse, _), (fine, _) in zip(errors, errors[1:]):
        assert 56.0 <= coarse / fine <= 72.0
    for true, estimate in errors:
        # the global Richardson estimate tracks the true error
        assert 0.5 * true <= estimate <= 2.0 * true


@pytest.mark.parametrize("anchor, bad, side", [(0.0, 0.5, 1.0), (0.0, -0.5, -1.0)])
def test_magnus_nan_frequency_reports_last_q(anchor, bad, side):
    # the frequency cannot be evaluated beyond q = bad on one side of the anchor
    profile = unit_profile(
        lambda q: np.where(side * (np.asarray(q, float) - bad) < 0.0, 1.0, np.nan)
    )
    grid = np.linspace(-2.0, 2.0, 81)
    with pytest.raises(IntegrationFailureError) as err:
        magnus_outward(profile, grid, anchor, (1.0, 0.0))
    assert err.value.last_q is not None
    # the last node reached lies between the anchor and the first NaN
    assert 0.0 <= side * err.value.last_q <= side * bad
    assert abs(err.value.last_q - bad) <= 0.05 + 1e-12


def test_integrated_pairs_carry_error_estimate():
    dense = fundamental_pair(weber_profile(0.3), np.linspace(-4.0, 4.0, 401), 0.0)
    assert 0.0 < dense.error <= 1e-12
    # on 21 points one step per cell misses rel_tol = 1e-3 (on 401 it meets 1e-12)
    grid = np.linspace(-4.0, 4.0, 21)
    pair = fundamental_pair(weber_profile(0.3), grid, 0.0)
    assert 0.0 < pair.error <= 1e-12
    loose = fundamental_pair(weber_profile(0.3), grid, 0.0, IntegrationSettings(rel_tol=1e-3))
    true = max(
        np.max(np.abs(a - b)) / np.max(np.abs(b))
        for a, b in ((loose.y1, pair.y1), (loose.y2, pair.y2),
                     (loose.dy1, pair.dy1), (loose.dy2, pair.dy2))
    )
    assert true > 1e-10
    assert 0.5 * true <= loose.error <= 2.0 * true
    # every Magnus step has determinant 1: the Wronskian cannot see the loss
    assert wronskian_check(loose) <= 1e-12


# ---------------------------------------------------------------------------
# Sixth-order step and the paired first pass
# ---------------------------------------------------------------------------

AIRY = unit_profile(lambda q: -np.asarray(q, float))  # y'' = q y: Ai and Bi


def airy_propagator(a, b):
    """Exact (y, y') propagator of the Airy equation from a to b."""
    from scipy.special import airy

    ai, aip, bi, bip = airy(np.array([a, b]))
    start, end = (np.array([[ai[k], bi[k]], [aip[k], bip[k]]]) for k in (0, 1))
    return end @ np.linalg.inv(start)


def test_airy_one_step_error_falls_128x_per_halving():
    # one step has local error O(h^7): halving it divides the error by about 2^7
    errors = []
    for h in (0.4, 0.2, 0.1, 0.05):
        m, growth = linear._cell_matrices(AIRY, np.array([-3.0]), np.array([h]), 1)
        assert np.isfinite(growth).all()
        errors.append(np.max(np.abs(m[:, 0].reshape(2, 2) - airy_propagator(-3.0, -3.0 + h))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 100.0 <= coarse / fine <= 160.0


def test_airy_pair_matches_ai_and_bi():
    from scipy.special import airy

    grid = np.linspace(-8.0, 2.0, 501)
    ai, aip, bi, bip = airy(0.0)
    pair = fundamental_pair(AIRY, grid, 0.0, ic1=(ai, aip), ic2=(bi, bip))
    exact_ai, exact_aip, exact_bi, exact_bip = airy(grid)
    for column, exact in ((pair.y1, exact_ai), (pair.dy1, exact_aip),
                          (pair.y2, exact_bi), (pair.dy2, exact_bip)):
        assert np.max(np.abs(column - exact)) <= 1e-12 * np.max(np.abs(exact))


def counting_profile(profile):
    """``profile`` whose Omega^2 calls record how many points each asked for."""
    calls = []

    def omega2(q):
        calls.append(np.size(q))
        return profile.omega2_array(q)

    return unit_profile(omega2), calls


def test_dense_uniform_grid_takes_one_pass_of_4_5_samples_per_cell():
    profile, calls = counting_profile(weber_profile(0.3))
    grid = np.linspace(-4.0, 4.0, 2001)
    magnus_outward(profile, grid, 0.0, (1.0, 0.0))
    # three per cell, and three per pair of cells for the one-step partner
    assert calls == [3 * 2000 + 3 * 1000]


def test_unequal_neighbouring_cells_are_never_paired(monkeypatch):
    spans = []
    cell_matrices = linear._cell_matrices

    def recording(profile, starts, widths, count):
        spans.append((count, list(zip(starts.round(12), widths.round(12)))))
        return cell_matrices(profile, starts, widths, count)

    monkeypatch.setattr(linear, "_cell_matrices", recording)
    # widths 0.2, 0.2, 0.2, 0.1, 0.1, 0.1 | 0.1, 0.1, 0.1, 0.2, 0.2, 0.2 about the anchor
    grid = np.array([-0.9, -0.7, -0.5, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    magnus_outward(weber_profile(0.3), grid, 0.0, (1.0, 0.0), IntegrationSettings(rel_tol=1e-6))
    (count, first), (second_count, second) = spans
    # pairs are counted outward from the anchor; only equal neighbours pair up
    assert count == 1 and first[12:] == [(-0.9, 0.4), (-0.2, 0.2), (0.0, 0.2), (0.5, 0.4)]
    # the unpaired cells either side of each width change go on at two substeps
    assert second_count == 2 and second == [(-0.5, 0.2), (-0.3, 0.1), (0.2, 0.1), (0.3, 0.2)]


def test_overflowing_cell_stops_once_its_growth_settles(monkeypatch):
    # Omega^2 = -1e4 grows e^1000 across each cell of width 10: every count
    # gives the same growth exponent, past the double range, so refining
    # cannot make the cell matrix finite and the cell fails at once.
    # (Coulomb's overflowing first step refines; see test_runner.)
    counts = []
    cell_matrices = linear._cell_matrices

    def recording(profile, starts, widths, count):
        counts.append(count)
        return cell_matrices(profile, starts, widths, count)

    monkeypatch.setattr(linear, "_cell_matrices", recording)
    steep = unit_profile(lambda q: np.full_like(np.asarray(q, float), -1e4))
    with pytest.raises(IntegrationFailureError, match="cell propagator is not finite"):
        fundamental_pair(steep, np.linspace(0.0, 20.0, 3), 0.0)
    assert len(counts) <= 3


def test_substep_cap_stops_refinement_at_the_anchor(monkeypatch):
    # Omega^2 = 100 (1 + q^2) on cells of width 1 needs more than 8 substeps
    # a cell: with the cap lowered to 8 the first pass fails at the anchor,
    # while the default cap meets rel_tol.
    profile = unit_profile(lambda q: 100.0 * (1.0 + np.asarray(q, float) ** 2))
    grid = np.linspace(0.0, 4.0, 5)
    _, error = magnus_outward(profile, grid, 0.0, (1.0, 0.0))
    assert error <= IntegrationSettings().rel_tol
    monkeypatch.setattr(linear, "MAX_SUBSTEPS", 8)
    cap = "Magnus refinement reached its substep cap"
    with pytest.raises(IntegrationFailureError, match=cap) as err:
        magnus_outward(profile, grid, 0.0, (1.0, 0.0))
    assert err.value.last_q == 0.0


def test_companion_anchor_ignores_rounding_between_mirror_maxima():
    # |y| = |x| e^{-x^2/4} peaks at x = -sqrt(2) and sqrt(2); a rounding-sized
    # excess on the right must not move the anchor off the first peak
    grid = np.linspace(-4.0, 4.0, 401)
    gauss = np.exp(-(grid**2) / 4.0)
    y = grid * gauss
    left, right = np.argmin(y), np.argmax(y)
    y[right] = -y[left] * (1.0 + 4e-16)
    pair = companion_pair(weber_profile(1.0), Column(grid, y, (1.0 - grid**2 / 2.0) * gauss))
    assert pair.W == y[left]


def test_column_leaving_the_finite_range_fails_where_it_left():
    # y'' = y from y = 1e307 grows by e per unit and passes the double range after q = 3
    profile = unit_profile(lambda q: -np.ones_like(np.asarray(q, float)))
    with pytest.raises(IntegrationFailureError, match="integration left the finite range") as err:
        magnus_outward(profile, np.linspace(0.0, 10.0, 11), 0.0, (1e307, 0.0))
    assert err.value.last_q == 3.0


# The 2x2 kernel, held bit for bit to the written-out entries: the np.stack
# expressions below are the reference.

def stacked_matmul(a, b):
    return np.stack((
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ))


def stacked_adjugate(m):
    return np.stack((m[3], -m[1], -m[2], m[0]))


def assert_same_doubles(actual, expected):
    """Equal shapes and values, nan in the same places, and zeros of the same sign."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual) | np.isnan(actual),
                          np.signbit(expected) | np.isnan(expected))


def kernel_inputs(shape, scale, seed):
    """Random matrices with signed zeros; at scale 1e200 products overflow
    to inf, and inf - inf gives nan."""
    m = np.random.default_rng(seed).normal(size=shape) * scale
    m.flat[::7], m.flat[3::11] = 0.0, -0.0
    return m


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["finite", "overflowing"])
@pytest.mark.parametrize("a_shape, b_shape, view", [
    ((4, 2, 300), (4, 2, 300), lambda m: m),
    ((4, 300), (4, 300), lambda m: m),
    ((4, 17, 64), (4, 17, 64), lambda m: m),
    ((4, 17, 64), (4, 17, 64), lambda m: m[..., 1::2]),  # the pairwise reduction's halves
    ((4, 2, 301), (4, 2, 301), lambda m: m[..., ::-1][..., 3:]),
    ((4, 300), (4, 300), lambda m: m[:, np.arange(1, 300, 2)]),  # entries innermost
    ((4, 1), (4, 300), lambda m: m),
    ((4, 17, 1), (4, 1, 64), lambda m: m),
], ids=["pairs", "flat", "cells", "strided", "reversed", "fancy", "broadcast", "outer"])
def test_matmul_and_adjugate_match_the_written_out_entries(a_shape, b_shape, view, scale):
    a = view(kernel_inputs(a_shape, scale, 1))
    b = view(kernel_inputs(b_shape, scale, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_doubles(linear._matmul(a, b), stacked_matmul(a, b))
        assert_same_doubles(linear._matmul(b, a), stacked_matmul(b, a))
        assert_same_doubles(linear._adjugate(a), stacked_adjugate(a))


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["finite", "overflowing"])
@pytest.mark.parametrize("shape", [(4, 1), (4, 2, 7), (4, 256), (4, 2, 257), (4, 2, 1000)])
def test_prefix_products_match_the_written_out_scan(monkeypatch, shape, scale):
    # both sides of _SCAN_SPLIT, and a reversed view as the left half-range takes
    m = kernel_inputs(shape, scale, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        actual = [linear._prefix_products(x) for x in (m, m[..., ::-1])]
        monkeypatch.setattr(linear, "_matmul", stacked_matmul)
        expected = [linear._prefix_products(x) for x in (m, m[..., ::-1])]
    for got, want in zip(actual, expected):
        assert_same_doubles(got, want)


def det_one_cells(n, seed):
    """``n`` random determinant-1 cell matrices, fine and coarse, shape (4, 2, n)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, (2, n)) * rng.choice([-1.0, 1.0], (2, n))
    b, c = rng.normal(size=(2, 2, n))
    return np.stack((a, b, c, (1.0 + b * c) / a))


@pytest.mark.parametrize("sides", [(1, 256), (256, 1), (250, 250), (0, 501), (10, 300)])
def test_two_sided_scan_matches_two_one_sided_scans(monkeypatch, sides):
    # the propagators from the anchor as two one-sided scans give them
    cells, pos = det_one_cells(sum(sides), 5), sides[0]
    inward = linear._adjugate(cells[..., :pos])[..., ::-1]
    expected = np.empty((4, 2, cells.shape[-1] + 1))
    expected[..., :pos] = linear._prefix_products(inward)[..., ::-1]
    expected[..., pos] = np.array([1.0, 0.0, 0.0, 1.0])[:, None]
    expected[..., pos + 1:] = linear._prefix_products(cells[..., pos:])
    scans = []
    prefix_products = linear._prefix_products

    def recorded(m):
        scans.append(m.shape)
        return prefix_products(m)

    monkeypatch.setattr(linear, "_prefix_products", recorded)
    phi = linear._anchor_propagators(cells, pos)
    assert np.array_equal(phi.view(np.uint64), expected.view(np.uint64))
    if max(sides) > linear._SCAN_SPLIT:  # a side past the doubling regime: two scans
        assert all(len(shape) == 3 for shape in scans)
    else:
        assert scans == [(4, 2, 2, max(sides))]


def test_propagation_matches_the_written_out_kernel(monkeypatch):
    # every cell matrix, pairing and prefix product of a refining run, and the
    # states they give
    grid = np.concatenate((np.linspace(-6.0, 0.0, 41), np.linspace(0.5, 6.0, 12)))
    state, error = magnus_outward(weber_profile(0.87), grid, 0.3, (1.0, 0.0, 0.0, 1.0))
    monkeypatch.setattr(linear, "_matmul", stacked_matmul)
    monkeypatch.setattr(linear, "_adjugate", stacked_adjugate)
    expected_state, expected_error = magnus_outward(weber_profile(0.87), grid, 0.3,
                                                    (1.0, 0.0, 0.0, 1.0))
    assert_same_doubles(state, expected_state)
    assert error == expected_error
