"""Linear partner integration and Wronskian certification."""

import math

import numpy as np
import pytest

from ermakov.catalog import FrequencyProfile
from ermakov.errors import ConfigurationError, IntegrationFailureError
from ermakov.linear import (
    Column,
    FundamentalPair,
    IntegrationSettings,
    companion_pair,
    fundamental_pair,
    integrate_normal_form,
    magnus_outward,
    wronskian_check,
)

CONST_ONE = FrequencyProfile.from_omega2(lambda q: np.ones_like(np.asarray(q, float)))
CONST_ZERO = FrequencyProfile.from_omega2(lambda q: np.zeros_like(np.asarray(q, float)))


def weber_profile(nu):
    return FrequencyProfile.from_omega2(
        lambda xi: nu + 0.5 - 0.25 * np.asarray(xi, float) ** 2
    )


def test_sine_endpoint():
    sol = integrate_normal_form(CONST_ONE, np.linspace(0.0, math.pi / 2, 2001), 0.0, (0.0, 1.0))
    assert abs(sol.y[-1] - 1.0) <= 1e-9
    assert abs(sol.dy[-1]) <= 1e-9


def test_linear_endpoint():
    sol = integrate_normal_form(CONST_ZERO, np.linspace(0.0, 3.0, 2001), 0.0, (0.0, 1.0))
    assert abs(sol.y[-1] - 3.0) <= 1e-10


def test_weber_ground_state_value():
    # D_0(xi) = exp(-xi^2/4); data (1, 0) at 0 gives y(2) = e^{-1}
    sol = integrate_normal_form(weber_profile(0.0), np.linspace(0.0, 2.0, 2001), 0.0, (1.0, 0.0))
    assert abs(sol.y[-1] - math.exp(-1.0)) <= 1e-8


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
        sol = integrate_normal_form(profile, grid, 0.0, (1.0, 0.0))
        res[n] = fd_residual(grid, sol.y, profile.omega2_array(grid))
    ratio = res[801] / res[1601]
    assert 3.5 <= ratio <= 4.5


def test_tolerance_monotonicity_against_closed_form():
    errors = []
    grid = np.linspace(0.0, math.pi / 2, 41)
    for rel in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        settings = IntegrationSettings(rel_tol=rel, abs_tol=rel * 1e-2)
        sol = integrate_normal_form(CONST_ONE, grid, 0.0, (0.0, 1.0), settings)
        errors.append(abs(sol.y[-1] - 1.0))
    for coarse, fine in zip(errors, errors[1:]):
        # ties to within round-off happen when both runs take the same steps
        assert fine <= coarse * (1 + 1e-6) + 1e-14


def test_endpoint_reproducible_under_refinement():
    rel = 1e-8
    grid = np.linspace(0.0, 4.0, 41)
    base = integrate_normal_form(
        weber_profile(0.5), grid, 0.0, (1.0, 0.0), IntegrationSettings(rel_tol=rel, abs_tol=1e-12)
    )
    refined = integrate_normal_form(
        weber_profile(0.5), grid, 0.0, (1.0, 0.0),
        IntegrationSettings(rel_tol=rel / 2, abs_tol=5e-13),
    )
    assert abs(base.y[-1] - refined.y[-1]) <= 10 * rel * max(1.0, abs(base.y[-1]))


def test_integration_failure_carries_last_q():
    # Frequency turns non-evaluable past q = 0.5; the solver must stall there.
    profile = FrequencyProfile.from_omega2(
        lambda q: np.where(np.asarray(q, float) < 0.5, 1.0, np.nan)
    )
    with pytest.raises(IntegrationFailureError) as err:
        integrate_normal_form(profile, np.linspace(0.0, 2.0, 2001), 0.0, (1.0, 0.0))
    assert err.value.last_q is not None
    assert err.value.last_q <= 0.75


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        IntegrationSettings(rel_tol=0.0)
    with pytest.raises(ConfigurationError):
        IntegrationSettings(abs_tol=-1.0)
    with pytest.raises(ConfigurationError):
        IntegrationSettings(max_step=0.0)


def test_trivial_data_rejected():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigurationError):
        integrate_normal_form(CONST_ONE, grid, 0.0, (0.0, 0.0))
    with pytest.raises(ConfigurationError):  # the grid must increase strictly
        integrate_normal_form(CONST_ONE, grid[::-1], 0.0, (1.0, 0.0))
    with pytest.raises(ConfigurationError):
        fundamental_pair(CONST_ONE, grid, 0.0, ic1=(1.0, 2.0), ic2=(0.5, 1.0))


def test_anchor_splits_interval():
    grid = np.linspace(-3.0, 3.0, 301)
    sol = integrate_normal_form(CONST_ONE, grid, 0.0, (1.0, 0.0))
    np.testing.assert_allclose(sol.y, np.cos(grid), atol=1e-9)


def test_companion_pair_builds_independent_second_solution():
    grid = np.linspace(-4.0, 4.0, 801)
    base = integrate_normal_form(CONST_ONE, grid, 0.0, (1.0, 0.0))
    pair = companion_pair(CONST_ONE, Column(grid, base.y, base.dy))
    assert pair.W != 0.0
    assert wronskian_check(pair) <= 1e-9 * max(1.0, abs(pair.W))


def test_companion_pair_anchored_at_grid_end():
    # A growing column peaks at the right end, so that half-range is empty.
    grid = np.linspace(0.0, 2.0, 201)
    growing = FrequencyProfile.from_omega2(lambda q: -np.ones_like(np.asarray(q, float)))
    pair = companion_pair(growing, Column(grid, np.cosh(grid), np.sinh(grid)))
    assert pair.W == np.cosh(2.0)
    np.testing.assert_allclose(pair.y2, np.sinh(grid - 2.0), atol=1e-9)
    assert wronskian_check(pair) <= 1e-9 * pair.W


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
    profile = FrequencyProfile.from_omega2(lambda q: np.full_like(np.asarray(q, float), w2))
    grid = np.linspace(-3.0, 5.0, 81)
    anchor = 0.33  # not a grid point: it is added as a node and dropped again
    state, error = magnus_outward(profile, grid, anchor, (1.0, 0.0, 0.0, 1.0))
    m11, m12, m21, m22 = constant_propagator(w2, grid - anchor)
    # rows: y1, y2 (data (1, 0) and (0, 1)), then y1', y2'
    for row, exact in zip(state, (m11, m12, m21, m22)):
        assert np.max(np.abs(row - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))
    assert error <= 1e-13


def ground_state_column(max_step, grid=np.linspace(0.0, 4.0, 5)):
    """D_0(x) = exp(-x^2/4) under loose tolerances, so the substep count is
    the one max_step starts with: the first Richardson check passes."""
    (y, dy), error = magnus_outward(
        weber_profile(0.0), grid, 0.0, (1.0, 0.0),
        IntegrationSettings(rel_tol=1e-2, max_step=max_step),
    )
    exact = np.exp(-(grid**2) / 4.0)
    true = max(np.max(np.abs(y - exact)) / np.max(exact),
               np.max(np.abs(dy + 0.5 * grid * exact)) / np.max(np.abs(0.5 * grid * exact)))
    return true, error


def test_magnus_error_falls_16x_per_halving():
    errors = [ground_state_column(step) for step in (1 / 4, 1 / 8, 1 / 16)]
    for (coarse, _), (fine, _) in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0
    for true, estimate in errors:
        # the global Richardson estimate tracks the true error
        assert 0.5 * true <= estimate <= 2.0 * true


def test_magnus_honours_max_step():
    seen = []

    def omega2(q):
        seen.append(np.array(q, dtype=float))
        return np.ones_like(seen[-1])

    grid = np.linspace(0.0, 2.0, 5)
    # the anchor splits the first cell, so cells start at different counts
    (y, dy), _ = magnus_outward(
        FrequencyProfile.from_omega2(omega2), grid, 0.3, (1.0, 0.0),
        IntegrationSettings(max_step=0.01),
    )
    first = np.sort(seen[0])  # the starting substeps, two Gauss points each
    assert first.size >= 2 * 200
    assert np.max(np.diff(np.concatenate(([0.0], first, [2.0])))) <= 0.01
    np.testing.assert_allclose(y, np.cos(grid - 0.3), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(dy, -np.sin(grid - 0.3), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("anchor, bad, side", [(0.0, 0.5, 1.0), (0.0, -0.5, -1.0)])
def test_magnus_nan_frequency_reports_last_q(anchor, bad, side):
    # the frequency cannot be evaluated beyond q = bad on one side of the anchor
    profile = FrequencyProfile.from_omega2(
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
    grid = np.linspace(-4.0, 4.0, 401)
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
