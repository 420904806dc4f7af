"""Quadratic-form amplitudes, amplitudes from initial data, invariant."""

import math

import numpy as np
import pytest
from dop853_reference import direct_amplitude

from ermakov.bases import weber_pair
from ermakov.catalog import FrequencyProfile, SectorSpec, Weight
from ermakov.errors import (
    ConfigurationError,
    ConstraintViolationError,
    IntegrationFailureError,
    NodeApproachError,
    NonpositiveFormError,
)
from ermakov.linear import FundamentalPair
from ermakov.problems import ProblemSpec, build_problem
from ermakov.pinney import (
    PinneyCoefficients,
    coefficients_from_ab,
    el_invariant,
    invariant_drift,
    pinney_amplitude,
    solve_ep_direct,
    symmetric_coefficients,
)


def unit_profile(omega2):
    """Unit-weight profile whose Omega^2 is the callable ``omega2``."""
    return FrequencyProfile(SectorSpec("q", (-math.inf, math.inf), Weight.unit()), omega2)


CONST_ONE = unit_profile(lambda q: np.ones_like(np.asarray(q, float)))


def cos_sin_pair(grid):
    """The exact pair (cos q, sin q), W = 1."""
    return FundamentalPair(grid, np.cos(grid), -np.sin(grid), np.sin(grid), np.cos(grid), 1.0)


def weber_profile(nu):
    return unit_profile(
        lambda xi: nu + 0.5 - 0.25 * np.asarray(xi, float) ** 2
    )


def test_free_particle_constant_amplitude():
    grid = np.linspace(-10.0, 10.0, 2001)
    pair = cos_sin_pair(grid)
    amp = pinney_amplitude(PinneyCoefficients(1.0, 1.0, 0.0, 1.0), pair)
    np.testing.assert_allclose(amp.rho, 1.0, atol=1e-13)
    np.testing.assert_allclose(amp.drho, 0.0, atol=1e-13)


def test_zero_flux_limit_reduces_to_linear_solution():
    grid = np.linspace(0.0, 2.0 * math.pi, 501)
    pair = cos_sin_pair(grid)
    amp = pinney_amplitude(PinneyCoefficients(1.0, 0.0, 0.0, 0.0), pair)
    np.testing.assert_allclose(amp.rho, np.abs(np.cos(grid)), atol=1e-12)
    # cos has zeros at pi/2 and 3 pi/2 inside the range; they are reported
    assert len(amp.nodes) >= 1


def test_constraint_violation_rejected_with_residual():
    grid = np.linspace(0.0, 1.0, 11)
    pair = cos_sin_pair(grid)
    with pytest.raises(ConstraintViolationError) as err:
        pinney_amplitude(PinneyCoefficients(1.0, 1.0, 0.0, 2.0), pair)
    assert err.value.residual == pytest.approx(1.0, rel=1e-12)


def test_nonpositive_form_detected():
    grid = np.linspace(0.0, 1.0, 11)
    pair = cos_sin_pair(grid)
    with pytest.raises(NonpositiveFormError):
        pinney_amplitude(PinneyCoefficients(0.0, 0.0, 0.0, 0.0), pair)
    with pytest.raises(ConfigurationError):
        PinneyCoefficients(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        PinneyCoefficients(1.0, 1.0, 0.0, -1.0)


def test_direct_integration_fixed_points():
    # constant solution when rho0^4 = k / Omega^2
    amp = solve_ep_direct(CONST_ONE, 1.0, (1.0, 0.0), np.linspace(0.0, 5.0, 2001))
    np.testing.assert_allclose(amp.rho, 1.0, atol=1e-10)
    const_four = unit_profile(
        lambda q: 4.0 * np.ones_like(np.asarray(q, float))
    )
    amp = solve_ep_direct(const_four, 4.0, (1.0, 0.0), np.linspace(0.0, 5.0, 2001))
    np.testing.assert_allclose(amp.rho, 1.0, atol=1e-10)


def test_direct_integration_node_approach():
    # k = 0 turns the equation linear; data (1, 0) is cos and hits zero
    with pytest.raises(NodeApproachError) as err:
        solve_ep_direct(CONST_ONE, 0.0, (1.0, 0.0), np.linspace(0.0, 5.0, 2001), anchor=0.0)
    assert err.value.q == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_direct_integration_node_scan_order():
    # cos(q - a) vanishes at a - pi/2 and a + pi/2.  From a = 4 only the left
    # zero is inside the grid, on or off a grid point; from a = 2.5 both are,
    # and the right half-range is scanned first.
    grid = np.linspace(0.0, 5.0, 2001)
    for anchor, side in ((4.0, -1.0), (4.0 + 1e-4, -1.0), (2.5, 1.0)):
        with pytest.raises(NodeApproachError) as err:
            solve_ep_direct(CONST_ONE, 0.0, (1.0, 0.0), grid, anchor=anchor)
        assert err.value.q == pytest.approx(anchor + side * math.pi / 2.0, abs=1e-6)


def test_direct_integration_unevaluable_frequency():
    # a frequency that raises past q = 1 ends the run as an integration failure
    def omega2(q):
        q = np.asarray(q, float)
        if np.any(q > 1.0):
            raise FloatingPointError("overflow")
        return np.ones_like(q)

    profile = unit_profile(omega2)
    with pytest.raises(IntegrationFailureError):
        solve_ep_direct(profile, 1.0, (1.0, 0.0), np.linspace(0.0, 2.0, 2001), anchor=0.0)


def test_direct_integration_validation():
    with pytest.raises(ConfigurationError):
        solve_ep_direct(CONST_ONE, 1.0, (0.0, 1.0), np.linspace(0.0, 1.0, 11))
    with pytest.raises(ConfigurationError):
        solve_ep_direct(CONST_ONE, -1.0, (1.0, 0.0), np.linspace(0.0, 1.0, 11))


def test_direct_integration_rejects_unordered_grids():
    for grid in ([0.0, 0.5, 0.5, 1.0], [1.0, 0.5, 0.0]):  # repeated, decreasing
        with pytest.raises(ConfigurationError):
            solve_ep_direct(CONST_ONE, 1.0, (1.0, 0.0), grid)


def test_direct_integration_default_anchor_is_range_midpoint():
    # Omega^2 = 1 + q: the solution depends on where the data is posed
    profile = unit_profile(lambda q: 1.0 + np.asarray(q, float))
    grid = 3.0 * np.linspace(0.0, 1.0, 41) ** 2  # the midpoint 1.5 is no grid point
    default = solve_ep_direct(profile, 1.0, (1.0, 0.0), grid)
    midpoint = solve_ep_direct(profile, 1.0, (1.0, 0.0), grid, anchor=1.5)
    np.testing.assert_array_equal(default.rho, midpoint.rho)
    middle_sample = solve_ep_direct(profile, 1.0, (1.0, 0.0), grid, anchor=float(grid[20]))
    assert np.max(np.abs(middle_sample.rho - default.rho)) > 1e-3


def test_superposition_matches_direct_integration_weber():
    xi = np.linspace(-4.0, 4.0, 1201)
    pair = weber_pair(0.5, weber_profile(0.5), xi)
    coeffs = coefficients_from_ab(2.0, 1.0, 1.0, pair.W)
    amp = pinney_amplitude(coeffs, pair)
    mid = xi.size // 2
    ic = (float(amp.rho[mid]), float(amp.drho[mid]))
    reference = direct_amplitude(weber_profile(0.5), 1.0, xi, 0.0, ic)
    assert np.max(np.abs(reference - amp.rho) / amp.rho) <= 1e-6
    direct = solve_ep_direct(weber_profile(0.5), 1.0, ic, xi)
    assert np.max(np.abs(direct.rho - reference) / reference) <= 1e-6


def test_direct_integration_large_initial_data():
    # rho0 and rho0' near 100: the identity-data form A = rho0^2,
    # D = rho0 rho0', B = (k + D^2)/A would meet its constraint only to
    # roundoff of D^2 ~ 1e8, far above k
    profile = unit_profile(lambda q: 1.0 + 0.1 * np.asarray(q, float) ** 2)
    grid = np.linspace(-3.0, 3.0, 601)
    for ic in ((123.4, 87.6), (95.1, -103.7)):
        direct = solve_ep_direct(profile, 0.7, ic, grid)
        reference = direct_amplitude(profile, 0.7, grid, 0.0, ic)
        assert np.max(np.abs(direct.rho - reference) / reference) <= 1e-6


def test_el_invariant_free_particle_is_half():
    grid = np.linspace(-10.0, 10.0, 801)
    pair = cos_sin_pair(grid)
    amp = pinney_amplitude(PinneyCoefficients(1.0, 1.0, 0.0, 1.0), pair)
    inv = el_invariant(amp, 1.0)
    np.testing.assert_allclose(inv, 0.5, atol=1e-13)


def test_el_invariant_degenerate_parallel_solution():
    # The default bound form (1, 0, 0) makes rho = |y1| parallel to y1, whose
    # invariant is 0 whatever the pair; the partner y2 gives I = W(q)^2 / 2,
    # nodes of cos included, and drifts with the Wronskian of a wrong pair.
    grid = np.linspace(0.0, 2.0 * math.pi, 301)
    pair = cos_sin_pair(grid)
    amp = pinney_amplitude(PinneyCoefficients(1.0, 0.0, 0.0, 0.0), pair)
    assert amp.nodes
    np.testing.assert_allclose(el_invariant(amp, 0.0), 0.5, rtol=1e-15)
    k = 1.01  # a sine of the wrong frequency
    defect = FundamentalPair(grid, pair.y1, pair.dy1, np.sin(k * grid), k * np.cos(k * grid), 1.0)
    amp = pinney_amplitude(PinneyCoefficients(2.0, 0.0, 0.0, 0.0), defect)
    inv = el_invariant(amp, 0.0)
    np.testing.assert_allclose(inv, defect.wronskian_samples() ** 2, rtol=1e-15)
    assert invariant_drift(inv).drift > 1e-2


def test_el_invariant_keeps_its_digits_across_a_wide_pair():
    # Coulomb columns span about e^60 on z in [0.05, 30]: the general formula
    # cancels two products there (invariant drift 9e9), the pair form does not
    spec = ProblemSpec(kind="coulomb_halfline", params={"alpha": 1.3, "E": -0.5},
                       grids={"x": (0.05, 30.0, 2001)})
    (setup,) = build_problem(spec)
    pair = setup.build_pair()
    amp = pinney_amplitude(symmetric_coefficients(setup.k, pair.W), pair)
    assert invariant_drift(el_invariant(amp, setup.k)).drift <= 1e-12
    # where nothing cancels, the pair form agrees with the general formula
    xi = np.linspace(-4.0, 4.0, 801)
    pair = weber_pair(0.5, weber_profile(0.5), xi)
    amp = pinney_amplitude(coefficients_from_ab(2.0, 1.0, 1.0, pair.W, sign=-1.0), pair)
    general = 0.5 * ((amp.rho * pair.dy1 - amp.drho * pair.y1) ** 2
                     + pair.y1**2 / amp.rho**2)
    np.testing.assert_allclose(el_invariant(amp, 1.0), general, rtol=1e-12)


def test_invariant_drift_basics():
    const = np.full(101, 2.0)
    assert invariant_drift(const).drift == 0.0
    bumped = const.copy()
    bumped[7] *= 1.0 + 1e-5
    assert invariant_drift(bumped).drift >= 0.9e-5
    # relative at every scale, with no absolute switch near zero
    assert invariant_drift(bumped * 2.0**-990).drift == invariant_drift(bumped).drift
    assert invariant_drift(np.zeros(11)).drift == 0.0
    tiny = np.zeros(11)
    tiny[3] = 1e-300
    assert invariant_drift(tiny).drift == math.inf
    with pytest.raises(ConfigurationError):
        invariant_drift(np.array([1.0]))


def test_invariant_drift_reports_location():
    grid = np.linspace(0.0, 1.0, 101)
    values = np.ones(101)
    values[80] += 1e-3
    result = invariant_drift(values, grid=grid)
    assert result.location == pytest.approx(grid[80])


def test_scaling_covariance_of_quadratic_form():
    grid = np.linspace(-4.0, 4.0, 801)
    pair = weber_pair(0.5, weber_profile(0.5), grid)
    coeffs = coefficients_from_ab(1.5, 1.2, 0.7, pair.W)
    amp = pinney_amplitude(coeffs, pair)
    c = 1.9
    scaled_pair = FundamentalPair(
        grid, c * pair.y1, c * pair.dy1, pair.y2 / c, pair.dy2 / c, pair.W
    )
    scaled = PinneyCoefficients(coeffs.A / c**2, coeffs.B * c**2, coeffs.D, coeffs.k)
    amp2 = pinney_amplitude(scaled, scaled_pair)
    np.testing.assert_allclose(amp2.rho, amp.rho, rtol=1e-12)


def test_coefficient_completion_and_signs():
    co = coefficients_from_ab(2.0, 1.0, 1.0, 1.0)
    assert co.D == pytest.approx(1.0)
    co = coefficients_from_ab(2.0, 1.0, 1.0, 1.0, sign=-1.0)
    assert co.D == pytest.approx(-1.0)
    with pytest.raises(ConfigurationError):
        coefficients_from_ab(0.5, 0.5, 1.0, 1.0)


def test_symmetric_defaults():
    co = symmetric_coefficients(4.0, 2.0)
    assert co.A == co.B == pytest.approx(1.0)
    assert co.D == 0.0
    co = symmetric_coefficients(0.0, 2.0)
    assert (co.A, co.B, co.D, co.k) == (1.0, 0.0, 0.0, 0.0)
