"""Physical amplitude, momentum, quantum potential, trajectories, flux."""

import math

import numpy as np
import pytest

from ermakov.bases import trig_pair
from ermakov.catalog import lookup_system
from ermakov.errors import (
    ConfigurationError,
    NodeApproachError,
    NodeSingularityError,
    PathExitsGridError,
    SingularEndpointError,
)
from ermakov.fields import (
    FluxLedger,
    flux_constraint_check,
    momentum_field,
    physical_amplitude,
    quantum_potential,
    trajectory,
)
from ermakov.pinney import ErmakovAmplitude, PinneyCoefficients, pinney_amplitude, symmetric_coefficients
from ermakov.problems import ProblemSpec, build_problem
from ermakov.runner import execute_sector


def amplitude_on(grid, rho, drho=None):
    drho = np.zeros_like(rho) if drho is None else drho
    return ErmakovAmplitude(grid, rho, drho, PinneyCoefficients(1, 0, 0, 0))


def test_physical_amplitude_cartesian_identity():
    sector = lookup_system("cartesian").sector("x")
    grid = np.linspace(-2, 2, 11)
    rho = 1.0 + grid**2
    np.testing.assert_array_equal(physical_amplitude(amplitude_on(grid, rho), sector), rho)


def test_physical_amplitude_cylindrical_cancellation():
    sector = lookup_system("cylindrical").sector("r")
    grid = np.linspace(0.5, 9.0, 35)
    amp = amplitude_on(grid, np.sqrt(grid))
    np.testing.assert_allclose(physical_amplitude(amp, sector), 1.0, rtol=1e-14)


def test_physical_amplitude_spherical_cancellation():
    sector = lookup_system("spherical").sector("r")
    grid = np.linspace(0.5, 9.0, 35)
    amp = amplitude_on(grid, grid.copy())
    np.testing.assert_allclose(physical_amplitude(amp, sector), 1.0, rtol=1e-14)


def test_physical_amplitude_singular_weight():
    sector = lookup_system("cylindrical").sector("r")
    grid = np.linspace(0.0, 1.0, 11)  # includes the r = 0 zero of the weight
    with pytest.raises(SingularEndpointError):
        physical_amplitude(amplitude_on(grid, np.ones_like(grid)), sector)


def test_momentum_constant_for_plane_wave():
    R = np.ones(101)
    np.testing.assert_array_equal(momentum_field(1.0, R), np.ones(101))
    np.testing.assert_array_equal(momentum_field(0.0, R), np.zeros(101))
    np.testing.assert_allclose(momentum_field(2.0, np.full(7, math.sqrt(2.0))), 1.0,
                               rtol=1e-15)


def test_momentum_nodes_error_lists_locations():
    R = np.ones(10)
    R[4] = 0.0
    with pytest.raises(NodeSingularityError) as err:
        momentum_field(1.0, R)
    assert err.value.nodes == [4]


def test_quantum_potential_free_particle():
    x = np.linspace(-3, 3, 201)
    psi = np.cos(x)
    mask = np.abs(psi) > 1e-3
    q = quantum_potential(psi[mask], -psi[mask])
    np.testing.assert_allclose(q, 0.5, rtol=1e-14)


def test_quantum_potential_gaussian_analytic():
    # psi = exp(-xi^2/4): psi''/psi = xi^2/4 - 1/2, so Q = (1/2 - xi^2/4)/2...
    xi = np.linspace(-3, 3, 301)
    psi = np.exp(-(xi**2) / 4.0)
    d2psi = (xi**2 / 4.0 - 0.5) * psi
    q = quantum_potential(psi, d2psi)
    np.testing.assert_allclose(q, -0.5 * (xi**2 / 4.0 - 0.5), rtol=1e-12)


def test_quantum_potential_node_error():
    psi = np.array([1.0, 0.0, -1.0])
    with pytest.raises(NodeSingularityError):
        quantum_potential(psi, psi)


def test_quantum_potential_ep_vs_finite_differences():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": 1.0},
                       k_sector={"xi": 1.0})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    grid, rho = result.pair.grid, result.amplitude.rho
    h = grid[1] - grid[0]
    d2 = (-rho[4:] + 16 * rho[3:-1] - 30 * rho[2:-2] + 16 * rho[1:-3] - rho[:-4]) / (
        12 * h**2
    )
    q_fd = -0.5 * d2 / rho[2:-2]
    interior = np.abs(rho[2:-2]) > 0.05 * np.max(np.abs(rho))
    np.testing.assert_allclose(
        result.Q[2:-2][interior], q_fd[interior], rtol=1e-6, atol=1e-8
    )


def test_energy_balance_cartesian_sector():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": 1.0},
                       k_sector={"xi": 1.0})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    grid = result.pair.grid
    v = setup.profile.V_sector(grid)
    total = result.p**2 / 2.0 + v + result.Q
    e_sector = setup.profile.E_sector
    assert np.max(np.abs(total - e_sector)) <= 1e-6 * abs(e_sector)


def test_trajectory_free_particle_linear_motion():
    grid = np.linspace(-10.0, 10.0, 2001)
    t = np.linspace(0.0, 10.0, 101)
    x = trajectory(1.0, grid, np.ones_like(grid), 1.0, 0.0, t)
    np.testing.assert_allclose(x, t, atol=1e-9)


def test_trajectory_static_for_zero_flux():
    grid = np.linspace(-1.0, 1.0, 51)
    t = np.linspace(0.0, 5.0, 21)
    np.testing.assert_array_equal(
        trajectory(0.0, grid, np.ones_like(grid), 1.0, 0.3, t), np.full_like(t, 0.3)
    )


def test_trajectory_against_closed_form():
    grid = np.linspace(-5.0, 5.0, 2001)
    R = np.sqrt(1.0 + grid**2)  # R^2 = 1 + x^2, so t(x) = x + x^3/3 from x0 = 0
    t = np.linspace(0.0, 3.0, 61)
    x = trajectory(1.0, grid, R, 1.0, 0.0, t)
    # real root of x^3 + 3x - 3t = 0 (Cardano)
    root = np.sqrt(2.25 * t**2 + 1.0)
    exact = np.cbrt(1.5 * t + root) + np.cbrt(1.5 * t - root)
    np.testing.assert_allclose(x, exact, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(x + x**3 / 3.0, t, rtol=0.0, atol=1e-12)


def test_trajectory_time_reversal():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": 1.0},
                       k_sector={"xi": 1.0})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    t = np.linspace(0.0, 2.0, 41)
    fwd = trajectory(setup.C, result.pair.grid, result.R, 1.0, 0.25, t)
    back = trajectory(-setup.C, result.pair.grid, result.R, 1.0, float(fwd[-1]), t)
    assert abs(back[-1] - 0.25) <= 1e-8


def test_trajectory_exit_reports_time():
    grid = np.linspace(0.0, 1.0, 101)
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(PathExitsGridError) as err:
        trajectory(1.0, grid, np.ones_like(grid), 1.0, 0.5, t)
    assert err.value.t_exit == pytest.approx(0.5, abs=1e-12)
    assert err.value.x_exit == 1.0


def test_trajectory_leftward_exit_for_negative_flux():
    grid = np.linspace(0.0, 1.0, 101)
    R = np.sqrt(1.0 + grid)  # t_exit = (m/|C|) int_0^{x0} (1 + x) dx
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(PathExitsGridError) as err:
        trajectory(-2.0, grid, R, 1.0, 0.6, t)
    assert err.value.t_exit == pytest.approx((0.6 + 0.18) / 2.0, abs=1e-12)
    assert err.value.x_exit == 0.0
    # a shorter leftward path stays on the grid and follows the same quadrature
    t_in = np.linspace(0.0, 0.3, 31)
    x = trajectory(-2.0, grid, R, 1.0, 0.6, t_in)
    assert np.all(np.diff(x) < 0.0)
    np.testing.assert_allclose((0.6 + 0.18) - (x + x**2 / 2.0), 2.0 * t_in,
                               rtol=0.0, atol=1e-12)


def test_trajectory_node_approach():
    grid = np.linspace(0.0, 1.0, 2001)
    R = np.abs(grid - 0.5) + 1e-12
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, 1.0, 0.2, t)


def test_trajectory_node_between_samples():
    grid = np.linspace(0.0, 1.0, 100)  # R = x - 0.5 changes sign between two samples
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, grid - 0.5, 1.0, 0.2, np.linspace(0.0, 1.0, 11))
    with pytest.raises(NodeApproachError):
        trajectory(-1.0, grid, grid - 0.5, 1.0, 0.8, np.linspace(0.0, 1.0, 11))


def test_trajectory_spline_dip_counts_as_node():
    # One unresolved spike makes the cubic spline of R^2 ring below zero
    # between positive samples; a path into the ringing meets a node.
    grid = np.linspace(0.0, 1.0, 51)
    R = np.ones_like(grid)
    R[25] = 3.0
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, 1.0, 0.1, np.linspace(0.0, 0.5, 11))
    with pytest.raises(NodeApproachError):  # starts where the spline is negative
        trajectory(-1.0, grid, R, 1.0, 0.471, np.linspace(0.0, 0.1, 5))
    # far from the spike the ringing is below 1e-9 and the path is x0 + t
    t = np.linspace(0.0, 0.1, 11)
    np.testing.assert_allclose(trajectory(1.0, grid, R, 1.0, 0.1, t), 0.1 + t, atol=1e-9)


def test_trajectory_x0_validation():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigurationError):
        trajectory(1.0, grid, np.ones_like(grid), 1.0, 2.0, np.linspace(0, 1, 5))


def test_flux_constraint_checks():
    ok = flux_constraint_check(FluxLedger((("x", 1.0), ("y", -1.0))))
    assert ok.passed and ok.residual == 0.0
    scattering = flux_constraint_check(FluxLedger((("x", 1.0),)), enforce=False)
    assert scattering.passed and scattering.note
    bad = flux_constraint_check(FluxLedger((("x", 1.0), ("y", -0.5))))
    assert not bad.passed
    assert bad.residual == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        flux_constraint_check(FluxLedger(()))


def test_continuity_first_integral_certified():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0}, flux={"x": 1.0})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    assert result.continuity_residual <= 1e-10
    pair = trig_pair(1.0, result.pair.grid)
    amp = pinney_amplitude(symmetric_coefficients(1.0, pair.W), pair)
    np.testing.assert_allclose(result.amplitude.rho, amp.rho, atol=1e-14)
