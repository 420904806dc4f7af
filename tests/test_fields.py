"""Physical amplitude, momentum, quantum potential, trajectories, flux."""

import math

import mpmath
import numpy as np
import pytest

from ermakov.catalog import FrequencyProfile, lookup_system
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
    trajectory,
)
from ermakov.linear import FundamentalPair
from ermakov.pinney import ErmakovAmplitude, PinneyCoefficients, pinney_amplitude, symmetric_coefficients
from ermakov.problems import ProblemSpec, SectorSetup, build_problem
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
    # In xi units (m = hbar = 1) the balance p^2/2 + V + Q = E reads
    # p^2/2 + Q = Omega^2/2; E = (nu + 1/2)/2 = 1/2 sets the tolerance.
    balance = 0.5 * setup.profile.omega2_array(result.pair.grid)
    total = result.p**2 / 2.0 + result.Q
    assert np.max(np.abs(total - balance)) <= 1e-6 * 0.5


def test_trajectory_free_particle_linear_motion():
    grid = np.linspace(-10.0, 10.0, 2001)
    t = np.linspace(0.0, 10.0, 101)
    x = trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, 0.0, t)
    np.testing.assert_allclose(x, t, atol=1e-9)


def test_trajectory_static_for_zero_flux():
    grid = np.linspace(-1.0, 1.0, 51)
    t = np.linspace(0.0, 5.0, 21)
    np.testing.assert_array_equal(
        trajectory(0.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, 0.3, t),
        np.full_like(t, 0.3),
    )


def test_trajectory_against_closed_form():
    grid = np.linspace(-5.0, 5.0, 2001)
    R = np.sqrt(1.0 + grid**2)  # R^2 = 1 + x^2, so t(x) = x + x^3/3 from x0 = 0
    t = np.linspace(0.0, 3.0, 61)
    x = trajectory(1.0, grid, R, 2.0 * grid, 1.0, 0.0, t)
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
    rho = result.amplitude.rho
    drho2 = 2.0 * rho * result.amplitude.drho
    fwd = trajectory(setup.C, result.pair.grid, rho, drho2, 1.0, 0.25, t)
    back = trajectory(-setup.C, result.pair.grid, rho, drho2, 1.0, float(fwd[-1]), t)
    assert abs(back[-1] - 0.25) <= 1e-8


def test_trajectory_exit_reports_time():
    grid = np.linspace(0.0, 1.0, 101)
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(PathExitsGridError) as err:
        trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, 0.5, t)
    assert err.value.t_exit == pytest.approx(0.5, abs=1e-12)
    assert err.value.x_exit == 1.0


def test_trajectory_leftward_exit_for_negative_flux():
    grid = np.linspace(0.0, 1.0, 101)
    R = np.sqrt(1.0 + grid)  # t_exit = (m/|C|) int_0^{x0} (1 + x) dx
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(PathExitsGridError) as err:
        trajectory(-2.0, grid, R, np.ones_like(grid), 1.0, 0.6, t)
    assert err.value.t_exit == pytest.approx((0.6 + 0.18) / 2.0, abs=1e-12)
    assert err.value.x_exit == 0.0
    # a shorter leftward path stays on the grid and follows the same quadrature
    t_in = np.linspace(0.0, 0.3, 31)
    x = trajectory(-2.0, grid, R, np.ones_like(grid), 1.0, 0.6, t_in)
    assert np.all(np.diff(x) < 0.0)
    np.testing.assert_allclose((0.6 + 0.18) - (x + x**2 / 2.0), 2.0 * t_in,
                               rtol=0.0, atol=1e-12)


def test_trajectory_node_approach():
    grid = np.linspace(0.0, 1.0, 2001)
    R = np.abs(grid - 0.5) + 1e-12
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, 2.0 * R * np.sign(grid - 0.5), 1.0, 0.2, t)


def test_trajectory_node_between_samples():
    grid = np.linspace(0.0, 1.0, 100)  # R = x - 0.5 changes sign between two samples
    R, dR2 = grid - 0.5, 2.0 * (grid - 0.5)
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, dR2, 1.0, 0.2, np.linspace(0.0, 1.0, 11))
    with pytest.raises(NodeApproachError):
        trajectory(-1.0, grid, R, dR2, 1.0, 0.8, np.linspace(0.0, 1.0, 11))


def test_trajectory_cell_dip_counts_as_node():
    # Small samples of R^2 at x = 0.5 and 0.52 with slopes of opposite sign:
    # the Hermite cubic between them dips below zero (to 1e-6 - 0.005 at
    # the cell's middle), so a path into that cell meets a node.
    grid = np.linspace(0.0, 1.0, 51)
    r2, dR2 = np.ones_like(grid), np.zeros_like(grid)
    r2[25:27], dR2[25:27] = 1e-6, (-1.0, 1.0)
    R = np.sqrt(r2)
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, dR2, 1.0, 0.1, np.linspace(0.0, 0.5, 11))
    with pytest.raises(NodeApproachError):  # starts where the cubic is negative
        trajectory(-1.0, grid, R, dR2, 1.0, 0.51, np.linspace(0.0, 0.1, 5))
    # far from the dip the cells are flat and the path is x0 + t
    t = np.linspace(0.0, 0.1, 11)
    np.testing.assert_allclose(trajectory(1.0, grid, R, dR2, 1.0, 0.1, t), 0.1 + t, atol=1e-9)


def test_trajectory_hermite_cells_converge_at_fourth_order():
    # R^2 = e^x: t - t0 = (m/C)(e^x - e^x0), so x(t) = log(e^x0 + C t / m)
    C, m, x0 = 1.5, 2.0, 0.1
    t = np.linspace(0.0, 2.0, 41)
    exact = np.log(np.exp(x0) + C * t / m)
    errors = []
    for cells in (10, 20, 40, 80):
        grid = np.linspace(0.0, 2.0, cells + 1)
        R2 = np.exp(grid)
        x = trajectory(C, grid, np.sqrt(R2), R2, m, x0, t)
        errors.append(float(np.max(np.abs(x - exact))))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios > 13.0) & (ratios < 19.0)), ratios
    assert errors[-1] <= 1e-8


def test_trajectory_x0_validation():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigurationError):
        trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, 2.0,
                   np.linspace(0, 1, 5))


def test_trajectory_starts_at_x0_in_wide_cells():
    # x0 - grid[k] rounds to the whole 2e298-wide cell, and grid[k] plus that
    # offset back to 0; the sample at t0 is still x0 itself
    grid = np.linspace(-1e300, 0.0, 51)
    x = trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, -1.0,
                   np.linspace(0.0, 1.0, 11))
    assert x[0] == -1.0


def test_flux_constraint_checks():
    ok = flux_constraint_check(FluxLedger((("x", 1.0), ("y", -1.0))))
    assert ok.passed and ok.residual == 0.0
    scattering = flux_constraint_check(FluxLedger((("x", 1.0),)), enforce=False)
    assert scattering.passed and scattering.note
    bad = flux_constraint_check(FluxLedger((("x", 1.0), ("y", -0.5))))
    assert not bad.passed
    assert bad.residual == pytest.approx(0.5 / 1.5)  # |sum C_i| / sum |C_i|
    # relative, so a ledger far below the tolerance in absolute terms still fails
    tiny = flux_constraint_check(FluxLedger((("x", 1e-20), ("y", 0.0))))
    assert not tiny.passed and tiny.residual == 1.0
    closed = flux_constraint_check(FluxLedger((("x", 0.0), ("y", -0.0))))
    assert closed.passed and closed.residual == 0.0
    with pytest.raises(ConfigurationError):
        flux_constraint_check(FluxLedger(()))


def test_continuity_first_integral_certified():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0}, flux={"x": 1.0})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    assert result.continuity_residual <= 1e-10
    grid = result.pair.grid  # against the exact pair (cos, sin)
    pair = FundamentalPair(grid, np.cos(grid), -np.sin(grid), np.sin(grid), np.cos(grid), 1.0)
    amp = pinney_amplitude(symmetric_coefficients(1.0, pair.W), pair)
    np.testing.assert_allclose(result.amplitude.rho, amp.rho, atol=1e-14)


def test_s_wave_fields_read_the_normal_form_amplitude():
    # Spherical r sector (s = r^2, Omega_geom^2 = 0) with the plane-wave pair:
    # rho = 1, so the current rho^2 p = C makes p = hbar k0 and x' = hbar k0 / m,
    # although R = rho / r is not constant.
    k0, m, hbar = 1.3, 2.0, 0.7
    sector = lookup_system("spherical").sector("r")
    profile = FrequencyProfile(sector, lambda r: k0**2, m, hbar)  # a scalar Omega_phys^2
    def cos_sin(_profile, grid, _settings):
        c, s = np.cos(k0 * grid), np.sin(k0 * grid)
        return FundamentalPair(grid, c, -k0 * s, s, k0 * c, k0)

    setup = SectorSetup(profile, np.linspace(0.5, 10.0, 201), hbar * k0, k0**2, cos_sin)
    result = execute_sector(setup, trajectory_requests=[(1.0, 5.0, 51)])
    np.testing.assert_allclose(result.amplitude.rho, 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(result.R, 1.0 / result.pair.grid, rtol=1e-15)
    np.testing.assert_allclose(result.p, hbar * k0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(result.Q, 0.0, rtol=0.0, atol=1e-14)
    ((_, t, x),) = result.trajectories
    np.testing.assert_allclose(x, 1.0 + hbar * k0 / m * t, rtol=0.0, atol=1e-12)


def test_cylindrical_sector_current_potential_and_path():
    # Cylindrical r sector (s = r, Omega_geom^2 = 1/(4 r^2)) at Omega_phys^2 = 1,
    # C = k = 1, with the pair (sqrt(r) J0, sqrt(r) Y0) of W = 2/pi:
    # rho^2 = a r (J0^2 + Y0^2) with a = A = B = sqrt(k)/W = pi/2.
    grid, a = np.linspace(0.5, 10.0, 201), math.pi / 2.0
    cols, r2_ref, q_ref = [], [], []
    with mpmath.workdps(30):
        for r in map(mpmath.mpf, grid.tolist()):
            j0, j1, y0, y1 = (mpmath.besselj(0, r), mpmath.besselj(1, r),
                              mpmath.bessely(0, r), mpmath.bessely(1, r))
            root = mpmath.sqrt(r)  # J0' = -J1, J1' = J0 - J1/r, likewise for Y
            cols.append([root * j0, j0 / (2 * root) - root * j1,
                         root * y0, y0 / (2 * root) - root * y1])
            f, g, h = j0**2 + y0**2, j1**2 + y1**2, j0 * j1 + y0 * y1
            df, d2f = -2 * h, -2 * (f - g) + 2 * h / r
            # R = sqrt(a F): Q = -(hbar^2/2m)(s R')'/(s R) = -(R''/R + R'/(r R))/2
            q_ref.append(-(d2f / (2 * f) - df**2 / (4 * f**2) + df / (2 * f * r)) / 2)
            r2_ref.append(a * f)
    pair = FundamentalPair(grid, *np.array(cols, dtype=float).T, 2.0 / math.pi)
    sector = lookup_system("cylindrical").sector("r")
    profile = FrequencyProfile(sector, lambda r: np.ones_like(r))
    setup = SectorSetup(profile, grid, 1.0, 1.0, lambda _profile, _grid, _settings: pair)
    result = execute_sector(setup, trajectory_requests=[(1.0, 5.0, 11)])
    np.testing.assert_allclose(result.R**2, np.array(r2_ref, dtype=float), rtol=1e-13)
    np.testing.assert_allclose(grid * result.R**2 * result.p, 1.0, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(result.Q, np.array(q_ref, dtype=float), rtol=0.0, atol=1e-10)
    # t(x) = (m/C) int_{x0}^{x} rho^2 by mpmath quadrature, cell by cell
    ((_, t, x),) = result.trajectories
    edges = [1.0, *x.tolist()]
    with mpmath.workdps(20):
        cells = [mpmath.quad(lambda r: a * r * (mpmath.besselj(0, r) ** 2
                                                + mpmath.bessely(0, r) ** 2), [lo, hi])
                 for lo, hi in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(t, np.cumsum(np.array(cells, dtype=float)), rtol=0.0, atol=1e-8)
