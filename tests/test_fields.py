"""Physical amplitude, momentum, quantum potential, trajectories."""

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
from ermakov.fields import momentum_field, physical_amplitude, trajectory
from ermakov.linear import FundamentalPair
from ermakov.pinney import ErmakovAmplitude, PinneyCoefficients, pinney_amplitude
from ermakov.problems import ProblemSpec, SectorRequest, SectorSetup, build_problem
from ermakov.runner import execute_sector


def amplitude_on(grid, rho, drho=None):
    drho = np.zeros_like(rho) if drho is None else drho
    return ErmakovAmplitude(grid, rho, drho, PinneyCoefficients(1, 0, 0, 0), pair=None, nodes=())


def test_physical_amplitude_cartesian_identity():
    sector = lookup_system("cartesian").sector("x")
    grid = np.linspace(-2, 2, 11)
    rho = 1.0 + grid**2
    np.testing.assert_array_equal(physical_amplitude(amplitude_on(grid, rho), sector), rho)



def test_physical_amplitude_unit_weight_is_rho_and_still_checked():
    # s = 1 is not built as an array: R is rho bit for bit, a fresh array,
    # and a sample where rho is not finite still raises
    sector = lookup_system("cartesian").sector("x")
    grid = np.linspace(-2, 2, 11)
    rho = np.array([1.0, -0.0, 0.0, 5e-324, 3.0, 1e308, 2.0, 0.5, 7.0, 1.25, 9.0])
    R = physical_amplitude(amplitude_on(grid, rho), sector)
    assert R is not rho and R.view(np.uint64).tolist() == rho.view(np.uint64).tolist()
    for bad in (math.inf, math.nan):
        rho[4] = bad
        with pytest.raises(SingularEndpointError) as err:
            physical_amplitude(amplitude_on(grid, rho), sector)
        assert err.value.endpoint == grid[4]

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


def test_physical_amplitude_tiny_weight_is_not_singular():
    # s = r^2 = 1e-14 at r = 1e-7 is positive and R = rho / r stays finite
    sector = lookup_system("spherical").sector("r")
    grid = np.linspace(1e-7, 1.0, 11)
    R = physical_amplitude(amplitude_on(grid, np.ones_like(grid)), sector)
    assert np.all(np.isfinite(R))
    assert R[0] == pytest.approx(1e7, rel=1e-15)


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
                       sectors={"xi": SectorRequest(k=1.0)})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    grid, rho = result.amplitude.grid, result.amplitude.rho
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
                       sectors={"xi": SectorRequest(k=1.0)})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    # In xi units (m = hbar = 1) the balance p^2/2 + V + Q = E reads
    # p^2/2 + Q = Omega^2/2; E = (nu + 1/2)/2 = 1/2 sets the tolerance.
    balance = 0.5 * setup.profile.omega2_array(result.amplitude.grid)
    total = result.p**2 / 2.0 + result.Q
    assert np.max(np.abs(total - balance)) <= 1e-6 * 0.5


def test_trajectory_free_particle_linear_motion():
    grid = np.linspace(-10.0, 10.0, 2001)
    t = np.linspace(0.0, 10.0, 101)
    x = trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, [(0.0, t)])[0]
    np.testing.assert_allclose(x, t, atol=1e-9)


def test_trajectory_static_for_zero_flux():
    grid = np.linspace(-1.0, 1.0, 51)
    t = np.linspace(0.0, 5.0, 21)
    np.testing.assert_array_equal(
        trajectory(0.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, [(0.3, t)])[0],
        np.full_like(t, 0.3),
    )


def test_trajectory_against_closed_form():
    grid = np.linspace(-5.0, 5.0, 2001)
    R = np.sqrt(1.0 + grid**2)  # R^2 = 1 + x^2, so t(x) = x + x^3/3 from x0 = 0
    t = np.linspace(0.0, 3.0, 61)
    x = trajectory(1.0, grid, R, 2.0 * grid, 1.0, [(0.0, t)])[0]
    # real root of x^3 + 3x - 3t = 0 (Cardano)
    root = np.sqrt(2.25 * t**2 + 1.0)
    exact = np.cbrt(1.5 * t + root) + np.cbrt(1.5 * t - root)
    np.testing.assert_allclose(x, exact, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(x + x**3 / 3.0, t, rtol=0.0, atol=1e-12)


def test_trajectory_time_reversal():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": 1.0},
                       sectors={"xi": SectorRequest(k=1.0)})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    t = np.linspace(0.0, 2.0, 41)
    rho = result.amplitude.rho
    drho2 = 2.0 * rho * result.amplitude.drho
    fwd = trajectory(setup.C, result.amplitude.grid, rho, drho2, 1.0, [(0.25, t)])[0]
    back = trajectory(-setup.C, result.amplitude.grid, rho, drho2, 1.0, [(float(fwd[-1]), t)])[0]
    assert abs(back[-1] - 0.25) <= 1e-8


def test_trajectory_exit_reports_time():
    grid = np.linspace(0.0, 1.0, 101)
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(PathExitsGridError) as err:
        trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0, [(0.5, t)])[0]
    assert err.value.t_exit == pytest.approx(0.5, abs=1e-12)
    assert err.value.x_exit == 1.0


def test_trajectory_leftward_exit_for_negative_flux():
    grid = np.linspace(0.0, 1.0, 101)
    R = np.sqrt(1.0 + grid)  # t_exit = (m/|C|) int_0^{x0} (1 + x) dx
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(PathExitsGridError) as err:
        trajectory(-2.0, grid, R, np.ones_like(grid), 1.0, [(0.6, t)])[0]
    assert err.value.t_exit == pytest.approx((0.6 + 0.18) / 2.0, abs=1e-12)
    assert err.value.x_exit == 0.0
    # a shorter leftward path stays on the grid and follows the same quadrature
    t_in = np.linspace(0.0, 0.3, 31)
    x = trajectory(-2.0, grid, R, np.ones_like(grid), 1.0, [(0.6, t_in)])[0]
    assert np.all(np.diff(x) < 0.0)
    np.testing.assert_allclose((0.6 + 0.18) - (x + x**2 / 2.0), 2.0 * t_in,
                               rtol=0.0, atol=1e-12)


def test_trajectory_node_approach():
    grid = np.linspace(0.0, 1.0, 2001)
    R = np.abs(grid - 0.5) + 1e-12
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, 2.0 * R * np.sign(grid - 0.5), 1.0, [(0.2, t)])[0]


def test_trajectory_node_between_samples():
    grid = np.linspace(0.0, 1.0, 100)  # R = x - 0.5 changes sign between two samples
    R, dR2 = grid - 0.5, 2.0 * (grid - 0.5)
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, dR2, 1.0, [(0.2, np.linspace(0.0, 1.0, 11))])[0]
    with pytest.raises(NodeApproachError):
        trajectory(-1.0, grid, R, dR2, 1.0, [(0.8, np.linspace(0.0, 1.0, 11))])[0]


def test_trajectory_cell_dip_counts_as_node():
    # Small samples of R^2 at x = 0.5 and 0.52 with slopes of opposite sign:
    # the Hermite cubic between them dips below zero (to 1e-6 - 0.005 at
    # the cell's middle), so a path into that cell meets a node.
    grid = np.linspace(0.0, 1.0, 51)
    r2, dR2 = np.ones_like(grid), np.zeros_like(grid)
    r2[25:27], dR2[25:27] = 1e-6, (-1.0, 1.0)
    R = np.sqrt(r2)
    with pytest.raises(NodeApproachError):
        trajectory(1.0, grid, R, dR2, 1.0, [(0.1, np.linspace(0.0, 0.5, 11))])[0]
    with pytest.raises(NodeApproachError):  # starts where the cubic is negative
        trajectory(-1.0, grid, R, dR2, 1.0, [(0.51, np.linspace(0.0, 0.1, 5))])[0]
    # far from the dip the cells are flat and the path is x0 + t
    t = np.linspace(0.0, 0.1, 11)
    np.testing.assert_allclose(trajectory(1.0, grid, R, dR2, 1.0, [(0.1, t)])[0], 0.1 + t,
                               atol=1e-9)



@pytest.mark.parametrize("grid, rho, drho2, x0, t", [
    # Newton's second step left the grid (q = -0.36), and inversion failed
    ([0.0, 1.0, 2.0], [0.127, 0.005, 0.196], [1.6, -52.7, 0.1], 0.37, [0.0, -0.42]),
    # Newton's steps left the grid and met a root of the extrapolated cubic
    # there (x = -0.498 at t = -0.35), which passed the residual check
    ([0.0, 1.779, 2.0], [0.027, 0.198, 0.27], [14.8, 2.6, 9.5], 1.14, np.linspace(0, -1.4, 5)),
], ids=["inversion_failed", "off_grid_root"])
def test_trajectory_newton_steps_stay_in_the_bracket(grid, rho, drho2, x0, t):
    # Hand-built fields (drho2 is not 2 rho rho') whose rho^2 cubic is positive on
    # [0, x0], so S falls monotonically to the left of x0: each sample's root lies
    # between 0 and x0, where a step that leaves the bracket bisects it instead
    from scipy.interpolate import CubicHermiteSpline
    from scipy.optimize import brentq

    grid, rho, drho2, t = map(np.asarray, (grid, rho, drho2, t))
    S = CubicHermiteSpline(grid, rho**2, drho2).antiderivative()
    exact = [brentq(lambda x: S(x) - S(x0) - s, 0.0, x0, xtol=1e-15) if s else x0 for s in t]
    np.testing.assert_allclose(trajectory(1.0, grid, rho, drho2, 1.0, [(x0, t)])[0], exact,
                               rtol=0.0, atol=1e-13)


def test_trajectory_inversion_does_not_run_out_of_steps():
    # Hand-built 3-7 point fields whose rho^2 cubics are steep: from the linear
    # guess some samples need more than 8 Newton steps, or several bisections.
    # Paths that meet a node or leave the grid are skipped; every other path
    # must invert, none stopping short with "trajectory inversion left residual".
    rng = np.random.default_rng(0)
    finished = 0
    while finished < 2000:
        n = int(rng.integers(3, 8))
        grid = np.linspace(0.0, 2.0, n)
        rho, drho2 = rng.uniform(0.001, 0.3, n), rng.normal(0.0, 20.0, n)
        x0, t = float(rng.uniform(0.0, 2.0)), np.concatenate(([0.0], rng.uniform(-0.04, 0.04, 5)))
        try:
            trajectory(1.0, grid, rho, drho2, 1.0, [(x0, t)])
        except (NodeApproachError, PathExitsGridError):
            continue
        finished += 1


# float.hex of test_trajectory_keeps_cells_between_newton_steps_bit_for_bit's paths,
# as returned when every Newton step searched every sample's cell again
_CELL_CHANGE_PATHS = [
    [
        "-0x1.8000000000000p-1", "0x1.bcabf4d6e140bp-3", "0x1.635fff1c51968p-2",
        "0x1.bf60f77392111p-2", "0x1.052dabb004700p-1", "0x1.25f9cdec4e962p-1",
        "0x1.43e15bc971d94p-1", "0x1.5fef89bc9be6cp-1", "0x1.7ad9912878936p-1",
        "0x1.9531bb4de3370p-1", "0x1.af92d4e4fe6d6p-1", "0x1.ca96ad424621cp-1",
        "0x1.e6e4e3fc973ccp-1", "0x1.02acadf94976bp+0", "0x1.13a51ae31b324p+0",
        "0x1.279cdcb79b058p+0", "0x1.41af72afbeb68p+0",
    ],
    [
        "0x1.8000000000000p+0", "0x1.60c64f8a6cd57p+0", "0x1.4e4a8bc07ba9ap+0",
        "0x1.407cba9b00047p+0", "0x1.351fd50c86fbap+0", "0x1.2b470a53f9208p+0",
        "0x1.22784aac37b09p+0", "0x1.1a6bb487479fbp+0", "0x1.12f2fb993e72cp+0",
        "0x1.0bee4d3d5e1cfp+0", "0x1.0546ab1869251p+0", "0x1.fdd592634c3f3p-1",
        "0x1.f19a63685c746p-1",
    ],
    [
        "-0x1.7333333333333p+1", "-0x1.6f9e61105c05bp+1", "-0x1.6c735fa62f74dp+1",
        "-0x1.699814758b584p+1", "-0x1.66faf1037e71ep+1", "-0x1.648fa31a04c7ep+1",
    ],
    [
        "0x1.6666666666666p+1", "0x1.ad2cc180ab36fp+0", "0x1.8811d8a6e7635p+0",
        "0x1.73a32b4e0d691p+0", "0x1.65a4ee1e8464fp+0", "0x1.5afe621d27ccdp+0",
    ],
    [
        "-0x1.8000000000000p+1", "-0x1.75afd64c7294dp+1", "-0x1.6e5df58036e10p+1",
        "-0x1.689211b4bbcf2p+1", "-0x1.63ae689d842cfp+1", "-0x1.5f650198df488p+1",
    ],
    [
        "0x1.8000000000000p+1", "0x1.a4f4501c924bbp+0", "0x1.76b9edbe58f8bp+0",
        "0x1.6029fe9531319p+0", "0x1.510bbf38b9de4p+0", "0x1.4545473a903e8p+0",
    ],
]


def test_trajectory_keeps_cells_between_newton_steps_bit_for_bit():
    # rho^2 = e^(2.5 sin 2x) on 9 points spans 0.08 to 12, so Newton steps carry
    # some samples out of the cell of their last evaluation and back: each path
    # equals, bit for bit, the one a search per sample and step returned.  Paths
    # start on grid nodes (both ends among them) and in both end cells, and the
    # first travels across the grid's widest swing of rho^2.
    grid = np.linspace(-3.0, 3.0, 9)
    r2 = np.exp(2.5 * np.sin(2.0 * grid))
    rho, drho2 = np.sqrt(r2), 5.0 * np.cos(2.0 * grid) * r2
    assert {-3.0, -0.75, 1.5, 3.0} <= set(grid.tolist())
    requests = [(-0.75, np.linspace(0.0, 10.0, 17)), (1.5, np.linspace(0.0, -3.0, 13)),
                (-2.9, np.linspace(0.0, 0.5, 6)), (2.8, np.linspace(0.0, -0.6, 6)),
                (-3.0, np.linspace(0.0, 1.0, 6)), (3.0, np.linspace(0.0, -1.0, 6))]
    paths = trajectory(1.0, grid, rho, drho2, 1.0, requests)
    assert [[float(v).hex() for v in x] for x in paths] == _CELL_CHANGE_PATHS
    with pytest.raises(PathExitsGridError) as err:  # the same exit as before
        trajectory(1.0, grid, rho, drho2, 1.0, [(0.0, np.linspace(0.0, 40.0, 9))])
    assert (err.value.t_exit, err.value.x_exit) == (10.896187138423748, 3.0)


def test_trajectory_hermite_cells_converge_at_fourth_order():
    # R^2 = e^x: t - t0 = (m/C)(e^x - e^x0), so x(t) = log(e^x0 + C t / m)
    C, m, x0 = 1.5, 2.0, 0.1
    t = np.linspace(0.0, 2.0, 41)
    exact = np.log(np.exp(x0) + C * t / m)
    errors = []
    for cells in (10, 20, 40, 80):
        grid = np.linspace(0.0, 2.0, cells + 1)
        R2 = np.exp(grid)
        x = trajectory(C, grid, np.sqrt(R2), R2, m, [(x0, t)])[0]
        errors.append(float(np.max(np.abs(x - exact))))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios > 13.0) & (ratios < 19.0)), ratios
    assert errors[-1] <= 1e-8


def test_trajectory_x0_validation():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigurationError):
        trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0,
                   [(2.0, np.linspace(0, 1, 5))])[0]


def test_trajectory_starts_at_x0_in_wide_cells():
    # x0 - grid[k] rounds to 0 in the 2e15-wide cell holding x0 = 1e-20; the
    # sample at t0 is still x0 itself
    t = np.linspace(0.0, 1.0, 11)
    grid = np.linspace(-1e17, 1.0, 51)
    ones, zeros = np.ones_like(grid), np.zeros_like(grid)
    assert trajectory(1.0, grid, ones, zeros, 1.0, [(1e-20, t)])[0][0] == 1e-20
    # a travel of 1 is above the spacing of doubles there (about 0.9): exact
    assert np.array_equal(trajectory(1.0, grid, ones, zeros, 1.0, [(-1.0, t)])[0], t - 1.0)


def test_trajectory_in_cells_whose_width_squares_to_zero():
    # h = 5e-301 has h^2 = 0, so the cubic term is dropped, as in cells whose
    # h^2 is inf; a one-sample path is x0 itself, inverted or not
    grid = np.linspace(0.0, 1e-300, 3)
    ones, slopes = np.ones_like(grid), np.array([0.0, 0.5, 1.0])
    t = np.linspace(0.0, 1e-301, 3)
    assert trajectory(1.0, grid, ones, slopes, 1.0, [(0.0, np.zeros(1))])[0] == [0.0]
    single, path = trajectory(1.0, grid, ones, slopes, 1.0, [(0.0, np.zeros(1)), (0.0, t)])
    assert single == [0.0]
    np.testing.assert_allclose(path, t, rtol=1e-15)


@pytest.mark.parametrize("lo, hi", [(-1e300, 0.0), (-1e18, 1.0)])
def test_trajectory_rejects_cells_too_wide_for_its_travel(lo, hi):
    # the travel of 1 lies within the spacing of doubles in x0's cell
    grid = np.linspace(lo, hi, 51)
    with pytest.raises(ConfigurationError, match="too wide"):
        trajectory(1.0, grid, np.ones_like(grid), np.zeros_like(grid), 1.0,
                   [(-1.0, np.linspace(0.0, 1.0, 11))])[0]



@pytest.mark.parametrize("kind, params, label", [
    ("free_particle", {"k0": 1.0}, "x"),
    ("harmonic_oscillator", {"omega": 1.0, "E": 1.0}, "xi"),
], ids=["free", "harmonic"])
def test_batched_paths_match_one_request_per_call(kind, params, label):
    # Requests with different x0 (one on a grid node), t_end and sample
    # counts, run in one call for C > 0, C < 0 and C = 0, give each path
    # bit for bit as a call with that request alone does.
    spec = ProblemSpec(kind=kind, params=params, sectors={label: SectorRequest(C=1.0)})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    grid, rho = result.amplitude.grid, result.amplitude.rho
    drho2 = 2.0 * rho * result.amplitude.drho
    requests = [
        (0.25, np.linspace(0.0, 1.5, 41)),
        (float(grid[grid.size // 2 + 7]), np.linspace(0.0, 0.3, 7)),
        (-0.8, np.linspace(0.0, 0.9, 201)),
        (0.5, np.linspace(0.0, 0.0, 1)),
        (1.1, np.linspace(0.0, 0.05, 2)),
    ]
    for C in (setup.C, -setup.C, 0.0):
        paths = trajectory(C, grid, rho, drho2, setup.profile.m, requests)
        assert len(paths) == len(requests)
        for path, request in zip(paths, requests):
            alone = trajectory(C, grid, rho, drho2, setup.profile.m, [request])[0]
            assert np.array_equal(path, alone)
            assert path[0] == request[0] and path.size == request[1].size
        if C != 0.0:
            assert all(np.all(np.sign(C) * np.diff(path) > 0.0) for path in paths if path.size > 1)


def test_batched_paths_raise_the_first_failing_requests_error():
    # R = x - 0.5 has a node between samples: request 2 runs into it and
    # request 4 leaves the grid; requests 1 and 3 stay clear of both.
    grid = np.linspace(0.0, 1.0, 100)
    R, dR2 = grid - 0.5, 2.0 * (grid - 0.5)
    t = np.linspace(0.0, 1.0, 11)
    requests = [(0.05, 0.01 * t), (0.2, t), (0.7, 0.01 * t), (0.9, t)]
    trajectory(1.0, grid, R, dR2, 1.0, requests[::2])
    with pytest.raises(PathExitsGridError):
        trajectory(1.0, grid, R, dR2, 1.0, [requests[3]])
    with pytest.raises(NodeApproachError) as alone:
        trajectory(1.0, grid, R, dR2, 1.0, [requests[1]])
    with pytest.raises(NodeApproachError) as batched:
        trajectory(1.0, grid, R, dR2, 1.0, requests)
    assert str(batched.value) == str(alone.value) and batched.value.q == alone.value.q
    with pytest.raises(PathExitsGridError):  # without request 2, request 4's exit
        trajectory(1.0, grid, R, dR2, 1.0, requests[:1] + requests[2:])

def test_continuity_first_integral_certified():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0},
                       sectors={"x": SectorRequest(C=1.0)})
    setup = build_problem(spec)[0]
    result = execute_sector(setup)
    assert np.max(np.abs(result.p * result.amplitude.rho**2 - setup.C)) <= 1e-10 * abs(setup.C)
    grid = result.amplitude.grid  # against the exact pair (cos, sin)
    pair = FundamentalPair(grid, np.cos(grid), -np.sin(grid), np.sin(grid), np.cos(grid), 1.0)
    amp = pinney_amplitude(PinneyCoefficients.of(1.0, pair.W), pair)
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

    setup = SectorSetup(profile, np.linspace(0.5, 10.0, 201), hbar * k0, k0**2, cos_sin,
                        trajectories=((1.0, 5.0, 51),))
    result = execute_sector(setup)
    np.testing.assert_allclose(result.amplitude.rho, 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(result.R, 1.0 / result.amplitude.grid, rtol=1e-15)
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
    setup = SectorSetup(profile, grid, 1.0, 1.0, lambda _profile, _grid, _settings: pair,
                        trajectories=((1.0, 5.0, 11),))
    result = execute_sector(setup)
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
