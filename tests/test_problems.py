"""Preset wiring: parameter maps, default data, two-center reduction."""

import math

import numpy as np
import pytest

from ermakov import bases, problems
from ermakov.bases import mathieu_char_value, mathieu_column
from ermakov.catalog import FrequencyProfile
from ermakov.errors import ConfigurationError
from ermakov.pinney import symmetric_coefficients
from ermakov.problems import ProblemSpec, build_problem
from ermakov.runner import parse_config_text, run_config


def test_free_particle_defaults():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0}, flux={"x": 1.0})
    (setup,) = build_problem(spec)
    assert setup.label == "x"
    grid = setup.grid
    assert grid[0] == -10.0 and grid[-1] == 10.0 and grid.size == 2001
    np.testing.assert_allclose(setup.profile.omega2_array(grid), 1.0, rtol=1e-15)
    assert (setup.C, setup.k) == (1.0, 1.0)
    pair = setup.build_pair()
    coeffs = symmetric_coefficients(setup.k, pair.W)
    assert (coeffs.A, coeffs.B, coeffs.D, coeffs.k) == (1.0, 1.0, 0.0, 1.0)


def test_harmonic_order_parameter_map():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": 0.5})
    (setup,) = build_problem(spec)
    assert setup.pair_builder.args == (pytest.approx(0.0),)  # partial(weber_pair, nu)
    for n in range(4):
        spec = ProblemSpec(
            kind="harmonic_oscillator", params={"omega": 1.0, "E": n + 0.5}
        )
        (setup,) = build_problem(spec)
        assert setup.pair_builder.args == (pytest.approx(float(n), abs=1e-12),)


def test_harmonic_weber_frequency():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 2.0, "E": 3.0})
    (setup,) = build_problem(spec)
    nu = 3.0 / 2.0 - 0.5
    xi = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(
        setup.profile.omega2_array(xi), nu + 0.5 - xi**2 / 4.0, rtol=1e-14
    )


def test_coulomb_parameter_map():
    spec = ProblemSpec(kind="coulomb_halfline", params={"alpha": 1.3, "E": -0.5})
    (setup,) = build_problem(spec)
    kappa, lam = setup.pair_builder.args  # partial(whittaker_pair, kappa, lam)
    assert lam == pytest.approx(1.0)
    assert kappa == pytest.approx(1.3)
    # default grid spans z = 2 lam x in [0.05, 30]
    assert 2.0 * setup.grid[0] == pytest.approx(0.05)
    assert 2.0 * setup.grid[-1] == pytest.approx(30.0)
    with pytest.raises(ConfigurationError):
        build_problem(
            ProblemSpec(kind="coulomb_halfline", params={"alpha": 1.0, "E": 0.5})
        )


def test_coulomb_quantized_index_assembles_laguerre_column():
    # alpha = 2, E = -1/2 gives lam = 1 and index kappa = 2; M and W are
    # proportional there and the Whittaker pair completes the regular column
    # with a companion. The regular column must still be the Laguerre form.
    spec = ProblemSpec(kind="coulomb_halfline", params={"alpha": 2.0, "E": -0.5})
    (setup,) = build_problem(spec)
    assert setup.pair_builder.args[0] == pytest.approx(2.0)  # kappa
    pair = setup.build_pair()
    z = 2.0 * setup.grid
    ref = z * np.exp(-z / 2.0) * (2.0 - z)
    c = float(np.dot(pair.y1, ref) / np.dot(ref, ref))
    assert np.max(np.abs(pair.y1 - c * ref)) <= 1e-6 * np.max(np.abs(c * ref))


def test_two_center_parameter_map():
    # direct substitution: q_M = a^2 k^2 / 4, a_M = -(Gamma + a^2 k^2 / 2)
    spec = ProblemSpec(
        kind="two_center_elliptic",
        params={"a": 1.0, "Z": 1.0, "k_sq": 2.0, "Gamma": -1.0},
    )
    setups = {s.label: s for s in build_problem(spec)}
    # Omega_nu^2 = a_M - 2 q_M cos 2nu: a_M at nu = pi/4, 4 q_M across a quarter turn
    at = setups["nu"].profile.omega2_array(np.array([0.0, math.pi / 4, math.pi / 2]))
    assert (at[2] - at[0]) / 4.0 == pytest.approx(0.5)
    assert at[1] == pytest.approx(0.0, abs=1e-15)
    for s in setups.values():
        assert s.sector.weight.kind == "unit"


def two_center_profiles(a, k_sq, gamma, Z, Gamma):
    """(Omega_nu^2, Omega_mu^2) of the two-center preset, with e2 set so that
    gamma = 2 m e2 a / hbar^2 at m = hbar = 1."""
    params = {"a": a, "k_sq": k_sq, "Z": Z, "Gamma": Gamma, "e2": gamma / (2.0 * a)}
    setups = {s.label: s for s in build_problem(ProblemSpec("two_center_elliptic", params=params))}
    return setups["nu"].profile.omega2_array, setups["mu"].profile.omega2_array


def test_two_center_frequencies_term_dropout():
    omega2_nu, omega2_mu = two_center_profiles(1.0, 0.0, 2.0, 1.0, 0.0)
    nu = np.linspace(0, 2 * math.pi, 17)
    np.testing.assert_array_equal(omega2_nu(nu), np.zeros_like(nu))
    mu = np.linspace(0, 3, 17)
    np.testing.assert_allclose(omega2_mu(mu), 4.0 * np.cosh(mu), rtol=1e-15)


def test_two_center_frequencies_direct_values():
    omega2_nu, omega2_mu = two_center_profiles(1.0, 4.0, 1.0, 1.0, -2.0)
    assert omega2_nu(math.pi / 2) == pytest.approx(2.0, rel=1e-14)
    # the Mathieu rewrite: a_M = -(Gamma + a^2 k^2 / 2) = 0, q_M = a^2 k^2 / 4 = 1
    at = omega2_nu(np.array([0.0, math.pi / 4, math.pi / 2]))
    assert (at[2] - at[0]) / 4.0 == pytest.approx(1.0)
    assert at[1] == pytest.approx(0.0, abs=1e-15)
    # a^2 k^2 cosh^2 mu + 2 gamma Z cosh mu + Gamma at mu = 0
    assert omega2_mu(0.0) == pytest.approx(4.0 + 2.0 - 2.0, rel=1e-14)


def test_two_center_mathieu_rewrite_pointwise():
    omega2_nu, _ = two_center_profiles(1.2, 3.0, 0.7, 2.0, -0.4)
    ak2 = 1.2**2 * 3.0
    a_m, q_m = -(-0.4 + 0.5 * ak2), 0.25 * ak2
    nu = np.linspace(0.0, 2.0 * math.pi, 2001)
    rewrite = a_m - 2.0 * q_m * np.cos(2.0 * nu)
    np.testing.assert_allclose(omega2_nu(nu), rewrite, atol=1e-12)


def test_two_center_gamma_from_order():
    spec = ProblemSpec(
        kind="two_center_elliptic",
        params={"a": 1.0, "Z": 1.0, "k_sq": 2.0, "ell": 0, "parity": "even"},
    )
    setups = {s.label: s for s in build_problem(spec)}
    a_m = mathieu_char_value(0, "even", 0.5)
    assert setups["nu"].pair_builder.keywords["a"] == pytest.approx(a_m, abs=1e-12)
    # Omega_nu^2(pi/2) = -Gamma
    gamma = -float(setups["nu"].profile.omega2_array(math.pi / 2))
    assert gamma == pytest.approx(-a_m - 1.0, abs=1e-12)
    # the angular pair starts from the periodic Mathieu column
    grid = setups["nu"].grid
    np.testing.assert_array_equal(setups["nu"].build_pair().y1, mathieu_column(0, 0.5, grid)[0].y)
    # angular profile and the Mathieu equation a_M - 2 q_M cos 2nu agree pointwise
    direct = setups["nu"].profile.omega2_array(grid)
    np.testing.assert_allclose(direct, a_m - 2.0 * 0.5 * np.cos(2.0 * grid), atol=1e-12)


def test_two_center_radial_charge_free_is_modified_mathieu():
    spec = ProblemSpec(
        kind="two_center_elliptic",
        params={"a": 1.0, "Z": 0.0, "k_sq": 2.0, "ell": 1, "parity": "odd"},
    )
    setups = {s.label: s for s in build_problem(spec)}
    grid = setups["mu"].grid
    column, _ = mathieu_column(1, 0.5, grid, modified=True, parity="odd")
    np.testing.assert_array_equal(setups["mu"].build_pair().y1, column.y)


TWO_CENTER = {"a": 1.0, "k_sq": 2.0}
ONE_PROFILE_SPECS = {
    "free": ("free_particle", {"k0": 1.0}),
    "harmonic_nu_half": ("harmonic_oscillator", {"omega": 1.0, "E": 1.0}),
    "harmonic_nu_1": ("harmonic_oscillator", {"omega": 1.0, "E": 1.5}),
    "coulomb_kappa_1.3": ("coulomb_halfline", {"alpha": 1.3, "E": -0.5}),
    "coulomb_kappa_2": ("coulomb_halfline", {"alpha": 2.0, "E": -0.5}),
    "two_center_ell": ("two_center_elliptic", {**TWO_CENTER, "Z": 1.0, "ell": 1, "parity": "odd"}),
    "two_center_ell_z0": ("two_center_elliptic", {**TWO_CENTER, "Z": 0.0, "ell": 2}),
    "two_center_gamma": ("two_center_elliptic", {**TWO_CENTER, "Z": 1.0, "Gamma": -1.5}),
}


@pytest.mark.parametrize("kind, params", ONE_PROFILE_SPECS.values(), ids=ONE_PROFILE_SPECS.keys())
def test_pair_integrates_against_the_sector_profile(monkeypatch, kind, params):
    # One Omega^2 per sector: every frequency evaluation while a sector's
    # pair is built is one of that sector's own profile.
    seen = []
    omega2_array = FrequencyProfile.omega2_array

    def recording(self, q):
        seen.append(self)
        return omega2_array(self, q)

    monkeypatch.setattr(FrequencyProfile, "omega2_array", recording)
    for setup in build_problem(ProblemSpec(kind=kind, params=params)):
        seen.clear()
        setup.build_pair()
        assert all(profile is setup.profile for profile in seen)
        assert seen  # every pair integrates a column, the trig pair's sine included


def test_incomplete_specs_list_missing():
    with pytest.raises(ConfigurationError) as err:
        ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0})
    assert "E" in str(err.value)
    with pytest.raises(ConfigurationError) as err:
        ProblemSpec(kind="two_center_elliptic", params={"a": 1.0, "Z": 1.0, "k_sq": 1.0})
    assert "Gamma" in str(err.value)
    with pytest.raises(ConfigurationError):
        ProblemSpec(kind="unknown_kind")


def test_gamma_and_order_mutually_exclusive():
    with pytest.raises(ConfigurationError):
        ProblemSpec(
            kind="two_center_elliptic",
            params={"a": 1.0, "Z": 1.0, "k_sq": 1.0, "Gamma": 0.0, "ell": 0},
        )


def test_flux_and_k_consistency():
    spec = ProblemSpec(
        kind="free_particle", params={"k0": 1.0}, flux={"x": 2.0}, k_sector={"x": 4.0}
    )
    (setup,) = build_problem(spec)
    assert setup.C == 2.0 and setup.k == 4.0
    with pytest.raises(ConfigurationError):
        build_problem(
            ProblemSpec(
                kind="free_particle", params={"k0": 1.0},
                flux={"x": 1.0}, k_sector={"x": 4.0},
            )
        )
    with pytest.raises(ConfigurationError):
        build_problem(
            ProblemSpec(kind="free_particle", params={"k0": 1.0}, k_sector={"x": -1.0})
        )


def test_grid_override():
    spec = ProblemSpec(
        kind="free_particle", params={"k0": 1.0}, grids={"x": (-1.0, 1.0, 101)}
    )
    (setup,) = build_problem(spec)
    assert setup.grid.size == 101
    with pytest.raises(ConfigurationError):
        build_problem(
            ProblemSpec(kind="free_particle", params={"k0": 1.0},
                        grids={"x": (1.0, -1.0, 101)})
        )


def test_mathieu_char_value_solved_once_per_run(tmp_path, monkeypatch):
    # build_problem solves a_M for Gamma; the nu and (at Z = 0) mu Mathieu
    # pairs reuse it instead of solving it again.
    calls = []
    original = bases.mathieu_char_value

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bases, "mathieu_char_value", counted)
    monkeypatch.setattr(problems, "mathieu_char_value", counted)
    config = parse_config_text(
        "problem.kind = two_center_elliptic\nproblem.a = 1.0\nproblem.Z = 0.0\n"
        "problem.k_sq = 2.0\nproblem.ell = 2\nproblem.parity = even\n"
    )
    report, _ = run_config(config, output_dir=tmp_path)
    assert report.verdict == "pass"
    assert calls == [(2, "even", 0.5)]
