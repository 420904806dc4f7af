"""Catalog weights, geometric frequencies, and tabulated profiles."""

import math

import numpy as np
import pytest

from ermakov.catalog import (
    CATALOG_KEYS,
    CoordinateSystem,
    FrequencyProfile,
    SectorSpec,
    Weight,
    confocal_quadric_system,
    geometric_frequency,
    lookup_system,
)
from ermakov.errors import ConfigurationError, SingularEndpointError, UnknownSystemError


def hi_order_fd(f, x, h):
    """Five-point central first and second derivatives."""
    f2, f1, f0, fm1, fm2 = f(x + 2 * h), f(x + h), f(x), f(x - h), f(x - 2 * h)
    d1 = (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
    d2 = (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h**2)
    return d1, d2


def test_lookup_known_keys():
    assert set(CATALOG_KEYS) == {
        "cartesian",
        "cylindrical",
        "spherical",
        "parabolic3d",
        "elliptic_cylinder",
        "parabolic_cylinder",
        "confocal_quadric",
    }
    for name in CATALOG_KEYS:
        system = lookup_system(name)
        assert 1 <= len(system.sectors) <= 3


def test_lookup_unknown_system_lists_keys():
    with pytest.raises(UnknownSystemError) as err:
        lookup_system("toroidal")
    for key in CATALOG_KEYS:
        assert key in str(err.value)


def test_cartesian_all_unit_weights():
    system = lookup_system("cartesian")
    assert [s.label for s in system.sectors] == ["x", "y", "z"]
    for sector in system.sectors:
        assert sector.weight.kind == "unit"
        assert sector.singular_endpoints == ()


def test_spherical_weights():
    system = lookup_system("spherical")
    r = system.sector("r")
    assert r.weight.kind == "power" and r.weight.params["n"] == 2
    theta = system.sector("theta")
    assert theta.weight.kind == "sin"
    assert lookup_system("spherical").sector("phi").weight.kind == "unit"
    # both theta endpoints are zeros of sin
    assert theta.singular_endpoints == (0.0, math.pi)


def test_duplicate_sector_labels_rejected():
    s = SectorSpec("x", (0.0, 1.0), Weight.unit())
    with pytest.raises(ConfigurationError):
        CoordinateSystem("bad", (s, s))


def test_geometric_frequency_unit_weight_is_zero():
    sector = lookup_system("cartesian").sector("x")
    for q in (-3.0, 0.0, 7.5):
        assert geometric_frequency(sector, q) == 0.0
    q = np.linspace(-5.0, 5.0, 11)
    np.testing.assert_array_equal(sector.weight.geometric_omega2(q), np.zeros_like(q))


def test_geometric_frequency_spherical_radial_vanishes():
    sector = lookup_system("spherical").sector("r")
    for r in np.linspace(0.1, 100.0, 257):
        assert abs(geometric_frequency(sector, float(r))) <= 1e-10


def test_geometric_frequency_cylindrical_radial_quarter():
    sector = lookup_system("cylindrical").sector("r")
    # (ln r)' = 1/r, (ln r)'' = -1/r^2 gives 1/(2 r^2) - 1/(4 r^2) = 1/(4 r^2)
    assert geometric_frequency(sector, 2.0) == pytest.approx(1.0 / 16.0, rel=1e-14)
    for r in np.linspace(0.1, 50.0, 97):
        expected = 0.25 / r**2
        assert geometric_frequency(sector, float(r)) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "weight, points, step",
    [
        (Weight.power(1), np.linspace(0.4, 9.0, 23), lambda q: 1e-3 * max(1.0, q)),
        (Weight.power(2), np.linspace(0.4, 9.0, 23), lambda q: 1e-3 * max(1.0, q)),
        (Weight.sine(), np.linspace(0.3, math.pi - 0.3, 23), lambda q: 1e-3),
        (
            Weight.quadric(3.0, 2.0, 1.0, (2.0, 3.0)),
            np.linspace(2.1, 2.9, 23),
            lambda q: 5e-4,
        ),
    ],
)
def test_geometric_frequency_matches_finite_differences(weight, points, step):
    logs = lambda q: np.log(weight.value(q))
    for q in points:
        d1, d2 = hi_order_fd(logs, q, step(q))
        expected = -0.5 * d2 - 0.25 * d1**2
        got = weight.geometric_omega2(q)
        assert got == pytest.approx(expected, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize(
    "weight, points, step",
    [
        (Weight.power(1), np.linspace(0.5, 5.0, 11), lambda q: 1e-3 * max(1.0, q)),
        (Weight.power(2), np.linspace(0.5, 5.0, 11), lambda q: 1e-3 * max(1.0, q)),
        (Weight.sine(), np.linspace(0.4, 2.6, 11), lambda q: 1e-3),
        (
            Weight.quadric(3.0, 2.0, 1.0, (1.0, 2.0)),
            np.linspace(1.1, 1.9, 11),
            lambda q: 5e-4,
        ),
    ],
)
def test_weight_derivatives_match_finite_differences(weight, points, step):
    for q in points:
        d1, d2 = hi_order_fd(weight.value, q, step(q))
        s, dlog = weight.value(q), weight.dlog(q)
        assert s * dlog == pytest.approx(d1, rel=1e-6)  # s' = s (ln s)'
        assert s * (weight.d2log(q) + dlog**2) == pytest.approx(d2, rel=1e-6, abs=1e-7)


def schrodinger_profile(sector, energy, potential, m=1.0, hbar=1.0):
    """Profile whose physical part is (2 m / hbar^2)(E - V(q))."""
    return FrequencyProfile(sector, lambda q: (2 * m / hbar**2) * (energy - potential(q)), m, hbar)


def test_effective_frequency_free_particle_constant():
    sector = lookup_system("cartesian").sector("x")
    k0, m, hbar = 1.0, 1.0, 1.0
    profile = schrodinger_profile(sector, hbar**2 * k0**2 / (2 * m), lambda x: 0.0, m, hbar)
    x = np.array([-9.0, 0.0, 4.2])
    np.testing.assert_allclose(profile.omega2_array(x), k0**2, rtol=1e-14)


def test_effective_frequency_harmonic_form():
    sector = lookup_system("cartesian").sector("x")
    m, hbar, omega, energy = 1.3, 0.7, 2.0, 1.9
    profile = schrodinger_profile(
        sector, energy, lambda x: 0.5 * m * omega**2 * x**2, m, hbar
    )
    x = np.array([-1.0, 0.3, 2.0])
    expected = 2 * m * energy / hbar**2 - m**2 * omega**2 * x**2 / hbar**2
    np.testing.assert_allclose(profile.omega2_array(x), expected, rtol=1e-12)


def test_effective_frequency_cylindrical_radial_table_form():
    k0, kz, mt = 1.7, 0.4, 2.0
    profile = schrodinger_profile(
        lookup_system("cylindrical").sector("r"),
        0.5 * (k0**2 - kz**2),
        lambda r: 0.5 * mt**2 / r**2,
    )
    r = np.array([0.3, 1.0, 7.0])
    expected = (k0**2 - kz**2) - (mt**2 - 0.25) / r**2
    np.testing.assert_allclose(profile.omega2_array(r), expected, rtol=1e-12)


def test_effective_frequency_polar_table_form():
    ell, mphi = 2.0, 1.5
    profile = schrodinger_profile(
        lookup_system("spherical").sector("theta"),
        0.5 * ell * (ell + 1),
        lambda t: 0.5 * mphi**2 / np.sin(t) ** 2,
    )
    theta = np.linspace(0.2, math.pi - 0.2, 33)
    expected = ell * (ell + 1) + 0.25 - (mphi**2 - 0.25) / np.sin(theta) ** 2
    np.testing.assert_allclose(profile.omega2_array(theta), expected, rtol=1e-10)


def test_singular_endpoint_reported():
    sector = lookup_system("cylindrical").sector("r")
    with pytest.raises(SingularEndpointError) as err:
        geometric_frequency(sector, 0.0)
    assert err.value.endpoint == 0.0


def test_quadric_interval_with_root_rejected():
    with pytest.raises(ConfigurationError):
        Weight.quadric(3.0, 2.0, 1.0, (1.5, 2.5))  # contains the root at 2
    with pytest.raises(ConfigurationError):
        Weight.quadric(3.0, 2.0, 1.0, (1.5, 2.001))  # the root at 2, just inside the upper end


def test_quadric_system_branches():
    system = confocal_quadric_system(3.0, 2.0, 1.0)
    assert [s.label for s in system.sectors] == ["lambda", "mu", "nu"]
    for sector in system.sectors:
        lo, hi = sector.domain
        mid = 0.5 * (lo + hi)
        assert sector.weight.value(mid) > 0
    # the branches end on axis roots, which are their singular endpoints
    singular = {s.label: s.singular_endpoints for s in system.sectors}
    assert singular == {"lambda": (3.0,), "mu": (2.0, 3.0), "nu": (1.0, 2.0)}
    with pytest.raises(ConfigurationError):
        confocal_quadric_system(1.0, 2.0, 3.0)


def test_singular_endpoints_are_exact():
    # an endpoint is singular only where the weight has a root of nonzero
    # power, sin a multiple of pi, or the end is infinite (every weight but unit)
    singular = {(name, s.label): s.singular_endpoints
                for name in CATALOG_KEYS for s in lookup_system(name).sectors}
    expected = dict.fromkeys(singular, ())
    for sector in (("cylindrical", "r"), ("spherical", "r"), ("parabolic3d", "u"),
                   ("parabolic3d", "v")):
        expected[sector] = (0.0, math.inf)
    expected["spherical", "theta"] = (0.0, math.pi)
    expected["confocal_quadric", "lambda"] = (3.0,)
    expected["confocal_quadric", "mu"] = (2.0, 3.0)
    expected["confocal_quadric", "nu"] = (1.0, 2.0)
    assert singular == expected
    for name in CATALOG_KEYS:
        for s in lookup_system(name).sectors:
            assert (s.singular_endpoints == ()) == (s.weight.kind == "unit")


def test_endpoint_near_a_root_is_not_singular():
    # s(1e-7) = 1e-14 is small but finite and positive: not a singular end
    sector = SectorSpec("r", (1e-7, 1.0), Weight.power(2))
    assert sector.singular_endpoints == ()
    with pytest.raises(ConfigurationError):
        geometric_frequency(sector, 1e-7)
    # 1/q^2 - 1/q^2, exact up to the rounding of either term
    assert abs(geometric_frequency(sector, 2e-7)) <= 4 * np.finfo(float).eps / 2e-7**2


def test_catalog_systems_are_shared_and_immutable():
    for name in CATALOG_KEYS:
        assert lookup_system(name) is lookup_system(name)
    weight = lookup_system("spherical").sector("r").weight
    with pytest.raises(AttributeError):
        weight.kind = "unit"
    with pytest.raises(AttributeError):
        weight.roots = ()
    with pytest.raises(TypeError):
        weight.params["n"] = 1
    quadric = lookup_system("confocal_quadric").sector("mu").weight
    with pytest.raises(TypeError):
        quadric.params["interval"] = (1.0, 3.0)
    assert weight.params["n"] == 2 and quadric.params["interval"] == (2.0, 3.0)


def test_unknown_sector_label():
    with pytest.raises(ConfigurationError):
        lookup_system("spherical").sector("w")
