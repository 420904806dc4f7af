"""Metamorphic test of the flux scaling C -> lambda C.

rho'' + Omega^2 rho = k / rho^3 is covariant under rho -> c rho, k -> c^4 k
(Ermakov 1880; Pinney 1950).  With k = (C/hbar)^2, scaling a sector's flux
by lambda scales rho and R by sqrt(lambda) and the invariant by lambda, and
leaves p = C/rho^2, Q, every trajectory and every certificate verdict as
they were.  Each example runs one sector of a preset at its default C and at
lambda C, lambda = 10^u with u in [-150, 150], so k stays a normal double.
"""

import dataclasses
import math
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ermakov.bases import whittaker_pair
from ermakov.errors import EngineError
from ermakov.problems import ProblemSpec, SectorRequest, build_problem
from ermakov.runner import Tolerances, certify, execute_sector

TWO_CENTER = {"a": 1.0, "Z": 1.0, "k_sq": 2.0}
# kind, parameters, sector grids and one trajectory (x0, t_end, n) per sector
PRESETS = {
    "free": ("free_particle", {"k0": 1.0}, {"x": ((-10.0, 10.0, 201), (-1.0, 1.0, 11))}),
    "harmonic_half": ("harmonic_oscillator", {"omega": 1.0, "E": 1.0},
                      {"xi": ((-6.0, 6.0, 201), (0.25, 0.5, 11))}),
    "harmonic_integer": ("harmonic_oscillator", {"omega": 1.0, "E": 1.5},
                         {"xi": ((-6.0, 6.0, 201), (0.25, 0.5, 11))}),
    "coulomb": ("coulomb_halfline", {"alpha": 1.3, "E": -0.5},
                {"x": ((0.025, 15.0, 201), (2.0, 0.5, 11))}),
    "two_center_ell": ("two_center_elliptic", {**TWO_CENTER, "ell": 1, "parity": "odd"},
                       {"nu": ((0.0, 2.0 * math.pi, 201), (1.0, 0.05, 11)),
                        "mu": ((0.0, 3.0, 201), (0.5, 0.05, 11))}),
    "two_center_gamma": ("two_center_elliptic", {**TWO_CENTER, "Gamma": -1.0},
                         {"nu": ((0.0, 2.0 * math.pi, 201), (1.0, 0.05, 11)),
                          "mu": ((0.0, 3.0, 201), (0.5, 0.05, 11))}),
}
scales = st.floats(-150.0, 150.0).map(lambda u: 10.0**u)


def _setup(preset, label, scale, defect=False):
    """The sector ``label`` of ``preset`` with its grid and trajectory, at
    flux ``scale`` times its default C."""
    kind, params, sectors = PRESETS[preset]
    grid, request = sectors[label]

    def build(**flux):
        sector = SectorRequest(grid=grid, trajectories=(request,), **flux)
        spec = ProblemSpec(kind, params=params, sectors={label: sector})
        (setup,) = [s for s in build_problem(spec) if s.label == label]
        return setup

    setup = build(C=scale * build().C)
    if defect:  # a Whittaker pair with kappa (1 + 1e-6) against the true profile
        kappa, lam = setup.pair_builder.args
        setup = dataclasses.replace(
            setup, pair_builder=partial(whittaker_pair, kappa * (1.0 + 1e-6), lam)
        )
    return setup


def _run(setup):
    """(result, per-check verdicts), or the type of the error the sector raised."""
    try:
        result = execute_sector(setup)
    except EngineError as exc:
        return type(exc)
    report = certify([result], Tolerances(), False, "scaling")
    return result, report.sectors[0]["checks"]


def _assert_close(a, b, scale):
    assert np.max(np.abs(a - b)) <= 1e-12 * scale


@settings(max_examples=settings.default.max_examples // 2)
@given(st.sampled_from(sorted(PRESETS)), st.sampled_from((0, 1)), scales)
def test_flux_scaling_leaves_fields_trajectories_and_verdicts(preset, which, lam):
    labels = sorted(PRESETS[preset][2])
    label = labels[which % len(labels)]
    base = _run(_setup(preset, label, 1.0))
    scaled = _run(_setup(preset, label, lam))
    if isinstance(base, type) or isinstance(scaled, type):
        assert base == scaled
        return
    (one, checks_one), (other, checks_other) = base, scaled
    assert checks_one == checks_other
    assert other.pair_condition == one.pair_condition  # the pair does not depend on C
    profile = one.setup.profile
    omega2_phys = np.max(np.abs(profile.physical(one.amplitude.grid)))
    q_scale = (profile.hbar**2 / (2.0 * profile.m)) * omega2_phys
    _assert_close(other.p, one.p, np.max(np.abs(one.p)))
    _assert_close(other.Q, one.Q, max(np.max(np.abs(one.Q)), q_scale))
    root = math.sqrt(lam)
    _assert_close(other.amplitude.rho / root, one.amplitude.rho, np.max(one.amplitude.rho))
    _assert_close(other.R / root, one.R, np.max(one.R))
    _assert_close(other.invariant / lam, one.invariant, np.max(one.invariant))
    ((_, _, x_one),), ((_, _, x_other),) = one.trajectories, other.trajectories
    _assert_close(x_other, x_one, np.max(np.abs(x_one)))


@settings(max_examples=settings.default.max_examples // 10)
@given(scales)
def test_coulomb_kappa_defect_fails_the_invariant_at_every_scale(lam):
    for scale in (1.0, lam):
        result, checks = _run(_setup("coulomb", "x", scale, defect=True))
        assert not checks["invariant"], result.invariant_drift
