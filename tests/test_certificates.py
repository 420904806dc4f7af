"""Each reported certificate fails on a seeded defect.

The rows of the matrix are defects, each one small enough to leave the run
otherwise ordinary; its columns are the checks a run reports (per-sector
invariant and integration, and the flux ledger).  Every defect must flip at
least one check, and a check that no defect flips on its own would repeat
the others.  The Wronskian drift is not among them: the invariant already is
a weighted Wronskian drift, which the identity test below pins down.
"""

import dataclasses
from functools import cache, partial

import numpy as np
import pytest

from ermakov.bases import trig_pair, whittaker_pair
from ermakov.cli import main
from ermakov.linear import IntegrationSettings
from ermakov.problems import ProblemSpec, SectorRequest, build_problem
from ermakov.runner import Tolerances, certify, execute_sector

CHECKS = ("invariant", "integration", "flux")
EPS = 1e-6
TWO_CENTER = {"a": 1.0, "Z": 1.0, "k_sq": 2.0, "ell": 1, "parity": "odd"}


def wrong_wavenumber(setup):
    """The trigonometric pair of k0 (1 + EPS): its cosine solves another equation."""
    (k0,) = setup.pair_builder.args
    return partial(trig_pair, k0 * (1.0 + EPS))


def wrong_char_value(setup):
    """The Mathieu pair with the characteristic value a (1 + EPS)."""
    return partial(setup.pair_builder, a=setup.pair_builder.keywords["a"] * (1.0 + EPS))


def wrong_kappa(setup):
    """The Whittaker pair with the index kappa (1 + EPS)."""
    kappa, lam = setup.pair_builder.args
    return partial(whittaker_pair, kappa * (1.0 + EPS), lam)


# row: (kind, params, sector flux C, grids, settings, flux.enforce, {label: defect})
DEFECTS = {
    "free_wrong_k0": ("free_particle", {"k0": 1.0}, {}, {}, {}, False, {"x": wrong_wavenumber}),
    "mathieu_wrong_a": ("two_center_elliptic", TWO_CENTER, {}, {}, {}, False,
                        {"nu": wrong_char_value}),
    "mathieu_wrong_a_bound": ("two_center_elliptic", TWO_CENTER, {"nu": 0.0}, {}, {}, False,
                              {"nu": wrong_char_value}),
    "coulomb_wrong_kappa": ("coulomb_halfline", {"alpha": 1.3, "E": -0.5}, {}, {}, {}, False,
                            {"x": wrong_kappa}),
    "harmonic_loose_rel_tol": ("harmonic_oscillator", {"omega": 1.0, "E": 1.0}, {},
                               {"xi": (-6.0, 6.0, 51)}, {"rel_tol": 1e-2}, False, {}),
    "free_unbalanced_flux": ("free_particle", {"k0": 1.0}, {}, {}, {}, True, {}),
}


def sector_results(kind, params, flux, grids, settings, defects):
    """The executed sectors of one run, with ``defects`` seeded."""
    requests = {label: SectorRequest(C=flux.get(label), grid=grids.get(label))
                for label in {**flux, **grids}}
    spec = ProblemSpec(kind=kind, params=params, sectors=requests)
    results = []
    for setup in build_problem(spec):
        if setup.label in defects:
            setup = dataclasses.replace(setup, pair_builder=defects[setup.label](setup))
        results.append(execute_sector(setup, IntegrationSettings(**settings)))
    return results


def failed_checks(results, enforce, kind):
    """Names of the checks that fail; each sector reports exactly the
    invariant and integration checks."""
    report = certify(results, Tolerances(), enforce, kind)
    for sector in report.sectors:
        assert list(sector["checks"]) == list(CHECKS[:2])
    passed = {name: all(s["checks"][name] for s in report.sectors) for name in CHECKS[:2]}
    passed["flux"] = report.flux["pass"]
    return {name for name in CHECKS if not passed[name]}


@cache
def row_results(row):
    kind, params, flux, grids, settings, _, defects = DEFECTS[row]
    return sector_results(kind, params, flux, grids, settings, defects)


@cache
def failed(row):
    kind, _, _, _, _, enforce, _ = DEFECTS[row]
    return failed_checks(row_results(row), enforce, kind)


@pytest.mark.parametrize("row", DEFECTS)
def test_every_seeded_defect_flips_a_check(row):
    assert failed(row)


def test_each_check_flips_on_a_seeded_defect():
    # the cosine moves the Wronskian of the sine integrated beside it, and
    # with it the invariant
    assert failed("free_wrong_k0") == {"invariant"}
    # at C = 0 the invariant is A W(q)^2 / 2, so it sees the wrong pair too
    assert "invariant" in failed("mathieu_wrong_a_bound")
    assert "invariant" in failed("coulomb_wrong_kappa")
    assert failed("harmonic_loose_rel_tol") == {"integration"}
    assert failed("free_unbalanced_flux") == {"flux"}
    for check in CHECKS:
        assert any(failed(row) == {check} for row in DEFECTS), check


def test_correct_runs_pass_every_check():
    for kind, params, flux, grids, _, _, _ in DEFECTS.values():
        assert not failed_checks(sector_results(kind, params, flux, grids, {}, {}), False, kind)


# preset runs: (kind, params, sector flux C); nine sectors in all
PRESETS = {
    "free": ("free_particle", {"k0": 1.0}, {}),
    "harmonic_half_order": ("harmonic_oscillator", {"omega": 1.0, "E": 1.0}, {}),
    "harmonic_integer_order": ("harmonic_oscillator", {"omega": 1.0, "E": 1.5}, {}),
    "coulomb": ("coulomb_halfline", {"alpha": 1.3, "E": -0.5}, {}),
    "two_center_ell": ("two_center_elliptic", TWO_CENTER, {}),
    "two_center_gamma": ("two_center_elliptic",
                         {"a": 1.0, "Z": 1.0, "k_sq": 2.0, "Gamma": -1.5}, {}),
    "harmonic_bound": ("harmonic_oscillator", {"omega": 1.0, "E": 1.0}, {"xi": 0.0}),
}


def weighted_wronskian_drift(result):
    """B W^2/2 + (B y2 + D y1)^2 (W(q)^2 - W^2) / (2 rho^2), or A W(q)^2/2
    where B = 0, from the pair's columns and the form's coefficients."""
    pair, c = result.amplitude.pair, result.amplitude.coefficients
    w = pair.y1 * pair.dy2 - pair.dy1 * pair.y2
    if c.B == 0.0:
        return 0.5 * c.A * w**2
    lever = (c.B * pair.y2 + c.D * pair.y1) ** 2 / result.amplitude.rho**2
    return 0.5 * c.B * pair.W**2 + 0.5 * lever * (w**2 - pair.W**2)


@pytest.mark.parametrize("case", [*PRESETS, *DEFECTS])
def test_invariant_is_a_weighted_wronskian_drift(case):
    if case in PRESETS:
        kind, params, flux = PRESETS[case]
        results = sector_results(kind, params, flux, {}, {}, {})
    else:
        results = row_results(case)
    for result in results:
        reference = abs(result.invariant[result.invariant.size // 2])
        gap = np.max(np.abs(result.invariant - weighted_wronskian_drift(result)))
        assert gap <= 1e-14 * reference, (result.label, gap / reference)


def mu_sector(params, grid=None):
    spec = ProblemSpec(kind="two_center_elliptic", params=params,
                       sectors={"mu": SectorRequest(grid=grid)})
    return execute_sector(next(s for s in build_problem(spec) if s.label == "mu"))


def test_pair_condition_marks_a_wronskian_certificate_at_roundoff():
    # Z = 1, ell = 8: both columns, posed at the middle of mu, grow toward
    # both ends and turn nearly parallel, so the invariant of a right pair
    # reads about eps kappa
    ill = mu_sector({"a": 1.0, "Z": 1.0, "k_sq": 2.0, "ell": 8, "parity": "even"})
    assert ill.pair_condition >= 1e9
    # Z = 0, ell = 20: a well-conditioned pair, whose max |W(q) - W| is 5.6e2 at W = 8.5e16
    wide = mu_sector({"a": 1.0, "Z": 0.0, "k_sq": 2.0, "ell": 20, "parity": "even"},
                     (0.0, 2.0, 2001))
    assert wide.pair_condition <= 10.0
    for kind, params, flux in PRESETS.values():
        for result in sector_results(kind, params, flux, {}, {}, {}):
            assert result.pair_condition <= 10.0, (kind, result.label)


def test_invariant_floor_is_the_roundoff_of_the_pair_condition():
    # Z = 1, ell = 8 fails its invariant at a drift of 1.0e-8, under the floor
    # eps kappa its pair reaches; every preset sector's floor is near eps
    ill = mu_sector({"a": 1.0, "Z": 1.0, "k_sq": 2.0, "ell": 8, "parity": "even"})
    runs = [([ill], "two_center_elliptic")]
    runs += [(sector_results(kind, params, flux, {}, {}, {}), kind)
             for kind, params, flux in PRESETS.values()]
    for results, kind in runs:
        sectors = certify(results, Tolerances(), False, kind).sectors
        for result, sector in zip(results, sectors):
            assert sector["invariant_floor"] == np.finfo(float).eps * result.pair_condition
            if result is ill:
                assert not sector["checks"]["invariant"] and sector["invariant_floor"] >= 1e-7
            else:
                assert sector["invariant_floor"] <= 1e-14, (kind, result.label)


@pytest.mark.parametrize(
    "text",
    [
        "problem.kind = harmonic_oscillator\nproblem.omega = 1\nproblem.E = 0.95\n"
        "sector.xi.grid = -6:6:301\n",
        "problem.kind = two_center_elliptic\nproblem.a = 1\nproblem.Z = 1\nproblem.k_sq = 2\n"
        "problem.ell = 0\nproblem.parity = even\nsector.mu.grid = 0:3:401\n",
    ],
    ids=["harmonic_301", "two_center_mu_401"],
)
def test_correct_runs_on_coarse_grids_pass(tmp_path, text):
    # A second difference of y1 reads about 1.2e-3 on these grids, which the
    # certificates that replaced it do not mistake for a defect.
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(path)]) == 0
