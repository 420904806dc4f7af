"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible under ``pytest -s``).
Closed-form expectations are evaluated in place; randomized draws use a
fixed seed so the suite is reproducible.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dop853_reference import direct_amplitude

import ermakov
from ermakov.bases import mathieu_char_value, mathieu_char_value_truncated, whittaker_m_column
from ermakov.catalog import lookup_system, geometric_frequency
from ermakov.fields import trajectory
from ermakov.linear import wronskian_check
from ermakov.pinney import PinneyCoefficients, pinney_amplitude, solve_ep_direct
from ermakov.problems import ProblemSpec, SectorRequest, build_problem
from ermakov.runner import execute_sector


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def free_run():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0},
                       sectors={"x": SectorRequest(C=1.0)})
    (setup,) = build_problem(spec)
    return setup, execute_sector(setup)


@pytest.fixture(scope="module")
def harmonic_run():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": 1.0},
                       sectors={"xi": SectorRequest(k=1.0)})
    (setup,) = build_problem(spec)
    return setup, execute_sector(setup)


@pytest.fixture(scope="module")
def coulomb_run():
    spec = ProblemSpec(kind="coulomb_halfline", params={"alpha": 1.3, "E": -0.5},
                       sectors={"x": SectorRequest(k=0.5)})
    (setup,) = build_problem(spec)
    return setup, execute_sector(setup)


@pytest.fixture(scope="module")
def two_center_runs():
    spec = ProblemSpec(
        kind="two_center_elliptic",
        params={"a": 1.0, "Z": 1.0, "k_sq": 2.0, "ell": 0, "parity": "even"},
        sectors={"nu": SectorRequest(k=0.2), "mu": SectorRequest(k=0.2)},
    )
    return [(setup, execute_sector(setup)) for setup in build_problem(spec)]


def test_criterion_1_free_particle_closed_form(free_run):
    setup, result = free_run
    rho_err = float(np.max(np.abs(result.amplitude.rho - 1.0)))
    p_err = float(np.max(np.abs(result.p - 1.0)))
    inv_err = float(np.max(np.abs(result.invariant - 0.5)))
    ok = rho_err <= 1e-12 and p_err <= 1e-12 and inv_err <= 1e-12 * 0.5 + 1e-12
    report(1, "free-particle closed form", ok,
           f"rho {rho_err:.2e}, p {p_err:.2e}, invariant {inv_err:.2e}")


def test_criterion_2_invariant_constancy(harmonic_run, coulomb_run, two_center_runs):
    drifts = {
        "harmonic": harmonic_run[1].invariant_drift,
        "coulomb": coulomb_run[1].invariant_drift,
        "two-center angular": {
            s.label: r.invariant_drift for s, r in two_center_runs
        }["nu"],
    }
    ok = all(d <= 1e-8 for d in drifts.values())
    report(2, "invariant constancy", ok,
           ", ".join(f"{k} {v:.2e}" for k, v in drifts.items()))


def test_criterion_3_superposition_identity(
    free_run, harmonic_run, coulomb_run, two_center_runs
):
    rng = np.random.default_rng(20250810)
    cases = {
        "free": (free_run[0], free_run[1].amplitude.pair),
        "harmonic": (harmonic_run[0], harmonic_run[1].amplitude.pair),
        "coulomb": (coulomb_run[0], coulomb_run[1].amplitude.pair),
        "two-center": next(
            (s, r.amplitude.pair) for s, r in two_center_runs if s.label == "nu"
        ),
    }
    worst = direct_worst = 0.0
    for name, (setup, pair) in cases.items():
        for _ in range(5):
            a = math.exp(rng.uniform(-0.5, 0.8))
            d = rng.uniform(-0.4, 0.4)
            k = rng.uniform(0.2, 2.0)
            b = (k / pair.W**2 + d**2) / a
            coeffs = PinneyCoefficients.of(k, pair.W, {"A": a, "B": b, "D": d})
            amp = pinney_amplitude(coeffs, pair)
            mid = pair.grid.size // 2
            ic = (float(amp.rho[mid]), float(amp.drho[mid]))
            anchor = 0.5 * (pair.grid[0] + pair.grid[-1])
            # the nonlinear equation integrated directly, and solve_ep_direct
            reference = direct_amplitude(setup.profile, k, pair.grid, anchor, ic)
            direct = solve_ep_direct(setup.profile, k, ic, pair.grid)
            worst = max(worst, float(np.max(np.abs(reference - amp.rho) / amp.rho)))
            direct_worst = max(
                direct_worst, float(np.max(np.abs(direct.rho - reference) / reference))
            )
    report(3, "superposition identity (20 randomized draws)",
           worst <= 1e-6 and direct_worst <= 1e-6,
           f"max rel dev {worst:.2e}, solve_ep_direct {direct_worst:.2e}")


def test_criterion_4_weber_hermite_reduction():
    xi = np.linspace(-4.0, 4.0, 801)
    hermites = {0: lambda x: 1.0 + 0 * x, 1: lambda x: 2 * x, 2: lambda x: 4 * x**2 - 2}
    worst = 0.0
    for n, h in hermites.items():
        # the harmonic preset at E = n + 1/2: its first column is D_n
        spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": n + 0.5},
                           sectors={"xi": SectorRequest(grid=(-4.0, 4.0, 801))})
        (setup,) = build_problem(spec)
        y = setup.build_pair().y1
        ref = np.exp(-(xi**2) / 4.0) * h(xi / math.sqrt(2.0))
        c = float(np.dot(y, ref) / np.dot(ref, ref))
        worst = max(worst, float(np.max(np.abs(y - c * ref)) / np.max(np.abs(c * ref))))
    report(4, "Weber -> Hermite reduction", worst <= 1e-14, f"max scaled dev {worst:.2e}")


def test_criterion_5_whittaker_laguerre_reduction():
    z = np.linspace(0.1, 10.0, 991)
    laguerres = {1: lambda t: 1.0 + 0 * t, 2: lambda t: 2.0 - t}
    worst = 0.0
    for kappa, l in laguerres.items():
        col = whittaker_m_column(float(kappa), z, lam=0.5)  # argument equals z
        ref = z * np.exp(-z / 2.0) * l(z)
        c = float(np.dot(col.y, ref) / np.dot(ref, ref))
        worst = max(worst, float(np.max(np.abs(col.y - c * ref)) / np.max(np.abs(c * ref))))
    report(5, "Whittaker -> Laguerre reduction", worst <= 1e-6,
           f"max scaled dev {worst:.2e}")


def test_criterion_6_mathieu_truncation():
    worst_zero = 0.0
    for ell in range(5):
        worst_zero = max(worst_zero, abs(mathieu_char_value(ell, "even", 0.0) - ell**2))
    for ell in range(1, 5):
        worst_zero = max(worst_zero, abs(mathieu_char_value(ell, "odd", 0.0) - ell**2))
    worst_doubling = 0.0
    for ell, parity in ((0, "even"), (1, "even"), (2, "even"), (1, "odd"), (2, "odd")):
        a32 = mathieu_char_value_truncated(ell, parity, 1.0, 32)
        a64 = mathieu_char_value_truncated(ell, parity, 1.0, 64)
        worst_doubling = max(worst_doubling, abs(a64 - a32))
    ok = worst_zero <= 1e-10 and worst_doubling <= 1e-10
    report(6, "Mathieu harmonic limit and truncation stability", ok,
           f"q=0 dev {worst_zero:.2e}, doubling dev {worst_doubling:.2e}")


def test_criterion_7_geometric_frequency_identities():
    spherical = lookup_system("spherical").sector("r")
    worst_sph = max(
        abs(geometric_frequency(spherical, float(r)))
        for r in np.linspace(0.1, 100.0, 501)
    )
    cylindrical = lookup_system("cylindrical").sector("r")
    worst_cyl = max(
        abs(geometric_frequency(cylindrical, float(r)) - 0.25 / r**2) / (0.25 / r**2)
        for r in np.linspace(0.1, 100.0, 501)
    )
    ok = worst_sph <= 1e-10 and worst_cyl <= 1e-10
    report(7, "geometric-frequency identities", ok,
           f"spherical {worst_sph:.2e}, cylindrical rel {worst_cyl:.2e}")


def test_criterion_8_wronskian_constancy(
    free_run, harmonic_run, coulomb_run, two_center_runs
):
    pairs = {
        "free": free_run[1].amplitude.pair,
        "harmonic": harmonic_run[1].amplitude.pair,
        "coulomb": coulomb_run[1].amplitude.pair,
    }
    for setup, result in two_center_runs:
        pairs[f"two-center {setup.label}"] = result.amplitude.pair
    drifts = {k: wronskian_check(p) / max(1.0, abs(p.W)) for k, p in pairs.items()}
    ok = all(v <= 1e-9 for v in drifts.values())
    report(8, "Wronskian constancy across the suite", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in drifts.items()))


def test_criterion_9_continuity_first_integral(
    free_run, harmonic_run, coulomb_run, two_center_runs
):
    # p = C/rho^2 read back against rho: max |p rho^2 - C| / |C| (every C here is nonzero)
    runs = {"free": free_run, "harmonic": harmonic_run, "coulomb": coulomb_run}
    for setup, result in two_center_runs:
        runs[f"two-center {setup.label}"] = (setup, result)
    residuals = {
        name: float(np.max(np.abs(result.p * result.amplitude.rho**2 - setup.C))) / abs(setup.C)
        for name, (setup, result) in runs.items()
    }
    ok = all(v <= 1e-10 for v in residuals.values())
    report(9, "continuity first integral", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in residuals.items()))


def test_criterion_10_trajectory_quadrature(free_run, harmonic_run):
    setup, result = free_run
    t = np.linspace(0.0, 10.0, 201)
    # x' = C/(m rho^2): Hermite cells of rho^2 with the exact slope 2 rho rho'
    rho = result.amplitude.rho
    drho2 = 2.0 * rho * result.amplitude.drho
    x = trajectory(setup.C, result.amplitude.grid, rho, drho2, 1.0, [(0.0, t)])[0]
    free_err = float(np.max(np.abs(x - t)))
    hsetup, hresult = harmonic_run
    t2 = np.linspace(0.0, 2.0, 41)
    rho = hresult.amplitude.rho
    drho2 = 2.0 * rho * hresult.amplitude.drho
    fwd = trajectory(hsetup.C, hresult.amplitude.grid, rho, drho2, 1.0, [(0.25, t2)])[0]
    back = trajectory(-hsetup.C, hresult.amplitude.grid, rho, drho2, 1.0,
                      [(float(fwd[-1]), t2)])[0]
    closure = abs(float(back[-1]) - 0.25)
    ok = free_err <= 1e-9 and closure <= 1e-8
    report(10, "trajectory quadrature and reversal", ok,
           f"free dev {free_err:.2e}, reversal closure {closure:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem.kind = free_particle\n"
        "problem.k0 = 1.0\n"
        "sector.x.C = 1.0\n"
        "trajectory.x.1 = 0.0:5.0:51\n"
    )
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "ermakov", "run", str(cfg)],
            env={**os.environ, "ERMAKOV_OUT": str(out),
                 "PYTHONPATH": str(Path(ermakov.__file__).resolve().parent.parent)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1]
    report(11, "byte-identical repeated runs", ok,
           f"{len(outputs[0])} files compared")
