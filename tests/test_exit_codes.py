"""Exit-code contract: every ``check`` and ``run`` ends in 0, 1, 2 or 3.

Configurations are drawn per kind from its entry in ``problems.KINDS``:
its parameters, one name of each one-of group (sometimes both) and its
sector labels.  Every other key family comes from the parser's own tables:
``runner._SECTOR_KEYS`` (the form override A, B, D among them),
``_INTEGRATION_KEYS`` and ``_TOLERANCE_KEYS``, ``flux.enforce`` and
``runner.OUTPUT_FORMATS``.  Half of
them take values at the edges of the double range (+-1e300, +-1e-300, the
smallest subnormal, zeros of both signs) and middle magnitudes (1e2 to 1e3,
where a Weber pair's W^2 overflows) as well as ordinary ones; grids go
down to two points and up to 1e300 wide, and every key but the problem's
is optional.  Any exception that escapes ``cli.main`` would be a traceback
for a user, and fails the test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ermakov
from ermakov import linear
from ermakov.cli import main
from ermakov.problems import KINDS, TEXT_PARAMETERS
from ermakov.runner import _INTEGRATION_KEYS, _SECTOR_KEYS, _TOLERANCE_KEYS, OUTPUT_FORMATS

ORDINARY = (1.0, 0.5, 1.3, 2.0, -0.5, -1.0)
EDGES = (1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.0, -0.0)
ordinary = st.sampled_from(ORDINARY)
edgy = (st.sampled_from(ORDINARY + EDGES) | st.floats(-10.0, 10.0, allow_nan=False)
        | st.floats(1e2, 1e3) | st.floats(-1e3, -1e2))


def _sometimes(draw, odds):
    """True in at most about one of ``odds`` draws (hypothesis favours the
    first entry of ``sampled_from``)."""
    return draw(st.sampled_from((False,) * (odds - 1) + (True,)))


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    values = draw(st.sampled_from((ordinary, edgy)))

    def real():
        return repr(draw(values))

    lines = [f"problem.kind = {kind}"]
    entries = KINDS[kind].required + KINDS[kind].optional
    for group in (entry if isinstance(entry, tuple) else (entry,) for entry in entries):
        if _sometimes(draw, 5):
            continue
        # one name of a one-of group, sometimes every one
        for name in group if _sometimes(draw, 5) else (draw(st.sampled_from(group)),):
            if name in TEXT_PARAMETERS:
                value = draw(st.sampled_from(("even", "odd", "none")))
            elif name == "ell":
                value = draw(st.sampled_from(("1", "0", "2", "0.5", "-1")))
            else:
                value = real()
            lines.append(f"problem.{name} = {value}")
    for name in ("m", "hbar"):
        if _sometimes(draw, 5):
            lines.append(f"problem.{name} = {real()}")
    for label in KINDS[kind].sectors:
        override = _sometimes(draw, 4)
        for key in _SECTOR_KEYS:
            if key == "grid":
                if not _sometimes(draw, 4):  # mostly small grids, to keep the test fast
                    lo = draw(st.sampled_from((0.05, -1.0, 0.0, 1e-300, -1e300)))
                    width = draw(st.sampled_from((10.0, 1.0, 1e-300, 1e300)))
                    n = draw(st.sampled_from((51, 11, 3, 2, 1)))
                    lines.append(f"sector.{label}.grid = {lo!r}:{lo + width!r}:{n}")
            elif key in ("A", "B", "D"):
                # an override mostly gives A and B, sometimes D too, or one missing
                if override and (key != "D") != _sometimes(draw, 4):
                    lines.append(f"sector.{label}.{key} = {real()}")
            elif _sometimes(draw, 4):
                lines.append(f"sector.{label}.{key} = {real()}")
        if _sometimes(draw, 3):
            n = draw(st.sampled_from((11, 2, 1)))
            lines.append(f"trajectory.{label}.1 = {real()}:{real()}:{n}")
    for section, keys in (("integration", _INTEGRATION_KEYS), ("tolerance", _TOLERANCE_KEYS)):
        for key in keys:
            if _sometimes(draw, 6):
                lines.append(f"{section}.{key} = {real()}")
    if _sometimes(draw, 4):
        lines.append(f"flux.enforce = {draw(st.sampled_from(('true', 'false', 'yes')))}")
    if _sometimes(draw, 4):
        lines.append(f"output.format = {draw(st.sampled_from((*OUTPUT_FORMATS, 'xml')))}")
    return "\n".join(lines) + "\n"


FREE = "problem.kind = free_particle\nproblem.k0 = 1\n"
COULOMB = "problem.kind = coulomb_halfline\nproblem.alpha = 1\n"
# kappa about 2048: the W column's seed e^{-z/2} z^kappa overflows
WIDE_KAPPA = COULOMB + "problem.E = -1.192092896e-07\nsector.x.grid = 0.05:10.05:51\n"
# kappa about 7e149: the M series overflows within its first terms
HUGE_KAPPA = COULOMB + "problem.E = -1e-300\n"
# cells about 2e298 wide: the free pair's integrated sine has no finite cell
# propagator there, so the pair fails (exit 2) before any trajectory
WIDE_CELLS = FREE + "sector.x.grid = -1e300:0:51\ntrajectory.x.1 = -1:1:11\n"
# the step 2e-302: the sine takes one Magnus step per cell, and the
# invariant, Wronskian and integration checks all pass (exit 0)
TINY_STEP = FREE + "sector.x.grid = 0:1e-300:51\n"
HARMONIC = "problem.kind = harmonic_oscillator\nproblem.omega = 1\nproblem.E = 1\n"
# rho^2 = 1e-21 on the whole grid: small, but strictly positive, so no node
TINY_FLUX = FREE + "sector.x.C = 1e-21\ntrajectory.x.1 = 0:1:11\n"
SMALL_FLUX = HARMONIC + "sector.xi.C = 1e-150\n"  # k = 1e-300, still a normal double
# an open sector whose k = (C/hbar)^2 is subnormal (1e-320) or underflows to 0
SUBNORMAL_K = HARMONIC + "sector.xi.C = 1e-160\n"
UNDERFLOW_K = FREE + "sector.x.C = 1e-170\n"
MISMATCH = FREE + "sector.x.C = 1e-7\nsector.x.k = 2e-14\n"  # (C/hbar)^2 = 1e-14
HUGE_FLUX = HARMONIC + "sector.xi.C = 1e150\n"  # rho^4 ~ 1e300 would overflow
# orders nu = 120.3 and 199.8: W = -2 D_nu(0) D_nu'(0) squares past the double
# range (at 199.8 W itself is inf), so the pair fails (exit 2)
LARGE_ORDER = ("problem.kind = harmonic_oscillator\nproblem.omega = 1\nproblem.E = {}\n"
               "sector.xi.grid = -6:6:201\n")
ORDER_120, ORDER_200 = LARGE_ORDER.format(120.8), LARGE_ORDER.format(200.3)
# the same order on 200001 points: the seed data's W^2 overflows, so run
# fails (exit 2) before the pair spends any Magnus pass on that grid
ORDER_120_DENSE = ORDER_120.replace("-6:6:201", "-6:6:200001")
# rejected by the validation step that check and run share (exit 1)
UNKNOWN_LABEL = FREE + "sector.bogus.C = 1\n"
PARTIAL_OVERRIDE = FREE + "sector.x.A = 2\n"
X0_OFF_GRID = FREE + "trajectory.x.1 = 50:1:5\n"
# |sum C_i| / sum |C_i| = 1: unbalanced however small the fluxes (exit 2)
TINY_LEDGER = ("problem.kind = two_center_elliptic\nproblem.a = 1\nproblem.Z = 1\n"
               "problem.k_sq = 2\nproblem.Gamma = -1.5\nsector.nu.C = 1e-20\n"
               "sector.mu.C = 0\nflux.enforce = true\n")
# hi - lo overflows: linspace could not space the grid, so check and run both
# reject it (exit 1)
SPAN_OVERFLOW = FREE + "sector.x.grid = -1e308:1e308:3\n"
SPAN_OVERFLOW_2 = FREE + "sector.x.grid = -1e308:1e308:2\n"
# Mathieu orders 10 and 16, whose ladder coefficients below the order's
# harmonic are the minimal solution downward: both sectors certify (exit 0)
MATHIEU_ORDER = ("problem.kind = two_center_elliptic\nproblem.a = 1\nproblem.Z = 0\n"
                 "problem.k_sq = 2\nproblem.ell = {}\nsector.mu.grid = 0:2:2001\n")
MATHIEU_10, MATHIEU_16 = MATHIEU_ORDER.format(10), MATHIEU_ORDER.format(16)
# overrides whose D^2 or A*B overflows: check and run both reject them (exit 1)
D_OVERFLOW = FREE + "sector.x.A = 1\nsector.x.B = 1\nsector.x.D = -1e300\n"
AB_OVERFLOW = FREE + "sector.x.A = 1e200\nsector.x.B = 1e200\n"
# one cell 29 wide: the pointwise Wronskian reaches 3e170 and the invariant
# overflows (exit 2)
INVARIANT_OVERFLOW = ("problem.kind = harmonic_oscillator\nproblem.omega = 3\nproblem.E = 8\n"
                      "sector.xi.grid = 1:30:2\n")
# q_M = a^2 k_sq / 4 is subnormal, so the Mathieu ladder overflows (exit 2)
LADDER_OVERFLOW = ("problem.kind = two_center_elliptic\nproblem.a = 20\nproblem.Z = 100\n"
                   "problem.e2 = 1e-8\nproblem.k_sq = 5e-324\nproblem.ell = 1\n"
                   "problem.parity = odd\nsector.nu.grid = -1e300:6:2\n")
# z = 2 lam x overflows, so the Whittaker M series overflows (exit 2)
ARGUMENT_OVERFLOW = ("problem.kind = coulomb_halfline\nproblem.alpha = 8\nproblem.E = -1e300\n"
                     "sector.x.grid = 0.05:1e300:3\n")
# cells 5e-301 wide, whose h^2 underflows to 0, and a one-sample path, which
# is x0 itself: the run certifies (exit 0)
# mu columns past 1e154, whose quadratic form overflows (exit 2), and
# m = 5e-324, whose hbar^2 / 2m (the prefactor of Q) overflows (exit 1)
FORM_OVERFLOW = ("problem.kind = two_center_elliptic\nproblem.a = 100\nproblem.Z = 1\n"
                 "problem.E = 1\nproblem.ell = 1\n")
Q_PREFACTOR_OVERFLOW = FREE.replace("k0 = 1", "k0 = 1e-132") + "problem.m = 5e-324\n"
# kappa about 170: the Whittaker pair's W = M W' - M' W overflows (exit 2)
WHITTAKER_W_OVERFLOW = "problem.kind = coulomb_halfline\nproblem.alpha = 700\nproblem.E = -8.5\n"
# a Coulomb grid from 1e-6: equal substeps must resolve 1/x at 1e-6 across the
# first cell, 60 000 times wider, and refinement reaches its cap (exit 2)
COULOMB_NEAR_ORIGIN = COULOMB + "problem.E = -0.5\nsector.x.grid = 1e-6:120:2001\n"
ONE_SAMPLE_PATH = ("problem.kind = harmonic_oscillator\nproblem.omega = 1\nproblem.E = 0.25\n"
                   "sector.xi.grid = 0:1e-300:3\ntrajectory.xi.1 = 0:1:1\n")


@settings(max_examples=2 * settings.default.max_examples,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs())
@example(FREE + "sector.x.grid = 0:10:2\n")
@example("problem.kind = harmonic_oscillator\nproblem.omega = 1\nproblem.E = 1\n"
         "sector.xi.grid = -1:1:2\n")
@example(FREE + "sector.x.grid = 0:1e300:51\n")
@example("problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n"
         "sector.x.grid = 0.05:30:2001\n")
@example("problem.kind = two_center_elliptic\nproblem.a = 1\nproblem.Z = 1\nproblem.E = 1\n"
         "problem.ell = 1\nproblem.parity = odd\nsector.nu.grid = 0:1e-300:51\n")  # W^2 = 0
@example(WIDE_KAPPA)
@example(HUGE_KAPPA)
@example(WIDE_CELLS)
@example(TINY_STEP)
@example(ORDER_120)
@example(ORDER_200)
@example(D_OVERFLOW)
@example(AB_OVERFLOW)
@example(INVARIANT_OVERFLOW)
@example(LADDER_OVERFLOW)
@example(ARGUMENT_OVERFLOW)
@example(ONE_SAMPLE_PATH)
@example(FORM_OVERFLOW)
@example(Q_PREFACTOR_OVERFLOW)
@example(WHITTAKER_W_OVERFLOW)
def test_check_and_run_end_in_a_documented_exit_code(tmp_path, monkeypatch, text):
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    for command in ("check", "run"):
        assert main([command, str(path)]) in (0, 1, 2, 3)


@pytest.mark.parametrize(
    "text, code",
    [(WIDE_KAPPA, 2), (HUGE_KAPPA, 2), (WIDE_CELLS, 2), (TINY_STEP, 0), (TINY_FLUX, 0),
     (SMALL_FLUX, 0), (SUBNORMAL_K, 1), (UNDERFLOW_K, 1), (MISMATCH, 1), (HUGE_FLUX, 0),
     (ORDER_120, 2), (ORDER_200, 2), (UNKNOWN_LABEL, 1), (PARTIAL_OVERRIDE, 1),
     (X0_OFF_GRID, 1), (TINY_LEDGER, 2), (SPAN_OVERFLOW, 1), (SPAN_OVERFLOW_2, 1),
     (MATHIEU_10, 0), (MATHIEU_16, 0), (FORM_OVERFLOW, 2), (Q_PREFACTOR_OVERFLOW, 1),
     (WHITTAKER_W_OVERFLOW, 2)],
    ids=["wide_kappa", "huge_kappa", "wide_cells", "tiny_step", "tiny_flux", "small_flux",
         "subnormal_k", "underflow_k", "mismatch", "huge_flux", "order_120", "order_200",
         "unknown_label", "partial_override", "x0_off_grid", "tiny_ledger", "span_overflow",
         "span_overflow_2", "mathieu_10", "mathieu_16", "form_overflow", "q_prefactor_overflow",
         "whittaker_w_overflow"],
)
def test_float_range_edges_exit_as_documented(tmp_path, monkeypatch, capsys, text, code):
    # RuntimeWarnings are errors under the test settings, so none leaks here.
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["check", str(path)]) == (1 if code == 1 else 0)
    assert main(["run", str(path)]) == code
    assert "Warning" not in capsys.readouterr().err


def test_overflowing_pair_wronskian_fails_before_any_magnus_pass(tmp_path, monkeypatch, capsys):
    def no_pass(*args, **kwargs):
        raise AssertionError("a Magnus pass ran")

    monkeypatch.setattr(linear, "_cell_matrices", no_pass)
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(ORDER_120_DENSE + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["check", str(path)]) == 0
    assert main(["run", str(path)]) == 2
    assert "numerical failure: pair Wronskian" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [(FREE + "sector.x.A = -1\nsector.x.B = 1\n", "A and B must be nonnegative"),
     (FREE + "sector.x.A = 1\nsector.x.B = -1\n", "A and B must be nonnegative"),
     (PARTIAL_OVERRIDE, "give (A, B) or (A, B, D)"),
     (FREE + "sector.x.A = 1\nsector.x.D = 0\n", "give (A, B) or (A, B, D)"),
     (D_OVERFLOW, "A*B and D^2 must be finite"),
     (AB_OVERFLOW, "A*B and D^2 must be finite")],
    ids=["negative_A", "negative_B", "partial", "no_B", "d_overflow", "ab_overflow"],
)
def test_malformed_override_exits_1_alike_at_check_and_run(tmp_path, monkeypatch, capsys,
                                                           text, message):
    # the override's own rules need no pair (A*B < 0 is also below k/W^2, but
    # the sign is the fault to name), so check names each fault as run does
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    errors = []
    for command in ("check", "run"):
        assert main([command, str(path)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("configuration error: sector 'x': ") and message in errors[0]


@pytest.mark.parametrize(
    "text, code, message",
    [(COULOMB_NEAR_ORIGIN, 2, "numerical failure: Magnus refinement reached its substep cap"),
     (COULOMB + "problem.E = -0.5\nsector.x.grid = 0:15:101\n", 1,
      "configuration error: coulomb grid must start at x > 0"),
     (FREE.replace("problem.k0 = 1", "problem.k0"), 1,
      "configuration error: line 2: expected key=value, got 'problem.k0'"),
     (FREE.replace("problem.k0 = 1", "problem.k0 ="), 1,
      "configuration error: line 2: empty key or value")],
    ids=["coulomb_near_origin", "coulomb_from_zero", "no_equals", "empty_value"],
)
def test_named_faults_exit_with_their_message(tmp_path, monkeypatch, capsys, text, code,
                                              message):
    # a configuration error is named alike by check and run (exit 1); a
    # numerical limit passes check and ends run in exit 2, never a traceback
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["check", str(path)]) == (1 if code == 1 else 0)
    check_err = capsys.readouterr().err
    assert main(["run", str(path)]) == code
    run_err = capsys.readouterr().err
    assert run_err.startswith(message)
    assert check_err == (run_err if code == 1 else "")


@pytest.mark.parametrize(
    "text, code",
    [(D_OVERFLOW, 1), (AB_OVERFLOW, 1), (INVARIANT_OVERFLOW, 2), (LADDER_OVERFLOW, 2),
     (ARGUMENT_OVERFLOW, 2), (ONE_SAMPLE_PATH, 0), (COULOMB_NEAR_ORIGIN, 2)],
    ids=["d_overflow", "ab_overflow", "invariant_overflow", "ladder_overflow",
         "argument_overflow", "one_sample_path", "coulomb_near_origin"],
)
def test_run_leaks_no_warning_under_w_error(tmp_path, text, code):
    # -W error makes any warning an exception, also one that pytest's
    # filterwarnings would not catch, so a leak shows as a traceback here
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ermakov.__file__).resolve().parent.parent)}
    env.pop("ERMAKOV_OUT", None)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ermakov", "run", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert len(proc.stderr.splitlines()) == (1 if code else 0)


TWO_CENTER = "problem.kind = two_center_elliptic\nproblem.Z = 1\nproblem.k_sq = 2\nproblem.ell = 1\n"
# a label's trajectory indices are positive integers, exactly 1..n, each once
PATHS = FREE + "trajectory.x.1 = -1:1:3\n"


@pytest.mark.parametrize(
    "text, check, run, message",
    [(FREE + "output.format = xml\n", 1, 1, "output.format must be one of"),
     (TWO_CENTER + "problem.a = -1\n", 1, 1, "needs focal half-distance a > 0"),
     # the check cannot see the mu column's cosh(h mu) pass the double range
     (MATHIEU_ORDER.format(2).replace("0:2:2001", "0:30:201"), 0, 1,
      "hyperbolic-sum terms would overflow"),
     (PATHS + "trajectory.x.zz = 0:1:2\n", 1, 1, "trajectory.x.zz: the index must be a positive"),
     (PATHS + "trajectory.x.0 = 0:1:2\n", 1, 1, "trajectory.x.0: the index must be a positive"),
     (PATHS + "trajectory.x.01 = 0:1:2\n", 1, 1,
      "trajectory.x.01: index 1 is also given by trajectory.x.1"),
     (PATHS + "trajectory.x.3 = 0:1:2\n", 1, 1,
      r"trajectory.x.3: trajectory.x indices must run 1..2")],
    ids=["output_format", "negative_focal_distance", "hyperbolic_overflow", "path_index_text",
         "path_index_zero", "path_index_clash", "path_index_gap"],
)
def test_error_paths_exit_with_their_message(tmp_path, monkeypatch, capsys, text, check, run,
                                             message):
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    for command, code in (("check", check), ("run", run)):
        assert main([command, str(path)]) == code
        assert (message in capsys.readouterr().err) == (code == 1), command
