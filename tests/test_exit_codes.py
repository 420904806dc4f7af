"""Exit-code contract: every ``check`` and ``run`` ends in 0, 1, 2 or 3.

Configurations are drawn per kind from the accepted parameters.  Half of
them take values at the edges of the double range (+-1e300, +-1e-300, the
smallest subnormal, zeros of both signs) and middle magnitudes (1e2 to 1e3,
where a Weber pair's W^2 overflows) as well as ordinary ones; grids go
down to two points and up to 1e300 wide, and the flux, trajectory and
integration keys are optional.  Any exception that escapes ``cli.main``
would be a traceback for a user, and fails the test.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ermakov.cli import main
from ermakov.problems import _DEFAULT_GRIDS, _PARAMETERS

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
    kind = draw(st.sampled_from(sorted(_PARAMETERS)))
    values = draw(st.sampled_from((ordinary, edgy)))

    def real():
        return repr(draw(values))

    lines = [f"problem.kind = {kind}"]
    for name in _PARAMETERS[kind]:
        # two-center takes Gamma or ell: mostly one of them
        both = name == "ell" and "problem.Gamma" in " ".join(lines)
        if _sometimes(draw, 5) or (both and not _sometimes(draw, 5)):
            continue
        if name == "parity":
            value = draw(st.sampled_from(("even", "odd", "none")))
        elif name == "ell":
            value = draw(st.sampled_from(("1", "0", "2", "0.5", "-1")))
        else:
            value = real()
        lines.append(f"problem.{name} = {value}")
    for name in ("m", "hbar"):
        if _sometimes(draw, 5):
            lines.append(f"problem.{name} = {real()}")
    for label in _DEFAULT_GRIDS[kind]:
        for key in ("C", "k"):
            if _sometimes(draw, 4):
                lines.append(f"sector.{label}.{key} = {real()}")
        if not _sometimes(draw, 4):  # mostly small grids, to keep the test fast
            lo = draw(st.sampled_from((0.05, -1.0, 0.0, 1e-300, -1e300)))
            width = draw(st.sampled_from((10.0, 1.0, 1e-300, 1e300)))
            n = draw(st.sampled_from((51, 11, 3, 2, 1)))
            lines.append(f"sector.{label}.grid = {lo!r}:{lo + width!r}:{n}")
        if _sometimes(draw, 3):
            n = draw(st.sampled_from((11, 2, 1)))
            lines.append(f"trajectory.{label}.1 = {real()}:{real()}:{n}")
    for key in ("rel_tol", "abs_tol", "max_step"):
        if _sometimes(draw, 6):
            lines.append(f"integration.{key} = {real()}")
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
# rejected by the validation step that check and run share (exit 1)
UNKNOWN_LABEL = FREE + "sector.bogus.C = 1\n"
PARTIAL_OVERRIDE = FREE + "sector.x.A = 2\n"
X0_OFF_GRID = FREE + "trajectory.x.1 = 50:1:5\n"
# |sum C_i| / sum |C_i| = 1: unbalanced however small the fluxes (exit 2)
TINY_LEDGER = ("problem.kind = two_center_elliptic\nproblem.a = 1\nproblem.Z = 1\n"
               "problem.k_sq = 2\nproblem.Gamma = -1.5\nsector.nu.C = 1e-20\n"
               "sector.mu.C = 0\nflux.enforce = true\n")


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
@example("problem.kind = harmonic_oscillator\nproblem.omega = 1\nproblem.E = 1\n"
         "sector.xi.grid = 1e-300:10:51\nintegration.max_step = 1e300\n")  # width / max_step = 0
@example(WIDE_KAPPA)
@example(HUGE_KAPPA)
@example(WIDE_CELLS)
@example(TINY_STEP)
@example(ORDER_120)
@example(ORDER_200)
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
     (X0_OFF_GRID, 1), (TINY_LEDGER, 2)],
    ids=["wide_kappa", "huge_kappa", "wide_cells", "tiny_step", "tiny_flux", "small_flux",
         "subnormal_k", "underflow_k", "mismatch", "huge_flux", "order_120", "order_200",
         "unknown_label", "partial_override", "x0_off_grid", "tiny_ledger"],
)
def test_float_range_edges_exit_as_documented(tmp_path, monkeypatch, capsys, text, code):
    # RuntimeWarnings are errors under the test settings, so none leaks here.
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["check", str(path)]) == (1 if code == 1 else 0)
    assert main(["run", str(path)]) == code
    assert "Warning" not in capsys.readouterr().err
