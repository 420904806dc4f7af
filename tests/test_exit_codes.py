"""Exit-code contract: every ``check`` and ``run`` ends in 0, 1, 2 or 3.

Configurations are drawn per kind from the accepted parameters.  Half of
them take values at the edges of the double range (+-1e300, +-1e-300, the
smallest subnormal, zeros of both signs) as well as ordinary ones; grids go
down to two points and up to 1e300 wide, and the flux, trajectory and
integration keys are optional.  Any exception that escapes ``cli.main``
would be a traceback for a user, and fails the test.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ermakov.cli import main
from ermakov.problems import _DEFAULT_GRIDS, _PARAMETERS

ORDINARY = (1.0, 0.5, 1.3, 2.0, -0.5, -1.0)
EDGES = (1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.0, -0.0)
ordinary = st.sampled_from(ORDINARY)
edgy = st.sampled_from(ORDINARY + EDGES) | st.floats(-10.0, 10.0, allow_nan=False)


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


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
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
def test_check_and_run_end_in_a_documented_exit_code(tmp_path, monkeypatch, text):
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    for command in ("check", "run"):
        assert main([command, str(path)]) in (0, 1, 2, 3)
