"""Config parsing, pipeline runs, report emission, CLI exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ermakov
from ermakov import fields, linear
from ermakov.cli import main
from ermakov.errors import ConfigurationError, ConstraintViolationError
from ermakov.runner import (
    FIELD_COLUMNS,
    Tolerances,
    certify,
    execute_sector,
    format_real,
    parse_config_text,
    run_config,
)
from ermakov.pinney import solve_ep_direct
from ermakov.problems import ProblemSpec, build_problem
from ermakov.render import render_table

FREE_CFG = """
# plane-wave sector
problem.kind = free_particle
problem.k0 = 1.0
sector.x.C = 1.0
trajectory.x.1 = 0.0:5.0:51
output.format = csv
"""


def test_parse_config_full_roundtrip():
    config = parse_config_text(
        """
        problem.kind = harmonic_oscillator
        problem.omega = 1.0
        problem.E = 1.0
        problem.m = 2.0
        sector.xi.k = 1.0
        sector.xi.grid = -5:5:101
        integration.rel_tol = 1e-11
        integration.abs_tol = 1e-13
        tolerance.invariant = 1e-7
        flux.enforce = true
        output.dir = somewhere
        output.format = json-lines
        """
    )
    assert config.problem.kind == "harmonic_oscillator"
    assert config.problem.m == 2.0
    assert config.problem.k_sector["xi"] == 1.0
    assert config.problem.grids["xi"] == (-5.0, 5.0, 101)
    assert config.settings.rel_tol == 1e-11
    assert config.tolerances.invariant == 1e-7
    assert config.flux_enforce is True
    assert config.output_dir == "somewhere"
    assert config.output_format == "json-lines"


def test_parse_config_rejects_unknown_and_duplicates():
    with pytest.raises(ConfigurationError):
        parse_config_text("problem.kind = free_particle\nnonsense.key = 1\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("problem.kind = free_particle\nproblem.kind = free_particle\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("problem.kind = free_particle\nsector.x.grid = 1:2\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("")
    with pytest.raises(ConfigurationError):
        parse_config_text("problem.kind = free_particle\noutput.format = xml\n")


def test_free_particle_run_emits_expected_files(tmp_path):
    config = parse_config_text(FREE_CFG)
    report, written = run_config(config, output_dir=tmp_path)
    assert report.verdict == "pass"
    assert report.sectors[0]["invariant_drift"] <= 1e-10
    names = sorted(p.name for p in written)
    assert names == ["report.json", "x_fields.csv", "x_trajectory_1.csv"]
    header, first = (tmp_path / "x_fields.csv").read_text().splitlines()[:2]
    assert header == ",".join(FIELD_COLUMNS)
    row = dict(zip(FIELD_COLUMNS, (float(v) for v in first.split(","))))
    assert row["rho"] == pytest.approx(1.0, abs=1e-13)
    assert row["p"] == pytest.approx(1.0, abs=1e-13)
    assert row["invariant"] == pytest.approx(0.5, abs=1e-13)


def test_harmonic_bound_state_run(tmp_path):
    config = parse_config_text(
        """
        problem.kind = harmonic_oscillator
        problem.omega = 1.0
        problem.E = 0.5
        sector.xi.k = 0.0
        sector.xi.A = 1.0
        sector.xi.B = 0.0
        sector.xi.D = 0.0
        """
    )
    report, written = run_config(config, output_dir=tmp_path)
    assert report.verdict == "pass"
    rows = (tmp_path / "xi_fields.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in line.split(",")] for line in rows])
    cols = {name: data[:, i] for i, name in enumerate(FIELD_COLUMNS)}
    # amplitude is a node-free gaussian and the momentum vanishes identically
    gauss = np.exp(-cols["q"] ** 2 / 4.0)
    c = float(np.dot(cols["rho"], gauss) / np.dot(gauss, gauss))
    assert np.max(np.abs(cols["rho"] - c * gauss)) <= 1e-6 * np.max(np.abs(cols["rho"]))
    assert np.min(cols["rho"]) > 0.0
    np.testing.assert_array_equal(cols["p"], 0.0)


def test_constraint_violation_surfaces_as_config_error():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0}, flux={"x": 1.0})
    (setup,) = build_problem(spec)
    with pytest.raises(ConstraintViolationError):
        execute_sector(setup, pinney_override={"A": 1.0, "B": 1.0, "D": 0.5})
    with pytest.raises(ConfigurationError):
        execute_sector(setup, pinney_override={"A": 1.0})


def test_report_serialization_deterministic(tmp_path):
    config = parse_config_text(FREE_CFG)
    _, written1 = run_config(config, output_dir=tmp_path / "a")
    _, written2 = run_config(config, output_dir=tmp_path / "b")
    for p1, p2 in zip(sorted(written1), sorted(written2)):
        assert p1.read_bytes() == p2.read_bytes()


def test_report_verdict_fail_names_sector(tmp_path):
    config = parse_config_text(
        FREE_CFG + "tolerance.invariant = 1e-30\n"
    )
    report, _ = run_config(config, output_dir=tmp_path)
    assert report.verdict == "fail"
    failing = [s for s in report.sectors if not s["pass"]]
    assert failing and failing[0]["label"] == "x"
    assert failing[0]["checks"]["invariant"] is False
    text = (tmp_path / "report.json").read_text()
    payload = json.loads(text)
    assert payload["verdict"] == "fail"


def test_real_rendering_17_digits():
    assert format_real(math.pi) == "3.1415926535897931"
    assert format_real(1.0) == "1"
    assert format_real(float("nan")) == "nan"
    assert format_real(math.inf) == "inf"
    assert format_real(-math.inf) == "-inf"
    assert format_real(-0.0) == "-0"


def _reference_table_text(columns, rows, fmt):
    """The per-value rendering rule the row templates must reproduce."""
    lines = [",".join(columns)] if fmt == "csv" else []
    for row in rows:
        values = [format(float(v), ".17g") for v in row]
        if fmt == "csv":
            lines.append(",".join(values))
        else:
            body = ", ".join(f"{json.dumps(n)}: {v}" for n, v in zip(columns, values))
            lines.append("{" + body + "}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_table_rendering_matches_per_value_rule(fmt):
    rng = np.random.default_rng(5)
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, size=200 * len(FIELD_COLUMNS) - len(special))
    signs = rng.choice([-1.0, 1.0], size=magnitudes.size)
    values = np.concatenate([special, signs * magnitudes]).reshape(200, len(FIELD_COLUMNS))
    one_row = np.array([[math.nan, -0.0]])
    for columns, rows in ((FIELD_COLUMNS, values), (("t", "x"), one_row)):
        text = render_table(columns, rows, fmt).decode("ascii")
        assert text == _reference_table_text(columns, rows, fmt)


def test_json_lines_format(tmp_path):
    config = parse_config_text(FREE_CFG.replace("csv", "json-lines"))
    _, written = run_config(config, output_dir=tmp_path)
    lines = (tmp_path / "x_fields.jsonl").read_text().splitlines()
    row = json.loads(lines[0])
    assert list(row) == list(FIELD_COLUMNS)


def test_flux_enforcement_in_verdict():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0}, flux={"x": 1.0})
    (setup,) = build_problem(spec)
    result = execute_sector(setup)
    report = certify([result], Tolerances(), flux_enforce=True, problem_kind="free_particle")
    assert report.verdict == "fail" and report.flux.residual == pytest.approx(1.0)
    report = certify([result], Tolerances(), flux_enforce=False, problem_kind="free_particle")
    assert report.verdict == "pass"


@pytest.mark.parametrize(
    "residual, tolerance, passed",
    [(1e-9, 1e-6, True),     # residual inside a loose user tolerance
     (1e-13, 1e-16, False)],  # residual above a user tolerance below the default
)
def test_flux_certificate_uses_configured_tolerance(residual, tolerance, passed):
    # C_nu = 1 and C_mu = -(1 - r)/(1 + r): |C_nu + C_mu| / (|C_nu| + |C_mu|) = r
    spec = ProblemSpec(kind="two_center_elliptic",
                       params={"a": 1.0, "Z": 1.0, "k_sq": 2.0, "ell": 0, "parity": "even"},
                       flux={"nu": 1.0, "mu": -(1.0 - residual) / (1.0 + residual)})
    results = [execute_sector(setup) for setup in build_problem(spec)]
    report = certify(results, Tolerances(flux=tolerance), flux_enforce=True,
                     problem_kind="two_center_elliptic")
    assert report.flux.residual == pytest.approx(residual, rel=1e-3)
    assert report.flux.passed is passed
    assert report.verdict == ("pass" if passed else "fail")


def test_coulomb_pair_honours_integration_settings(tmp_path):
    base = "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n"
    drifts = []
    for extra in ("", "integration.rel_tol = 1e-6\n"):
        report, _ = run_config(parse_config_text(base + extra), output_dir=tmp_path / "o")
        (sector,) = report.as_dict()["sectors"]
        drifts.append((sector["wronskian_drift"], sector["invariant_drift"]))
    (w_default, i_default), (w_loose, i_loose) = drifts
    assert w_loose > 100.0 * w_default and i_loose > 100.0 * i_default


@pytest.mark.parametrize(
    "cfg",
    [
        "problem.kind = free_particle\nproblem.k0 = 1.0\n",
        "problem.kind = harmonic_oscillator\nproblem.omega = 1.0\nproblem.E = 1.0\n",
        "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n",
        "problem.kind = two_center_elliptic\nproblem.a = 1.0\nproblem.Z = 1.0\n"
        "problem.k_sq = 2.0\nproblem.ell = 0\nproblem.parity = even\n",
    ],
    ids=["free", "harmonic", "coulomb", "two_center"],
)
def test_explicit_default_integration_settings_change_nothing(tmp_path, cfg):
    defaults = "integration.rel_tol = 1e-12\nintegration.abs_tol = 1e-14\n"
    _, plain = run_config(parse_config_text(cfg), output_dir=tmp_path / "plain")
    _, explicit = run_config(parse_config_text(cfg + defaults), output_dir=tmp_path / "explicit")
    assert [p.name for p in plain] == [p.name for p in explicit]
    for a, b in zip(plain, explicit):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_unknown_sector_reference_rejected(tmp_path):
    config = parse_config_text(FREE_CFG + "sector.y.k = 1.0\n")
    with pytest.raises(ConfigurationError):
        run_config(config, output_dir=tmp_path)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_and_check(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, FREE_CFG + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["check", cfg]) == 0
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, FREE_CFG)
    monkeypatch.setenv("ERMAKOV_OUT", str(tmp_path / "elsewhere"))
    assert main(["run", cfg]) == 0
    assert (tmp_path / "elsewhere" / "report.json").exists()


def test_cli_exit_code_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem.kind = nosuch\n")
    assert main(["run", cfg]) == 1
    assert main(["check", cfg]) == 1
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1


FREE = "problem.kind = free_particle\nproblem.k0 = 1.0\n"
TWO_CENTER = (
    "problem.kind = two_center_elliptic\nproblem.a = 1.0\nproblem.Z = 1.0\n"
    "problem.k_sq = 2.0\nproblem.ell = 0\nproblem.parity = even\n"
)


@pytest.mark.parametrize(
    "text",
    [
        FREE + "trajectory.x.1 = 0:1:0",
        FREE + "trajectory.x.1 = 0:1:2.5",
        "problem.kind = harmonic_oscillator\nproblem.omega = 1.0\nproblem.E = abc",
        FREE + "sector.x.k = nan",
        FREE + "sector.x.C = inf",
        FREE + "tolerance.invariant = -1",
        TWO_CENTER.replace("ell = 0", "ell = 0.5"),
        FREE + "sector.x.grid = -1:1:1e12",
        FREE + "trajectory.x.1 = 0:1:1000002",
        FREE + "problem.junk = 1",
        FREE + "sector.x.C = 1e300",
        FREE + "output.dir = {file}/out",
        "problem.kind = harmonic_oscillator\nproblem.omega = 1e-300\nproblem.E = 1e300",
        "problem.kind = free_particle\nproblem.k0 = 1e300",
        TWO_CENTER.replace("a = 1.0", "a = 1e300"),
        "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n"
        "problem.hbar = 1e-300",
        "problem.kind = free_particle\nproblem.k0 = 1e-300",
        "problem.kind = free_particle\nproblem.k0 = 5e-324",
        FREE + "problem.hbar = 1e-300",
        FREE + "problem.hbar = 5e-324",
        FREE + "tolerance.pinney = 1e-10",
        FREE + "tolerance.continuity = 1e-10",
        FREE + "tolerance.ode_residual = 1e-3",
        FREE + "tolerance.wronskian = 1e-9",
        TWO_CENTER.replace("ell = 0", "Gamma = -1.5").replace("parity = even", "parity = bogus"),
    ],
    ids=["zero_samples", "fractional_samples", "non_numeric", "nan_k", "inf_C", "negative_tol",
         "fractional_ell", "grid_over_cap", "samples_over_cap", "unknown_parameter",
         "overflowing_k", "output_under_a_file", "infinite_nu", "overflowing_k0_sq",
         "overflowing_a_sq", "kappa_division_by_zero", "underflowing_k0_sq",
         "subnormal_k0", "underflowing_hbar_sq", "subnormal_hbar", "removed_pinney_tol",
         "removed_continuity_tol", "removed_ode_residual_tol", "removed_wronskian_tol",
         "parity_without_ell"],
)
def test_cli_malformed_config_exits_1(tmp_path, capsys, text):
    (tmp_path / "file").write_text("")
    if "output.dir" in text:
        text = text.replace("{file}", str(tmp_path / "file"))
    else:
        text += f"\noutput.dir = {tmp_path / 'out'}"
    cfg = write_cfg(tmp_path, text + "\n")
    assert main(["check", cfg]) == 1
    assert main(["run", cfg]) == 1
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, code",
    [
        (FREE + "sector.x.grid = 0:10:2\n", 0),
        ("problem.kind = harmonic_oscillator\nproblem.omega = 1.0\nproblem.E = 1.0\n"
         "sector.xi.grid = -1:1:2\n", 0),
        # cells 2e298 wide: the propagator of the free pair's integrated sine overflows
        (FREE + "sector.x.grid = 0:1e300:51\n", 2),
    ],
    ids=["free_two_points", "harmonic_two_points", "free_huge_step"],
)
def test_ode_residual_on_two_point_and_huge_step_grids(tmp_path, text, code):
    # Grids where a second difference of y1 is not defined or overflows; the
    # checks that remain need neither.
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == code
    report = tmp_path / "out" / "report.json"
    if code == 0:
        checks = json.loads(report.read_text())["sectors"][0]["checks"]
        assert list(checks) == ["invariant", "integration"]
    else:
        assert not report.exists()


HARMONIC = "problem.kind = harmonic_oscillator\nproblem.omega = 1.0\n"


@pytest.mark.parametrize(
    "text, label, node",
    [
        (HARMONIC + "problem.E = 1.5\nsector.xi.C = 0\n", "xi", True),
        (HARMONIC + "problem.E = 3.5\nsector.xi.C = 0\n", "xi", True),
        (TWO_CENTER.replace("ell = 0", "ell = 1").replace("even", "odd") + "sector.nu.C = 0\n",
         "nu", True),
        (FREE + "sector.x.C = 0\n", "x", False),  # Omega_phys^2 is a scalar here
    ],
    ids=["harmonic_E1.5", "harmonic_E3.5", "two_center_odd_nu", "free_C0"],
)
def test_bound_sector_with_a_node_on_the_grid_certifies(tmp_path, capsys, text, label, node):
    # k = 0 puts rho = 0 on a grid point (xi = 0, nu = pi); Q and the
    # invariant must stay finite there, so the run passes with a quiet stderr.
    cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(tmp_path / "out" / f"{label}_fields.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    assert np.any(rows[:, FIELD_COLUMNS.index("rho")] == 0.0) == node


def test_readme_run_configuration_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Run configuration.*?```\n(.*?)```", readme, re.S).group(1)
    block = re.sub(r"(?m)^output\.dir = .*$", f"output.dir = {tmp_path / 'out'}", block)
    cfg = write_cfg(tmp_path, block)
    assert main(["check", cfg]) == 0
    assert main(["run", cfg]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_weber_seed_overflow_is_a_numerical_failure(tmp_path, capsys):
    # nu = 1e6 - 1/2 is a valid order, but D_nu(0) = sqrt(pi) 2^(nu/2) / ...
    # overflows a double, so the pair cannot be seeded.
    cfg = write_cfg(
        tmp_path,
        "problem.kind = harmonic_oscillator\nproblem.omega = 1.0\nproblem.E = 1e6\n"
        f"output.dir = {tmp_path / 'out'}\n",
    )
    assert main(["check", cfg]) == 0
    assert main(["run", cfg]) == 2
    assert "numerical failure: parabolic-cylinder seed values overflow" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_no_spurious_nodes_when_k_is_positive(tmp_path):
    # On this grid the pair spans about e^60, so A y1^2 + B y2^2 falls below
    # 1e-14 of its maximum over most of the range; with k > 0 the form is
    # still positive everywhere, so the amplitude has no nodes and the run
    # reaches its certificate instead of a singularity exit.
    text = (
        "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n"
        "sector.x.grid = 0.05:30:201\n"
    )
    (setup,) = build_problem(parse_config_text(text).problem)
    result = execute_sector(setup)
    assert setup.k > 0.0
    assert result.amplitude.nodes == () and np.all(result.amplitude.rho > 0.0)
    assert np.all(np.isfinite(result.p))
    cfg = write_cfg(tmp_path, f"{text}output.dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) != 3
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_exit_code_tolerance_breach(tmp_path):
    cfg = write_cfg(
        tmp_path,
        FREE_CFG + f"tolerance.invariant = 1e-30\noutput.dir = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 2


def test_cli_exit_code_path_singularity(tmp_path):
    # trajectory starts near the right edge and leaves the tabulated grid
    cfg = write_cfg(
        tmp_path,
        """
        problem.kind = free_particle
        problem.k0 = 1.0
        sector.x.C = 1.0
        trajectory.x.1 = 9.5:10.0:11
        """
        + f"output.dir = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 3
    # failed runs leave no partial output behind
    assert not (tmp_path / "out").exists()


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "spherical" in out and "confocal_quadric" in out


def test_benchmark_tracer_sees_one_solve_per_half_range(tmp_path, monkeypatch):
    # The benchmark's tracer wraps linear.solve_ivp and fields.solve_ivp by
    # name; a refactor that unbinds either breaks `perfbench/run.py --trace 1`.
    # Neither is called any more: pairs are Magnus-built, and the direct
    # amplitude is a superposition of one, so each half-range takes 0 solves.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    config = parse_config_text(
        "problem.kind = two_center_elliptic\nproblem.a = 1.0\nproblem.Z = 1.0\n"
        "problem.k_sq = 2.0\nproblem.Gamma = -1.5\n"
    )
    (setup, _) = build_problem(config.problem)
    bound = [linear.solve_ivp, fields.solve_ivp]
    tracer = Tracer()
    with tracer.installed():
        wrapped = [linear.solve_ivp, fields.solve_ivp]
        report, _ = run_config(config, output_dir=tmp_path)
        pair_solves = tracer.counters[tracer.iteration]["linear.ivp_calls"]
        solve_ep_direct(setup.profile, 1.0, (1.0, 0.0), np.linspace(0.0, 1.0, 2001))
    assert all(w is not b and callable(w) for w, b in zip(wrapped, bound))
    assert report.verdict == "pass"
    assert pair_solves == 0
    assert tracer.counters[tracer.iteration]["linear.ivp_calls"] == 0


COLD_START = """
import json, sys
import ermakov
import numpy as np
from ermakov import cli, fields, linear
from ermakov.pinney import solve_ep_direct
from ermakov.problems import ProblemSpec, build_problem
codes = [cli.main([cmd, path]) for path in sys.argv[1:] for cmd in ("check", "run")]
(setup,) = build_problem(ProblemSpec(kind="harmonic_oscillator",
                                     params={"omega": 1.0, "E": 1.0}))
solve_ep_direct(setup.profile, 1.0, (1.0, 0.0), np.linspace(-2.0, 2.0, 401))
print(json.dumps({
    "codes": codes,
    "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
    "solve_ivp": [callable(vars(m).get("solve_ivp")) for m in (linear, fields)],
}))
"""


def test_check_and_run_load_no_scipy(tmp_path):
    # A fresh interpreter: the package, check, run and solve_ep_direct need
    # numpy only.  The benchmark's tracer still finds both solve_ivp bindings
    # to wrap.
    texts = [
        FREE,
        "problem.kind = harmonic_oscillator\nproblem.omega = 1.0\nproblem.E = 1.0\n"
        "trajectory.xi.1 = 0.25:2.0:41\n",
        "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n",
        TWO_CENTER,
    ]
    paths = [
        write_cfg(tmp_path, f"{text}output.dir = {tmp_path / str(i)}\n", f"{i}.cfg")
        for i, text in enumerate(texts)
    ]
    src = str(Path(ermakov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("ERMAKOV_OUT", None)
    proc = subprocess.run([sys.executable, "-c", COLD_START, *paths], capture_output=True,
                          text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 8
    assert result["scipy"] == []
    assert result["solve_ivp"] == [True, True]
    assert (tmp_path / "1" / "xi_trajectory_1.csv").exists()


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]

    def names(requirements):
        return [re.match(r"[\w.-]+", req).group(0) for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


SEEDED_PAIRS = {
    "harmonic_companion": "problem.kind = harmonic_oscillator\nproblem.omega = 1.0\n"
                          "problem.E = 1.5\nsector.xi.grid = -6:6:41\n",
    "coulomb": "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n"
               "sector.x.grid = 0.025:15:41\n",
    "two_center_mu": TWO_CENTER + "sector.mu.grid = 0:3:41\nsector.nu.grid = 0:6.2:41\n",
}


@pytest.mark.parametrize("cfg", SEEDED_PAIRS.values(), ids=SEEDED_PAIRS.keys())
def test_loose_integration_fails_integration_check(tmp_path, cfg):
    # Magnus pairs keep the Wronskian at roundoff, so only the Richardson
    # estimate can see a loose integration tolerance.
    checks = {}
    for name, extra in (("default", ""), ("loose", "integration.rel_tol = 1e-3\n")):
        report, _ = run_config(parse_config_text(cfg + extra), output_dir=tmp_path / name)
        sector = report.sectors[-1]  # the harmonic, Coulomb or two-center mu pair
        checks[name] = sector["checks"]["integration"], sector["integration_error"]
    assert checks["default"][0] is True and checks["default"][1] <= 1e-9
    assert checks["loose"][0] is False and checks["loose"][1] > 1e-9
