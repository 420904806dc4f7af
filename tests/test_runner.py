"""Config parsing, pipeline runs, report emission, CLI exit codes."""

import contextlib
import ctypes
import dataclasses
import errno
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

import ermakov
from ermakov import fields, linear, runner
from ermakov.cli import main
from ermakov.errors import ConfigurationError, ConstraintViolationError, PathExitsGridError
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
from ermakov.problems import KINDS, ProblemSpec, SectorRequest, build_problem
from ermakov.render import _CHUNK, table_chunks

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
        tolerance.invariant = 1e-7
        flux.enforce = true
        output.dir = somewhere
        output.format = json-lines
        """
    )
    assert config.problem.kind == "harmonic_oscillator"
    assert config.problem.m == 2.0
    assert config.problem.sectors == {"xi": SectorRequest(k=1.0, grid=(-5.0, 5.0, 101))}
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
    def spec(form):
        return ProblemSpec(kind="free_particle", params={"k0": 1.0},
                           sectors={"x": SectorRequest(C=1.0, form=form)})

    (setup,) = build_problem(spec({"A": 1.0, "B": 1.0, "D": 0.5}))
    with pytest.raises(ConstraintViolationError):
        execute_sector(setup)
    with pytest.raises(ConfigurationError):
        spec({"A": 1.0})


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
        text = b"".join(table_chunks(columns, tuple(rows.T), fmt)).decode("ascii")
        assert text == _reference_table_text(columns, rows, fmt)


def _mixed_values(rng, size):
    """Log-uniform magnitudes of both signs with zeros, NaN and infinities strewn in."""
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-320.0, 308.0, size)
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308])
    at = rng.choice(size, size // 50, replace=False)
    values[at] = rng.choice(special, at.size)
    return values


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("rows, names", [
    (5001, FIELD_COLUMNS),  # 1638 rows a chunk: three full chunks and 87 rows
    (3 * (_CHUNK // 2) + 5, ("t", "x")),  # 8192 rows a chunk: three full chunks and 5 rows
    (40 * _CHUNK + 7, ("x",)),  # forty full chunks and 7 rows, parts handed back in order
])
def test_tables_across_chunk_boundaries_match_per_value_rule(rows, names, fmt):
    assert rows > 3 * (_CHUNK // len(names))
    rng = np.random.default_rng(rows)
    columns = tuple(_mixed_values(rng, rows) for _ in names)
    chunks = list(table_chunks(names, columns, fmt))
    assert len(chunks) == 1 + -(-rows // (_CHUNK // len(names)))  # the header, then every block
    expected = _reference_table_text(names, zip(*columns), fmt)
    assert b"".join(chunks).decode().split("\n") == expected.split("\n")  # reports the first bad row



@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_group_of_tables_matches_each_table_alone(tmp_path, fmt):
    # Three 3000-row paths render in one pass of 8192-row chunks: the first
    # path ends inside the first chunk, the second path ends inside it too
    # and the third crosses into the next one.
    assert _CHUNK // 2 == 8192
    rng = np.random.default_rng(7)
    tables = [tuple(_mixed_values(rng, 3000) for _ in ("t", "x")) for _ in range(3)]
    paths = [tmp_path / f"path_{i}" for i in range(3)]
    runner._write_tables(paths, ("t", "x"), tables, fmt)
    for path, table in zip(paths, tables):
        assert path.read_bytes() == b"".join(table_chunks(("t", "x"), table, fmt))
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in paths]

def test_json_lines_format(tmp_path):
    config = parse_config_text(FREE_CFG.replace("csv", "json-lines"))
    _, written = run_config(config, output_dir=tmp_path)
    lines = (tmp_path / "x_fields.jsonl").read_text().splitlines()
    row = json.loads(lines[0])
    assert list(row) == list(FIELD_COLUMNS)


def test_flux_enforcement_in_verdict():
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0},
                       sectors={"x": SectorRequest(C=1.0)})
    (setup,) = build_problem(spec)
    result = execute_sector(setup)
    report = certify([result], Tolerances(), flux_enforce=True, problem_kind="free_particle")
    assert report.verdict == "fail" and report.flux["residual"] == pytest.approx(1.0)
    report = certify([result], Tolerances(), flux_enforce=False, problem_kind="free_particle")
    assert report.verdict == "pass"


@pytest.mark.parametrize(
    "fluxes, enforce, residual, passed",
    [((1.0, -1.0), True, 0.0, True),        # balanced
     ((1.0, -0.5), True, 0.5 / 1.5, False),  # |sum C_i| / sum |C_i|
     # relative, so a ledger far below the tolerance in absolute terms still fails
     ((1e-20, 0.0), True, 1.0, False),
     ((0.0, -0.0), True, 0.0, True),        # closed: every C_i is 0
     ((1.0,), False, 1.0, True)],           # open sectors, constraint not enforced
    ids=["balanced", "unbalanced", "tiny", "closed", "not_enforced"],
)
def test_flux_ledger_certified_by_certify(fluxes, enforce, residual, passed):
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0},
                       sectors={"x": SectorRequest(C=1.0)})
    (setup,) = build_problem(spec)
    result = execute_sector(setup)
    results = [dataclasses.replace(result, setup=dataclasses.replace(result.setup, C=c))
               for c in fluxes]
    flux = certify(results, Tolerances(), enforce, "free_particle").flux
    assert flux["enforced"] is enforce
    assert flux["residual"] == pytest.approx(residual, rel=1e-15, abs=0.0)
    assert flux["pass"] is passed
    assert set(flux) == {"enforced", "residual", "pass"}


@pytest.mark.parametrize(
    "residual, tolerance, passed",
    [(1e-9, 1e-6, True),     # residual inside a loose user tolerance
     (1e-13, 1e-16, False)],  # residual above a user tolerance below the default
)
def test_flux_certificate_uses_configured_tolerance(residual, tolerance, passed):
    # C_nu = 1 and C_mu = -(1 - r)/(1 + r): |C_nu + C_mu| / (|C_nu| + |C_mu|) = r
    spec = ProblemSpec(kind="two_center_elliptic",
                       params={"a": 1.0, "Z": 1.0, "k_sq": 2.0, "ell": 0, "parity": "even"},
                       sectors={"nu": SectorRequest(C=1.0),
                                "mu": SectorRequest(C=-(1.0 - residual) / (1.0 + residual))})
    results = [execute_sector(setup) for setup in build_problem(spec)]
    report = certify(results, Tolerances(flux=tolerance), flux_enforce=True,
                     problem_kind="two_center_elliptic")
    assert report.flux["residual"] == pytest.approx(residual, rel=1e-3)
    assert report.flux["pass"] is passed
    assert report.verdict == ("pass" if passed else "fail")


def test_coulomb_pair_honours_integration_settings(tmp_path):
    base = "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n"
    errors = []
    for extra in ("", "integration.rel_tol = 1e-3\n"):
        report, _ = run_config(parse_config_text(base + extra), output_dir=tmp_path / "o")
        (sector,) = report.as_dict()["sectors"]
        errors.append((sector["integration_error"], sector["invariant_drift"]))
    (e_default, i_default), (e_loose, i_loose) = errors
    assert e_loose > 100.0 * e_default and i_loose > 100.0 * i_default


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
    defaults = "integration.rel_tol = 1e-12\n"
    _, plain = run_config(parse_config_text(cfg), output_dir=tmp_path / "plain")
    _, explicit = run_config(parse_config_text(cfg + defaults), output_dir=tmp_path / "explicit")
    assert [p.name for p in plain] == [p.name for p in explicit]
    for a, b in zip(plain, explicit):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_unknown_sector_reference_rejected():
    # ProblemSpec checks every sector label against its kind, so parsing rejects it
    with pytest.raises(ConfigurationError, match="unknown sector 'y'"):
        parse_config_text(FREE_CFG + "sector.y.k = 1.0\n")


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


def test_cli_coulomb_wide_cells_refine_past_an_overflowing_step(tmp_path, monkeypatch):
    # The W column is seeded at x = 600 and crosses the cell [300, 600]: one
    # sixth-order step there overflows, finer ones do not, so the cell refines.
    monkeypatch.delenv("ERMAKOV_OUT", raising=False)
    cfg = write_cfg(tmp_path, "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\n"
                    "problem.E = -0.5\nsector.x.grid = 0.05:300:201\n"
                    f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    (sector,) = json.loads((tmp_path / "out" / "report.json").read_text())["sectors"]
    assert sector["pass"]
    assert sector["invariant_drift"] <= 1e-12 and sector["integration_error"] <= 1e-13


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
        FREE + "integration.abs_tol = 1e-14",
        FREE + "integration.max_step = 0.1",
        TWO_CENTER.replace("ell = 0", "Gamma = -1.5").replace("parity = even", "parity = bogus"),
        "problem.kind = two_center_elliptic\nproblem.a = 1\nproblem.Z = 1\nproblem.E = 1\n"
        "problem.k_sq = 7\nproblem.Gamma = -1.5",
        TWO_CENTER.replace("ell = 0", "ell = 2000.5"),
    ],
    ids=["zero_samples", "fractional_samples", "non_numeric", "nan_k", "inf_C", "negative_tol",
         "fractional_ell", "grid_over_cap", "samples_over_cap", "unknown_parameter",
         "overflowing_k", "output_under_a_file", "infinite_nu", "overflowing_k0_sq",
         "overflowing_a_sq", "kappa_division_by_zero", "underflowing_k0_sq",
         "subnormal_k0", "underflowing_hbar_sq", "subnormal_hbar", "removed_pinney_tol",
         "removed_continuity_tol", "removed_ode_residual_tol", "removed_wronskian_tol",
         "removed_abs_tol", "removed_max_step",
         "parity_without_ell", "energy_and_k_sq", "large_fractional_ell"],
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


def test_readme_parameter_table_is_the_kind_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"Problem parameters by kind:\n\n(.*?)\n\n", readme, re.S).group(1)
    rows = {}
    for row in table.splitlines()[2:]:
        kind, params, sectors = (cell.strip() for cell in row.strip("|").split("|"))
        rows[kind.strip("`")] = (params, re.findall(r"`(\w+)`", sectors))
    assert list(rows) == list(KINDS)
    for name, kind in KINDS.items():
        params, sectors = rows[name]
        groups = [entry if isinstance(entry, tuple) else (entry,) for entry in kind.required]
        names = [name for group in groups for name in group] + list(kind.optional)
        assert re.findall(r"`(\w+)`", params) == names
        for group in groups:
            if len(group) > 1:
                assert "exactly one of " + ", ".join(f"`{n}`" for n in group) in params
        assert ("optional" in params) == bool(kind.optional)
        assert sectors == list(kind.sectors)


def test_readme_names_exactly_the_parsed_integration_and_tolerance_keys():
    # a removed key cannot linger in the docs, nor a new one go undocumented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for section, keys in (("integration", runner._INTEGRATION_KEYS),
                          ("tolerance", runner._TOLERANCE_KEYS)):
        assert set(re.findall(rf"\b{section}\.(\w+)", readme)) == set(keys), section


def test_readme_names_exactly_the_sector_and_flux_report_keys():
    # a removed report field cannot linger in the docs, nor a new one go undocumented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spec = ProblemSpec(kind="free_particle", params={"k0": 1.0}, sectors={})
    report = certify([execute_sector(build_problem(spec)[0])], Tolerances(), False,
                     "free_particle").as_dict()
    for block, emitted in (("sector entry", report["sectors"][0]), ("flux block", report["flux"])):
        phrase = r"\s+".join(f"{block} has the keys".split())  # across a line break
        listed = re.search(rf"{phrase}([^.;:]*)", readme).group(1)
        assert re.findall(r"`(\w+)`", listed) == list(emitted), block


def test_certify_reports_where_the_invariant_is_worst():
    spec = ProblemSpec(kind="harmonic_oscillator", params={"omega": 1.0, "E": 1.37}, sectors={})
    result = execute_sector(build_problem(spec)[0])
    sector = certify([result], Tolerances(), False, "harmonic_oscillator").as_dict()["sectors"][0]
    deviation = np.abs(result.invariant - result.invariant[result.invariant.size // 2])
    assert deviation.max() > 0.0  # a drift that has a place, not the all-equal default
    assert sector["invariant_worst_q"] == result.amplitude.grid[np.argmax(deviation)]
    assert sector["invariant_drift"] == deviation.max() / abs(sector["invariant_reference"])


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    invariant_drift, _ = map(float, capsys.readouterr().out.split())
    assert invariant_drift <= Tolerances().invariant


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


class _FailingColumn:
    """A column whose slice reaching its last row fails."""

    def __init__(self, column):
        self.column = column

    def __len__(self):
        return len(self.column)

    def __getitem__(self, rows: slice):
        if rows.stop >= len(self.column):
            raise OSError(5, "Input/output error")
        return self.column[rows]


@pytest.mark.parametrize("failing", ["chunk_source", "file_write", "render_thread"])
def test_table_failing_midway_leaves_no_partial_file(tmp_path, monkeypatch, failing):
    # the last trajectory table fails after its first chunk (its header, then
    # any full block): the field table written before it stays, and neither
    # the table, its .tmp file nor the report appears.  With two paths, whose
    # 9051 rows render in one pass, the second file fails inside the second
    # block and the first file, written before it, stays whole.  A block that
    # fails on a render thread fails the same way, and after every failure no
    # block is left queued or running.  Over the outputs of a whole run, each
    # file stays byte for byte the old one or its rewrite, which is the same.
    two_paths = FREE_CFG + "trajectory.x.2 = 0.0:5.0:9000\n"
    for text, stem in ((FREE_CFG, "whole_0"), (two_paths, "whole_1")):
        run_config(parse_config_text(text), output_dir=tmp_path / stem)
    last = []  # stem of the trajectory file that fails
    jobs = []  # every block handed to a render thread

    # a block starts 50 ms late, so one left queued or running shows
    class SlowPool(futures.ThreadPoolExecutor):
        def submit(self, fn, *args):
            def late():
                time.sleep(0.05)
                return fn(*args)

            jobs.append(super().submit(late))
            return jobs[-1]

    monkeypatch.setattr(futures, "ThreadPoolExecutor", SlowPool)
    table_chunks = runner.table_chunks
    if failing == "chunk_source":
        def chunks(names, columns, fmt):
            with contextlib.closing(table_chunks(names, columns, fmt)) as source:
                yield next(source)
                if names == ("t", "x"):
                    yield from itertools.islice(source, len(columns[0]) // (_CHUNK // 2))
                    raise OSError(28, "No space left on device")
                yield from source

        monkeypatch.setattr(runner, "table_chunks", chunks)
    elif failing == "render_thread":
        def chunks(names, columns, fmt):
            if names == ("t", "x"):  # the only block, or the last of two on a render thread
                columns = [*columns[:-1], _FailingColumn(columns[-1])]
            return table_chunks(names, columns, fmt)

        monkeypatch.setattr(runner, "table_chunks", chunks)
    else:  # the failing file's writes fail after its first one
        os_open, os_write, writes = os.open, os.write, {}  # failing file's descriptor -> writes

        def open_fd(name, *args, **kwargs):
            fd = os_open(name, *args, **kwargs)
            writes.pop(fd, None)
            if last[0] in os.fsdecode(name):
                writes[fd] = 0
            return fd

        def write(fd, data):
            if fd in writes:
                writes[fd] += 1
                if writes[fd] > 1:
                    raise OSError(28, "No space left on device")
            return os_write(fd, data)

        monkeypatch.setattr(runner.os, "open", open_fd)
        monkeypatch.setattr(runner.os, "write", write)
    for text, kept in ((FREE_CFG, []), (two_paths, ["x_trajectory_1.csv"])):
        whole = tmp_path / f"whole_{len(kept)}"
        rerun = shutil.copytree(whole, tmp_path / f"rerun_{len(kept)}")
        for out in (tmp_path / f"kept_{len(kept)}", rerun):
            last[:] = [f"x_trajectory_{len(kept) + 1}."]
            jobs.clear()
            with pytest.raises(ConfigurationError,
                               match="cannot write to output directory") as raised:
                run_config(parse_config_text(text), output_dir=out)
            assert all(job.done() for job in jobs)  # while ``raised`` keeps the frames alive
            if failing == "render_thread" and kept:
                assert isinstance(jobs[-1].exception(), OSError)
            if out == rerun:  # no .tmp file, and every old file whole
                assert _contents(out) == _contents(whole)
                continue
            assert sorted(p.name for p in out.iterdir()) == ["x_fields.csv", *kept]
            assert (out / "x_fields.csv").stat().st_size > 0
            for name in kept:
                assert (out / name).read_bytes() == (whole / name).read_bytes()


def _contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_directory_at_an_output_path_stays_where_it_is(tmp_path, capsys):
    # only a regular file is swapped out: a directory at an output path fails
    # the write, as a rename onto it does, and keeps its name and contents
    out = tmp_path / "out"
    (out / "x_fields.csv").mkdir(parents=True)
    (out / "x_fields.csv" / "notes.txt").write_text("kept")
    assert main(["run", write_cfg(tmp_path, FREE_CFG + f"output.dir = {out}\n")]) == 1
    assert "cannot write to output directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["x_fields.csv"]
    assert (out / "x_fields.csv" / "notes.txt").read_text() == "kept"


def test_a_reader_sees_one_whole_version_while_a_table_is_rewritten(tmp_path):
    # 200 rewrites alternate two contents, each written in two parts, while a
    # thread reads the table: every read returns one whole version, and the
    # table's name never goes missing
    path = tmp_path / "table.csv"
    versions = [b"t,x\n" + b"".join(b"%d,%d\n" % (i, v * i) for i in range(500)) for v in (1, 2)]
    runner._atomic_write(path, [versions[0]])
    reads, errors, done = [], [], threading.Event()

    def reader():
        try:
            while not done.is_set():
                reads.append(path.read_bytes())
        except OSError as exc:  # a missing name shows as FileNotFoundError
            errors.append(exc)

    thread = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        for i in range(1, 201):
            version = versions[i % 2]
            runner._atomic_write(path, [version[:1000], version[1000:]])
    finally:
        done.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
    assert reads and set(reads) <= set(versions)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


@pytest.mark.parametrize("swap", ["unavailable", "einval"])
def test_writes_without_the_swap_match_the_swap(tmp_path, monkeypatch, swap):
    # where libc has no renameat2, or the call fails, os.replace puts every
    # file in place, on a first run and on a rerun, with the same bytes
    config = parse_config_text(FREE_CFG + "trajectory.x.2 = 0.0:5.0:9000\n")

    def first_run_and_rerun(out):
        contents = []
        for _ in range(2):
            run_config(config, output_dir=out)
            contents.append(_contents(out))
        return contents

    swapped = first_run_and_rerun(tmp_path / "swapped")
    calls = []

    def einval(*args):
        calls.append(args)
        ctypes.set_errno(errno.EINVAL)
        return -1

    monkeypatch.setattr(runner, "_renameat2", None if swap == "unavailable" else einval)
    assert first_run_and_rerun(tmp_path / "replaced") == swapped
    assert swapped[0] == swapped[1]
    assert len(calls) == (0 if swap == "unavailable" else len(swapped[0]))  # one per rerun file


@pytest.mark.skipif(runner._renameat2 is None, reason="renameat2 is a Linux call")
def test_rewriting_a_regular_file_swaps_it_without_os_replace(tmp_path, monkeypatch):
    config = parse_config_text(FREE_CFG)
    run_config(config, output_dir=tmp_path)
    before = _contents(tmp_path)

    def replace(*args):
        raise AssertionError("os.replace called")

    monkeypatch.setattr(runner.os, "replace", replace)
    run_config(config, output_dir=tmp_path)
    assert _contents(tmp_path) == before



def test_symlinks_at_output_paths_are_replaced_and_their_targets_kept(tmp_path, monkeypatch):
    # a symlink at an output path is replaced by the new regular file, never
    # swapped: its target keeps its bytes, and a dangling link's target stays
    # missing; the regular files of a rerun are still swapped
    config = parse_config_text(FREE_CFG)
    whole, out = tmp_path / "whole", tmp_path / "out"
    run_config(config, output_dir=whole)
    run_config(config, output_dir=out)
    target = tmp_path / "target.csv"
    target.write_bytes(b"kept\n")
    (out / "x_fields.csv").unlink()
    (out / "x_fields.csv").symlink_to(target)
    (out / "report.json").unlink()
    (out / "report.json").symlink_to(tmp_path / "missing.json")
    swapped = []
    if runner._renameat2 is not None:
        def renameat2(*args, swap=runner._renameat2):
            swapped.append(os.fsdecode(args[3]))
            return swap(*args)

        monkeypatch.setattr(runner, "_renameat2", renameat2)
    run_config(config, output_dir=out)
    assert not any(p.is_symlink() for p in out.iterdir())
    assert _contents(out) == _contents(whole)
    assert target.read_bytes() == b"kept\n" and not (tmp_path / "missing.json").exists()
    if runner._renameat2 is not None:
        assert sorted(Path(p).name for p in swapped) == ["x_trajectory_1.csv"]


def test_planted_tmp_symlinks_leave_their_targets_alone(tmp_path):
    # a symlink planted at an output's .tmp name, to a file outside the
    # directory, is unlinked and never written through, on a first run and on
    # a rerun: the target keeps its bytes, every output is a regular file with
    # the bytes of a clean run, and no .tmp name is left
    config = parse_config_text(FREE_CFG)
    whole, out = tmp_path / "whole", tmp_path / "out"
    run_config(config, output_dir=whole)
    out.mkdir()
    victims = [(out / f"{name}.tmp", tmp_path / f"victim_{name}")
               for name in ("report.json", "x_fields.csv")]
    for _ in range(2):
        for link, victim in victims:
            victim.write_bytes(b"kept\n")
            link.symlink_to(victim)
        run_config(config, output_dir=out)
        assert all(victim.read_bytes() == b"kept\n" for _, victim in victims)
        assert not any(p.is_symlink() for p in out.iterdir())
        assert _contents(out) == _contents(whole)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd (Linux)")
def test_runs_leave_no_file_descriptor_open(tmp_path, monkeypatch):
    # the output directory's handle and every .tmp file's descriptor are closed
    # after a clean run, after a write that fails (no .tmp name is left), and
    # after an engine error raised before anything is written
    def descriptors():
        return len(os.listdir("/proc/self/fd"))

    before = descriptors()
    run_config(parse_config_text(FREE_CFG), output_dir=tmp_path / "clean")
    assert descriptors() == before

    def write(fd, data):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(runner.os, "write", write)
        with pytest.raises(ConfigurationError, match="cannot write to output directory"):
            run_config(parse_config_text(FREE_CFG), output_dir=tmp_path / "failed")
    assert descriptors() == before
    assert list((tmp_path / "failed").iterdir()) == []

    leaving = FREE_CFG.replace("0.0:5.0:51", "9.5:10.0:11")  # leaves the grid at x = 10
    with pytest.raises(PathExitsGridError):
        run_config(parse_config_text(leaving), output_dir=tmp_path / "engine")
    assert descriptors() == before
    assert not (tmp_path / "engine").exists()


def test_report_strings_are_escaped_as_json_dumps_escapes_them():
    # quotes, backslashes, control characters and non-ASCII letters in keys
    # and values come out as json.dumps (ASCII only) writes them; a report
    # without floats or empty containers is json.dumps with indent=2
    texts = ['say "hi"', "back\\slash", "bell\x07 tab\t nl\n nul\x00", "na\u00efve \u03a9",
             "\U0001f600", "\x7f\u2028"]
    report = {"verdict": "pass", "strings": texts, "nested": {t: [t, True, 3] for t in texts}}
    text = runner._json_render(report)
    assert text == json.dumps(report, indent=2)
    assert text.isascii() and json.loads(text) == report
    assert runner._json_render([math.nan, -math.inf, 0.1]) == '[\n  "nan",\n  "-inf",\n  0.10000000000000001\n]'

@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_streamed_table_memory_is_bounded_by_the_chunk(tmp_path, fmt):
    # A 10-column table of 200001 rows holds 16 MB of float64 data.  Writing
    # it chunk by chunk keeps the traced peak below that; a writer that
    # stacks the table and joins its rendered bytes peaks at 97 MB (csv) and
    # 131 MB (json-lines) here.
    rng = np.random.default_rng(11)
    columns = tuple(rng.standard_normal(200_001) for _ in FIELD_COLUMNS)
    b"".join(table_chunks(("x",), (np.ones(1),), fmt))  # builds the lookup tables
    tracemalloc.start()
    try:
        runner._atomic_write(tmp_path / "table", table_chunks(FIELD_COLUMNS, columns, fmt))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 200_001 * 8
    with open(tmp_path / "table", "rb") as f:
        assert sum(1 for _ in f) == 200_001 + (fmt == "csv")



@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_streamed_group_memory_is_bounded_by_the_chunk(tmp_path, fmt):
    # Three two-column tables of 200001 rows hold 9.6 MB of float64 data.
    # Rendering them in one pass and cutting the stream into files keeps the
    # traced peak near 8.5 MB (the chunk being written, one chunk ahead on
    # each of the two render threads, and their work buffers); joining the
    # group's columns first peaks at 14 MB, and joining its rendered bytes
    # before the cut at 98 MB (csv) and 116 MB (json-lines) here.
    rng = np.random.default_rng(13)
    tables = [(np.linspace(0.0, 1.0, 200_001), rng.standard_normal(200_001)) for _ in range(3)]
    b"".join(table_chunks(("x",), (np.ones(1),), fmt))  # builds the lookup tables
    paths = [tmp_path / f"path_{i}" for i in range(3)]
    tracemalloc.start()
    try:
        runner._write_tables(paths, ("t", "x"), tables, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 * 200_001 * 8
    for path in paths:
        with open(path, "rb") as f:
            assert sum(1 for _ in f) == 200_001 + (fmt == "csv")

# `ermakov catalog` stdout, byte for byte: the describe() strings of every weight
CATALOG_STDOUT = "\n".join((
    'cartesian',
    '  x        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    '  y        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    '  z        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    'cylindrical',
    '  r        domain [0.0, inf]  s(q) = q                        Omega_geom^2 = 1/(4 q^2)',
    '  theta    domain [0.0, 6.283185307179586]  s(q) = 1                        Omega_geom^2 = 0',
    '  z        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    'spherical',
    '  r        domain [0.0, inf]  s(q) = q^2                      Omega_geom^2 = 0',
    '  theta    domain [0.0, 3.141592653589793]  s(q) = sin(q)                   '
    'Omega_geom^2 = 1/4 + 1/(4 sin^2 q)',
    '  phi      domain [0.0, 6.283185307179586]  s(q) = 1                        Omega_geom^2 = 0',
    'parabolic3d',
    '  u        domain [0.0, inf]  s(q) = q                        Omega_geom^2 = 1/(4 q^2)',
    '  v        domain [0.0, inf]  s(q) = q                        Omega_geom^2 = 1/(4 q^2)',
    '  phi      domain [0.0, 6.283185307179586]  s(q) = 1                        Omega_geom^2 = 0',
    'elliptic_cylinder',
    '  mu       domain [0.0, inf]  s(q) = 1                        Omega_geom^2 = 0',
    '  nu       domain [0.0, 6.283185307179586]  s(q) = 1                        Omega_geom^2 = 0',
    '  z        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    'parabolic_cylinder',
    '  u        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    '  v        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    '  z        domain [-inf, inf]  s(q) = 1                        Omega_geom^2 = 0',
    'confocal_quadric',
    '  lambda   domain [3.0, 5.0]  s(q) = sqrt(|(3.0 - q)(2.0 - q)(1.0 - q)|) '
    "Omega_geom^2 = -P''/(4P) + 3 P'^2/(16 P^2) with P the cubic under the root",
    '  mu       domain [2.0, 3.0]  s(q) = sqrt(|(3.0 - q)(2.0 - q)(1.0 - q)|) '
    "Omega_geom^2 = -P''/(4P) + 3 P'^2/(16 P^2) with P the cubic under the root",
    '  nu       domain [1.0, 2.0]  s(q) = sqrt(|(3.0 - q)(2.0 - q)(1.0 - q)|) '
    "Omega_geom^2 = -P''/(4P) + 3 P'^2/(16 P^2) with P the cubic under the root",
)) + "\n"


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out == CATALOG_STDOUT


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


@pytest.mark.parametrize("workload", ["sweep", "trajectories"])
def test_benchmark_gate_passes_on_its_workload(tmp_path, monkeypatch, workload):
    # The benchmark reads report verdicts and problem kinds, and each sector's
    # setup, amplitude and trajectories; a refactor that renames any of them
    # fails every benchmark iteration, which no other test would show.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    environ = os.environ.copy()
    import gate
    import run  # pins the BLAS thread pools in os.environ
    import workloads

    for var in run.THREAD_VARS:
        if var in environ:
            os.environ[var] = environ[var]
        else:
            os.environ.pop(var, None)
    loop = run.Loop(ermakov, workloads.write_configs(workload, 0, tmp_path / "configs"),
                    tmp_path / "out")
    cases = run.warm_and_capture(ermakov, loop)
    assert cases is not None  # every config's verdict passes
    assert gate.accuracy_ok(*gate.accuracy(cases))
    loop.reference_digests = gate.file_digests(loop.out)
    _, reports = loop.iterate()
    assert loop.check(reports) and loop.failed == 0


def test_integer_weber_sector_certifies_to_roundoff(tmp_path):
    # D_0 integrated outward from xi = 0 runs in its decaying direction, where
    # the error grows like e^{xi^2/4} (invariant drift 4.1e-10 on this grid);
    # in closed form only the integrated companion carries an error.
    text = ("problem.kind = harmonic_oscillator\nproblem.omega = 1.0\nproblem.E = 0.5\n"
            "sector.xi.grid = -6.5:6.5:2001\n")
    report, _ = run_config(parse_config_text(text), output_dir=tmp_path)
    (sector,) = report.sectors
    assert sector["invariant_drift"] <= 1e-13
    assert sector["integration_error"] <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_integer_weber_benchmark_configs_integrate_to_roundoff(tmp_path, monkeypatch, seed):
    # the integrated D_n column read up to 1.2e-10 here (seed 3, nu = 0)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    configs = workloads.generate("sweep", seed)
    for name in ("harmonic_int_low", "harmonic_int_high"):
        report, _ = run_config(parse_config_text(configs[name]), output_dir=tmp_path / name)
        assert report.sectors[0]["integration_error"] <= 1e-12, name


def test_sweep_takes_at_most_42_frequency_calls(tmp_path, monkeypatch):
    # Counted by the benchmark's own tracer (catalog.omega2_calls).  Every
    # Magnus pass takes one call, and a closed-form or series column takes
    # none, so a column integrated where a closed form exists shows here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        for name, text in workloads.generate("sweep", 3).items():
            run_config(parse_config_text(text), output_dir=tmp_path / name)
    assert tracer.counters[tracer.iteration]["catalog.omega2_calls"] <= 42


COLD_START = """
import json, sys, threading
import ermakov
import numpy as np
from ermakov import cli, fields, linear
from ermakov.pinney import solve_ep_direct
from ermakov.problems import ProblemSpec, build_problem
codes = [cli.main(["check", path]) for path in sys.argv[1:]]
threads = threading.active_count()
codes += [cli.main(["run", path]) for path in sys.argv[1:]]
(setup,) = build_problem(ProblemSpec(kind="harmonic_oscillator",
                                     params={"omega": 1.0, "E": 1.0}))
solve_ep_direct(setup.profile, 1.0, (1.0, 0.0), np.linspace(-2.0, 2.0, 401))
print(json.dumps({
    "codes": codes,
    "threads": threads,
    "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
    "solve_ivp": [callable(vars(m).get("solve_ivp")) for m in (linear, fields)],
}))
"""


def test_check_and_run_load_no_scipy(tmp_path):
    # A fresh interpreter: the package, check, run and solve_ep_direct need
    # numpy only, and check starts no thread.  The benchmark's tracer still
    # finds both solve_ivp bindings to wrap.
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
    assert result["threads"] == 1  # check starts no render thread
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


def _fresh(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(ermakov.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_the_package_root_loads_nothing_but_its_version():
    # every public name is imported from its own module; a bare import ermakov
    # loads no other ermakov module and no numpy
    proc = _fresh("-c", "import sys, ermakov; print(ermakov.__version__, sorted(m for m in "
                        "sys.modules if m.startswith(('ermakov.', 'numpy'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(maxsplit=1) == [ermakov.__version__, "[]\n"]


def test_each_module_imports_on_its_own():
    # a fresh interpreter per module imports it first, so none works only
    # because another one was imported before it; __main__ runs the catalog
    # command.  Two interpreters at a time, one per core of a small runner.
    modules = sorted(p.stem for p in Path(ermakov.__file__).parent.glob("*.py"))
    runs = [("-m", "ermakov", "catalog") if m == "__main__" else ("-c", f"import ermakov.{m}")
            for m in modules if m != "__init__"]
    with futures.ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda args: _fresh("-W", "error", *args), runs))
    failed = {args[-1]: proc.stderr for args, proc in zip(runs, procs)
              if proc.returncode != 0 or proc.stderr}
    assert failed == {}


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


def test_trajectories_are_numbered_by_their_index(tmp_path):
    # the keys' order in the file does not decide the table's number
    text = FREE + "trajectory.x.2 = 1:1:3\ntrajectory.x.1 = -1:1:3\n"
    run_config(parse_config_text(text), output_dir=tmp_path)
    first, second = (np.loadtxt(tmp_path / f"x_trajectory_{i}.csv", delimiter=",", skiprows=1)
                     for i in (1, 2))
    assert first[0, 1] == -1.0 and second[0, 1] == 1.0


def test_render_threads_end_with_their_table(tmp_path):
    # 32001 rows of ten columns render as several blocks, on the table's own
    # two threads, which end when its file is written
    before = threading.active_count()
    text = HARMONIC + "problem.E = 1.5\nsector.xi.grid = -6:6:32001\n"
    run_config(parse_config_text(text), output_dir=tmp_path)
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("render")]
