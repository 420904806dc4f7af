"""Configuration-driven pipeline runner.

Reads a flat key=value run description, executes each sector pipeline
(profile -> pair -> quadratic form -> invariant -> fields -> trajectories),
and emits field tables plus a certification report.  Every sector is
computed and certified before any file is written; each file is then
rendered and atomically written (write-then-rename), one at a time, so a
failure leaves no partial file.  Outputs are deterministic: fixed column
and key order, reals rendered with 17 significant digits (:mod:`.render`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fields import (
    FLUX_TOLERANCE,
    FluxCheck,
    FluxLedger,
    flux_constraint_check,
    momentum_field,
    physical_amplitude,
    quantum_potential_ep,
    trajectory,
)
from .linear import DEFAULT_SETTINGS, FundamentalPair, IntegrationSettings, wronskian_check
from .pinney import (
    ErmakovAmplitude,
    PinneyCoefficients,
    coefficients_from_ab,
    el_invariant,
    invariant_drift,
    pinney_amplitude,
    symmetric_coefficients,
)
from .problems import ProblemSpec, SectorSetup, build_problem
from .render import format_real, render_table

FIELD_COLUMNS = ("q", "omega2", "y1", "y2", "wronskian", "rho", "R", "p", "Q", "invariant")
OUTPUT_FORMATS = ("csv", "json-lines")


@dataclass(frozen=True)
class Tolerances:
    invariant: float = 1e-8
    wronskian: float = 1e-9
    integration: float = 1e-9
    pinney: float = 1e-10
    continuity: float = 1e-10
    flux: float = FLUX_TOLERANCE
    ode_residual: float = 1e-3

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"tolerance.{name} must be positive and finite, got {value!r}"
                )

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    settings: IntegrationSettings = DEFAULT_SETTINGS
    tolerances: Tolerances = Tolerances()
    pinney: dict = field(default_factory=dict)  # label -> {"A":..,"B":..,"D":..}
    trajectories: dict = field(default_factory=dict)  # label -> [(x0, t_end, n)]
    flux_enforce: bool = False
    output_dir: str = "out"
    output_format: str = "csv"

    def __post_init__(self):
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigurationError(
                f"output.format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _parse_real(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{key}: expected a finite number, got {text!r}")
    return value


# Largest sample count n of a lo:hi:n entry (sector grids and trajectory
# samples): a pair integration allocates a few dozen doubles per grid point.
MAX_SAMPLES = 1_000_001


def _parse_triplet(text: str, key: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"{key}: expected lo:hi:n, got {text!r}")
    lo, hi, n = (_parse_real(part, key) for part in parts)
    if n < 1 or n != int(n):
        raise ConfigurationError(f"{key}: count must be a positive integer, got {parts[2]!r}")
    if n > MAX_SAMPLES:
        raise ConfigurationError(f"{key}: count {parts[2]!r} exceeds the cap of {MAX_SAMPLES}")
    return lo, hi, int(n)


_SECTOR_KEYS = ("C", "k", "A", "B", "D", "grid")
_INTEGRATION_KEYS = tuple(f.name for f in fields(IntegrationSettings))
_TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat dotted key=value run description."""
    entries: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigurationError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    problem_kind = None
    problem_mh = {"m": 1.0, "hbar": 1.0}
    params: dict[str, object] = {}
    flux: dict[str, float] = {}
    k_sector: dict[str, float] = {}
    grids: dict[str, tuple[float, float, int]] = {}
    pinney: dict[str, dict[str, float]] = {}
    trajectories: dict[str, list[tuple[float, float, int]]] = {}
    integration: dict[str, float] = {}
    tol_kw: dict[str, float] = {}
    flux_enforce = False
    output_dir = "out"
    output_format = "csv"

    for key, raw_value in entries.items():
        parts = key.split(".")
        section = parts[0]
        if section == "problem" and len(parts) == 2:
            name = parts[1]
            if name == "kind":
                problem_kind = raw_value
            elif name == "parity":
                params[name] = raw_value
            elif name in ("m", "hbar"):
                problem_mh[name] = _parse_real(raw_value, key)
            else:
                params[name] = _parse_real(raw_value, key)
        elif section == "sector" and len(parts) == 3 and parts[2] in _SECTOR_KEYS:
            label, what = parts[1], parts[2]
            if what == "grid":
                grids[label] = _parse_triplet(raw_value, key)
            elif what == "C":
                flux[label] = _parse_real(raw_value, key)
            elif what == "k":
                k_sector[label] = _parse_real(raw_value, key)
            else:
                pinney.setdefault(label, {})[what] = _parse_real(raw_value, key)
        elif section == "trajectory" and len(parts) == 3:
            trajectories.setdefault(parts[1], []).append(_parse_triplet(raw_value, key))
        elif section == "integration" and len(parts) == 2 and parts[1] in _INTEGRATION_KEYS:
            integration[parts[1]] = _parse_real(raw_value, key)
        elif section == "tolerance" and len(parts) == 2 and parts[1] in _TOLERANCE_KEYS:
            tol_kw[parts[1]] = _parse_real(raw_value, key)
        elif key == "flux.enforce":
            if raw_value.lower() not in ("true", "false"):
                raise ConfigurationError(f"flux.enforce must be true/false, got {raw_value!r}")
            flux_enforce = raw_value.lower() == "true"
        elif key == "output.dir":
            output_dir = raw_value
        elif key == "output.format":
            output_format = raw_value
        else:
            raise ConfigurationError(f"unknown configuration key {key!r}")

    if problem_kind is None:
        raise ConfigurationError("missing required key problem.kind")
    spec = ProblemSpec(
        kind=problem_kind,
        m=problem_mh["m"],
        hbar=problem_mh["hbar"],
        params=params,
        flux=flux,
        k_sector=k_sector,
        grids=grids,
    )
    return RunConfig(
        problem=spec,
        settings=IntegrationSettings(**integration),
        tolerances=Tolerances(**tol_kw),
        pinney=pinney,
        trajectories=trajectories,
        flux_enforce=flux_enforce,
        output_dir=output_dir,
        output_format=output_format,
    )


def parse_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Sector pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorResult:
    label: str
    setup: SectorSetup
    pair: FundamentalPair
    coefficients: PinneyCoefficients
    amplitude: ErmakovAmplitude
    omega2: np.ndarray
    R: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    invariant: np.ndarray
    invariant_drift: float
    invariant_absolute: bool
    wronskian_drift: float
    pinney_residual: float
    continuity_residual: float
    ode_residual: float
    trajectories: tuple[tuple[tuple[float, float, int], np.ndarray, np.ndarray], ...] = ()


def _resolve_coefficients(
    setup: SectorSetup, pair: FundamentalPair, override: dict | None
) -> PinneyCoefficients:
    override = override or {}
    if "A" in override and "B" in override and "D" in override:
        return PinneyCoefficients(override["A"], override["B"], override["D"], setup.k)
    if "A" in override and "B" in override:
        return coefficients_from_ab(override["A"], override["B"], setup.k, pair.W)
    if override:
        raise ConfigurationError(
            f"sector {setup.label!r}: give (A, B) or (A, B, D) to override the"
            " quadratic form"
        )
    return symmetric_coefficients(setup.k, pair.W)


@np.errstate(over="ignore")  # a step whose square overflows leaves y'' = 0
def _ode_residual(grid: np.ndarray, y: np.ndarray, omega2: np.ndarray) -> float:
    """Scaled max residual of the second divided difference against -Omega^2 y
    (NaN, not measured, below 3 points, on a non-uniform grid or where the
    step's square underflows to 0)."""
    h = np.diff(grid)
    if grid.size < 3 or h[0] ** 2 == 0.0 or not np.allclose(h, h[0], rtol=1e-8, atol=0.0):
        return math.nan
    interior = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h[0] ** 2 + omega2[1:-1] * y[1:-1]
    scale = max(1.0, float(np.max(np.abs(omega2 * y))))
    return float(np.max(np.abs(interior))) / scale


def execute_sector(
    setup: SectorSetup,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
    pinney_override: dict | None = None,
    trajectory_requests: list[tuple[float, float, int]] | None = None,
) -> SectorResult:
    """Run the full pipeline for one sector."""
    pair = setup.build_pair(settings)
    coeffs = _resolve_coefficients(setup, pair, pinney_override)
    amplitude = pinney_amplitude(coeffs, pair)
    inv = el_invariant(amplitude, pair.column(1), setup.k)
    drift = invariant_drift(inv, grid=pair.grid)
    omega2 = setup.profile.omega2_array(pair.grid)
    big_r = physical_amplitude(amplitude, setup.sector)
    p = momentum_field(setup.C, big_r)
    q_pot = quantum_potential_ep(
        omega2, setup.k, amplitude.rho, m=setup.profile.m, hbar=setup.profile.hbar
    )
    cont = np.max(np.abs(p * big_r**2 - setup.C))
    cont_scale = abs(setup.C) if setup.C != 0.0 else 1.0
    trajs = []
    if trajectory_requests:  # the exact slope of R^2 = rho^2 / s
        dlog = setup.sector.weight.dlog(pair.grid)
        dR2 = big_r**2 * (2.0 * amplitude.drho / amplitude.rho - dlog)
    for request in trajectory_requests or []:
        x0, t_end, n = request
        t_grid = np.linspace(0.0, t_end, int(n))
        x_t = trajectory(setup.C, pair.grid, big_r, dR2, setup.profile.m, x0, t_grid)
        trajs.append((request, t_grid, x_t))
    return SectorResult(
        label=setup.label,
        setup=setup,
        pair=pair,
        coefficients=coeffs,
        amplitude=amplitude,
        omega2=omega2,
        R=big_r,
        p=p,
        Q=q_pot,
        invariant=inv,
        invariant_drift=drift.drift,
        invariant_absolute=drift.absolute,
        wronskian_drift=wronskian_check(pair),
        pinney_residual=coeffs.constraint_residual(pair.W),
        continuity_residual=float(cont) / cont_scale,
        ode_residual=_ode_residual(pair.grid, pair.y1, omega2),
        trajectories=tuple(trajs),
    )


# ---------------------------------------------------------------------------
# Certification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationReport:
    problem_kind: str
    tolerances: Tolerances
    sectors: tuple[dict, ...]
    flux: FluxCheck
    verdict: str

    def as_dict(self) -> dict:
        return {
            "problem": self.problem_kind,
            "tolerances": self.tolerances.as_dict(),
            "sectors": list(self.sectors),
            "flux": {
                "enforced": self.flux.enforced,
                "residual": self.flux.residual,
                "pass": self.flux.passed,
                "note": self.flux.note,
            },
            "verdict": self.verdict,
        }


def _sector_report(result: SectorResult, tol: Tolerances) -> dict:
    coeffs = result.coefficients
    target = coeffs.k / result.pair.W**2
    checks = {
        "invariant": result.invariant_drift <= tol.invariant,
        "wronskian": result.wronskian_drift <= tol.wronskian * max(1.0, abs(result.pair.W)),
        "integration": result.pair.error <= tol.integration,
        "pinney": result.pinney_residual <= tol.pinney * max(1.0, abs(target)),
        "continuity": result.continuity_residual <= tol.continuity,
        "ode_residual": (
            math.isnan(result.ode_residual) or result.ode_residual <= tol.ode_residual
        ),
    }
    return {
        "label": result.label,
        "points": int(result.pair.grid.size),
        "C": result.setup.C,
        "k": result.setup.k,
        "wronskian": result.pair.W,
        "coefficients": {"A": coeffs.A, "B": coeffs.B, "D": coeffs.D},
        "invariant_reference": float(result.invariant[result.invariant.size // 2]),
        "invariant_drift": result.invariant_drift,
        "invariant_drift_absolute": result.invariant_absolute,
        "wronskian_drift": result.wronskian_drift,
        "integration_error": result.pair.error,
        "pinney_residual": result.pinney_residual,
        "continuity_residual": result.continuity_residual,
        "ode_residual": result.ode_residual,
        "checks": checks,
        "pass": all(checks.values()),
    }


def certify(results: list[SectorResult], tolerances: Tolerances, flux_enforce: bool,
            problem_kind: str) -> CertificationReport:
    sector_reports = tuple(_sector_report(r, tolerances) for r in results)
    ledger = FluxLedger(tuple((r.label, r.setup.C) for r in results))
    flux = flux_constraint_check(ledger, enforce=flux_enforce, tolerance=tolerances.flux)
    verdict = "pass" if all(s["pass"] for s in sector_reports) and flux.passed else "fail"
    return CertificationReport(problem_kind, tolerances, sector_reports, flux, verdict)


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _json_render(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_render(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_render(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = format_real(float(value))
        return json.dumps(text) if text in ("nan", "inf", "-inf") else text
    if value is None:
        return "null"
    return json.dumps(str(value))


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def emit_report(report: CertificationReport, path: str | Path) -> Path:
    """Serialize the report deterministically (fixed key order, 17 digits)."""
    path = Path(path)
    _atomic_write(path, (_json_render(report.as_dict()) + "\n").encode())
    return path


def _field_rows(result: SectorResult) -> np.ndarray:
    return np.column_stack(
        [
            result.pair.grid,
            result.omega2,
            result.pair.y1,
            result.pair.y2,
            result.pair.wronskian_samples(),
            result.amplitude.rho,
            result.R,
            result.p,
            result.Q,
            result.invariant,
        ]
    )


def check_output_dir(path: str | Path) -> Path:
    """``path`` as a Path; an existing non-directory along it is a
    configuration error, since the directory could never be created."""
    out = Path(path)
    for part in (out, *out.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigurationError(
                    f"output directory {str(out)!r}: {str(part)!r} is not a directory"
                )
            break
    return out


def run_config(config: RunConfig, output_dir: str | Path | None = None):
    """Execute every sector, certify, and emit field files plus the report.

    Returns (report, written paths).  Every sector is computed and certified
    before the first write; then each file is rendered and atomically
    written, one at a time, the report last.  An output directory that
    cannot be created or written raises :class:`ConfigurationError`.
    """
    out = check_output_dir(output_dir if output_dir is not None else config.output_dir)
    setups = build_problem(config.problem)
    known = {s.label for s in setups}
    referenced = (
        set(config.pinney)
        | set(config.trajectories)
        | set(config.problem.flux)
        | set(config.problem.k_sector)
        | set(config.problem.grids)
    )
    for label in sorted(referenced - known):
        raise ConfigurationError(
            f"config references unknown sector {label!r}; sectors: {sorted(known)}"
        )
    results = [
        execute_sector(
            setup,
            config.settings,
            pinney_override=config.pinney.get(setup.label),
            trajectory_requests=config.trajectories.get(setup.label),
        )
        for setup in setups
    ]
    report = certify(results, config.tolerances, config.flux_enforce, config.problem.kind)

    suffix = "csv" if config.output_format == "csv" else "jsonl"
    written = []

    def emit(stem: str, columns: tuple[str, ...], rows: np.ndarray) -> None:
        path = out / f"{stem}.{suffix}"
        _atomic_write(path, render_table(columns, rows, config.output_format))
        written.append(path)

    try:
        out.mkdir(parents=True, exist_ok=True)
        for result in results:
            emit(f"{result.label}_fields", FIELD_COLUMNS, _field_rows(result))
            for i, (_, t_grid, x_t) in enumerate(result.trajectories, start=1):
                emit(f"{result.label}_trajectory_{i}", ("t", "x"), np.column_stack([t_grid, x_t]))
        written.append(emit_report(report, out / "report.json"))
    except OSError as exc:
        raise ConfigurationError(f"cannot write to output directory {str(out)!r}: {exc}") from None
    return report, written
