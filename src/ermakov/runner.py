"""Configuration-driven pipeline runner.

Reads a flat key=value run description, executes each sector pipeline
(profile -> pair -> quadratic form -> invariant -> fields -> trajectories),
and emits field tables plus a certification report.  Every sector is
computed and certified before any file is written; each file is then
written atomically (write, then swap or rename), one at a time, so a
failure leaves no partial file.  A table is streamed from its columns to
its file in chunks of a few MB and written in order, so emit memory does
not grow with the grid; a table of several chunks is rendered on two
threads.  Outputs are deterministic: fixed column and key order, reals
rendered with 17 significant digits (:mod:`.render`).
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fields import momentum_field, physical_amplitude, quantum_potential_ep, trajectory
from .linear import DEFAULT_SETTINGS, IntegrationSettings
from .pinney import (
    ErmakovAmplitude,
    PinneyCoefficients,
    el_invariant,
    invariant_drift,
    pinney_amplitude,
)
from .problems import TEXT_PARAMETERS, ProblemSpec, SectorRequest, SectorSetup, build_problem
from .render import format_real, table_chunks

FIELD_COLUMNS = ("q", "omega2", "y1", "y2", "wronskian", "rho", "R", "p", "Q", "invariant")
OUTPUT_FORMATS = ("csv", "json-lines")
_libc = ctypes.CDLL(None, use_errno=True) if sys.platform == "linux" else None
_renameat2 = getattr(_libc, "renameat2", None)  # None where libc has no renameat2
if _renameat2 is not None:  # (olddirfd, oldpath, newdirfd, newpath, flags) -> 0, or -1
    _renameat2.argtypes = (ctypes.c_int, ctypes.c_char_p) * 2 + (ctypes.c_uint,)
    _renameat2.restype = ctypes.c_int
_AT_FDCWD, _RENAME_EXCHANGE = -100, 2
_DIR_FD = {os.open, os.stat, os.unlink, os.rename} <= os.supports_dir_fd  # else full paths


@dataclass(frozen=True)
class Tolerances:
    invariant: float = 1e-8
    integration: float = 1e-9
    flux: float = 1e-12  # bound on the ledger residual |sum C_i| / sum |C_i|

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"tolerance.{name} must be positive and finite, got {value!r}"
                )


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    settings: IntegrationSettings = DEFAULT_SETTINGS
    tolerances: Tolerances = Tolerances()
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
    problem_mh: dict[str, float] = {}
    params: dict[str, object] = {}
    requests: dict[str, dict] = {}  # label -> SectorRequest fields
    integration: dict[str, float] = {}
    tol_kw: dict[str, float] = {}
    run_kw: dict[str, object] = {}

    for key, raw_value in entries.items():
        parts = key.split(".")
        section = parts[0]
        if section == "problem" and len(parts) == 2:
            name = parts[1]
            if name == "kind":
                problem_kind = raw_value
            elif name in TEXT_PARAMETERS:
                params[name] = raw_value
            elif name in ("m", "hbar"):
                problem_mh[name] = _parse_real(raw_value, key)
            else:
                params[name] = _parse_real(raw_value, key)
        elif section == "sector" and len(parts) == 3 and parts[2] in _SECTOR_KEYS:
            request, what = requests.setdefault(parts[1], {}), parts[2]
            if what == "grid":
                request["grid"] = _parse_triplet(raw_value, key)
            elif what in ("C", "k"):
                request[what] = _parse_real(raw_value, key)
            else:
                request.setdefault("form", {})[what] = _parse_real(raw_value, key)
        elif section == "trajectory" and len(parts) == 3:
            index = int(parts[2]) if parts[2].isascii() and parts[2].isdigit() else 0
            if index < 1:
                raise ConfigurationError(f"{key}: the index must be a positive integer")
            given = requests.setdefault(parts[1], {}).setdefault("trajectories", {})
            if index in given:  # index -> (key, trajectory)
                raise ConfigurationError(f"{key}: index {index} is also given by {given[index][0]}")
            given[index] = key, _parse_triplet(raw_value, key)
        elif section == "integration" and len(parts) == 2 and parts[1] in _INTEGRATION_KEYS:
            integration[parts[1]] = _parse_real(raw_value, key)
        elif section == "tolerance" and len(parts) == 2 and parts[1] in _TOLERANCE_KEYS:
            tol_kw[parts[1]] = _parse_real(raw_value, key)
        elif key == "flux.enforce":
            if raw_value.lower() not in ("true", "false"):
                raise ConfigurationError(f"flux.enforce must be true/false, got {raw_value!r}")
            run_kw["flux_enforce"] = raw_value.lower() == "true"
        elif key in ("output.dir", "output.format"):
            run_kw[key.replace(".", "_")] = raw_value
        else:
            raise ConfigurationError(f"unknown configuration key {key!r}")

    if problem_kind is None:
        raise ConfigurationError("missing required key problem.kind")
    for label, request in requests.items():  # a label's paths are numbered 1..n, in order
        given = request.get("trajectories", {})
        if given and max(given) > len(given):
            raise ConfigurationError(
                f"{given[max(given)][0]}: trajectory.{label} indices must run 1..{len(given)}"
            )
        request["trajectories"] = tuple(given[i][1] for i in sorted(given))
    spec = ProblemSpec(
        kind=problem_kind,
        params=params,
        sectors={label: SectorRequest(**request) for label, request in requests.items()},
        **problem_mh,
    )
    return RunConfig(
        problem=spec,
        settings=IntegrationSettings(**integration),
        tolerances=Tolerances(**tol_kw),
        **run_kw,
    )


def parse_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Sector pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorResult:
    label: str
    setup: SectorSetup
    amplitude: ErmakovAmplitude
    omega2: np.ndarray
    R: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    invariant: np.ndarray
    invariant_reference: float
    invariant_drift: float
    invariant_worst_q: float
    pair_condition: float
    trajectories: tuple[tuple[tuple[float, float, int], np.ndarray, np.ndarray], ...]


def execute_sector(
    setup: SectorSetup, settings: IntegrationSettings = DEFAULT_SETTINGS
) -> SectorResult:
    """Run the full pipeline for one sector, with its form and trajectories."""
    pair = setup.build_pair(settings)
    amplitude = pinney_amplitude(PinneyCoefficients.of(setup.k, pair.W, setup.form), pair)
    inv, c = el_invariant(amplitude), amplitude.coefficients
    reference = 0.5 * (c.B or c.A) * pair.W**2  # I's exact value
    drift = invariant_drift(inv, reference, pair.grid)
    omega2 = setup.profile.omega2_array(pair.grid)
    rho, m = amplitude.rho, setup.profile.m
    p = momentum_field(setup.C, rho)
    q_pot = quantum_potential_ep(
        setup.profile.physical(pair.grid), setup.k, rho, m=m, hbar=setup.profile.hbar
    )
    t_grids = [np.linspace(0.0, t_end, int(n)) for _, t_end, n in setup.trajectories]
    paths = trajectory(setup.C, pair.grid, rho, 2.0 * rho * amplitude.drho, m,
                       [(request[0], t) for request, t in zip(setup.trajectories, t_grids)])
    return SectorResult(
        label=setup.label,
        setup=setup,
        amplitude=amplitude,
        omega2=omega2,
        R=physical_amplitude(amplitude, setup.sector),
        p=p,
        Q=q_pot,
        invariant=inv,
        invariant_reference=reference,
        invariant_drift=drift.drift,
        invariant_worst_q=drift.location,
        pair_condition=pair.condition(),
        trajectories=tuple(zip(setup.trajectories, t_grids, paths)),
    )


# ---------------------------------------------------------------------------
# Certification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationReport:
    problem_kind: str
    tolerances: Tolerances
    sectors: tuple[dict, ...]
    flux: dict
    verdict: str

    def as_dict(self) -> dict:
        return {"problem": self.problem_kind, "tolerances": asdict(self.tolerances),
                "sectors": list(self.sectors), "flux": self.flux, "verdict": self.verdict}


def _sector_report(result: SectorResult, tol: Tolerances) -> dict:
    pair, coeffs = result.amplitude.pair, result.amplitude.coefficients
    checks = {
        "invariant": result.invariant_drift <= tol.invariant,
        "integration": pair.error <= tol.integration,
    }
    return {
        "label": result.label,
        "points": int(pair.grid.size),
        "C": result.setup.C,
        "k": result.setup.k,
        "wronskian": pair.W,
        "coefficients": {"A": coeffs.A, "B": coeffs.B, "D": coeffs.D},
        "invariant_reference": result.invariant_reference,
        "invariant_drift": result.invariant_drift,
        "invariant_worst_q": result.invariant_worst_q,
        "pair_condition": result.pair_condition,
        "invariant_floor": sys.float_info.epsilon * result.pair_condition,  # a diagnostic
        "integration_error": pair.error,
        "checks": checks,
        "pass": all(checks.values()),
    }


def certify(results: list[SectorResult], tolerances: Tolerances, flux_enforce: bool,
            problem_kind: str) -> CertificationReport:
    """Decide every check: each sector's invariant and integration, and sum C_i = 0
    by the ledger residual |sum C_i| / sum |C_i| (0 when every C_i is 0)."""
    sector_reports = tuple(_sector_report(r, tolerances) for r in results)
    scale = sum(abs(r.setup.C) for r in results)
    residual = abs(sum(r.setup.C for r in results)) / scale if scale else 0.0
    flux = {
        "enforced": flux_enforce,
        "residual": residual,
        "pass": residual <= tolerances.flux or not flux_enforce,
    }
    verdict = "pass" if all(s["pass"] for s in sector_reports) and flux["pass"] else "fail"
    return CertificationReport(problem_kind, tolerances, sector_reports, flux, verdict)


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _json_render(value, indent: int = 0) -> str:
    """A report's dicts, lists, bools, ints, floats (non-finite ones quoted) and str."""
    pad = "  " * indent
    if isinstance(value, dict):
        items = ",\n".join(
            f'{pad}  {_json_str(str(k))}: {_json_render(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, list):
        items = ",\n".join(f"{pad}  {_json_render(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = format_real(value)
        return f'"{text}"' if text in ("nan", "inf", "-inf") else text
    return _json_str(value)


def _atomic_write(path: Path, parts, dir_fd: int | None = None) -> None:
    """Write the byte chunks ``parts`` to ``path`` through a ``.tmp`` file, each as it
    arrives, then swap it with a regular file at ``path`` (no ext4 writeback, unlike a
    rename over it) and unlink the old file, else ``os.replace``; a failure unlinks ``.tmp``.
    ``.tmp`` is made anew, never opened through a symlink or a file already there.  Given
    ``dir_fd``, an open handle on ``path``'s directory, every call names files relative to it."""
    dir_fd = dir_fd if _DIR_FD else None
    old = os.fsencode(path if dir_fd is None else path.name)
    new, flags = old + b".tmp", os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    try:
        try:
            fd = os.open(new, flags, 0o666, dir_fd=dir_fd)
        except FileExistsError:  # a stale name: unlinking a symlink leaves its target
            os.unlink(new, dir_fd=dir_fd)
            fd = os.open(new, flags, 0o666, dir_fd=dir_fd)
        try:
            for part in parts:
                view = memoryview(part).cast("B")
                while view:
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        swap = False  # only with a regular file, not a symlink; none where lstat fails
        with contextlib.suppress(OSError):
            swap = _renameat2 is not None and stat.S_ISREG(os.lstat(old, dir_fd=dir_fd).st_mode)
        at = _AT_FDCWD if dir_fd is None else dir_fd
        if swap and _renameat2(at, new, at, old, _RENAME_EXCHANGE) == 0:
            os.unlink(new, dir_fd=dir_fd)  # the old file
        else:
            os.replace(new, old, src_dir_fd=dir_fd, dst_dir_fd=dir_fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(new, dir_fd=dir_fd)
        raise


class _Joined:
    """One column of several tables end to end, sliced without joining it whole."""

    def __init__(self, pieces):
        self.pieces, self.starts = pieces, np.cumsum([0] + [len(p) for p in pieces]).tolist()

    def __len__(self):
        return self.starts[-1]

    def __getitem__(self, rows: slice):
        return np.concatenate([p[max(rows.start - a, 0) : max(rows.stop - a, 0)]
                               for p, a in zip(self.pieces, self.starts)])


def _write_tables(paths, names: tuple[str, ...], tables, fmt: str,
                  dir_fd: int | None = None) -> None:
    """Write each table (columns under ``names``) to its path with :func:`_atomic_write`
    (through ``dir_fd``, if given), all from one :func:`table_chunks` pass cut at the
    newline that ends each table."""
    columns = tables[0] if len(tables) == 1 else [_Joined(c) for c in zip(*tables)]
    chunks = table_chunks(names, columns, fmt)
    head = next(chunks)
    rest, ends = np.empty(0, np.uint8), np.empty(0, np.intp)  # unwritten rows of a chunk

    def rows(count):
        nonlocal rest, ends
        yield head
        while count:
            if not ends.size:
                rest = next(chunks)
                ends = np.flatnonzero(rest == ord("\n")) + 1
            take = min(count, ends.size)
            cut = ends[take - 1]
            yield rest[:cut]
            rest, ends, count = rest[cut:], ends[take:] - cut, count - take

    with contextlib.closing(chunks):  # a failed write leaves no block rendering
        for path, table in zip(paths[:-1], tables):
            _atomic_write(path, rows(len(table[0])), dir_fd)
        _atomic_write(paths[-1], itertools.chain([head, rest], chunks), dir_fd)  # every row left


def _field_columns(result: SectorResult) -> tuple[np.ndarray, ...]:
    pair = result.amplitude.pair
    return (
        pair.grid,
        result.omega2,
        pair.y1,
        pair.y2,
        pair.wronskian_samples(),
        result.amplitude.rho,
        result.R,
        result.p,
        result.Q,
        result.invariant,
    )


def prepare(config: RunConfig, output_dir: str | Path):
    """(output directory, sector setups) of ``config``, validated up to the
    numerics: ``output_dir`` holds no NUL byte and lies under no
    non-directory, and :func:`build_problem` accepts the problem."""
    out = Path(output_dir)
    if "\0" in str(out):
        raise ConfigurationError(f"output directory {str(out)!r} holds a NUL byte")
    for part in (out, *out.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigurationError(
                    f"output directory {str(out)!r}: {str(part)!r} is not a directory"
                )
            break
    return out, build_problem(config.problem)


def run_config(config: RunConfig, output_dir: str | Path):
    """Execute every sector, certify, and emit field files plus the report.

    Returns (report, written paths).  After :func:`prepare`, every sector is
    computed and certified before the first write; then each file is
    rendered and atomically written (fixed key order, 17 digits), one at a
    time and each table chunk by chunk, the report last.  An output
    directory that cannot be created or written raises
    :class:`ConfigurationError`.
    """
    out, setups = prepare(config, output_dir)
    results = [execute_sector(setup, config.settings) for setup in setups]
    report = certify(results, config.tolerances, config.flux_enforce, config.problem.kind)

    suffix = "csv" if config.output_format == "csv" else "jsonl"
    written = []

    def emit(stems: list[str], names: tuple[str, ...], tables: list) -> None:
        paths = [out / f"{stem}.{suffix}" for stem in stems]
        _write_tables(paths, names, tables, config.output_format, dir_fd)
        written.extend(paths)

    try:
        out.mkdir(parents=True, exist_ok=True)
        dir_fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)  # every write's base
        try:
            for result in results:
                emit([f"{result.label}_fields"], FIELD_COLUMNS, [_field_columns(result)])
                if trajs := result.trajectories:  # one render pass for the sector's paths
                    emit([f"{result.label}_trajectory_{i}" for i in range(1, len(trajs) + 1)],
                         ("t", "x"), [(t_grid, x_t) for _, t_grid, x_t in trajs])
            _atomic_write(out / "report.json", [(_json_render(report.as_dict()) + "\n").encode()],
                          dir_fd)
        finally:
            os.close(dir_fd)
        written.append(out / "report.json")
    except OSError as exc:
        raise ConfigurationError(f"cannot write to output directory {str(out)!r}: {exc}") from None
    return report, written
