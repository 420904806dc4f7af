"""Correctness gate: output digests and a benchmark-owned accuracy reference.

Nothing here calls the package's own solvers.  The reference amplitude is
integrated with scipy's DOP853 at a tighter tolerance than the pipeline uses,
straight from the amplitude equation

    rho'' + Omega^2(q) rho = k / rho^3,

started from the run's own (rho, rho') at the grid midpoint, with Omega^2
taken from the sector's frequency profile.  Trajectory samples are checked
against t_ref(x) = (m / C) * integral from x0 to x of R_ref^2, summed from
x0 by 8-point Gauss-Legendre rules between consecutive samples on the
reference's dense output, so no large running integral is differenced.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

REF_RTOL = 1e-13
REF_ATOL = 1e-16  # times the solution's scale at the midpoint
AMP_SUBSAMPLE = 501
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# Pass thresholds, in digits.  On the seed code, over seeds 0-29 of sweep and
# trajectories and 0-11 of dense_grid, amp_digits read 10.6-11.6 and
# traj_digits 5.4-11.0 (trajectories through PCHIP on 501-point grids are the
# least accurate).  The thresholds
# leave two digits of room for method changes and still fail a rho that is
# wrong in the seventh digit or a trajectory that runs the wrong way.
AMP_DIGITS_MIN = 8.0
TRAJ_DIGITS_MIN = 4.0


@dataclass(frozen=True)
class SectorCase:
    """What the gate needs from one executed sector."""

    fields_file: Path
    trajectory_files: tuple[Path, ...]
    requests: tuple[tuple[float, float, int], ...]
    profile: object  # ermakov FrequencyProfile
    weight: object  # ermakov Weight of the sector
    k: float
    C: float
    m: float
    q_mid: float
    rho_mid: float
    drho_mid: float


def file_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    digests = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        with path.open("rb") as fh:
            digests[str(path.relative_to(directory))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def total_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def read_table(path: Path, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Selected columns of an emitted CSV or JSON-lines table."""
    if path.suffix == ".csv":
        with path.open() as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                          usecols=[header.index(c) for c in columns])
        return {c: data[:, i] for i, c in enumerate(columns)}
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    return {c: np.array([float(row[c]) for row in rows]) for c in columns}


class Reference:
    """Dense DOP853 solution of the amplitude equation, both ways from the
    grid midpoint."""

    def __init__(self, case: SectorCase, lo: float, hi: float):
        omega2, k = case.profile.omega2_array, case.k

        def rhs(q, y):
            w2 = float(omega2(np.asarray(q)))
            return (y[1], -w2 * y[0] + k / y[0] ** 3)

        y0 = (case.rho_mid, case.drho_mid)
        atol = REF_ATOL * (abs(case.rho_mid) + abs(case.drho_mid))
        self.q_mid = case.q_mid
        self.weight = case.weight
        self.branches = []
        for end in (hi, lo):
            if end == case.q_mid:
                self.branches.append(None)
                continue
            sol = solve_ivp(rhs, (case.q_mid, end), y0, method="DOP853",
                            rtol=REF_RTOL, atol=atol, dense_output=True)
            if not sol.success:
                raise RuntimeError(f"reference integration failed: {sol.message}")
            self.branches.append(sol.sol)

    def rho(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.empty(q.shape)
        right = q >= self.q_mid
        for mask, branch in ((right, self.branches[0]), (~right, self.branches[1])):
            if np.any(mask):
                out[mask] = branch(q[mask])[0]
        return out

    def r2_integral(self, x: np.ndarray) -> np.ndarray:
        """Cumulative integral of R_ref^2 = rho_ref^2 / s from x[0] to each x."""
        a, b = x[:-1], x[1:]
        nodes = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _GL_NODES
        r2 = self.rho(nodes) ** 2 / np.asarray(self.weight.value(nodes), dtype=float)
        pieces = 0.5 * (b - a) * (r2 @ _GL_WEIGHTS)
        return np.concatenate([[0.0], np.cumsum(pieces)])


def amplitude_error(case: SectorCase, reference: Reference, q: np.ndarray,
                    rho: np.ndarray) -> float:
    """Worst relative deviation of the emitted rho on a grid subsample."""
    idx = np.unique(np.linspace(0, q.size - 1, AMP_SUBSAMPLE).astype(int))
    rho_ref = reference.rho(q[idx])
    return float(np.max(np.abs(rho[idx] - rho_ref) / np.abs(rho_ref)))


def trajectory_error(case: SectorCase, reference: Reference, request, path: Path) -> float:
    """Worst |t_ref(x_i) - t_i| / t_end over one emitted trajectory."""
    x0, t_end, _ = request
    table = read_table(path, ("t", "x"))
    t_ref = (case.m / case.C) * reference.r2_integral(np.concatenate([[x0], table["x"]]))[1:]
    return float(np.max(np.abs(t_ref - table["t"]))) / abs(t_end)


def digits(error: float) -> float:
    return -math.log10(max(error, 1e-300))


def accuracy(cases: list[SectorCase]) -> tuple[float, float]:
    """(amp_digits, traj_digits) over all sectors; traj is nan without trajectories."""
    amp_err, traj_err = 0.0, math.nan
    for case in cases:
        table = read_table(case.fields_file, ("q", "rho"))
        q = table["q"]
        reference = Reference(case, float(q[0]), float(q[-1]))
        amp_err = max(amp_err, amplitude_error(case, reference, q, table["rho"]))
        for request, path in zip(case.requests, case.trajectory_files):
            err = trajectory_error(case, reference, request, path)
            traj_err = err if math.isnan(traj_err) else max(traj_err, err)
    return digits(amp_err), digits(traj_err) if not math.isnan(traj_err) else math.nan


def accuracy_ok(amp_digits: float, traj_digits: float) -> bool:
    traj_ok = math.isnan(traj_digits) or traj_digits >= TRAJ_DIGITS_MIN
    return amp_digits >= AMP_DIGITS_MIN and traj_ok
