#!/usr/bin/env python3
"""Seeded-defect self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs one harmonic configuration with six trajectories, checks that the clean
output passes the gate, then plants three defects in the emitted files and
checks that the gate catches each one:

* rho perturbed by a relative 1e-6 must lower amp_digits below the gate;
* one flipped output byte must count as a failed iteration;
* a trajectory run in the wrong direction must lower traj_digits below the gate.

Exits 0 when every defect is caught, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

import gate
import run
import workloads


def rewrite_csv(path: Path, column: str, transform) -> None:
    """Apply ``transform`` to one column of an emitted CSV table, in place."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    j = header.index(column)
    data[:, j] = transform(data[:, j])
    body = [",".join(format(v, ".17g") for v in row) for row in data]
    path.write_text("\n".join([lines[0], *body]) + "\n")


def main() -> int:
    ermakov = run.import_ermakov()
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    config = work / "configs" / "harmonic.cfg"
    config.parent.mkdir(parents=True)
    config.write_text(workloads.generate("trajectories", 0)["harmonic"])
    loop = run.Loop(ermakov, [config], work / "out")
    cases = run.warm_and_capture(ermakov, loop)
    if cases is None:
        print("FAIL clean run did not pass certification")
        return 1
    loop.reference_digests = gate.file_digests(loop.out)
    (case,) = cases
    results = []

    def record(name: str, caught: bool, detail: str) -> None:
        results.append(caught)
        print(f"{'PASS' if caught else 'FAIL'} {name}: {detail}")

    amp0, traj0 = gate.accuracy(cases)
    _, reports = loop.iterate()
    record("clean output passes", gate.accuracy_ok(amp0, traj0) and loop.check(reports),
           f"amp_digits {amp0:.2f}, traj_digits {traj0:.2f}, failed {loop.failed}")

    saved = case.fields_file.read_bytes()
    rewrite_csv(case.fields_file, "rho", lambda rho: rho * (1.0 + 1e-6))
    amp1, _ = gate.accuracy(cases)
    record("rho * (1 + 1e-6) lowers amp_digits", amp1 < amp0 and amp1 < gate.AMP_DIGITS_MIN,
           f"{amp0:.2f} -> {amp1:.2f} (gate {gate.AMP_DIGITS_MIN})")
    case.fields_file.write_bytes(saved)

    target = case.trajectory_files[0]
    saved = target.read_bytes()
    flipped = bytearray(saved)
    flipped[len(flipped) // 2] ^= 0x01
    target.write_bytes(bytes(flipped))
    before = loop.failed
    passed = loop.check(reports)
    record("one flipped output byte fails the iteration", not passed and loop.failed == before + 1,
           f"check {'passed' if passed else 'failed'}, failed {before} -> {loop.failed}")
    target.write_bytes(saved)

    x0 = case.requests[0][0]
    rewrite_csv(target, "x", lambda x: 2.0 * x0 - x)
    _, traj1 = gate.accuracy(cases)
    record("wrong-sign trajectory lowers traj_digits",
           traj1 < traj0 and traj1 < gate.TRAJ_DIGITS_MIN,
           f"{traj0:.2f} -> {traj1:.2f} (gate {gate.TRAJ_DIGITS_MIN})")
    target.write_bytes(saved)

    shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
