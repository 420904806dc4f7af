"""Command-line entry point.

Subcommands:
  run <config>     execute the configured pipelines and emit data + report
  check <config>   parse and validate the configuration only
  catalog          print the coordinate-system weights and geometric
                   frequencies

The environment variable ERMAKOV_OUT overrides the configured output
directory.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure or tolerance breach, 3 singularity (or grid exit) on a requested
path.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import CATALOG_KEYS, lookup_system
from .errors import (
    ConfigurationError,
    EngineError,
    NodeApproachError,
    NodeSingularityError,
    PathExitsGridError,
    SingularEndpointError,
)
from .runner import parse_config, prepare, run_config

_PATH_ERRORS = (NodeApproachError, NodeSingularityError, PathExitsGridError, SingularEndpointError)


def _cmd_catalog() -> int:
    for name in CATALOG_KEYS:
        system = lookup_system(name)
        print(name)
        for sector in system.sectors:
            weight, geom = sector.weight.describe()
            lo, hi = sector.domain
            print(f"  {sector.label:<8} domain [{lo}, {hi}]  s(q) = {weight:<24} "
                  f"Omega_geom^2 = {geom}")
    return 0


def _cmd_check(path: str) -> int:
    config = parse_config(path)
    _, setups = prepare(config, os.environ.get("ERMAKOV_OUT") or config.output_dir)
    print(f"ok: {config.problem.kind} with sectors {[s.label for s in setups]}")
    return 0


def _cmd_run(path: str) -> int:
    config = parse_config(path)
    report, written = run_config(config, os.environ.get("ERMAKOV_OUT") or config.output_dir)
    for sector in report.sectors:
        status = "pass" if sector["pass"] else "FAIL"
        print(
            f"sector {sector['label']}: invariant drift {sector['invariant_drift']:.3e}, "
            f"pair condition {sector['pair_condition']:.3e}, "
            f"integration error {sector['integration_error']:.3e} [{status}]"
        )
    print(f"flux residual {report.flux['residual']:.3e} "
          f"({'enforced' if report.flux['enforced'] else 'not enforced'})")
    print(f"verdict: {report.verdict}")
    for p in written:
        print(f"wrote {p}")
    return 0 if report.verdict == "pass" else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ermakov",
        description="Stationary guiding-field construction with invariant certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a run configuration")
    run_p.add_argument("config", help="path to the key=value run description")
    check_p = sub.add_parser("check", help="validate a run configuration")
    check_p.add_argument("config", help="path to the key=value run description")
    sub.add_parser("catalog", help="print tabulated weights and geometric frequencies")

    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            return _cmd_catalog()
        if args.command == "check":
            return _cmd_check(args.config)
        return _cmd_run(args.config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except _PATH_ERRORS as exc:
        print(f"singularity on requested path: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
