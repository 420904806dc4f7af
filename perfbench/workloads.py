"""Seeded run configurations for the benchmark workloads.

Each workload is a fixed list of problems whose structure (kinds, grid
sizes, Mathieu orders, trajectory counts) never changes; the seed only
jitters the continuous physical parameters inside narrow ranges.  That keeps
the cost of one iteration nearly the same for every seed while still giving
the program inputs it has not seen before.  Every range below was checked to
give a passing run (no node hits, no grid exits) on the seed code.

The configurations are plain ``key = value`` files, the same format
``ermakov run`` and ``ermakov check`` read.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("sweep", "trajectories", "dense_grid")

TWO_PI = 2.0 * math.pi


def _config(kind, params, sectors, trajectories=(), fmt="csv"):
    """Render one configuration; ``sectors`` maps label -> (k, grid)."""
    lines = [f"problem.kind = {kind}"]
    lines += [f"problem.{name} = {value}" for name, value in params.items()]
    for label, (k, (lo, hi, n)) in sectors.items():
        lines.append(f"sector.{label}.k = {k!r}")
        lines.append(f"sector.{label}.grid = {lo!r}:{hi!r}:{n}")
    for i, (label, x0, t_end, samples) in enumerate(trajectories, start=1):
        lines.append(f"trajectory.{label}.{i} = {x0!r}:{t_end!r}:{samples}")
    lines.append(f"output.format = {fmt}")
    return "\n".join(lines) + "\n"


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _free(rng, n):
    k0 = _u(rng, 1.1, 1.3)
    return _config("free_particle", {"k0": k0}, {"x": (_u(rng, 0.9, 1.1), (-10.0, 10.0, n))})


def _harmonic(rng, n, order, trajectories=(), fmt="csv", spread=0.05):
    """Harmonic oscillator of Weber order ``order`` (an int selects the
    integer-order companion path; a float is used as given).  ``spread`` is
    the relative jitter of omega and k."""
    omega = _u(rng, 1.0 - spread, 1.0 + spread)
    energy = omega * (order + 0.5)  # nu = E/omega - 1/2 = order up to rounding
    return _config(
        "harmonic_oscillator",
        {"omega": omega, "E": energy},
        {"xi": (_u(rng, 1.0 - spread, 1.0 + spread), (-6.0, 6.0, n))},
        [("xi", *t) for t in trajectories],
        fmt,
    )


def _harmonic_narrow(rng, n, trajectories):
    """Harmonic at nu ~ 0.45 with 1 % jitter: a single trajectory's worst
    error moves by a digit across the wider ranges, too much for one sample."""
    return _harmonic(rng, n, _u(rng, 0.445, 0.455), trajectories, spread=0.01)


def _coulomb_params(rng, kappa_range):
    kappa, lam = _u(rng, *kappa_range), _u(rng, 0.95, 1.05)
    # Default Coulomb span z = 2 lam x in [0.05, 30].
    span = (0.05 / (2.0 * lam), 30.0 / (2.0 * lam))
    return {"alpha": kappa * lam, "E": -0.5 * lam * lam}, span


def _coulomb(rng, n, kappa_range, trajectories=(), fmt="csv"):
    params, (lo, hi) = _coulomb_params(rng, kappa_range)
    return _config(
        "coulomb_halfline",
        params,
        {"x": (_u(rng, 0.95, 1.05), (lo, hi, n))},
        [("x", *t) for t in trajectories],
        fmt,
    )


def _two_center(rng, n, ell, parity, z_charge=1.0, mu_hi=3.0, trajectories=(), fmt="csv"):
    params = {
        "a": _u(rng, 0.98, 1.02),
        "Z": z_charge,
        "k_sq": _u(rng, 1.9, 2.1),
        "ell": ell,
        "parity": parity,
    }
    sectors = {
        "nu": (_u(rng, 0.95, 1.05), (0.0, TWO_PI, n)),
        "mu": (_u(rng, 0.95, 1.05), (0.0, mu_hi, n)),
    }
    return _config(
        "two_center_elliptic", params, sectors, [("mu", *t) for t in trajectories], fmt
    )


def _fan(rng, lo, hi, count, t_end, samples):
    """``count`` trajectory requests with start points spread over [lo, hi].

    ``t_end`` is not jittered: the integration cost grows with it.
    """
    step = (hi - lo) / (count - 1)
    return [
        (round(lo + i * step + rng.uniform(-0.1, 0.1) * step, 4), t_end, samples)
        for i in range(count)
    ]


def sweep(rng):
    n = 501
    return {
        "free": _free(rng, n),
        # One short trajectory keeps traj_digits and the trajectory layer
        # defined on this workload; it is a few percent of the iteration.
        "harmonic": _harmonic_narrow(rng, n, trajectories=[(_u(rng, -2.01, -1.99), 0.45, 201)]),
        "harmonic_int_low": _harmonic(rng, n, rng.choice((0, 1))),
        "harmonic_int_high": _harmonic(rng, n, rng.choice((2, 3))),
        "coulomb": _coulomb(rng, n, (1.33, 1.42)),
        "two_center_0e": _two_center(rng, n, 0, "even"),
        "two_center_1o": _two_center(rng, n, 1, "odd"),
        # Z = 0 makes the radial sector pure modified Mathieu (series basis).
        "two_center_z0_2e": _two_center(rng, n, 2, "even", z_charge=0.0, mu_hi=2.0),
    }


def trajectories(rng):
    n, samples = 501, 201
    return {
        "harmonic": _harmonic(
            rng, n, _u(rng, 0.4, 0.6), trajectories=_fan(rng, -2.0, 1.5, 6, 0.3, samples)
        ),
        "coulomb": _coulomb(
            rng, n, (1.33, 1.42), trajectories=_fan(rng, 1.0, 5.0, 6, 0.6, samples)
        ),
        "two_center": _two_center(
            rng, n, 0, "even", trajectories=_fan(rng, 0.2, 1.0, 6, 0.06, samples)
        ),
    }


def dense_grid(rng):
    n, samples = 32001, 201
    return {
        "harmonic": _harmonic(
            rng, n, _u(rng, 0.45, 0.55), trajectories=[(_u(rng, -0.1, 0.1), 2.0, samples)]
        ),
        "coulomb": _coulomb(rng, n, (1.33, 1.42), trajectories=[(_u(rng, 2.0, 2.2), 2.0, samples)]),
        "two_center": _two_center(
            rng, n, 0, "even", trajectories=[(_u(rng, 0.4, 0.45), 0.4, samples)],
            fmt="json-lines",
        ),
    }


_GENERATORS = {"sweep": sweep, "trajectories": trajectories, "dense_grid": dense_grid}


def generate(workload: str, seed: int) -> dict[str, str]:
    """Config name -> config text; the same (workload, seed) gives the same text."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def write_configs(workload: str, seed: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in generate(workload, seed).items():
        path = directory / f"{name}.cfg"
        path.write_text(text)
        paths.append(path)
    return paths
