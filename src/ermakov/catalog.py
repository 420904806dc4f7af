"""Separable-coordinate catalog: weights and normal-form frequencies.

Each separated coordinate sector carries a positive Sturm-Liouville weight
s(q).  The substitution X = psi / sqrt(s) removes the first-derivative term
of the separated equation and leaves the normal form

    psi'' + Omega^2(q) psi = 0,

where the effective frequency splits into a purely geometric piece induced
by the rescaling and a physical piece,

    Omega^2      = Omega_geom^2 + Omega_phys^2,
    Omega_geom^2 = -s''/(2 s) + (s'/s)^2 / 4,
    Omega_phys^2 = (2 m / hbar^2) (E - V(q)),  one callable per profile.

Weights are stored as closed-form descriptors (not sampled arrays) so the
two derivatives entering Omega_geom^2 are exact.  The catalog covers the
standard orthogonal separable systems plus the confocal-quadric master
weight sqrt(|(a2 - q)(b2 - q)(c2 - q)|) whose degenerations generate the
remaining quadric family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, SingularEndpointError, UnknownSystemError

_SINGULAR_CUTOFF = 1e-12


class Weight:
    """Closed-form weight descriptor s(q) with exact log-derivatives.

    Every algebraic weight is s = prod |q - r|^p over its (root r, power p)
    pairs, so (ln s)' = sum p / (q - r) and (ln s)'' = -sum p / (q - r)^2:
    "unit" (s = 1) has no pairs, "power" (s = q^n) is (0, n), and "quadric"
    (s = sqrt(|(a2-q)(b2-q)(c2-q)|)) is (a2, 1/2), (b2, 1/2), (c2, 1/2).
    "sin" (s = sin q) is the one transcendental kind.
    """

    def __init__(self, kind: str, roots: tuple[tuple[float, float], ...] = (), **params):
        self.kind, self.roots, self.params = kind, tuple(roots), dict(params)

    def value(self, q):
        """s(q); accepts scalars or arrays."""
        q = np.asarray(q, dtype=float)
        if self.kind == "sin":
            return np.sin(q)
        return math.prod((np.abs(q - r) ** p for r, p in self.roots), start=np.ones_like(q))

    def dlog(self, q):
        """(ln s)'(q)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "sin":
            return np.cos(q) / np.sin(q)
        return sum((p / (q - r) for r, p in self.roots), np.zeros_like(q))

    def d2log(self, q):
        """(ln s)''(q)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "sin":
            return -1.0 / np.sin(q) ** 2
        return sum((-p / (q - r) ** 2 for r, p in self.roots), np.zeros_like(q))

    def geometric_omega2(self, q):
        """-(ln s)''/2 - ((ln s)')^2/4, the curvature shift of the rescaling."""
        return -0.5 * self.d2log(q) - 0.25 * self.dlog(q) ** 2

    def describe(self) -> tuple[str, str]:
        """(weight formula, geometric-frequency formula) display strings."""
        if self.kind == "unit":
            return "1", "0"
        if self.kind == "power":
            n = self.params["n"]
            coeff = n * (2 - n)
            s = "q" if n == 1 else f"q^{n}"
            return s, "0" if coeff == 0 else f"{coeff}/(4 q^2)"
        if self.kind == "sin":
            return "sin(q)", "1/4 + 1/(4 sin^2 q)"
        a2, b2, c2 = self.params["a2"], self.params["b2"], self.params["c2"]
        return (
            f"sqrt(|({a2} - q)({b2} - q)({c2} - q)|)",
            "-P''/(4P) + 3 P'^2/(16 P^2) with P the cubic under the root",
        )

    @classmethod
    def unit(cls) -> "Weight":
        return cls("unit")

    @classmethod
    def power(cls, n: int) -> "Weight":
        return cls("power", ((0.0, n),), n=n)

    @classmethod
    def sine(cls) -> "Weight":
        return cls("sin")

    @classmethod
    def quadric(cls, a2: float, b2: float, c2: float, interval: tuple[float, float]) -> "Weight":
        """The quadric weight on a branch interval, which may end on axis roots."""
        lo, hi = interval
        if any(lo < r < hi for r in (a2, b2, c2)):
            raise ConfigurationError(f"quadric branch interval [{lo}, {hi}] holds an axis root;"
                                     " choose an interval between adjacent roots")
        return cls("quadric", ((a2, 0.5), (b2, 0.5), (c2, 0.5)),
                   a2=a2, b2=b2, c2=c2, interval=(lo, hi))


def _detect_singular_endpoints(weight: Weight, domain: tuple[float, float]) -> tuple[float, ...]:
    """Endpoints where s -> 0 or s -> infinity, detected with a 1e-12 cutoff."""
    singular = []
    for endpoint in domain:
        if not math.isfinite(endpoint):
            # Non-constant weights are unbounded (or vanish) at infinity.
            if weight.kind != "unit":
                singular.append(endpoint)
            continue
        s = float(weight.value(endpoint))
        if not math.isfinite(s) or abs(s) < _SINGULAR_CUTOFF:
            singular.append(endpoint)
    return tuple(singular)


@dataclass(frozen=True)
class SectorSpec:
    """One separated coordinate sector.

    Attributes
    ----------
    label : str
        Coordinate name, e.g. "r", "theta", "mu".
    domain : (float, float)
        Closed interval of validity; infinite endpoints allowed.
    weight : Weight
        Closed-form weight descriptor, s(q) > 0 on the open interval.
    singular_endpoints : tuple of float
        Endpoints where s vanishes or diverges.
    """

    label: str
    domain: tuple[float, float]
    weight: Weight
    singular_endpoints: tuple[float, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ConfigurationError(f"sector {self.label!r}: empty domain {self.domain!r}")
        if self.singular_endpoints is None:
            object.__setattr__(
                self, "singular_endpoints", _detect_singular_endpoints(self.weight, self.domain)
            )

    def require_interior(self, q: float) -> None:
        lo, hi = self.domain
        if lo < q < hi:
            return
        # At or beyond an endpoint: report the singular one if applicable.
        endpoint = lo if q <= lo else hi
        if endpoint in self.singular_endpoints:
            raise SingularEndpointError(endpoint)
        raise ConfigurationError(
            f"sector {self.label!r}: q = {q!r} outside open domain ({lo}, {hi})"
        )


@dataclass(frozen=True)
class CoordinateSystem:
    """Named ordered collection of 1-3 sectors."""

    name: str
    sectors: tuple[SectorSpec, ...]

    def __post_init__(self):
        labels = [s.label for s in self.sectors]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"system {self.name!r}: duplicate sector labels {labels}")

    def sector(self, label: str) -> SectorSpec:
        for s in self.sectors:
            if s.label == label:
                return s
        raise ConfigurationError(
            f"system {self.name!r} has no sector {label!r};"
            f" labels: {[s.label for s in self.sectors]}"
        )


@dataclass(frozen=True)
class FrequencyProfile:
    """Effective frequency Omega^2(q) of one sector in normal form.

    The geometric part comes from the sector weight; ``physical`` maps an
    array of q to Omega_phys^2 = (2 m / hbar^2)(E - V(q)) in the sector's
    units, whose mass and Planck constant are ``m`` and ``hbar``.
    """

    sector: SectorSpec
    physical: Callable[[np.ndarray], np.ndarray]
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.m <= 0 or self.hbar <= 0:
            raise ConfigurationError("m and hbar must be positive")

    def omega2_array(self, q: np.ndarray) -> np.ndarray:
        """Vectorized Omega^2 without per-point domain checks."""
        q = np.asarray(q, dtype=float)
        return np.asarray(self.sector.weight.geometric_omega2(q) + self.physical(q), dtype=float)


def geometric_frequency(sector: SectorSpec, q: float) -> float:
    """Geometric frequency -(ln s)''/2 - ((ln s)')^2/4 at interior q."""
    sector.require_interior(float(q))
    return float(sector.weight.geometric_omega2(q))


# ---------------------------------------------------------------------------
# System table
# ---------------------------------------------------------------------------

_INF = math.inf


def _cartesian() -> CoordinateSystem:
    sectors = tuple(
        SectorSpec(label, (-_INF, _INF), Weight.unit()) for label in ("x", "y", "z")
    )
    return CoordinateSystem("cartesian", sectors)


def _cylindrical() -> CoordinateSystem:
    return CoordinateSystem(
        "cylindrical",
        (
            SectorSpec("r", (0.0, _INF), Weight.power(1)),
            SectorSpec("theta", (0.0, 2.0 * math.pi), Weight.unit()),
            SectorSpec("z", (-_INF, _INF), Weight.unit()),
        ),
    )


def _spherical() -> CoordinateSystem:
    return CoordinateSystem(
        "spherical",
        (
            SectorSpec("r", (0.0, _INF), Weight.power(2)),
            SectorSpec("theta", (0.0, math.pi), Weight.sine()),
            SectorSpec("phi", (0.0, 2.0 * math.pi), Weight.unit()),
        ),
    )


def _parabolic3d() -> CoordinateSystem:
    return CoordinateSystem(
        "parabolic3d",
        (
            SectorSpec("u", (0.0, _INF), Weight.power(1)),
            SectorSpec("v", (0.0, _INF), Weight.power(1)),
            SectorSpec("phi", (0.0, 2.0 * math.pi), Weight.unit()),
        ),
    )


def _elliptic_cylinder() -> CoordinateSystem:
    # Separation in these coordinates lands directly on normal-form (Mathieu)
    # equations, so both angular-like sectors carry unit weight; the joint
    # metric factor a*sqrt(sinh^2 mu + sin^2 nu) is not a per-sector weight.
    return CoordinateSystem(
        "elliptic_cylinder",
        (
            SectorSpec("mu", (0.0, _INF), Weight.unit()),
            SectorSpec("nu", (0.0, 2.0 * math.pi), Weight.unit()),
            SectorSpec("z", (-_INF, _INF), Weight.unit()),
        ),
    )


def _parabolic_cylinder() -> CoordinateSystem:
    return CoordinateSystem(
        "parabolic_cylinder",
        (
            SectorSpec("u", (-_INF, _INF), Weight.unit()),
            SectorSpec("v", (-_INF, _INF), Weight.unit()),
            SectorSpec("z", (-_INF, _INF), Weight.unit()),
        ),
    )


_DEFAULT_QUADRIC_AXES = (3.0, 2.0, 1.0)


def confocal_quadric_system(
    a2: float = _DEFAULT_QUADRIC_AXES[0],
    b2: float = _DEFAULT_QUADRIC_AXES[1],
    c2: float = _DEFAULT_QUADRIC_AXES[2],
    lambda_interval: tuple[float, float] | None = None,
) -> CoordinateSystem:
    """Confocal-quadric family with user-specified axis parameters.

    The three branch intervals are the standard ones separated by the axis
    roots; the unbounded lambda branch needs a finite upper cut (default
    a2 + (a2 - c2)).
    """
    if not a2 > b2 > c2:
        raise ConfigurationError(f"require a2 > b2 > c2, got ({a2}, {b2}, {c2})")
    if lambda_interval is None:
        lambda_interval = (a2, a2 + (a2 - c2))
    return CoordinateSystem(
        "confocal_quadric",
        (
            SectorSpec("lambda", lambda_interval, Weight.quadric(a2, b2, c2, lambda_interval)),
            SectorSpec("mu", (b2, a2), Weight.quadric(a2, b2, c2, (b2, a2))),
            SectorSpec("nu", (c2, b2), Weight.quadric(a2, b2, c2, (c2, b2))),
        ),
    )


_SYSTEM_BUILDERS: dict[str, Callable[[], CoordinateSystem]] = {
    "cartesian": _cartesian,
    "cylindrical": _cylindrical,
    "spherical": _spherical,
    "parabolic3d": _parabolic3d,
    "elliptic_cylinder": _elliptic_cylinder,
    "parabolic_cylinder": _parabolic_cylinder,
    "confocal_quadric": confocal_quadric_system,
}

CATALOG_KEYS: tuple[str, ...] = tuple(_SYSTEM_BUILDERS)


def lookup_system(name: str) -> CoordinateSystem:
    """Return the catalog system for ``name`` (immutable, safe to share)."""
    try:
        builder = _SYSTEM_BUILDERS[name]
    except KeyError:
        raise UnknownSystemError(name, CATALOG_KEYS) from None
    return builder()
