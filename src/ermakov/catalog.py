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
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, SingularEndpointError, UnknownSystemError


@dataclass(frozen=True, eq=False)
class Weight:
    """Closed-form weight descriptor s(q) with exact log-derivatives.

    Every algebraic weight is s = prod |q - r|^p over its (root r, power p)
    pairs, so (ln s)' = sum p / (q - r) and (ln s)'' = -sum p / (q - r)^2:
    "unit" (s = 1) has no pairs, "power" (s = q^n) is (0, n), and "quadric"
    (s = sqrt(|(a2-q)(b2-q)(c2-q)|)) is (a2, 1/2), (b2, 1/2), (c2, 1/2).
    "sin" (s = sin q) is the one transcendental kind.  A weight cannot be
    changed once it is made: its ``params`` is a read-only mapping.
    """

    kind: str
    roots: tuple[tuple[float, float], ...] = ()
    params: Mapping[str, object] = field(default_factory=lambda: MappingProxyType({}))

    def is_singular(self, q: float) -> bool:
        """Whether s vanishes or diverges at q: at a finite root of nonzero
        power, at a multiple of pi for sin, and at an infinite end for every
        weight but unit."""
        if math.isinf(q):
            return self.kind != "unit"
        if self.kind == "sin":
            return (q / math.pi).is_integer()
        return any(q == r and p != 0 for r, p in self.roots)

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
        return cls("power", ((0.0, n),), MappingProxyType({"n": n}))

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
        params = {"a2": a2, "b2": b2, "c2": c2, "interval": (lo, hi)}
        return cls("quadric", ((a2, 0.5), (b2, 0.5), (c2, 0.5)), MappingProxyType(params))


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
    """

    label: str
    domain: tuple[float, float]
    weight: Weight

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ConfigurationError(f"sector {self.label!r}: empty domain {self.domain!r}")

    @property
    def singular_endpoints(self) -> tuple[float, ...]:
        """Endpoints where s vanishes or diverges, read from the weight."""
        return tuple(q for q in self.domain if self.weight.is_singular(q))


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
        if self.sector.weight.kind == "unit":  # its curvature term is -0.0, and x + -0.0 == x
            return np.broadcast_to(np.asarray(self.physical(q), dtype=float), q.shape).copy()
        return np.asarray(self.sector.weight.geometric_omega2(q) + self.physical(q), dtype=float)


def geometric_frequency(sector: SectorSpec, q: float) -> float:
    """Geometric frequency -(ln s)''/2 - ((ln s)')^2/4 at interior q."""
    q = float(q)
    lo, hi = sector.domain
    if not lo < q < hi:
        # At or beyond an endpoint: report the singular one if applicable.
        endpoint = lo if q <= lo else hi
        if sector.weight.is_singular(endpoint):
            raise SingularEndpointError(endpoint)
        raise ConfigurationError(
            f"sector {sector.label!r}: q = {q!r} outside open domain ({lo}, {hi})"
        )
    return float(sector.weight.geometric_omega2(q))


# ---------------------------------------------------------------------------
# System table
# ---------------------------------------------------------------------------

_INF = math.inf
_FREE = (-_INF, _INF)
_HALF = (0.0, _INF)
_TURN = (0.0, 2.0 * math.pi)


def confocal_quadric_system(a2: float = 3.0, b2: float = 2.0, c2: float = 1.0) -> CoordinateSystem:
    """Confocal-quadric family with user-specified axis parameters.

    The three branch intervals are the standard ones separated by the axis
    roots; the unbounded lambda branch is cut at a2 + (a2 - c2).
    """
    if not a2 > b2 > c2:
        raise ConfigurationError(f"require a2 > b2 > c2, got ({a2}, {b2}, {c2})")
    branches = (("lambda", (a2, a2 + (a2 - c2))), ("mu", (b2, a2)), ("nu", (c2, b2)))
    return CoordinateSystem("confocal_quadric", tuple(
        SectorSpec(label, interval, Weight.quadric(a2, b2, c2, interval))
        for label, interval in branches
    ))


_SYSTEMS: dict[str, CoordinateSystem] = {system.name: system for system in (
    CoordinateSystem("cartesian", tuple(SectorSpec(x, _FREE, Weight.unit()) for x in "xyz")),
    CoordinateSystem("cylindrical", (
        SectorSpec("r", _HALF, Weight.power(1)),
        SectorSpec("theta", _TURN, Weight.unit()),
        SectorSpec("z", _FREE, Weight.unit()),
    )),
    CoordinateSystem("spherical", (
        SectorSpec("r", _HALF, Weight.power(2)),
        SectorSpec("theta", (0.0, math.pi), Weight.sine()),
        SectorSpec("phi", _TURN, Weight.unit()),
    )),
    CoordinateSystem("parabolic3d", (
        SectorSpec("u", _HALF, Weight.power(1)),
        SectorSpec("v", _HALF, Weight.power(1)),
        SectorSpec("phi", _TURN, Weight.unit()),
    )),
    # Separation in these coordinates lands directly on normal-form (Mathieu)
    # equations, so both angular-like sectors carry unit weight; the joint
    # metric factor a*sqrt(sinh^2 mu + sin^2 nu) is not a per-sector weight.
    CoordinateSystem("elliptic_cylinder", (
        SectorSpec("mu", _HALF, Weight.unit()),
        SectorSpec("nu", _TURN, Weight.unit()),
        SectorSpec("z", _FREE, Weight.unit()),
    )),
    CoordinateSystem("parabolic_cylinder", tuple(
        SectorSpec(x, _FREE, Weight.unit()) for x in ("u", "v", "z")
    )),
    confocal_quadric_system(),
)}

CATALOG_KEYS: tuple[str, ...] = tuple(_SYSTEMS)


def lookup_system(name: str) -> CoordinateSystem:
    """Return the catalog system for ``name`` (immutable, safe to share)."""
    try:
        return _SYSTEMS[name]
    except KeyError:
        raise UnknownSystemError(name, CATALOG_KEYS) from None
