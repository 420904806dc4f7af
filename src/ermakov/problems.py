"""Preset assembly of the worked problems.

Maps physical parameters onto per-sector frequency profiles, fundamental
pair recipes, and default quadratic-form data:

* free_particle       cartesian x, trigonometric basis, Omega^2 = k0^2
* harmonic_oscillator dimensionless xi = sqrt(m w / hbar) x, Weber basis of
                      order nu = E/(hbar w) - 1/2
* coulomb_halfline    half-line x, Whittaker basis with lam = sqrt(-2mE)/hbar
                      and index kappa = m alpha / (hbar^2 lam), E < 0
* two_center_elliptic confocal elliptic (mu, nu); angular sector rewrites to
                      the Mathieu form a_M - 2 q_M cos 2nu with
                      a_M = -(Gamma + a^2 k^2 / 2), q_M = a^2 k^2 / 4

The harmonic and two-center sectors work in their dimensionless coordinates,
so their sector flux constants are interpreted in the same normalized units.
Both two-center sectors carry unit weight, hence R = rho there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .bases import BasisKind, mathieu_char_value
from .catalog import FrequencyProfile, SectorSpec, Weight
from .errors import ConfigurationError
from .linear import (
    DEFAULT_SETTINGS,
    FundamentalPair,
    IntegrationSettings,
    fundamental_pair,
)

KINDS = ("free_particle", "harmonic_oscillator", "coulomb_halfline", "two_center_elliptic")

_REQUIRED = {
    "free_particle": ("k0",),
    "harmonic_oscillator": ("omega", "E"),
    "coulomb_halfline": ("alpha", "E"),
    "two_center_elliptic": ("a", "Z"),
}

# every parameter each kind accepts (README, "Problem parameters by kind")
_PARAMETERS = {
    "free_particle": ("k0",),
    "harmonic_oscillator": ("omega", "E"),
    "coulomb_halfline": ("alpha", "E"),
    "two_center_elliptic": ("a", "Z", "E", "k_sq", "Gamma", "ell", "parity", "e2"),
}

_DEFAULT_GRIDS = {
    "free_particle": {"x": (-10.0, 10.0, 2001)},
    "harmonic_oscillator": {"xi": (-6.0, 6.0, 2001)},
    "coulomb_halfline": {"x": None},  # depends on lam, filled in build_problem
    "two_center_elliptic": {"nu": (0.0, 2.0 * math.pi, 2001), "mu": (0.0, 3.0, 2001)},
}


@dataclass(frozen=True)
class ProblemSpec:
    """Problem kind plus physical parameters and per-sector requests."""

    kind: str
    m: float = 1.0
    hbar: float = 1.0
    params: Mapping[str, float] = field(default_factory=dict)
    flux: Mapping[str, float] = field(default_factory=dict)  # label -> C
    k_sector: Mapping[str, float] = field(default_factory=dict)  # label -> k override
    grids: Mapping[str, tuple[float, float, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown problem kind {self.kind!r}; valid kinds: {', '.join(KINDS)}"
            )
        if self.m <= 0 or self.hbar <= 0:
            raise ConfigurationError("m and hbar must be positive")
        unknown = sorted(set(self.params) - set(_PARAMETERS[self.kind]))
        if unknown:
            raise ConfigurationError(
                f"{self.kind}: unknown parameters {unknown};"
                f" accepted: {', '.join(_PARAMETERS[self.kind])}"
            )
        missing = [n for n in _REQUIRED[self.kind] if n not in self.params]
        if self.kind == "two_center_elliptic":
            if "E" not in self.params and "k_sq" not in self.params:
                missing.append("E|k_sq")
            if "Gamma" not in self.params and "ell" not in self.params:
                missing.append("Gamma|ell")
            if "Gamma" in self.params and "ell" in self.params:
                raise ConfigurationError(
                    "two-center spec: give either Gamma or (ell, parity), not both"
                )
            ell = self.params.get("ell", 0)
            if ell < 0 or ell != int(ell):
                raise ConfigurationError(
                    f"two-center order ell must be a nonnegative integer, got {ell!r}"
                )
        if missing:
            raise ConfigurationError(f"{self.kind}: missing parameters {missing}")
        for name, value in self.params.items():
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ConfigurationError(f"parameter {name!r} must be finite, got {value!r}")

    def param(self, name: str, default: float | None = None) -> float:
        if name in self.params:
            return self.params[name]
        if default is None:
            raise ConfigurationError(f"{self.kind}: missing parameter {name!r}")
        return default


@dataclass(frozen=True)
class SectorSetup:
    """Everything needed to run one sector pipeline."""

    label: str
    sector: SectorSpec
    profile: FrequencyProfile
    grid: np.ndarray
    C: float
    k: float
    basis: BasisKind | None
    note: str = ""

    def build_pair(self, settings: IntegrationSettings = DEFAULT_SETTINGS) -> FundamentalPair:
        if self.basis is not None:
            return self.basis.build(self.grid, settings)
        lo, hi = float(self.grid[0]), float(self.grid[-1])
        anchor = float(self.grid[len(self.grid) // 2])
        return fundamental_pair(self.profile, (lo, hi), anchor, settings, grid=self.grid)


def _resolve_grid(spec: ProblemSpec, label: str, default: tuple[float, float, int]):
    lo, hi, n = spec.grids.get(label, default)
    if not lo < hi or n < 2:
        raise ConfigurationError(f"sector {label!r}: bad grid request {(lo, hi, n)!r}")
    return np.linspace(lo, hi, int(n))


def _resolve_flux(
    spec: ProblemSpec, label: str, default_k: float, hbar_sector: float
) -> tuple[float, float]:
    """(C, k) for a sector, honoring overrides; k = (C / hbar)^2 throughout.

    ``hbar_sector`` is 1 for sectors posed in dimensionless coordinates,
    where the flux constant is read in the same normalized units.
    """
    if label in spec.k_sector:
        k = float(spec.k_sector[label])
        if k < 0:
            raise ConfigurationError(f"sector {label!r}: k must be >= 0")
        c = hbar_sector * math.sqrt(k)
        if label in spec.flux:
            c_given = float(spec.flux[label])
            if abs((c_given / hbar_sector) * (c_given / hbar_sector) - k) > 1e-12 * max(1.0, k):
                raise ConfigurationError(
                    f"sector {label!r}: flux C = {c_given!r} and k = {k!r} are inconsistent"
                )
            c = c_given
        return c, k
    if label in spec.flux:
        c = float(spec.flux[label])
        k = (c / hbar_sector) * (c / hbar_sector)
        if not math.isfinite(k):
            raise ConfigurationError(f"sector {label!r}: k = (C / hbar)^2 overflows for C = {c!r}")
        return c, k
    return hbar_sector * math.sqrt(default_k), default_k


@dataclass(frozen=True)
class TwoCenterFrequencies:
    """Separated two-center frequency descriptors and the Mathieu rewrite."""

    omega2_mu: Callable[[np.ndarray], np.ndarray]
    omega2_nu: Callable[[np.ndarray], np.ndarray]
    a_M: float
    q_M: float


def two_center_frequencies(
    a: float, k_sq: float, gamma: float, Z: float, Gamma: float
) -> TwoCenterFrequencies:
    """Radial and angular frequency profiles of the two-center problem.

    Omega_mu^2 = a^2 k^2 cosh^2 mu + 2 gamma Z cosh mu + Gamma  (mu >= 0)
    Omega_nu^2 = -a^2 k^2 cos^2 nu - Gamma                       (0 <= nu < 2 pi)

    The angular part equals a_M - 2 q_M cos 2 nu with
    a_M = -(Gamma + a^2 k^2 / 2) and q_M = a^2 k^2 / 4.
    """
    if a <= 0:
        raise ConfigurationError(f"focal half-distance a must be positive, got {a!r}")
    ak2 = a**2 * k_sq

    def omega2_mu(mu):
        ch = np.cosh(np.asarray(mu, dtype=float))
        return ak2 * ch**2 + 2.0 * gamma * Z * ch + Gamma

    def omega2_nu(nu):
        cs = np.cos(np.asarray(nu, dtype=float))
        return -ak2 * cs**2 - Gamma

    return TwoCenterFrequencies(omega2_mu, omega2_nu, -(Gamma + 0.5 * ak2), 0.25 * ak2)


def build_problem(spec: ProblemSpec) -> list[SectorSetup]:
    """Wire a problem spec into per-sector setups ready for the pipeline."""
    m, hbar = spec.m, spec.hbar

    if spec.kind == "free_particle":
        k0 = spec.param("k0")
        if k0 == 0:
            raise ConfigurationError("free particle needs k0 != 0")
        sector = SectorSpec("x", (-math.inf, math.inf), Weight.unit())
        profile = FrequencyProfile(
            sector=sector,
            m=m,
            hbar=hbar,
            E_sector=hbar**2 * k0**2 / (2.0 * m),
            constants={"k0": k0},
        )
        grid = _resolve_grid(spec, "x", _DEFAULT_GRIDS[spec.kind]["x"])
        c, k = _resolve_flux(spec, "x", default_k=k0**2, hbar_sector=hbar)
        return [SectorSetup("x", sector, profile, grid, c, k, BasisKind.trig(k0))]

    if spec.kind == "harmonic_oscillator":
        omega, energy = spec.param("omega"), spec.param("E")
        if omega <= 0:
            raise ConfigurationError("harmonic oscillator needs omega > 0")
        nu = energy / (hbar * omega) - 0.5
        sector = SectorSpec("xi", (-math.inf, math.inf), Weight.unit())
        profile = FrequencyProfile(
            sector=sector,
            E_sector=0.5 * (nu + 0.5),
            V_sector=lambda xi: 0.125 * np.asarray(xi, dtype=float) ** 2,
            constants={"nu": nu, "omega": omega, "E_phys": energy},
        )
        grid = _resolve_grid(spec, "xi", _DEFAULT_GRIDS[spec.kind]["xi"])
        c, k = _resolve_flux(spec, "xi", default_k=1.0, hbar_sector=1.0)
        note = "dimensionless coordinate xi = sqrt(m omega / hbar) x"
        return [SectorSetup("xi", sector, profile, grid, c, k, BasisKind.weber(nu), note)]

    if spec.kind == "coulomb_halfline":
        alpha, energy = spec.param("alpha"), spec.param("E")
        if energy >= 0:
            raise ConfigurationError(
                "coulomb preset expects a bound-branch energy E < 0 (sets lam)"
            )
        lam = math.sqrt(-2.0 * m * energy) / hbar
        kappa = m * alpha / (hbar**2 * lam)
        sector = SectorSpec("x", (0.0, math.inf), Weight.unit())
        profile = FrequencyProfile(
            sector=sector,
            m=m,
            hbar=hbar,
            E_sector=energy,
            V_sector=lambda x: -alpha / np.asarray(x, dtype=float),
            constants={"alpha": alpha, "lam": lam, "kappa": kappa},
        )
        default = (0.05 / (2.0 * lam), 30.0 / (2.0 * lam), 2001)
        grid = _resolve_grid(spec, "x", default)
        if grid[0] <= 0:
            raise ConfigurationError("coulomb grid must start at x > 0")
        c, k = _resolve_flux(spec, "x", default_k=1.0, hbar_sector=hbar)
        return [
            SectorSetup(
                "x", sector, profile, grid, c, k, BasisKind.whittaker(kappa, lam),
                note="Whittaker argument z = 2 lam x",
            )
        ]

    # two_center_elliptic
    a = spec.param("a")
    z_charge = spec.param("Z")
    e2 = spec.param("e2", 1.0)
    if a <= 0:
        raise ConfigurationError("two-center spec needs focal half-distance a > 0")
    k_sq = spec.params.get("k_sq", 2.0 * m * spec.params.get("E", 0.0) / hbar**2)
    gamma = 2.0 * m * e2 * a / hbar**2
    q_m = a**2 * k_sq / 4.0
    ell = spec.params.get("ell")
    parity = spec.params.get("parity", "even")
    if ell is not None:
        ell = int(ell)
        a_m = mathieu_char_value(ell, parity, q_m)
        big_gamma = -a_m - 0.5 * a**2 * k_sq
    else:
        big_gamma = spec.param("Gamma")
        a_m = -(big_gamma + 0.5 * a**2 * k_sq)
    freqs = two_center_frequencies(a, k_sq, gamma, z_charge, big_gamma)

    nu_sector = SectorSpec("nu", (0.0, 2.0 * math.pi), Weight.unit())
    nu_profile = FrequencyProfile(
        sector=nu_sector,
        V_sector=lambda nu: -0.5 * freqs.omega2_nu(nu),
        constants={"a_M": a_m, "q_M": q_m, "Gamma": big_gamma},
    )
    mu_sector = SectorSpec("mu", (0.0, math.inf), Weight.unit())
    mu_profile = FrequencyProfile(
        sector=mu_sector,
        V_sector=lambda mu: -0.5 * freqs.omega2_mu(mu),
        constants={"Gamma": big_gamma, "gamma": gamma, "Z": z_charge, "q_M": q_m},
    )
    nu_grid = _resolve_grid(spec, "nu", _DEFAULT_GRIDS[spec.kind]["nu"])
    mu_grid = _resolve_grid(spec, "mu", _DEFAULT_GRIDS[spec.kind]["mu"])
    c_nu, k_nu = _resolve_flux(spec, "nu", default_k=1.0, hbar_sector=1.0)
    c_mu, k_mu = _resolve_flux(spec, "mu", default_k=1.0, hbar_sector=1.0)

    nu_basis = BasisKind.mathieu(ell, parity, q_m) if ell is not None else None
    mu_basis = None
    if ell is not None and (z_charge == 0.0 or e2 == 0.0):
        # Without the charge term the radial equation is pure modified Mathieu.
        mu_basis = BasisKind.mathieu(ell, parity, q_m, modified=True)

    return [
        SectorSetup("nu", nu_sector, nu_profile, nu_grid, c_nu, k_nu, nu_basis),
        SectorSetup(
            "mu", mu_sector, mu_profile, mu_grid, c_mu, k_mu, mu_basis,
            note="radial sector; charge term makes it non-Mathieu unless Z = 0",
        ),
    ]
