"""Preset assembly of the worked problems.

Maps physical parameters onto per-sector frequency profiles, fundamental
pair recipes, and default quadratic-form data.  Each sector is stated once,
by its ``profile`` (coordinate, units m and hbar, and Omega_phys^2), and one
pair builder bound here integrates every column without a closed form
against that profile:

* free_particle       cartesian x, trigonometric basis, Omega^2 = k0^2
* harmonic_oscillator dimensionless xi = sqrt(m w / hbar) x, Weber basis of
                      order nu = E/(hbar w) - 1/2
* coulomb_halfline    half-line x, Whittaker basis with lam = sqrt(-2mE)/hbar
                      and index kappa = m alpha / (hbar^2 lam), E < 0
* two_center_elliptic confocal elliptic (mu, nu) with Omega_mu^2 =
                      a^2 k^2 cosh^2 mu + 2 gamma Z cosh mu + Gamma and
                      Omega_nu^2 = -a^2 k^2 cos^2 nu - Gamma, the Mathieu form
                      a_M - 2 q_M cos 2nu with a_M = -(Gamma + a^2 k^2 / 2),
                      q_M = a^2 k^2 / 4; Mathieu pairs given (ell, parity),
                      identity-data pairs given Gamma or a charge term in the
                      radial sector

Every parameter derived from the physical ones (nu, lam, kappa, q_M, ...)
must come out finite: an overflow or a division by zero while deriving it
is a configuration error.

The harmonic and two-center sectors work in their dimensionless coordinates
(their profiles take m = hbar = 1), so their flux constants are read in the
same normalized units.  Both two-center sectors carry unit weight, R = rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .bases import mathieu_char_value, mathieu_pair, trig_pair, weber_pair, whittaker_pair
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


def _midpoint_pair(
    profile: FrequencyProfile, grid: np.ndarray, settings: IntegrationSettings = DEFAULT_SETTINGS
) -> FundamentalPair:
    """Identity-data pair of ``profile`` anchored at the middle grid point."""
    return fundamental_pair(profile, grid, float(grid[len(grid) // 2]), settings)


@dataclass(frozen=True)
class SectorSetup:
    """Everything needed to run one sector pipeline.

    ``pair_builder(profile, grid, settings)`` builds the sector's fundamental
    pair; :meth:`build_pair` calls it with this sector's own profile and grid.
    """

    profile: FrequencyProfile
    grid: np.ndarray
    C: float
    k: float
    pair_builder: Callable[..., FundamentalPair]

    @property
    def sector(self) -> SectorSpec:
        return self.profile.sector

    @property
    def label(self) -> str:
        return self.profile.sector.label

    def build_pair(self, settings: IntegrationSettings = DEFAULT_SETTINGS) -> FundamentalPair:
        return self.pair_builder(self.profile, self.grid, settings)


def _finite(name: str, derive: Callable[[], float]) -> float:
    """The derived parameter ``derive()``: one that overflows, divides by
    zero or is not finite is a configuration error."""
    try:
        value = derive()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ConfigurationError(f"derived parameter {name} is out of range")
    return value


def _resolve_grid(spec: ProblemSpec, label: str, default: tuple[float, float, int]):
    lo, hi, n = spec.grids.get(label, default)
    if not lo < hi or n < 2:
        raise ConfigurationError(f"sector {label!r}: bad grid request {(lo, hi, n)!r}")
    return np.linspace(lo, hi, int(n))


def _resolve_flux(
    spec: ProblemSpec, profile: FrequencyProfile, default_k: float
) -> tuple[float, float]:
    """(C, k) for the sector of ``profile``, honoring overrides; k = (C / hbar)^2
    throughout, with the profile's hbar (1 in dimensionless coordinates)."""
    label, hbar = profile.sector.label, profile.hbar
    if label in spec.k_sector:
        k = float(spec.k_sector[label])
        if k < 0:
            raise ConfigurationError(f"sector {label!r}: k must be >= 0")
        c = hbar * math.sqrt(k)
        if label in spec.flux:
            c_given = float(spec.flux[label])
            if abs((c_given / hbar) * (c_given / hbar) - k) > 1e-12 * max(1.0, k):
                raise ConfigurationError(
                    f"sector {label!r}: flux C = {c_given!r} and k = {k!r} are inconsistent"
                )
            c = c_given
        return c, k
    if label in spec.flux:
        c = float(spec.flux[label])
        k = (c / hbar) * (c / hbar)
        if not math.isfinite(k):
            raise ConfigurationError(f"sector {label!r}: k = (C / hbar)^2 overflows for C = {c!r}")
        return c, k
    return hbar * math.sqrt(default_k), default_k


def build_problem(spec: ProblemSpec) -> list[SectorSetup]:
    """Wire a problem spec into per-sector setups ready for the pipeline."""
    m, hbar = spec.m, spec.hbar

    if spec.kind == "free_particle":
        k0 = spec.param("k0")
        if k0 == 0:
            raise ConfigurationError("free particle needs k0 != 0")
        k0_sq = _finite("k0^2", lambda: k0**2)
        if k0_sq == 0.0:  # the pair's Wronskian is k0, and W^2 would be 0
            raise ConfigurationError("derived parameter k0^2 underflows to 0")
        e_sector = _finite("E_sector", lambda: hbar**2 * k0_sq / (2.0 * m))
        omega2 = _finite("2 m / hbar^2", lambda: 2.0 * m / hbar**2) * e_sector
        sector = SectorSpec("x", (-math.inf, math.inf), Weight.unit())
        profile = FrequencyProfile(sector, lambda x: omega2, m, hbar)
        grid = _resolve_grid(spec, "x", _DEFAULT_GRIDS[spec.kind]["x"])
        c, k = _resolve_flux(spec, profile, default_k=k0_sq)
        pair = lambda _profile, grid, _settings: trig_pair(k0, grid)  # closed form
        return [SectorSetup(profile, grid, c, k, pair)]

    if spec.kind == "harmonic_oscillator":
        omega, energy = spec.param("omega"), spec.param("E")
        if omega <= 0:
            raise ConfigurationError("harmonic oscillator needs omega > 0")
        nu = _finite("nu", lambda: energy / (hbar * omega) - 0.5)
        e_sector = 0.5 * (nu + 0.5)
        sector = SectorSpec("xi", (-math.inf, math.inf), Weight.unit())
        profile = FrequencyProfile(sector, lambda xi: 2.0 * (e_sector - 0.125 * xi**2))
        grid = _resolve_grid(spec, "xi", _DEFAULT_GRIDS[spec.kind]["xi"])
        c, k = _resolve_flux(spec, profile, default_k=1.0)
        return [SectorSetup(profile, grid, c, k, partial(weber_pair, nu))]

    if spec.kind == "coulomb_halfline":
        alpha, energy = spec.param("alpha"), spec.param("E")
        if energy >= 0:
            raise ConfigurationError(
                "coulomb preset expects a bound-branch energy E < 0 (sets lam)"
            )
        lam = _finite("lam", lambda: math.sqrt(-2.0 * m * energy) / hbar)
        kappa = _finite("kappa", lambda: m * alpha / (hbar**2 * lam))
        scale = _finite("2 m / hbar^2", lambda: 2.0 * m / hbar**2)
        sector = SectorSpec("x", (0.0, math.inf), Weight.unit())
        profile = FrequencyProfile(sector, lambda x: scale * (energy + alpha / x), m, hbar)
        default = (0.05 / (2.0 * lam), 30.0 / (2.0 * lam), 2001)
        grid = _resolve_grid(spec, "x", default)
        if grid[0] <= 0:
            raise ConfigurationError("coulomb grid must start at x > 0")
        c, k = _resolve_flux(spec, profile, default_k=1.0)
        return [SectorSetup(profile, grid, c, k, partial(whittaker_pair, kappa, lam))]

    # two_center_elliptic
    a = spec.param("a")
    z_charge = spec.param("Z")
    e2 = spec.param("e2", 1.0)
    if a <= 0:
        raise ConfigurationError("two-center spec needs focal half-distance a > 0")
    if "k_sq" in spec.params:
        k_sq = spec.params["k_sq"]
    else:
        k_sq = _finite("k_sq", lambda: 2.0 * m * spec.params["E"] / hbar**2)
    gamma = _finite("gamma", lambda: 2.0 * m * e2 * a / hbar**2)
    ak2 = _finite("a^2 k^2", lambda: a**2 * k_sq)
    q_m = ak2 / 4.0
    ell = spec.params.get("ell")
    parity = spec.params.get("parity", "even")
    if ell is not None:
        ell = int(ell)
        a_m = mathieu_char_value(ell, parity, q_m)
        big_gamma = -a_m - 0.5 * ak2
    else:
        big_gamma = spec.param("Gamma")

    def omega2_mu(mu):
        ch = np.cosh(mu)
        return ak2 * ch**2 + 2.0 * gamma * z_charge * ch + big_gamma

    nu_profile = FrequencyProfile(
        SectorSpec("nu", (0.0, 2.0 * math.pi), Weight.unit()),
        lambda nu: -ak2 * np.cos(nu) ** 2 - big_gamma,
    )
    mu_profile = FrequencyProfile(SectorSpec("mu", (0.0, math.inf), Weight.unit()), omega2_mu)
    nu_grid = _resolve_grid(spec, "nu", _DEFAULT_GRIDS[spec.kind]["nu"])
    mu_grid = _resolve_grid(spec, "mu", _DEFAULT_GRIDS[spec.kind]["mu"])
    c_nu, k_nu = _resolve_flux(spec, nu_profile, default_k=1.0)
    c_mu, k_mu = _resolve_flux(spec, mu_profile, default_k=1.0)

    nu_pair = mu_pair = _midpoint_pair
    if ell is not None:
        nu_pair = partial(mathieu_pair, ell, q_m, parity=parity, a=a_m)
        if z_charge == 0.0 or e2 == 0.0:
            # Without the charge term the radial equation is pure modified Mathieu.
            mu_pair = partial(mathieu_pair, ell, q_m, modified=True, parity=parity, a=a_m)

    return [
        SectorSetup(nu_profile, nu_grid, c_nu, k_nu, nu_pair),
        SectorSetup(mu_profile, mu_grid, c_mu, k_mu, mu_pair),
    ]
