"""Preset assembly of the worked problems.

:data:`KINDS` states each kind's parameters, sectors and builder, which maps
them onto per-sector profiles and pair recipes.  Each sector is stated once,
by its ``profile`` (coordinate, units m and hbar, and Omega_phys^2), and one
pair builder bound here integrates at least one column against that
profile, beside any closed-form or series column:

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
same normalized units.  The free-particle x and the two-center nu and mu
sectors are the catalog's (cartesian, elliptic_cylinder): unit weight, R = rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bases import mathieu_char_value, mathieu_pair, trig_pair, weber_pair, whittaker_pair
from .catalog import FrequencyProfile, SectorSpec, Weight, lookup_system
from .errors import ConfigurationError
from .linear import (
    DEFAULT_SETTINGS,
    FundamentalPair,
    IntegrationSettings,
    fundamental_pair,
)
from .pinney import check_override

# problem parameters whose values are text (every other one is a number)
TEXT_PARAMETERS = ("parity",)


@dataclass(frozen=True)
class SectorRequest:
    """What a run asks of one sector, each part optional: the flux constant
    C and k = (C / hbar)^2, the grid (lo, hi, n), a quadratic-form override
    {A, B} or {A, B, D}, and trajectories (x0, t_end, n)."""

    C: float | None = None
    k: float | None = None
    grid: tuple[float, float, int] | None = None
    form: Mapping[str, float] = field(default_factory=dict)
    trajectories: tuple[tuple[float, float, int], ...] = ()


@dataclass(frozen=True)
class ProblemSpec:
    """Problem kind plus physical parameters and per-sector requests; the
    kind's entry in :data:`KINDS` decides which of them it accepts."""

    kind: str
    m: float = 1.0
    hbar: float = 1.0
    params: Mapping[str, float | str] = field(default_factory=dict)
    sectors: Mapping[str, SectorRequest] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown problem kind {self.kind!r}; valid kinds: {', '.join(KINDS)}"
            )
        kind = KINDS[self.kind]
        if self.m <= 0 or self.hbar <= 0:
            raise ConfigurationError("m and hbar must be positive")
        groups = [name if isinstance(name, tuple) else (name,) for name in kind.required]
        accepted = [name for group in groups for name in group] + list(kind.optional)
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ConfigurationError(
                f"{self.kind}: unknown parameters {unknown}; accepted: {', '.join(accepted)}"
            )
        missing = []
        for group in groups:
            given = [name for name in group if name in self.params]
            if len(given) > 1:
                raise ConfigurationError(f"{self.kind}: give only one of {'|'.join(group)}")
            if not given:
                missing.append("|".join(group))
        if missing:
            raise ConfigurationError(f"{self.kind}: missing parameters {missing}")
        for name, value in self.params.items():
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ConfigurationError(f"parameter {name!r} must be finite, got {value!r}")
        for label, request in self.sectors.items():
            if label not in kind.sectors:
                raise ConfigurationError(
                    f"config references unknown sector {label!r}; sectors: {sorted(kind.sectors)}"
                )
            if request.form:  # the same rules PinneyCoefficients.of applies in a run
                try:
                    check_override(request.form)
                except ConfigurationError as exc:
                    raise ConfigurationError(f"sector {label!r}: {exc}") from None


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
    ``form`` and ``trajectories`` are as in :class:`SectorRequest`.
    """

    profile: FrequencyProfile
    grid: np.ndarray
    C: float
    k: float
    pair_builder: Callable[..., FundamentalPair]
    form: Mapping[str, float] = field(default_factory=dict)
    trajectories: tuple[tuple[float, float, int], ...] = ()

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


def _sector(spec: ProblemSpec, profile: FrequencyProfile, default_grid, pair_builder,
            default_k: float = 1.0) -> SectorSetup:
    """The setup of ``profile``'s sector under its request in ``spec``: k =
    (C / hbar)^2 throughout, in the profile's hbar (1 in dimensionless
    coordinates), is a normal double in an open sector (C != 0), and each
    trajectory's x0 lies on the grid."""
    label, hbar = profile.sector.label, profile.hbar
    _finite("hbar^2 / 2m", lambda: hbar * hbar / (2.0 * profile.m))  # the prefactor of Q
    request = spec.sectors.get(label, SectorRequest())
    lo, hi, n = request.grid or default_grid
    if not lo < hi or n < 2:
        raise ConfigurationError(f"sector {label!r}: bad grid request {(lo, hi, n)!r}")
    if not math.isfinite(hi - lo):
        raise ConfigurationError(f"sector {label!r}: grid span {lo!r}:{hi!r} overflows")
    grid = np.linspace(lo, hi, int(n))
    k = float(default_k if request.k is None else request.k)
    if k < 0:
        raise ConfigurationError(f"sector {label!r}: k must be >= 0")
    c = hbar * math.sqrt(k)
    if request.C is not None:
        c = float(request.C)
        if request.k is None:
            k = (c / hbar) * (c / hbar)
        elif abs((c / hbar) * (c / hbar) - k) > 1e-12 * k:
            raise ConfigurationError(
                f"sector {label!r}: flux C = {c!r} and k = {k!r} are inconsistent"
            )
    if c != 0.0 and not np.finfo(float).tiny <= k < math.inf:
        raise ConfigurationError(
            f"sector {label!r}: k = (C / hbar)^2 = {k!r} for C = {c!r} is not a normal double"
        )
    for x0, _, _ in request.trajectories:
        if not lo <= x0 <= hi:
            raise ConfigurationError(
                f"trajectory.{label}: x0 = {x0!r} outside the field grid [{lo}, {hi}]"
            )
    return SectorSetup(profile, grid, c, k, pair_builder, request.form, request.trajectories)


def _free_particle(spec: ProblemSpec) -> list[SectorSetup]:
    m, hbar, k0 = spec.m, spec.hbar, spec.params["k0"]
    k0_sq = _finite("k0^2", lambda: k0**2)
    if k0_sq == 0.0:  # the pair's Wronskian is k0, and W^2 would be 0
        raise ConfigurationError(f"free particle needs k0^2 > 0, got k0 = {k0!r}")
    e_sector = _finite("E_sector", lambda: hbar**2 * k0_sq / (2.0 * m))
    omega2 = _finite("2 m / hbar^2", lambda: 2.0 * m / hbar**2) * e_sector
    profile = FrequencyProfile(lookup_system("cartesian").sector("x"), lambda x: omega2, m, hbar)
    return [_sector(spec, profile, (-10.0, 10.0, 2001), partial(trig_pair, k0), k0_sq)]


def _harmonic_oscillator(spec: ProblemSpec) -> list[SectorSetup]:
    omega, energy = spec.params["omega"], spec.params["E"]
    if omega <= 0:
        raise ConfigurationError("harmonic oscillator needs omega > 0")
    nu = _finite("nu", lambda: energy / (spec.hbar * omega) - 0.5)
    e_sector = 0.5 * (nu + 0.5)
    sector = SectorSpec("xi", (-math.inf, math.inf), Weight.unit())
    profile = FrequencyProfile(sector, lambda xi: 2.0 * (e_sector - 0.125 * xi**2))
    return [_sector(spec, profile, (-6.0, 6.0, 2001), partial(weber_pair, nu))]


def _coulomb_halfline(spec: ProblemSpec) -> list[SectorSetup]:
    m, hbar = spec.m, spec.hbar
    alpha, energy = spec.params["alpha"], spec.params["E"]
    if energy >= 0:
        raise ConfigurationError("coulomb preset expects a bound-branch energy E < 0 (sets lam)")
    lam = _finite("lam", lambda: math.sqrt(-2.0 * m * energy) / hbar)
    kappa = _finite("kappa", lambda: m * alpha / (hbar**2 * lam))
    scale = _finite("2 m / hbar^2", lambda: 2.0 * m / hbar**2)
    sector = SectorSpec("x", (0.0, math.inf), Weight.unit())
    profile = FrequencyProfile(sector, lambda x: scale * (energy + alpha / x), m, hbar)
    default = (0.05 / (2.0 * lam), 30.0 / (2.0 * lam), 2001)
    setup = _sector(spec, profile, default, partial(whittaker_pair, kappa, lam))
    if setup.grid[0] <= 0:
        raise ConfigurationError("coulomb grid must start at x > 0")
    return [setup]


def _two_center_elliptic(spec: ProblemSpec) -> list[SectorSetup]:
    m, hbar, params = spec.m, spec.hbar, spec.params
    a, z_charge, e2 = params["a"], params["Z"], params.get("e2", 1.0)
    ell, parity = params.get("ell"), params.get("parity", "even")
    if ell is None and "parity" in params:
        raise ConfigurationError("two-center spec: parity is given without ell")
    if ell is not None and (ell < 0 or ell != int(ell)):
        raise ConfigurationError(f"two-center order ell = {ell!r} is not a nonnegative integer")
    if a <= 0:
        raise ConfigurationError("two-center spec needs focal half-distance a > 0")
    if "k_sq" in params:
        k_sq = params["k_sq"]
    else:
        k_sq = _finite("k_sq", lambda: 2.0 * m * params["E"] / hbar**2)
    gamma = _finite("gamma", lambda: 2.0 * m * e2 * a / hbar**2)
    ak2 = _finite("a^2 k^2", lambda: a**2 * k_sq)
    q_m = ak2 / 4.0
    nu_pair = mu_pair = _midpoint_pair
    if ell is None:
        big_gamma = params["Gamma"]
    else:
        ell = int(ell)
        a_m = mathieu_char_value(ell, parity, q_m)
        big_gamma = -a_m - 0.5 * ak2
        nu_pair = partial(mathieu_pair, ell, q_m, parity=parity, a=a_m)
        if z_charge == 0.0 or e2 == 0.0:
            # Without the charge term the radial equation is pure modified Mathieu.
            mu_pair = partial(mathieu_pair, ell, q_m, modified=True, parity=parity, a=a_m)

    def omega2_mu(mu):
        ch = np.cosh(mu)
        return ak2 * ch**2 + 2.0 * gamma * z_charge * ch + big_gamma

    system = lookup_system("elliptic_cylinder")
    nu_profile = FrequencyProfile(system.sector("nu"), lambda nu: -ak2 * np.cos(nu) ** 2 - big_gamma)
    mu_profile = FrequencyProfile(system.sector("mu"), omega2_mu)
    return [
        _sector(spec, nu_profile, (0.0, 2.0 * math.pi, 2001), nu_pair),
        _sector(spec, mu_profile, (0.0, 3.0, 2001), mu_pair),
    ]


class Kind(NamedTuple):
    """One problem kind: the parameters it requires (a tuple among them
    means exactly one of those names) and accepts besides, its sector
    labels, and ``build(spec)``, which returns its sector setups."""

    required: tuple
    optional: tuple[str, ...]
    sectors: tuple[str, ...]
    build: Callable[[ProblemSpec], list[SectorSetup]]


# the one schema of every problem kind (README, "Problem parameters by kind")
KINDS = {
    "free_particle": Kind(("k0",), (), ("x",), _free_particle),
    "harmonic_oscillator": Kind(("omega", "E"), (), ("xi",), _harmonic_oscillator),
    "coulomb_halfline": Kind(("alpha", "E"), (), ("x",), _coulomb_halfline),
    "two_center_elliptic": Kind(
        ("a", "Z", ("E", "k_sq"), ("Gamma", "ell")), ("parity", "e2"), ("nu", "mu"),
        _two_center_elliptic,
    ),
}


def build_problem(spec: ProblemSpec) -> list[SectorSetup]:
    """Wire a problem spec into per-sector setups ready for the pipeline."""
    return KINDS[spec.kind].build(spec)
