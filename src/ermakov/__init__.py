"""Exact stationary guiding fields for separable problems.

Reduces each separated coordinate sector to Liouville normal form, solves
the linear partner equation y'' + Omega^2(q) y = 0, assembles amplitude
solutions of rho'' + Omega^2 rho = k/rho^3 by quadratic-form superposition,
and certifies conservation of the Ermakov-Lewis invariant along the
coordinate.
"""

from .bases import (
    gamma,
    mathieu_char_value,
    mathieu_pair,
    trig_pair,
    weber_pair,
    whittaker_pair,
)
from .catalog import (
    CATALOG_KEYS,
    CoordinateSystem,
    FrequencyProfile,
    SectorSpec,
    Weight,
    effective_frequency,
    geometric_frequency,
    lookup_system,
)
from .errors import EngineError
from .fields import (
    FluxLedger,
    flux_constraint_check,
    momentum_field,
    physical_amplitude,
    quantum_potential,
    trajectory,
)
from .linear import (
    Column,
    FundamentalPair,
    IntegrationSettings,
    fundamental_pair,
    integrate_normal_form,
    wronskian_check,
)
from .pinney import (
    ErmakovAmplitude,
    PinneyCoefficients,
    el_invariant,
    invariant_drift,
    pinney_amplitude,
    solve_ep_direct,
)
from .problems import ProblemSpec, build_problem, two_center_frequencies
from .runner import CertificationReport, RunConfig, parse_config, run_config

__version__ = "0.1.0"

__all__ = [
    "CATALOG_KEYS",
    "CertificationReport",
    "Column",
    "CoordinateSystem",
    "EngineError",
    "ErmakovAmplitude",
    "FluxLedger",
    "FrequencyProfile",
    "FundamentalPair",
    "IntegrationSettings",
    "PinneyCoefficients",
    "ProblemSpec",
    "RunConfig",
    "SectorSpec",
    "Weight",
    "build_problem",
    "effective_frequency",
    "el_invariant",
    "flux_constraint_check",
    "fundamental_pair",
    "gamma",
    "geometric_frequency",
    "integrate_normal_form",
    "invariant_drift",
    "lookup_system",
    "mathieu_char_value",
    "mathieu_pair",
    "momentum_field",
    "parse_config",
    "physical_amplitude",
    "pinney_amplitude",
    "quantum_potential",
    "run_config",
    "solve_ep_direct",
    "trajectory",
    "trig_pair",
    "two_center_frequencies",
    "weber_pair",
    "whittaker_pair",
    "wronskian_check",
]
