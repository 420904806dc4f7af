"""Exact stationary guiding fields for separable problems.

Reduces each separated coordinate sector to Liouville normal form, solves
the linear partner equation y'' + Omega^2(q) y = 0, assembles amplitude
solutions of rho'' + Omega^2 rho = k/rho^3 by quadratic-form superposition,
and certifies conservation of the Ermakov-Lewis invariant along the
coordinate.
"""

from .bases import (
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
    geometric_frequency,
    lookup_system,
)
from .errors import EngineError
from .fields import momentum_field, physical_amplitude, trajectory
from .linear import (
    Column,
    FundamentalPair,
    IntegrationSettings,
    fundamental_pair,
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
from .problems import ProblemSpec, SectorRequest, build_problem
from .runner import CertificationReport, RunConfig, parse_config, run_config

__version__ = "0.1.0"

__all__ = [
    "CATALOG_KEYS",
    "CertificationReport",
    "Column",
    "CoordinateSystem",
    "EngineError",
    "ErmakovAmplitude",
    "FrequencyProfile",
    "FundamentalPair",
    "IntegrationSettings",
    "PinneyCoefficients",
    "ProblemSpec",
    "RunConfig",
    "SectorRequest",
    "SectorSpec",
    "Weight",
    "build_problem",
    "el_invariant",
    "fundamental_pair",
    "geometric_frequency",
    "invariant_drift",
    "lookup_system",
    "mathieu_char_value",
    "mathieu_pair",
    "momentum_field",
    "parse_config",
    "physical_amplitude",
    "pinney_amplitude",
    "run_config",
    "solve_ep_direct",
    "trajectory",
    "trig_pair",
    "weber_pair",
    "whittaker_pair",
    "wronskian_check",
]
