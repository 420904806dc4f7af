"""Exception types shared across the engine.

Three rough severity families, which the CLI maps onto exit codes:
configuration/validation problems (exit 1), numerical failures and
tolerance breaches (exit 2), and singularities hit on a requested
evaluation path (exit 3).
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(EngineError):
    """A required parameter is missing, malformed, or inconsistent."""


class UnknownSystemError(ConfigurationError):
    """Coordinate-system lookup with a key outside the catalog."""

    def __init__(self, name: str, valid: tuple[str, ...]):
        self.name = name
        self.valid = tuple(valid)
        super().__init__(
            f"unknown coordinate system {name!r}; valid keys: {', '.join(self.valid)}"
        )


class ConstraintViolationError(ConfigurationError):
    """Quadratic-form coefficients do not satisfy A*B - D^2 = k/W^2."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"superposition constraint violated: |A*B - D^2 - k/W^2| = {residual:.3e}"
            f" exceeds tolerance {tolerance:.3e}"
        )


class SingularEndpointError(EngineError):
    """Evaluation at (or beyond) a singular endpoint of a sector."""

    def __init__(self, endpoint: float, message: str | None = None):
        self.endpoint = endpoint
        super().__init__(message or f"evaluation at singular endpoint q = {endpoint!r}")


class IntegrationFailureError(EngineError):
    """Integration failed: Magnus refinement cap, unevaluable frequency, a
    non-finite state, or a trajectory inversion that did not converge."""

    def __init__(self, message: str, last_q: float | None = None):
        self.last_q = last_q
        detail = f" (last reached q = {last_q!r})" if last_q is not None else ""
        super().__init__(message + detail)


class SeriesConvergenceError(EngineError):
    """A truncated series did not meet its tail bound within the term cap."""


class CharValueConvergenceError(EngineError):
    """Characteristic-value truncation doubling failed to converge."""


class NonpositiveFormError(EngineError):
    """The superposition quadratic form is not positive where required."""

    def __init__(self, q: float):
        self.q = q
        super().__init__(f"quadratic form is not positive, first offending q = {q!r}")


class NodeApproachError(EngineError):
    """An amplitude or interpolated field approached zero along a path."""

    def __init__(self, q: float, message: str | None = None):
        self.q = q
        super().__init__(message or f"amplitude node approached near q = {q!r}")


class NodeSingularityError(EngineError):
    """A field with zeros was asked for a quantity singular at nodes."""

    def __init__(self, nodes, message: str | None = None):
        self.nodes = list(nodes)
        super().__init__(
            message or f"field has nodes at q = {self.nodes!r}; quantity undefined there"
        )


class PathExitsGridError(EngineError):
    """A trajectory left the tabulated field grid."""

    def __init__(self, t_exit: float, x_exit: float):
        self.t_exit = t_exit
        self.x_exit = x_exit
        super().__init__(f"trajectory left the field grid at t = {t_exit!r} (x = {x_exit!r})")
