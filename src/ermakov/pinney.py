"""Ermakov amplitudes by quadratic-form superposition, and their invariant.

Given a fundamental pair (y1, y2) of y'' + Omega^2(q) y = 0 with Wronskian
W, every positive solution of the nonlinear amplitude equation

    rho'' + Omega^2(q) rho = k / rho^3

is a quadratic form rho^2 = A y1^2 + B y2^2 + 2 D y1 y2 constrained by
A B - D^2 = k / W^2.  The conserved quantity certified here is

    I = ((rho y' - rho' y)^2 + k y^2 / rho^2) / 2,

constant in q for any partner solution y of the linear equation; the
partner is taken from the amplitude's own pair (:func:`el_invariant`).
:func:`solve_ep_direct` poses the amplitude by its value and slope at one
point instead of by (A, B, D), and builds it by the same superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    ConstraintViolationError,
    EngineError,
    NodeApproachError,
    NonpositiveFormError,
)
from .linear import (
    DEFAULT_SETTINGS,
    FundamentalPair,
    IntegrationSettings,
    fundamental_pair,
)

CONSTRAINT_TOL = 1e-10


def check_override(form: Mapping[str, float]) -> None:
    """Reject a quadratic-form override that no pair can make valid: its keys
    must be (A, B) or (A, B, D), A and B nonnegative (a positive amplitude
    needs both), and A B and D^2 finite, so that the constraint can be checked."""
    if set(form) not in ({"A", "B"}, {"A", "B", "D"}):
        raise ConfigurationError("give (A, B) or (A, B, D) to override the quadratic form")
    a, b, d = form["A"], form["B"], form.get("D", 0.0)
    if a < 0.0 or b < 0.0:
        raise ConfigurationError(f"A and B must be nonnegative, got ({a}, {b})")
    if not (math.isfinite(a * b) and math.isfinite(d * d)):
        raise ConfigurationError(f"A*B and D^2 must be finite, got {a * b!r} and {d * d!r}")


@dataclass(frozen=True)
class PinneyCoefficients:
    """Quadratic-form coefficients (A, B, D) with flux-squared constant k."""

    A: float
    B: float
    D: float
    k: float

    def __post_init__(self):
        if self.k < 0.0:
            raise ConfigurationError(f"flux-squared constant k must be >= 0, got {self.k!r}")
        check_override({"A": self.A, "B": self.B, "D": self.D})

    @classmethod
    def of(cls, k: float, wronskian: float, override: Mapping[str, float] | None = None):
        """The form of flux-squared constant k on a pair of Wronskian W: without
        an ``override`` the symmetric A = B = sqrt(k)/|W|, D = 0 ((1, 0, 0) at
        k = 0).  An override (A, B, D) is taken as given; (A, B) gets D =
        sqrt(A B - k/W^2) >= 0, clamped to 0 within 1e-12 k/W^2 of A B = k/W^2."""
        if not override:
            if k <= 0.0:  # the constructor rejects k < 0
                return cls(1.0, 0.0, 0.0, k)
            root = math.sqrt(k) / abs(wronskian)
            return cls(root, root, 0.0, k)
        check_override(override)
        a, b = override["A"], override["B"]
        if "D" in override:
            return cls(a, b, override["D"], k)
        target = k / (wronskian * wronskian)
        disc = a * b - target
        if disc < -1e-12 * target:
            raise ConfigurationError(f"A*B = {a * b!r} is below k/W^2 = {target!r}: no real D")
        return cls(a, b, math.sqrt(max(disc, 0.0)), k)

    def validate(self, wronskian: float) -> None:
        """Reject a residual |A B - D^2 - k/W^2| above CONSTRAINT_TOL times the largest
        of the constraint's own terms A B, D^2 and k/W^2, or a term that overflows."""
        target = self.k / (wronskian * wronskian)
        bound = CONSTRAINT_TOL * max(self.A * self.B, self.D * self.D, target)
        residual = abs(self.A * self.B - self.D * self.D - target)
        if not residual <= bound < math.inf:
            raise ConstraintViolationError(residual, bound)


@dataclass(frozen=True)
class ErmakovAmplitude:
    """Sampled amplitude rho > 0 with derivative, and the quadratic form and
    pair that :func:`pinney_amplitude` built it from."""

    grid: np.ndarray
    rho: np.ndarray
    drho: np.ndarray
    coefficients: PinneyCoefficients
    pair: FundamentalPair
    nodes: tuple[float, ...]


@np.errstate(over="ignore", invalid="ignore")  # a form or slope that is not finite raises
def pinney_amplitude(coeffs: PinneyCoefficients, pair: FundamentalPair) -> ErmakovAmplitude:
    """Amplitude rho = sqrt(A y1^2 + B y2^2 + 2 D y1 y2) on the pair's grid.

    The derivative comes from the chain rule on the pair's exact derivative
    columns.  Inputs violating the constraint are rejected, not projected.
    For k = 0 the form may touch zero (bound-sector nodes); node locations
    are reported in the result instead of raising.
    """
    coeffs.validate(pair.W)
    a, b, d = coeffs.A, coeffs.B, coeffs.D
    form = a * pair.y1**2 + b * pair.y2**2 + 2.0 * d * pair.y1 * pair.y2
    dform = (
        a * pair.y1 * pair.dy1
        + b * pair.y2 * pair.dy2
        + d * (pair.dy1 * pair.y2 + pair.y1 * pair.dy2)
    )
    if not (np.isfinite(form).all() and np.isfinite(dform).all()):
        raise EngineError("quadratic form or its slope overflows the double range")
    scale = float(np.max(form)) if form.size else 0.0
    if scale <= 0.0:
        raise NonpositiveFormError(float(pair.grid[int(np.argmin(form))]))
    bad = form < -1e-14 * scale
    if coeffs.k > 0.0:
        bad |= form <= 0.0
    if np.any(bad):
        raise NonpositiveFormError(float(pair.grid[int(np.argmax(bad))]))
    # With k > 0 the form is strictly positive: nodes exist only at k = 0.
    node_mask = (form <= 1e-14 * scale) & (coeffs.k == 0.0)
    form = np.where(node_mask, 0.0, form)
    rho = np.sqrt(form)
    with np.errstate(divide="ignore", invalid="ignore"):
        drho = np.where(node_mask, np.nan, dform / np.where(node_mask, 1.0, rho))
    nodes = tuple(float(q) for q in pair.grid[node_mask])
    return ErmakovAmplitude(pair.grid, rho, drho, coeffs, pair, nodes)


def solve_ep_direct(
    profile, k: float, ic: tuple[float, float], grid, anchor: float | None = None,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> ErmakovAmplitude:
    """Solution of rho'' + Omega^2 rho = k/rho^3 with ``ic`` = (rho, rho') at ``anchor``.

    The anchor is the middle of the grid's range by default, and ``grid``
    must be strictly increasing.  With the pair u, v of data (rho0, rho0')
    and (0, 1/rho0) at the anchor (W = 1 up to rounding),
    rho^2 = u^2 + (k/W^2) v^2 is the quadratic form A = 1, D = 0, B = k/W^2:
    the identity-data form A = rho0^2, D = rho0 rho0', B = (k + D^2)/A
    recombined into a sum of squares, so nothing cancels in rho^2 or in its
    constraint.  At k = 0 the amplitude is |u|; :class:`NodeApproachError`
    reports the first zero of u outward from the anchor, on the right
    half-range before the left, placed between samples by one Newton step.
    """
    if ic[0] <= 0.0:
        raise ConfigurationError(f"initial amplitude must be positive, got {ic[0]!r}")
    if k < 0.0:
        raise ConfigurationError(f"k must be >= 0, got {k!r}")
    grid = np.asarray(grid, dtype=float)
    a = 0.5 * (float(grid[0]) + float(grid[-1])) if anchor is None else float(anchor)
    rho0, drho0 = float(ic[0]), float(ic[1])
    pair = fundamental_pair(profile, grid, a, settings, (rho0, drho0), (0.0, 1.0 / rho0))
    if k == 0.0:
        right = grid >= a
        for side, step in ((right, 1), (~right, -1)):
            # samples outward from the anchor, where u = rho0 > 0
            q = np.concatenate(([a], grid[side][::step]))
            u = np.concatenate(([rho0], pair.y1[side][::step]))
            du = np.concatenate(([drho0], pair.dy1[side][::step]))
            past = np.flatnonzero(u <= 0.0)
            if past.size:  # Newton from the bracketing sample nearer the zero
                j = past[0]
                i = j if abs(u[j]) <= abs(u[j - 1]) else j - 1
                raise NodeApproachError(float(q[i] - u[i] / du[i]))
    form = {"A": 1.0, "B": k / (pair.W * pair.W), "D": 0.0}
    return pinney_amplitude(PinneyCoefficients.of(k, pair.W, form), pair)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a sample not finite raises
def el_invariant(amplitude: ErmakovAmplitude) -> np.ndarray:
    """Invariant samples I(q) = ((rho y' - rho' y)^2 + k y^2/rho^2) / 2 of an
    amplitude that :func:`pinney_amplitude` built, with a partner y from its pair.

    The partner is y1, for which rho y1' - rho' y1 = -(B y2 + D y1) W(q) / rho
    (W(q) the pointwise Wronskian) avoids the cancellation of two products;
    at a node of a k = 0 form (AB = D^2) its magnitude is the limit
    sqrt(B) |W(q)|.  Where B = 0 (then D = k = 0 and rho = sqrt(A) |y1|), y1
    is parallel to rho and its invariant is 0 whatever the pair, so the
    partner is y2 instead: I = A W(q)^2 / 2.

    Where B != 0, B rho^2 = (B y2 + D y1)^2 + k y1^2 / W^2 turns I into a
    weighted Wronskian drift, I = B W^2/2 + (B y2 + D y1)^2 (W(q)^2 - W^2) / (2 rho^2).
    Either way I moves only where W(q) does, so the invariant also certifies
    a closed-form column against its integrated partner.  A sample that is
    not finite raises :class:`EngineError`.
    """
    pair, coeffs, rho = amplitude.pair, amplitude.coefficients, amplitude.rho
    w = pair.wronskian_samples()
    if coeffs.B == 0.0:
        out = 0.5 * coeffs.A * w**2
    else:
        cross = np.where(rho > 0.0, -(coeffs.B * pair.y2 + coeffs.D * pair.y1) * w
                         / np.where(rho > 0.0, rho, 1.0), math.sqrt(coeffs.B) * w)
        out = 0.5 * cross**2
        if coeffs.k != 0.0:
            out = out + 0.5 * coeffs.k * pair.y1**2 / rho**2
    if not np.isfinite(out).all():
        q = pair.grid[np.argmin(np.isfinite(out))]
        raise EngineError(f"Ermakov-Lewis invariant is not finite at q = {float(q)!r}")
    return out


class DriftResult(NamedTuple):
    drift: float
    location: float


def invariant_drift(values: np.ndarray, reference: float,
                    grid: np.ndarray | None = None) -> DriftResult:
    """Max deviation of the samples from I_ref = ``reference``, relative to |I_ref|.

    I is a sum of two nonnegative terms, so |I_ref| is their size.  Samples
    that are all 0 read 0; a zero I_ref with another sample nonzero reads inf.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ConfigurationError("drift needs at least two samples")
    ref = float(reference)
    dev = np.abs(values - ref)
    idx = int(np.argmax(dev))
    drift = float(dev[idx]) / abs(ref) if ref else (math.inf if dev[idx] else 0.0)
    where = float(grid[idx]) if grid is not None else float(idx)
    return DriftResult(drift, where)
