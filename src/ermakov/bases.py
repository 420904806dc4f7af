"""Closed-form-anchored fundamental pairs for the named problem bases.

Each builder takes the frequency profile of the equation it solves (in a
preset, the sector's own) and integrates at least one column against it; no
builder restates Omega^2.  Every closed-form or series column thus sits
beside an integrated one: where it solves some other Omega~^2 the pointwise
Wronskian moves, W' = (Omega~^2 - Omega^2) y1 y2, and so does the sector's
Ermakov-Lewis invariant (:func:`ermakov.pinney.el_invariant`), which is the
certificate.  Four families are provided:

* trigonometric pairs (cos k0 q, sin k0 q) for constant frequency, the
  cosine in closed form and the sine integrated,
* Weber / parabolic-cylinder pairs (D_nu(xi), D_nu(-xi)) for the equation
  y'' + (nu + 1/2 - xi^2/4) y = 0, seeded at xi = 0 from the classical
  gamma-function values and extended by normal-form integration; at
  nonnegative integer nu, where the reflection is dependent, D_n is
  completed by a second-kind companion,
* Whittaker pairs (M_{kappa,1/2}(2 lambda x), W_{kappa,1/2}(2 lambda x)),
  the M column from its regular power series at the origin and the W
  column integrated inward from a large-argument exponential seed; at
  quantized kappa = n + 1, where the two are proportional, M is completed
  by a second-kind companion,
* Mathieu pairs: the periodic solution of requested order and parity from
  the truncated Fourier-coefficient ladder, paired with a numerically
  integrated second-kind companion (for q != 0 the even and odd periodic
  functions solve different equations, so they cannot form a pair).

All series-built columns expose derivative columns obtained by term-wise
differentiation, never by numeric differencing.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import FrequencyProfile
from .errors import (
    CharValueConvergenceError,
    ConfigurationError,
    EngineError,
    SeriesConvergenceError,
)
from .linear import (
    DEFAULT_SETTINGS,
    Column,
    FundamentalPair,
    IntegrationSettings,
    companion_pair,
    fundamental_pair,
    integrate_normal_form,
)

_SQRT_PI = math.sqrt(math.pi)
_M_TAIL_TOL = 1e-12  # Whittaker M series tail, relative to the sum
# Eigensolver roundoff, relative to the ladder matrix's norm: two truncations
# closer than this agree to within the accuracy of the eigenvalues themselves.
_EIG_FLOOR = 16.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Reciprocal gamma function
# ---------------------------------------------------------------------------

def inv_gamma(x: float) -> float:
    """1 / gamma(x), which is entire: returns 0.0 at the poles of gamma."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


# ---------------------------------------------------------------------------
# Trigonometric pair
# ---------------------------------------------------------------------------

def trig_pair(
    k0: float,
    profile: FrequencyProfile,
    grid: np.ndarray,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> FundamentalPair:
    """Pair (cos k0 q, sin k0 q) of ``profile``, which poses k0^2.

    The cosine is sampled in closed form; the sine is integrated against
    ``profile`` from data (0, k0) at q = 0, so W = k0, and a cosine of the
    wrong k0 moves the pointwise Wronskian and with it the invariant.
    """
    if k0 == 0.0 or not math.isfinite(k0):
        raise ConfigurationError(f"trig pair needs a finite nonzero wavenumber, got {k0!r}")
    s = integrate_normal_form(profile, grid, 0.0, (0.0, k0), settings)
    c = np.cos(k0 * s.grid)
    return FundamentalPair(s.grid, c, -k0 * np.sin(k0 * s.grid), s.y, s.dy, float(k0), s.error)


# ---------------------------------------------------------------------------
# Weber / parabolic-cylinder basis
# ---------------------------------------------------------------------------

def weber_seed(nu: float) -> tuple[float, float]:
    """(D_nu(0), D_nu'(0)) from the classical gamma-function expressions.

    Orders too large for these values in floating point raise
    :class:`EngineError`.
    """
    try:
        y0 = _SQRT_PI * 2.0 ** (0.5 * nu) * inv_gamma(0.5 * (1.0 - nu))
        dy0 = -_SQRT_PI * 2.0 ** (0.5 * (nu + 1.0)) * inv_gamma(-0.5 * nu)
    except (OverflowError, ZeroDivisionError):
        y0 = dy0 = math.inf
    if not (math.isfinite(y0) and math.isfinite(dy0)):
        raise EngineError(f"parabolic-cylinder seed values overflow at order nu = {nu!r}")
    return y0, dy0


def weber_pair(
    nu: float,
    profile: FrequencyProfile,
    grid: np.ndarray,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> FundamentalPair:
    """Pair (D_nu(xi), D_nu(-xi)) of ``profile``, which poses nu + 1/2 - xi^2/4.

    Both columns are integrated outward from xi = 0, from the seeds
    (D_nu(0), +-D_nu'(0)), by the same cell matrices; W = -2 D_nu(0) D_nu'(0).
    For nonnegative integer nu the reflection D_n(-xi) = (-1)^n D_n(xi)
    makes that pair dependent, so the D_n column is completed instead by a
    second-kind companion from identity-data integration.
    """
    y0, dy0 = weber_seed(nu)
    if nu > -1e-9 and abs(nu - round(nu)) < 1e-9:  # a nonnegative integer
        column = integrate_normal_form(profile, grid, 0.0, (y0, dy0), settings)
        return companion_pair(profile, column, settings)
    return fundamental_pair(profile, grid, 0.0, settings, ic1=(y0, dy0), ic2=(y0, -dy0))


# ---------------------------------------------------------------------------
# Whittaker basis (mu = 1/2)
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # a sum that stops being finite raises
def _whittaker_m_series(
    kappa: float, z: np.ndarray, term_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Kummer series S(z) = 1F1(1 - kappa; 2; z) and S'(z), term-wise.

    The tail is bounded by the geometric estimate once the term ratio drops
    below 1/2 and must fall to _M_TAIL_TOL of the sum; failing to reach that
    within ``term_cap`` terms, or a sum that stops being finite, raises
    :class:`SeriesConvergenceError`.
    """
    s = np.ones_like(z)
    ds = np.zeros_like(z)
    term = np.ones_like(z)
    zmax = float(np.max(np.abs(z)))
    for n in range(term_cap):
        ratio_coeff = (1.0 - kappa + n) / ((2.0 + n) * (1.0 + n))
        new_term = term * ratio_coeff * z
        s = s + new_term
        ds = ds + (n + 1) * term * ratio_coeff  # d/dz of a_{n+1} z^{n+1}
        if not (np.isfinite(s).all() and np.isfinite(ds).all()):
            raise SeriesConvergenceError(f"Whittaker M series overflows at term {n + 1}")
        term = new_term
        next_ratio = (1.0 - kappa + n + 1) / ((3.0 + n) * (2.0 + n))
        bound = abs(next_ratio) * zmax
        if bound < 0.5:
            tail = float(np.max(np.abs(term))) * bound / (1.0 - bound)
            if tail <= _M_TAIL_TOL * max(1.0, float(np.max(np.abs(s)))):
                return s, ds
    raise SeriesConvergenceError(
        f"Whittaker M series did not meet its tail bound within {term_cap} terms"
    )


def whittaker_m_column(
    kappa: float, x_grid: np.ndarray, lam: float, term_cap: int = 2000
) -> Column:
    """M_{kappa,1/2}(2 lam x) with the leading series coefficient fixed to 1."""
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0.0):
        raise ConfigurationError("Whittaker grid must lie in (0, inf)")
    if lam <= 0.0:
        raise ConfigurationError(f"lambda must be positive, got {lam!r}")
    z = 2.0 * lam * x
    s, ds = _whittaker_m_series(kappa, z, term_cap)
    expo = np.exp(-0.5 * z)
    m = z * expo * s
    dm_dz = expo * ((1.0 - 0.5 * z) * s + z * ds)
    return Column(x, m, 2.0 * lam * dm_dz)


def whittaker_pair(
    kappa: float,
    lam: float,
    profile: FrequencyProfile,
    grid: np.ndarray,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
) -> FundamentalPair:
    """Pair (M_{kappa,1/2}(2 lam x), W_{kappa,1/2}(2 lam x)) of ``profile``,
    which poses -lam^2 + 2 lam kappa / x.

    The W column is anchored at z_a = max(30, 4 lam x_max) by its leading
    exponential asymptotic term e^{-z/2} z^kappa only, so its absolute
    normalization is approximate by O(1/z_a); downstream quadratic-form
    coefficients absorb the scale.  It is integrated inward from that seed,
    and, as for every integrated column, ``settings.abs_tol`` bounds each
    cell matrix's Richardson estimate, which does not depend on the
    column's scale.  At quantized kappa = n + 1 the two functions are
    proportional, so the M column is completed instead by a second-kind
    companion from identity-data integration.
    """
    x = np.asarray(grid, dtype=float)
    m_col = whittaker_m_column(kappa, x, lam)
    if kappa >= 0.5 and abs(kappa - round(kappa)) < 1e-9:
        return companion_pair(profile, m_col, settings)
    anchor_x = max(30.0 / (2.0 * lam), 2.0 * float(x[-1]))
    z_a = 2.0 * lam * anchor_x
    try:
        w_a = math.exp(-0.5 * z_a) * z_a**kappa
    except OverflowError:
        raise EngineError(f"Whittaker W seed overflows at index kappa = {kappa!r}") from None
    w_col = integrate_normal_form(
        profile, x, anchor_x, (w_a, w_a * 2.0 * lam * (kappa - 0.5 * z_a) / z_a), settings
    )
    mid = len(x) // 2
    wronskian = float(m_col.y[mid] * w_col.dy[mid] - m_col.dy[mid] * w_col.y[mid])
    return FundamentalPair(x, m_col.y, m_col.dy, w_col.y, w_col.dy, wronskian, w_col.error)


# ---------------------------------------------------------------------------
# Mathieu basis
# ---------------------------------------------------------------------------

_PARITIES = ("even", "odd")


def _mathieu_ladder(ell: int, parity: str) -> tuple[int, int, int]:
    """(first harmonic, harmonic step, eigenvalue index) for the family."""
    if parity not in _PARITIES:
        raise ConfigurationError(f"parity must be 'even' or 'odd', got {parity!r}")
    if ell < 0 or ell != int(ell):
        raise ConfigurationError(f"order must be a nonnegative integer, got {ell!r}")
    ell = int(ell)
    if parity == "even":
        if ell % 2 == 0:
            return 0, 2, ell // 2
        return 1, 2, (ell - 1) // 2
    if ell == 0:
        raise ConfigurationError("odd parity requires order >= 1 (sin-type solutions)")
    if ell % 2 == 0:
        return 2, 2, ell // 2 - 1
    return 1, 2, (ell - 1) // 2


def _mathieu_matrix(ell: int, parity: str, q: float, size: int):
    """Symmetric tridiagonal Fourier-coefficient matrix of the family."""
    first, step, index = _mathieu_ladder(ell, parity)
    harmonics = first + step * np.arange(size)
    diag = harmonics.astype(float) ** 2
    off = np.full(size - 1, q, dtype=float)
    if parity == "even" and first == 0:
        off[0] = math.sqrt(2.0) * q
    elif parity == "even" and first == 1:
        diag[0] += q
    elif parity == "odd" and first == 1:
        diag[0] -= q
    return diag, off, index


def mathieu_char_value_truncated(ell: int, parity: str, q: float, size: int) -> float:
    """Characteristic value from one fixed truncation of the ladder matrix.

    The symmetric tridiagonal matrix is solved as a dense one by LAPACK's
    symmetric eigensolver, exactly up to roundoff, in O(size^3).
    """
    diag, off, index = _mathieu_matrix(ell, parity, q, size)
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(matrix)[index])


def mathieu_char_value(
    ell: int,
    parity: str,
    q: float,
    tol: float = 1e-10,
    size_cap: int = 1024,
) -> float:
    """Converged characteristic value a_ell (even) or b_ell (odd).

    Convergence means doubling the truncation changes the value by at most
    ``tol``, floored at the eigensolver's roundoff (a few ulp of the ladder
    matrix's norm, which grows with the truncation); the doubled value is
    returned.  Each truncation is solved by an exact dense symmetric
    eigensolver, in O(size^3) (see :func:`mathieu_char_value_truncated`), so
    the truncation starts at 4 ell + 20 rows and is refused above 2 size_cap:
    one of 2048 rows takes about 1 s and 32 MB on a 2-core x86_64 host.
    """
    if not math.isfinite(q):
        raise ConfigurationError(f"Mathieu parameter q must be finite, got {q!r}")
    size = max(32, 4 * int(ell) + 20)
    if size > size_cap:
        raise CharValueConvergenceError(
            f"order ell = {ell} needs a first truncation of {size} rows, above the cap {size_cap}"
        )
    prev = mathieu_char_value_truncated(ell, parity, q, size)
    while size <= size_cap:
        size *= 2
        cur = mathieu_char_value_truncated(ell, parity, q, size)
        # 4 size^2 + 4 |q| bounds the norm of the ladder matrix
        if abs(cur - prev) <= max(tol, _EIG_FLOOR * (4.0 * size * size + 4.0 * abs(q))):
            return cur
        prev = cur
    raise CharValueConvergenceError(
        f"characteristic value (ell={ell}, parity={parity}, q={q}) not converged"
        f" at truncation cap {size_cap}"
    )


def mathieu_coefficients(
    ell: int, parity: str, q: float, a: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(harmonics, coefficients) of the periodic solution of order ``ell``.

    Coefficients come from backward recurrence through the three-term ladder
    (stable for the minimal solution, so each entry keeps relative accuracy;
    the plain eigenvector would only be accurate in absolute terms, which is
    not enough for the hyperbolic sums).  The vector is normalized to unit
    Euclidean norm with the order-``ell`` harmonic coefficient positive.
    """
    first, step, index = _mathieu_ladder(ell, parity)
    size = max(40, index + 25)
    if a is None:
        a = mathieu_char_value(ell, parity, q)
    harmonics = (first + step * np.arange(size)).astype(float)
    c = np.zeros(size, dtype=float)
    if q == 0.0:
        c[index] = 1.0
        return harmonics, c

    even_even = parity == "even" and first == 0
    c[size - 1] = 1.0
    above = 0.0
    bottom = 2 if even_even else 1
    for k in range(size - 1, bottom - 1, -1):
        h = harmonics[k]
        new = (a - h * h) * c[k] / q - above
        above = c[k]
        c[k - 1] = new
        if abs(new) > 1e250:
            c[k - 1 :] /= abs(new)
            above /= abs(new)
    if even_even:
        # The k = 1 row couples twice to the constant mode.
        c[0] = ((a - 4.0) * c[1] - q * c[2]) / (2.0 * q)

    c /= math.sqrt(float(np.dot(c, c)))
    pivot = c[index] if c[index] != 0.0 else c[int(np.argmax(np.abs(c)))]
    if pivot < 0.0:
        c = -c

    # Bottom-row consistency: nonzero residual here means the characteristic
    # value and the recurrence ladder disagree.
    if even_even:
        residual = a * c[0] - q * c[1]
    elif parity == "even":
        residual = (a - 1.0 - q) * c[0] - q * c[1]
    elif first == 2:
        residual = (a - 4.0) * c[0] - q * c[1]
    else:
        residual = (a - 1.0 + q) * c[0] - q * c[1]
    if abs(residual) > 1e-6 * max(1.0, abs(a)):
        raise EngineError(
            f"Mathieu coefficient ladder inconsistent (residual {residual:.3e})"
        )
    return harmonics, c


def mathieu_column(
    ell: int,
    q: float,
    grid: np.ndarray,
    modified: bool = False,
    parity: str = "even",
    a: float | None = None,
) -> tuple[Column, float]:
    """Periodic (or hyperbolically continued) Mathieu column and its char value.

    Plain:    sum_k c_k cos(h_k nu)   or  sum_k c_k sin(h_k nu)
    Modified: sum_k c_k cosh(h_k mu)  or  sum_k c_k sinh(h_k mu)

    ``a`` is the characteristic value when the caller has already solved it.
    """
    grid = np.asarray(grid, dtype=float)
    if a is None:
        a = mathieu_char_value(ell, parity, q)
    harmonics, coeffs = mathieu_coefficients(ell, parity, q, a=a)
    if modified and float(np.max(harmonics)) * float(np.max(np.abs(grid))) > 700.0:
        raise ConfigurationError(
            "hyperbolic-sum terms would overflow on this grid; reduce the grid"
            " extent or the coefficient count"
        )
    f, df = {
        (False, True): (np.cos, lambda x: -np.sin(x)),
        (False, False): (np.sin, np.cos),
        (True, True): (np.cosh, np.sinh),
        (True, False): (np.sinh, np.cosh),
    }[modified, parity == "even"]
    y = np.zeros_like(grid)
    dy = np.zeros_like(grid)
    for h, c in zip(harmonics, coeffs):
        if c != 0.0:
            arg = h * grid
            y += c * f(arg)
            dy += c * h * df(arg)
    return Column(grid, y, dy), a


def mathieu_pair(
    ell: int,
    q: float,
    profile: FrequencyProfile,
    grid: np.ndarray,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
    modified: bool = False,
    parity: str = "even",
    a: float | None = None,
) -> FundamentalPair:
    """Mathieu fundamental pair of ``profile``, which poses a - 2q cos 2nu
    (or its hyperbolic continuation 2q cosh 2mu - a when ``modified``),
    with a the characteristic value of the requested order and parity
    (solved here unless given).

    The first column is the periodic solution built from the coefficient
    ladder; the second is a second-kind companion of the same equation from
    identity-data integration (the opposite-parity periodic function belongs
    to a different characteristic value whenever q != 0).
    """
    column, _ = mathieu_column(ell, q, grid, modified=modified, parity=parity, a=a)
    return companion_pair(profile, column, settings)
