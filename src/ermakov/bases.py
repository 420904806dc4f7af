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
  nonnegative integer nu, where the reflection is dependent, D_n is taken
  in closed form and completed by a second-kind companion,
* Whittaker pairs (M_{kappa,1/2}(2 lambda x), W_{kappa,1/2}(2 lambda x)),
  the M column from its regular power series at the origin and the W
  column integrated inward from a large-argument exponential seed; at
  quantized kappa = n + 1, where the two are proportional, M is completed
  by a second-kind companion,
* Mathieu pairs: the periodic solution of requested order and parity from
  the truncated Fourier-coefficient ladder, paired with a numerically
  integrated second-kind companion (for q != 0 the even and odd periodic
  functions solve different equations, so they cannot form a pair).

All closed-form and series columns carry exact derivative columns, never
numeric differences; the Mathieu and Kummer sums are taken by Horner's rule.
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
    magnus_outward,
)

_SQRT_PI = math.sqrt(math.pi)
_M_TAIL_TOL = 1e-12  # Whittaker M series tail, relative to the sum
_M_TERM_CAP = 2000  # Whittaker M series terms before the sum is refused
_CHAR_TOL = 1e-10  # Mathieu characteristic value's largest move on a doubled truncation
_CHAR_SIZE_CAP = 1024  # Mathieu ladder rows above which doubling is refused
# Eigensolver roundoff, relative to the ladder matrix's norm: two truncations
# closer than this agree to within the accuracy of the eigenvalues themselves.
_EIG_FLOOR = 16.0 * np.finfo(float).eps
_MATHIEU_TAIL = 0.25 * np.finfo(float).eps  # a Mathieu sum's dropped tail, relative to its terms


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
    q = np.asarray(grid, dtype=float)
    (s, ds), error = magnus_outward(profile, q, 0.0, (0.0, k0), settings)
    return FundamentalPair(q, np.cos(k0 * q), -k0 * np.sin(k0 * q), s, ds, float(k0), error)


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


@np.errstate(over="ignore", invalid="ignore")  # a column that overflows raises
def weber_column(n: int, grid: np.ndarray) -> Column:
    """D_n(xi) = e^{-xi^2/4} He_n(xi) and D_n' = n D_{n-1} - (xi/2) D_n at integer
    n >= 0, by D_{k+1} = xi D_k - k D_{k-1} from D_0 (DLMF sections 12.7, 12.8)."""
    xi = np.asarray(grid, dtype=float)
    prev, y = np.zeros_like(xi), np.exp(-0.25 * xi * xi)
    for k in range(n):  # upward, without Hermite coefficients
        prev, y = y, xi * y - k * prev
    dy = n * prev - 0.5 * xi * y
    if not np.isfinite(dy).all():  # so is y wherever dy is finite
        raise EngineError(f"parabolic-cylinder column overflows at order nu = {n}")
    return Column(xi, y, dy)


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
    makes that pair dependent, so the closed-form D_n (:func:`weber_column`)
    is completed instead by a second-kind companion from identity-data
    integration, whose error is then the pair's.
    """
    y0, dy0 = weber_seed(nu)
    if nu > -1e-9 and abs(nu - round(nu)) < 1e-9:  # a nonnegative integer
        return companion_pair(profile, weber_column(round(nu), grid), settings)
    return fundamental_pair(profile, grid, 0.0, settings, ic1=(y0, dy0), ic2=(y0, -dy0))


# ---------------------------------------------------------------------------
# Whittaker basis (mu = 1/2)
# ---------------------------------------------------------------------------

def _horner(x: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """numpy's ``polyval(x, terms)`` bit for bit, in one pass in place."""
    acc = terms[-1][:, None] + x * 0  # as polyval starts, which keeps the signed zeros
    for c in terms[-2::-1]:
        acc *= x
        np.add(c[:, None], acc, out=acc)  # polyval's operand order, for the nan signs
    return acc


@np.errstate(over="ignore", invalid="ignore")  # a sum that stops being finite raises
def _whittaker_m_series(kappa: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kummer series S(z) = 1F1(1 - kappa; 2; z) and S'(z) on a grid z > 0.

    Each term a_n z^n is largest at z_max, so a scalar pass forms b_n = a_n z_max^n
    (a_n alone underflows at large z_max) and one Horner pass in z / z_max sums
    them.  The tail is bounded by the geometric estimate once the term ratio
    drops below 1/2 and must fall to _M_TAIL_TOL of max(1, |S(z_max)|); failing
    that within _M_TERM_CAP terms, or a sum that stops being finite, raises
    :class:`SeriesConvergenceError`.
    """
    zmax = float(np.max(z))
    b, total = [1.0], 1.0
    for n in range(_M_TERM_CAP):
        b.append(b[-1] * (1.0 - kappa + n) / ((2.0 + n) * (1.0 + n)) * zmax)
        total += b[-1]
        bound = abs((1.0 - kappa + n + 1) / ((3.0 + n) * (2.0 + n))) * zmax
        tail = abs(b[-1]) * bound / (1.0 - bound) if bound < 0.5 else math.inf
        if not math.isfinite(total) or tail <= _M_TAIL_TOL * max(1.0, abs(total)):
            break
    else:
        raise SeriesConvergenceError(
            f"Whittaker M series did not meet its tail bound within {_M_TERM_CAP} terms"
        )
    b = np.array(b)  # S = sum b_n u^n and z_max S' = sum n b_n u^(n-1), u = z / z_max
    terms = np.stack((b, np.append(b[1:] * np.arange(1, b.size), 0.0)), axis=1)
    acc = _horner(z / zmax, terms)
    if not (math.isfinite(total) and np.isfinite(acc).all()):
        raise SeriesConvergenceError(f"Whittaker M series overflows at term {b.size - 1}")
    return acc[0], acc[1] / zmax


def whittaker_m_column(kappa: float, x_grid: np.ndarray, lam: float) -> Column:
    """M_{kappa,1/2}(2 lam x) with the leading series coefficient fixed to 1."""
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0.0):
        raise ConfigurationError("Whittaker grid must lie in (0, inf)")
    if lam <= 0.0:
        raise ConfigurationError(f"lambda must be positive, got {lam!r}")
    with np.errstate(over="ignore"):  # an argument past the double range fails the sum
        z = 2.0 * lam * x
    s, ds = _whittaker_m_series(kappa, z)
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
    and, as for every integrated column, each cell matrix's Richardson
    estimate is bounded relative to that matrix, which does not depend on
    the column's scale.  At quantized kappa = n + 1 the two functions are
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
    (w, dw), error = magnus_outward(
        profile, x, anchor_x, (w_a, w_a * 2.0 * lam * (kappa - 0.5 * z_a) / z_a), settings
    )
    mid = len(x) // 2
    with np.errstate(over="ignore", invalid="ignore"):  # the pair rejects a W not finite
        wronskian = float(m_col.y[mid] * dw[mid] - m_col.dy[mid] * w[mid])
    return FundamentalPair(x, m_col.y, m_col.dy, w, dw, wronskian, error)


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


def mathieu_char_value(ell: int, parity: str, q: float) -> float:
    """Converged characteristic value a_ell (even) or b_ell (odd).

    Convergence means doubling the truncation changes the value by at most
    _CHAR_TOL, floored at the eigensolver's roundoff (a few ulp of the ladder
    matrix's norm, which grows with the truncation); the doubled value is
    returned.  Each truncation is solved by an exact dense symmetric
    eigensolver, in O(size^3) (see :func:`mathieu_char_value_truncated`), so
    the truncation starts at max(16, 4 ell + 12) rows and is refused above
    2 _CHAR_SIZE_CAP: one of 2048 rows takes about 1 s and 32 MB on a 2-core
    x86_64 host.
    """
    if not math.isfinite(q):
        raise ConfigurationError(f"Mathieu parameter q must be finite, got {q!r}")
    size = max(16, 4 * int(ell) + 12)
    if size > _CHAR_SIZE_CAP:
        raise CharValueConvergenceError(
            f"order ell = {ell} needs a first truncation of {size} rows,"
            f" above the cap {_CHAR_SIZE_CAP}"
        )
    prev = mathieu_char_value_truncated(ell, parity, q, size)
    while size <= _CHAR_SIZE_CAP:
        size *= 2
        cur = mathieu_char_value_truncated(ell, parity, q, size)
        # 4 size^2 + 4 |q| bounds the norm of the ladder matrix
        if abs(cur - prev) <= max(_CHAR_TOL, _EIG_FLOOR * (4.0 * size * size + 4.0 * abs(q))):
            return cur
        prev = cur
    raise CharValueConvergenceError(
        f"characteristic value (ell={ell}, parity={parity}, q={q}) not converged"
        f" at truncation cap {_CHAR_SIZE_CAP}"
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # then the residual is nan
def mathieu_coefficients(
    ell: int, parity: str, q: float, a: float
) -> tuple[np.ndarray, np.ndarray]:
    """(harmonics, coefficients) of the periodic solution of order ``ell`` and char value ``a``.

    Coefficients come from the three-term ladder, recurred from the top row
    down and from the bottom row up to the order's harmonic, the direction in
    which the wanted solution dominates (Gautschi, SIAM Rev. 9, 24 (1967)), so
    each entry keeps relative accuracy; the plain eigenvector would only be
    accurate in absolute terms, which is not enough for the hyperbolic sums.
    The vector is normalized to unit Euclidean norm with the order-``ell``
    harmonic coefficient positive.
    """
    first, step, index = _mathieu_ladder(ell, parity)
    size = max(40, index + 25)
    harmonics = (first + step * np.arange(size)).astype(float)
    c = np.zeros(size, dtype=float)
    if q == 0.0:
        c[index] = 1.0
        return harmonics, c

    even_even = parity == "even" and first == 0
    # Row k reads (a - d_k) c_k = q (w_k c_{k-1} + c_{k+1}): d_k = h_k^2 but for
    # the bottom row's reflection, w_0 = 0 (c_{-1} drops out) and w_1 = 2 when
    # even-even.
    diag = harmonics**2
    diag[0] = _mathieu_matrix(ell, parity, q, 2)[0][0]
    weights = np.ones(size)
    weights[0], weights[1] = 0.0, 2.0 if even_even else 1.0

    # Backward from the top down to the row below the order's harmonic
    c[size - 1] = 1.0
    above = 0.0
    bottom = 2 if even_even else 1
    for k in range(size - 1, max(index - 1, bottom - 1), -1):
        h = harmonics[k]
        new = (a - h * h) * c[k] / q - above
        above = c[k]
        c[k - 1] = new
        if abs(new) > 1e250:
            c[k - 1 :] /= abs(new)
            above /= abs(new)
    if even_even and index <= 1:
        # The k = 1 row couples twice to the constant mode.
        c[0] = ((a - 4.0) * c[1] - q * c[2]) / (2.0 * q)
    # Forward from the bottom up to the order's harmonic.  The parts meet at
    # its row or the one below, whichever the forward part is larger on, since
    # the wanted coefficient can vanish at one of them.
    low = np.zeros(index + 1)
    low[0] = 1.0
    for k in range(index):
        low[k + 1] = (a - diag[k]) * low[k] / q - weights[k] * low[k - 1]
        if abs(low[k + 1]) > 1e250:
            low[: k + 2] /= abs(low[k + 1])
    j = index - 1 if index and abs(low[index - 1]) > abs(low[index]) else index
    c[:j] = low[:j] * (c[j] / low[j])

    c /= max(1.0, float(np.max(np.abs(c))) * 1e-150)  # so that sum c_k^2 stays finite
    c /= math.sqrt(float(np.dot(c, c)))
    pivot = c[index] if c[index] != 0.0 else c[int(np.argmax(np.abs(c)))]
    if pivot < 0.0:
        c = -c

    # Consistency at row j, the one row that neither part solves: a nonzero
    # residual means the characteristic value and the ladder disagree, and a
    # nan one that a recurrence overflowed.
    residual = (a - diag[j]) * c[j] - q * (weights[j] * c[j - 1] + c[j + 1])
    if not abs(residual) <= 1e-6 * max(1.0, abs(a)):
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
    *,
    a: float,
) -> Column:
    """Periodic (or hyperbolically continued) Mathieu column of char value ``a``.

    Plain:    sum_k c_k cos(h_k nu)   or  sum_k c_k sin(h_k nu), a part of
              e^{i h_0 nu} P(e^{2i nu}), summed with its derivative by one Horner pass
    Modified: sum_k c_k cosh(h_k mu)  or  sum_k c_k sinh(h_k mu), term by term

    Both sums stop at the first term whose dropped tail, sum |c_k| for y and
    sum |c_k h_k| for y', is at most eps/4 of that sum over the whole ladder;
    a modified term is weighted by cosh(h_k max|mu|) (DLMF section 28.4).
    """
    grid = np.asarray(grid, dtype=float)
    harmonics, coeffs = mathieu_coefficients(ell, parity, q, a)
    weight = np.abs(coeffs)
    if modified:
        reach, top = float(np.max(np.abs(grid))), float(np.max(harmonics))
        if top * reach > 700.0:
            raise ConfigurationError(
                "hyperbolic-sum terms would overflow on this grid; reduce the grid"
                " extent or the coefficient count"
            )
        weight *= np.cosh(harmonics * reach) / np.cosh(top * reach)  # at most 1: no tail overflows
    dropped = np.cumsum(np.stack((weight, weight * harmonics), axis=1)[::-1], axis=0)[::-1]
    n = coeffs.size - int(np.sum((dropped <= _MATHIEU_TAIL * dropped[0]).all(axis=1)))
    harmonics, coeffs = harmonics[:n], coeffs[:n]
    if not modified:
        terms = np.stack((coeffs, coeffs * harmonics), axis=1)  # S and -i S'
        s = _horner(np.exp(2j * grid), terms)
        s *= np.exp(1j * harmonics[0] * grid)
        y, dy = (s[0].real, -s[1].imag) if parity == "even" else (s[0].imag, s[1].real)
        return Column(grid, np.ascontiguousarray(y), np.ascontiguousarray(dy))
    f, df = (np.cosh, np.sinh) if parity == "even" else (np.sinh, np.cosh)
    y, dy = np.zeros_like(grid), np.zeros_like(grid)
    for h, c in zip(harmonics, coeffs):
        if c != 0.0:
            arg = h * grid
            y += c * f(arg)
            dy += c * h * df(arg)
    return Column(grid, y, dy)


def mathieu_pair(
    ell: int,
    q: float,
    profile: FrequencyProfile,
    grid: np.ndarray,
    settings: IntegrationSettings = DEFAULT_SETTINGS,
    modified: bool = False,
    parity: str = "even",
    *,
    a: float,
) -> FundamentalPair:
    """Mathieu fundamental pair of ``profile``, which poses a - 2q cos 2nu
    (or its hyperbolic continuation 2q cosh 2mu - a when ``modified``),
    with ``a`` the characteristic value of the requested order and parity.

    The first column is the periodic solution built from the coefficient
    ladder; the second is a second-kind companion of the same equation from
    identity-data integration (the opposite-parity periodic function belongs
    to a different characteristic value whenever q != 0).
    """
    column = mathieu_column(ell, q, grid, modified=modified, parity=parity, a=a)
    return companion_pair(profile, column, settings)
