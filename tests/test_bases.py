"""Special-function bases: reciprocal gamma, Weber, Whittaker, Mathieu."""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b, pbdv

from ermakov import bases
from ermakov.bases import (
    inv_gamma,
    mathieu_char_value,
    mathieu_char_value_truncated,
    mathieu_coefficients,
    mathieu_column,
    mathieu_pair,
    trig_pair,
    weber_column,
    weber_pair,
    weber_seed,
    whittaker_m_column,
    whittaker_pair,
)
from ermakov.catalog import FrequencyProfile, SectorSpec, Weight
from ermakov.errors import (
    CharValueConvergenceError,
    ConfigurationError,
    EngineError,
    SeriesConvergenceError,
)
from ermakov.linear import wronskian_check


def unit_profile(omega2, domain=(-math.inf, math.inf)):
    """Unit-weight profile whose Omega^2 is the callable ``omega2``."""
    return FrequencyProfile(SectorSpec("q", domain, Weight.unit()), omega2)


def wronskian_drift_at(pair, idx):
    """Wronskian drift of the pair on the grid points ``idx`` only."""
    return float(np.max(np.abs(pair.wronskian_samples()[idx] - pair.W)))


# The equations each pair builder is handed, posed directly as Omega^2.
def weber_profile(nu):
    return unit_profile(lambda xi: nu + 0.5 - 0.25 * np.asarray(xi, float) ** 2)


def whittaker_profile(kappa, lam):
    return unit_profile(
        lambda x: -(lam**2) + 2.0 * lam * kappa / np.asarray(x, float), domain=(0.0, math.inf)
    )


def mathieu_profile(ell, parity, q, modified=False):
    a = mathieu_char_value(ell, parity, q)
    if modified:
        return unit_profile(lambda mu: 2.0 * q * np.cosh(2.0 * mu) - a)
    return unit_profile(lambda nu: a - 2.0 * q * np.cos(2.0 * nu))


def trig_profile(k0):
    return unit_profile(lambda q: np.full_like(np.asarray(q, float), k0 * k0))


def weber_d(nu, xi):
    """D_nu sampled on ``xi``: the first column of the Weber pair."""
    return weber_pair(nu, weber_profile(nu), xi).y1


# ---------------------------------------------------------------------------
# reciprocal gamma
# ---------------------------------------------------------------------------


def test_gamma_classic_values():
    assert inv_gamma(1.0) == 1.0
    assert inv_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    assert inv_gamma(5.0) == pytest.approx(1.0 / 24.0, rel=1e-15)


def test_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        assert inv_gamma(x) == 0.0


def test_gamma_against_mpmath_across_range():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-20.0, 50.0, size=60)
    xs = xs[np.abs(xs - np.round(xs)) > 1e-3]  # stay away from the poles
    for x in xs:
        ref = float(mpmath.rgamma(float(x)))
        assert inv_gamma(float(x)) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# Trigonometric
# ---------------------------------------------------------------------------


def test_trig_pair_integrates_the_sine_against_the_profile():
    k0, grid = 1.3, np.linspace(2.0, 12.0, 401)  # q = 0, the sine's anchor, is off the grid
    pair = trig_pair(k0, trig_profile(k0), grid)
    assert pair.W == k0
    np.testing.assert_array_equal(pair.y1, np.cos(k0 * grid))
    np.testing.assert_allclose(pair.y2, np.sin(k0 * grid), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(pair.dy2, k0 * np.cos(k0 * grid), rtol=0.0, atol=1e-13)
    assert wronskian_check(pair) <= 1e-13
    # a cosine that does not solve the profile's equation shows in the Wronskian
    assert wronskian_check(trig_pair(k0, trig_profile(k0 * (1.0 + 1e-6)), grid)) > 1e-7


# ---------------------------------------------------------------------------
# Weber / parabolic cylinder
# ---------------------------------------------------------------------------


def test_weber_ground_state_closed_form():
    xi = np.linspace(-4.0, 4.0, 401)
    y = weber_d(0.0, xi)
    np.testing.assert_allclose(y, np.exp(-(xi**2) / 4.0), atol=1e-9)
    assert y[np.searchsorted(xi, 2.0)] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_weber_first_state_closed_form():
    # D_1(xi) = xi exp(-xi^2/4), so D_1(2) = 2/e
    y = weber_d(1.0, np.array([0.0, 1.0, 2.0]))
    assert y[-1] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-8)


def test_weber_seeds_match_pbdv():
    for nu in (0.5, 1.7, -0.3, 2.25):
        y0, dy0 = weber_seed(nu)
        ref_y, ref_dy = pbdv(nu, 0.0)
        assert y0 == pytest.approx(float(ref_y), rel=1e-12, abs=1e-12)
        assert dy0 == pytest.approx(float(ref_dy), rel=1e-12, abs=1e-12)


def test_weber_column_matches_pbdv():
    xi = np.linspace(-5.0, 5.0, 21)
    for nu in (0.5, 1.7, -0.3):
        ref = np.array([float(pbdv(nu, float(x))[0]) for x in xi])
        np.testing.assert_allclose(weber_d(nu, xi), ref, rtol=1e-6, atol=1e-9)


def test_weber_pair_wronskian_constancy():
    xi = np.linspace(-4.0, 4.0, 801)
    pair = weber_pair(0.5, weber_profile(0.5), xi)
    assert wronskian_check(pair) <= 1e-9 * max(1.0, abs(pair.W))
    # known value sqrt(2 pi) / Gamma(-nu)
    assert pair.W == pytest.approx(math.sqrt(2 * math.pi) / math.gamma(-0.5), rel=1e-12)


def test_weber_integer_order_degenerates():
    # D_1(-xi) = -D_1(xi), so D_1 = xi exp(-xi^2/4) is completed by a
    # second-kind companion with data (0, 1) where |D_1| peaks: W = D_1 there,
    # at the first of the two mirror peaks, whose sizes differ by rounding only
    xi = np.linspace(-3.0, 3.0, 101)
    pair = weber_pair(1.0, weber_profile(1.0), xi)
    np.testing.assert_allclose(pair.y1, xi * np.exp(-(xi**2) / 4.0), atol=1e-9)
    assert pair.W == np.min(pair.y1) < 0.0
    assert abs(pair.W) >= (1.0 - 1e-9) * np.max(np.abs(pair.y1))
    assert wronskian_check(pair) <= 1e-9 * max(1.0, abs(pair.W))


@pytest.mark.parametrize("n, hermite", [(0, lambda x: 1.0 + 0 * x),
                                        (1, lambda x: 2.0 * x),
                                        (2, lambda x: 4.0 * x**2 - 2.0)])
def test_weber_hermite_reduction(n, hermite):
    xi = np.linspace(-4.0, 4.0, 801)
    y = weber_d(float(n), xi)
    ref = np.exp(-(xi**2) / 4.0) * hermite(xi / math.sqrt(2.0))
    c = float(np.dot(y, ref) / np.dot(ref, ref))
    assert np.max(np.abs(y - c * ref)) <= 1e-6 * np.max(np.abs(c * ref))


@pytest.mark.parametrize("span", [6.5, 40.0])
def test_integer_weber_column_matches_mpmath(span):
    # D_n' from the other contiguous relation, D_n' = (xi/2) D_n - D_{n+1}
    xi = np.linspace(-span, span, 161)
    for n in range(13):
        col = weber_column(n, xi)
        ref = np.array([float(mpmath.pcfd(n, x)) for x in xi])
        dref = 0.5 * xi * ref - np.array([float(mpmath.pcfd(n + 1, x)) for x in xi])
        assert np.max(np.abs(col.y - ref)) <= 1e-13 * np.max(np.abs(ref)), n
        assert np.max(np.abs(col.dy - dref)) <= 1e-13 * np.max(np.abs(dref)), n


def test_integer_weber_pair_takes_the_closed_form_column():
    xi = np.linspace(-6.0, 6.0, 501)
    pair = weber_pair(2.0, weber_profile(2.0), xi)
    np.testing.assert_array_equal(pair.y1, weber_column(2, xi).y)
    np.testing.assert_array_equal(pair.dy1, weber_column(2, xi).dy)


def test_integer_weber_column_overflow_is_an_engine_error():
    # D_n(0) = (-1)^(n/2) (n-1)!! passes the double range near n = 300, so
    # the pair builder's seed check stops such an order before any column
    xi = np.linspace(-6.0, 6.0, 2001)
    with pytest.raises(EngineError, match="parabolic-cylinder column overflows"):
        weber_column(400, xi)
    with pytest.raises(EngineError, match="seed values overflow"):
        weber_pair(400.0, weber_profile(400.0), xi)


# ---------------------------------------------------------------------------
# Whittaker, mu = 1/2
# ---------------------------------------------------------------------------


def test_whittaker_m_ground_value():
    # kappa = 1: M(z) = z exp(-z/2); at z = 1 that is e^{-1/2}
    col = whittaker_m_column(1.0, np.array([0.5, 1.0, 2.0]), lam=0.5)  # z = x
    assert col.y[1] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_whittaker_laguerre_ratio_root():
    # kappa = 2: M / (z e^{-z/2}) is proportional to L_1^(1)(z) = 2 - z
    z = np.linspace(0.1, 10.0, 991)
    col = whittaker_m_column(2.0, z, lam=0.5)
    ratio = col.y / (z * np.exp(-z / 2.0))
    ref = 2.0 - z
    c = float(np.dot(ratio, ref) / np.dot(ref, ref))
    np.testing.assert_allclose(ratio, c * ref, atol=1e-10)
    root = z[np.argmin(np.abs(ratio))]
    assert root == pytest.approx(2.0, abs=0.02)


def test_whittaker_m_matches_mpmath():
    x = np.linspace(0.2, 12.0, 7)
    for kappa in (1.3, 0.4, 2.6):
        col = whittaker_m_column(kappa, x, lam=1.0)
        ref = np.array([float(mpmath.whitm(kappa, 0.5, 2.0 * v)) for v in x])
        np.testing.assert_allclose(col.y, ref, rtol=1e-11)


def kummer_m(kappa, z):
    """z e^{-z/2} 1F1(1 - kappa; 2; z) and its z-derivative, by mpmath."""
    a, z = 1.0 - kappa, mpmath.mpf(z)
    f, df = mpmath.hyp1f1(a, 2, z), a / 2.0 * mpmath.hyp1f1(a + 1, 3, z)
    e = mpmath.exp(-z / 2)
    return float(z * e * f), float(e * ((1 - z / 2) * f + z * df))


@pytest.mark.parametrize("zmax, tol", [(600.0, 1e-12), (30.0, 1e-11)])
@pytest.mark.parametrize("kappa", [0.3, 1.37, 2.5])
def test_whittaker_m_series_matches_mpmath_hyp1f1(kappa, zmax, tol):
    # Near z = 600 the plain coefficients a_n underflow while the terms
    # a_n z^n do not.  On (0, 30] the series stops at 1e-12 of its sum, and
    # its derivative's tail is larger by about n / z_max.
    z = np.linspace(0.0, zmax, 121)[1:]
    col = whittaker_m_column(kappa, z, lam=0.5)  # argument equals z
    ref, dref = np.array([kummer_m(kappa, v) for v in z]).T
    assert np.max(np.abs(col.y - ref)) <= tol * np.max(np.abs(ref))
    assert np.max(np.abs(col.dy - dref)) <= tol * np.max(np.abs(dref))


def test_whittaker_w_column_is_w_up_to_scale():
    x = np.linspace(0.05, 10.0, 401)
    pair = whittaker_pair(1.3, 1.0, whittaker_profile(1.3, 1.0), x)
    idx = [20, 150, 300]
    ref = np.array([float(mpmath.whitw(1.3, 0.5, 2.0 * x[i])) for i in idx])
    ratio = pair.y2[idx] / ref
    # leading-term anchoring leaves a single overall scale, constant in x
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-6 * abs(ratio[0])


def test_whittaker_pair_wronskian_on_subgrids():
    x = np.linspace(0.025, 15.0, 2001)
    pair = whittaker_pair(1.3, 1.0, whittaker_profile(1.3, 1.0), x)
    assert wronskian_check(pair) <= 1e-8 * max(1.0, abs(pair.W))
    rng = np.random.default_rng(3)
    idx = np.sort(rng.choice(x.size, size=200, replace=False))
    assert wronskian_drift_at(pair, idx) <= 1e-8 * max(1.0, abs(pair.W))


def test_whittaker_quantized_kappa_degenerates():
    # M and W are proportional at kappa = 2, so M is completed by a
    # second-kind companion with data (0, 1) where |M| peaks: W = M there
    x = np.linspace(0.1, 10.0, 101)
    pair = whittaker_pair(2.0, 0.5, whittaker_profile(2.0, 0.5), x)
    np.testing.assert_array_equal(pair.y1, whittaker_m_column(2.0, x, lam=0.5).y)
    assert abs(pair.W) == np.max(np.abs(pair.y1)) > 0.0
    assert wronskian_check(pair) <= 1e-8 * max(1.0, abs(pair.W))


def test_whittaker_series_term_cap_flag(monkeypatch):
    monkeypatch.setattr(bases, "_M_TERM_CAP", 10)
    with pytest.raises(SeriesConvergenceError):
        whittaker_m_column(1.3, np.array([40.0]), lam=1.0)


def test_whittaker_grid_validation():
    with pytest.raises(ConfigurationError):
        whittaker_m_column(1.0, np.array([-1.0, 1.0]), lam=1.0)
    with pytest.raises(ConfigurationError):
        whittaker_m_column(1.0, np.array([1.0]), lam=0.0)


# ---------------------------------------------------------------------------
# Mathieu
# ---------------------------------------------------------------------------


def test_mathieu_char_values_at_zero_q():
    for ell in range(6):
        assert mathieu_char_value(ell, "even", 0.0) == pytest.approx(ell**2, abs=1e-10)
    for ell in range(1, 6):
        assert mathieu_char_value(ell, "odd", 0.0) == pytest.approx(ell**2, abs=1e-10)


@pytest.mark.parametrize("ell", range(5))
def test_mathieu_even_char_against_scipy(ell):
    for q in (0.5, 1.0, 5.0):
        ref = float(mathieu_a(ell, q))
        assert mathieu_char_value(ell, "even", q) == pytest.approx(ref, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("ell", range(1, 5))
def test_mathieu_odd_char_against_scipy(ell):
    for q in (0.5, 1.0, 5.0):
        ref = float(mathieu_b(ell, q))
        assert mathieu_char_value(ell, "odd", q) == pytest.approx(ref, rel=1e-8, abs=1e-8)


def test_mathieu_truncation_doubling_stability():
    for ell, parity in ((0, "even"), (1, "even"), (2, "even"), (1, "odd"), (2, "odd")):
        a32 = mathieu_char_value_truncated(ell, parity, 1.0, 32)
        a64 = mathieu_char_value_truncated(ell, parity, 1.0, 64)
        assert abs(a64 - a32) <= 1e-10


def test_mathieu_small_q_continuity():
    for ell, parity in ((0, "even"), (3, "even"), (2, "odd")):
        a = mathieu_char_value(ell, parity, 1e-8)
        assert abs(a - ell**2) <= 1e-6


def mpmath_char_value(ell, parity, q, size):
    """The ladder matrix's eigenvalue of order ``ell`` at 40 digits."""
    with mpmath.workdps(40):
        first = ell % 2 if parity == "even" else 2 - ell % 2
        q = mpmath.mpf(q)
        matrix = mpmath.zeros(size)
        for i in range(size):
            matrix[i, i] = (first + 2 * i) ** 2
            if i + 1 < size:
                matrix[i, i + 1] = matrix[i + 1, i] = q
        if first == 0:
            matrix[0, 1] = matrix[1, 0] = mpmath.sqrt(2) * q
        elif first == 1:
            matrix[0, 0] += q if parity == "even" else -q
        return sorted(mpmath.eigsy(matrix, eigvals_only=True))[(ell - first) // 2]


@pytest.mark.parametrize(
    "ell, parity, q", [(0, "even", 1.0), (1, "odd", 1.0), (2, "even", 0.7), (0, "even", 25.0)]
)
def test_mathieu_truncation_matches_extended_precision(ell, parity, q):
    a = mathieu_char_value_truncated(ell, parity, q, 64)
    ref = mpmath_char_value(ell, parity, q, 64)
    assert abs(a - float(ref)) <= 1e-13 * max(1.0, abs(a))


def test_mathieu_char_convergence_error(monkeypatch):
    # the q = 1e5 truncation still moves by 4e-8 between 64 and 128 rows
    with monkeypatch.context() as patch, pytest.raises(CharValueConvergenceError):
        patch.setattr(bases, "_CHAR_TOL", 0.0)
        patch.setattr(bases, "_CHAR_SIZE_CAP", 64)
        mathieu_char_value(0, "even", 1e5)
    with pytest.raises(CharValueConvergenceError):  # first truncation above the cap
        mathieu_char_value(300, "even", 1.0)


def test_mathieu_invalid_orders():
    with pytest.raises(ConfigurationError):
        mathieu_char_value(0, "odd", 1.0)
    with pytest.raises(ConfigurationError):
        mathieu_char_value(-1, "even", 1.0)
    with pytest.raises(ConfigurationError):
        mathieu_char_value(1, "mixed", 1.0)
    with pytest.raises(ConfigurationError):
        mathieu_char_value(0, "even", math.inf)


def test_mathieu_harmonic_limit_ce2():
    nu = np.linspace(0.0, 2.0 * math.pi, 501)
    a = mathieu_char_value(2, "even", 0.0)
    col = mathieu_column(2, 0.0, nu, a=a)
    assert a == pytest.approx(4.0, abs=1e-12)
    np.testing.assert_allclose(col.y, np.cos(2.0 * nu), atol=1e-12)


def test_mathieu_modified_harmonic_limit_se1():
    mu = np.linspace(0.0, 3.0, 301)
    col = mathieu_column(1, 0.0, mu, modified=True, parity="odd",
                         a=mathieu_char_value(1, "odd", 0.0))
    ratio = col.y[1:] / np.sinh(mu[1:])
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12


def test_mathieu_ce0_ode_residual():
    # fourth-order stencil keeps the differencing error below the target
    nu = np.linspace(0.0, 2.0 * math.pi, 4001)
    a = mathieu_char_value(0, "even", 0.25)
    col = mathieu_column(0, 0.25, nu, a=a)
    h = nu[1] - nu[0]
    y = col.y
    d2 = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) / (12 * h**2)
    residual = d2 + (a - 2 * 0.25 * np.cos(2 * nu[2:-2])) * y[2:-2]
    assert np.max(np.abs(residual)) <= 1e-8


def test_mathieu_coefficients_decay_and_normalization():
    harmonics, c = mathieu_coefficients(0, "even", 0.5, mathieu_char_value(0, "even", 0.5))
    assert c[0] > 0
    assert np.linalg.norm(c) == pytest.approx(1.0, rel=1e-14)
    assert abs(c[-1]) < 1e-50  # backward recurrence keeps tiny tails tiny


@pytest.mark.parametrize("q", [1e-3, 0.5, 5.0, 50.0])
@pytest.mark.parametrize("ell, parity", [(0, "even")] + [
    (ell, parity) for ell in (1, 2, 5, 8, 12, 20) for parity in ("even", "odd")
])
def test_plain_mathieu_column_matches_the_direct_sum(ell, parity, q):
    nu = np.linspace(0.0, 2.0 * math.pi, 501)
    a = mathieu_char_value(ell, parity, q)
    col = mathieu_column(ell, q, nu, parity=parity, a=a)
    harmonics, c = mathieu_coefficients(ell, parity, q, a)
    f, df = (np.cos, lambda x: -np.sin(x)) if parity == "even" else (np.sin, np.cos)
    y = sum(ck * f(h * nu) for h, ck in zip(harmonics, c))
    dy = sum(ck * h * df(h * nu) for h, ck in zip(harmonics, c))
    assert np.max(np.abs(col.y - y)) <= 1e-14 * np.max(np.abs(y))
    assert np.max(np.abs(col.dy - dy)) <= 1e-14 * np.max(np.abs(dy))


def test_horner_sums_match_polyval_bit_for_bit():
    # real and complex points, one- and two-column coefficient stacks, signed
    # zeros, infinities and nans, compared bit for bit (nan signs included)
    polyval = np.polynomial.polynomial.polyval
    rng = np.random.default_rng(17)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    for case in range(600):
        n, m, columns = rng.integers(1, 60), rng.integers(1, 200), 1 + case % 2
        terms = rng.standard_normal((n, columns)) * 10.0 ** rng.uniform(-5.0, 5.0, (n, columns))
        special = rng.random((n, columns)) < 0.2
        terms[special] = rng.choice(specials, special.sum())
        if case % 4 < 2:
            x = rng.uniform(-2.0, 2.0, m)
            special = rng.random(m) < 0.1
            x[special] = rng.choice(specials, special.sum())
        else:  # the Mathieu sums' unit circle
            x = np.exp(2j * rng.uniform(-7.0, 7.0, m))
            special = rng.random(m) < 0.1
            x[special] = rng.choice([0.0, -0.0, 1.0, np.inf, np.nan, complex(0.0, np.inf),
                                     complex(-0.0, -0.0)], special.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            actual, expected = bases._horner(x, terms), polyval(x, terms)
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64)), case


@pytest.mark.parametrize("q", [0.5, 5.0, 50.0, 1e-3])
def test_mathieu_ladder_holds_on_every_row(q):
    # Below the order's harmonic the wanted coefficients are the minimal
    # solution downward, so a purely backward recurrence amplified the
    # characteristic value's error by about (a - h^2)/q a row: at q = 0.5 it
    # failed from ell = 10.  At small q the recurred coefficients span more
    # than the double range's square root, and their norm overflowed.
    # RuntimeWarnings are errors under the test settings, so none may leak.
    for parity in ("even", "odd"):
        for ell in range(parity == "odd", 60):
            a = mathieu_char_value(ell, parity, q)
            harmonics, c = mathieu_coefficients(ell, parity, q, a)
            # row k: (a - h_k^2) c_k = q (c_{k-1} + c_{k+1}), with c_{-1} = c_1
            # for cos(2k nu) and c_{-1} = +-c_0 for cos/sin((2k+1) nu)
            diag, below = harmonics**2, np.concatenate(([0.0], c[:-1]))
            if harmonics[0] == 0.0:
                below[1] *= 2.0
            elif harmonics[0] == 1.0:
                diag[0] += q if parity == "even" else -q
            residual = (a - diag) * c - q * (below + np.append(c[1:], 0.0))
            assert np.max(np.abs(residual)) <= 4e-14 * max(1.0, abs(a)), (ell, parity)


def test_mathieu_pair_certified():
    nu = np.linspace(0.0, 2.0 * math.pi, 1001)
    pair = mathieu_pair(0, 0.5, mathieu_profile(0, "even", 0.5), nu,
                        a=mathieu_char_value(0, "even", 0.5))
    assert wronskian_check(pair) <= 1e-8 * max(1.0, abs(pair.W))
    mu = np.linspace(0.0, 3.0, 1001)
    profile = mathieu_profile(1, "odd", 0.25, modified=True)
    pair_mod = mathieu_pair(1, 0.25, profile, mu, modified=True, parity="odd",
                            a=mathieu_char_value(1, "odd", 0.25))
    assert wronskian_check(pair_mod) <= 1e-8 * max(1.0, abs(pair_mod.W))


def test_modified_column_solves_hyperbolic_equation():
    # restricted to mu <= 2: beyond that the hyperbolic-sum round-off noise
    # (absolute, ~1e-11) is amplified by 1/h^2 and swamps the FD oracle
    mu = np.linspace(0.0, 2.0, 2001)
    a = mathieu_char_value(0, "even", 0.5)
    col = mathieu_column(0, 0.5, mu, modified=True, a=a)
    h = mu[1] - mu[0]
    y = col.y
    d2 = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) / (12 * h**2)
    residual = d2 + (2 * 0.5 * np.cosh(2 * mu[2:-2]) - a) * y[2:-2]
    scale = np.max(np.abs(y))
    assert np.max(np.abs(residual)) <= 1e-7 * max(1.0, scale)


# ---------------------------------------------------------------------------
# The subgrid invariant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, grid",
    [
        (partial(trig_pair, 1.0, trig_profile(1.0)), np.linspace(-10, 10, 801)),
        (partial(weber_pair, 0.5, weber_profile(0.5)), np.linspace(-5, 5, 801)),
        (partial(whittaker_pair, 1.3, 1.0, whittaker_profile(1.3, 1.0)),
         np.linspace(0.05, 12.0, 801)),
        (partial(mathieu_pair, 0, 0.5, mathieu_profile(0, "even", 0.5),
                 a=mathieu_char_value(0, "even", 0.5)),
         np.linspace(0, 2 * math.pi, 801)),
        (partial(mathieu_pair, 1, 0.25, mathieu_profile(1, "odd", 0.25, modified=True),
                 modified=True, parity="odd", a=mathieu_char_value(1, "odd", 0.25)),
         np.linspace(0, 3, 801)),
    ],
)
def test_every_basis_pair_passes_wronskian_on_subgrids(kind, grid):
    pair = kind(grid)
    tol = 1e-8 * max(1.0, abs(pair.W))
    assert wronskian_check(pair) <= tol
    rng = np.random.default_rng(11)
    idx = np.sort(rng.choice(grid.size, size=101, replace=False))
    assert wronskian_drift_at(pair, idx) <= tol


def test_trig_pair_rejects_a_zero_wavenumber():
    with pytest.raises(ConfigurationError, match="finite nonzero wavenumber, got 0.0"):
        trig_pair(0.0, trig_profile(0.0), np.linspace(0.0, 1.0, 5))
