"""The vectorized 17-digit table renderer against the per-value rule."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ermakov.render import format_real, render_table
from ermakov.runner import parse_config_text, run_config


def _rendered(values) -> list[str]:
    """Each value as the kernel renders it, one csv row per value."""
    text = render_table(("x",), np.asarray(values, dtype=float)[:, None], "csv").decode()
    assert text.startswith("x\n") and text.endswith("\n")
    return text[2:-1].split("\n")


def _assert_per_value(values):
    values = [float(v) for v in values]
    assert _rendered(values) == [format_real(v) for v in values]


@settings(max_examples=3 * settings.default.max_examples)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
def test_kernel_matches_format_real(values):
    _assert_per_value(values)


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def _is_17_digit_tie(x: float) -> bool:
    """Whether |x| lies exactly halfway between two 17-digit decimals."""
    exact = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    scaled = exact * Fraction(10) ** (16 - e)
    return scaled.denominator == 2


def test_kernel_on_powers_of_ten_and_two():
    _assert_per_value([float(f"1e{p}") for p in range(-323, 309)])
    _assert_per_value([10.0**p for p in range(-307, 309)])
    _assert_per_value(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_kernel_at_notation_switches():
    # %g changes between fixed and exponent notation at 1e-4 and 1e17
    values = [s * v for x in (1e-5, 1e-4, 1e16, 1e17) for v in _neighbours(x) for s in (1, -1)]
    _assert_per_value(values)


def test_kernel_on_dyadic_ties():
    # 18 significant digits ending in 5: I + m / 2^j with I of 18 - j digits,
    # and odd multiples of 2^-22 .. 2^-25
    values = [int("123456789012345678"[: 18 - j]) + m * 2.0**-j
              for j in range(2, 18) for m in (1, 3, 5, 7)]
    values += list(np.ldexp(np.arange(1.0, 200.0, 2.0)[:, None], np.arange(-25, -21)).ravel())
    values += [m * 2.0**k for m in (2.5, 1.25, 0.625) for k in range(-60, 61)]
    assert sum(map(_is_17_digit_tie, values)) > 150  # the fallback rule is exercised
    _assert_per_value(values + [-v for v in values])


def test_kernel_on_extremes():
    _assert_per_value([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                       -1.7976931348623157e308, math.nan, math.inf, -math.inf])


PRESETS = {
    "free": "problem.kind = free_particle\nproblem.k0 = 1.0\nsector.x.C = 1.0\n"
            "trajectory.x.1 = 0.0:5.0:51\n",
    "harmonic": "problem.kind = harmonic_oscillator\nproblem.omega = 1.0\nproblem.E = 1.0\n"
                "trajectory.xi.1 = 0.25:2.0:41\n",
    "coulomb": "problem.kind = coulomb_halfline\nproblem.alpha = 1.3\nproblem.E = -0.5\n",
    "two_center": "problem.kind = two_center_elliptic\nproblem.a = 1.0\nproblem.Z = 1.0\n"
                  "problem.k_sq = 2.0\nproblem.ell = 1\nproblem.parity = odd\n",
}
_JSON_FIELD = re.compile(r'"([^"]+)": ([^,}]+)')


def _rerendered(path) -> str:
    """The table at ``path`` re-rendered value by value with format_real."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        out = [lines[0]]
        out += [",".join(format_real(float(v)) for v in line.split(",")) for line in lines[1:]]
    else:
        out = []
        for line in lines:
            fields = _JSON_FIELD.findall(line)
            body = ", ".join(f"{json.dumps(name)}: {format_real(float(v))}" for name, v in fields)
            out.append("{" + body + "}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("preset", PRESETS)
def test_written_tables_match_per_value_rule(tmp_path, preset, fmt):
    # 17 digits round-trip every double, so a table whose bytes equal its
    # values re-rendered one at a time was rendered by format_real.
    config = parse_config_text(PRESETS[preset] + f"output.format = {fmt}\n")
    _, written = run_config(config, output_dir=tmp_path)
    tables = [p for p in written if p.name != "report.json"]
    assert tables and {p.suffix for p in tables} == {".csv" if fmt == "csv" else ".jsonl"}
    for path in tables:
        assert path.read_bytes() == _rerendered(path).encode()
