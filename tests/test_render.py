"""The vectorized 17-digit table renderer against the per-value rule."""

import json
import math
import os
import re
import signal
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ermakov import render
from ermakov.render import _CHUNK, format_real, table_chunks
from ermakov.runner import parse_config_text, run_config


def _rendered(values) -> list[str]:
    """Each value as the kernel renders it, one csv row per value."""
    text = b"".join(table_chunks(("x",), (np.asarray(values, dtype=float),), "csv")).decode()
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


def _one_value_per_pattern_row() -> list[float]:
    """A value for each (layout, last nonzero digit) row of the keep masks,
    with its negative and its two neighbours."""
    rng = np.random.default_rng(7)
    values = []
    for layout in range(22):
        for last in range(17):
            exponent = layout - 4 if layout < 21 else (-300, -5, 17, 300)[last % 4]
            # the double nearest to a short decimal may show other digits at
            # 17, so digit strings are drawn until one shows its own
            for _ in range(200):
                digits = "".join(map(str, rng.integers(1, 10, last + 1)))
                x = float(f"{digits[0]}.{digits[1:]}e{exponent}")
                if ("%.16e" % x).split("e")[0].replace(".", "").rstrip("0") == digits:
                    break
            else:
                raise AssertionError(f"no value for layout {layout}, last digit {last}")
            values += [x, -x, *_neighbours(x)[::2]]
    return values


@pytest.mark.parametrize("fmt, names", [
    ("csv", ("x",)), ("csv", ("t", "x")),  # at = 4
    ("json-lines", ("x",)), ("json-lines", ("t", "x")),  # at = 8
    ("json-lines", ("abcdef", "x")),  # at = 12
    ("json-lines", ("abcdefghij", "x")),  # at = 16
])
def test_every_pattern_row_in_one_block_and_in_several(fmt, names):
    # the prefixes set the cell's start `at`, so the widened keep masks are
    # held at each of its offsets, on one thread and on both render threads
    values = np.array(_one_value_per_pattern_row())
    for rows in (len(values), 3 * _CHUNK // len(names) + 7):
        columns = tuple(np.resize(np.roll(values, 101 * i), rows) for i in range(len(names)))
        chunks = list(table_chunks(names, columns, fmt))
        assert len(chunks) == 1 + -(-rows // (_CHUNK // len(names)))
        if fmt == "csv":
            expected = [",".join(names)]
            expected += [",".join(format_real(float(v)) for v in row) for row in zip(*columns)]
        else:
            expected = ["{" + ", ".join(f'"{name}": {format_real(float(v))}'
                                        for name, v in zip(names, row)) + "}"
                        for row in zip(*columns)]
        assert b"".join(chunks).decode().split("\n") == expected + [""]


def test_lookup_tables_are_built_once_for_the_render_threads():
    # Two render threads starting together would each build the lookup
    # tables; the calling thread builds them before the first hand-off.
    rng = np.random.default_rng(23)
    columns = tuple(rng.choice([-1.0, 1.0], 3 * _CHUNK) * 10.0 ** rng.uniform(-30, 30, 3 * _CHUNK)
                    for _ in ("t", "x"))
    rows = [(format_real(float(t)), format_real(float(x))) for t, x in zip(*columns)]
    expected = {
        "csv": "t,x\n" + "".join(f"{t},{x}\n" for t, x in rows),
        "json-lines": "".join(f'{{"t": {t}, "x": {x}}}\n' for t, x in rows),
    }
    render._tables.cache_clear()
    for fmt, text in expected.items():
        chunks = list(table_chunks(("t", "x"), columns, fmt))
        assert len(chunks) == 1 + 6  # the header, then 3 * _CHUNK values in blocks of _CHUNK
        assert b"".join(chunks).decode().split("\n") == text.split("\n")  # reports the first bad row
    assert render._tables.cache_info().misses == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_renders_tables_of_several_blocks():
    # A forked child has none of its parent's threads; each table it renders
    # starts its own instead of waiting forever on threads it lacks.
    columns = (np.arange(3 * _CHUNK, dtype=float),)
    text = b"".join(table_chunks(("x",), columns, "csv"))  # on the table's own threads
    pid = os.fork()
    if pid == 0:  # the child leaves here, whatever happens
        code = 1
        try:
            code = 0 if b"".join(table_chunks(("x",), columns, "csv")) == text else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10.0
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


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


def test_columns_unlike_the_names_are_refused():
    with pytest.raises(ValueError, match="as many as names and of equal length"):
        list(table_chunks(("a", "b"), [np.zeros(3)], "csv"))
