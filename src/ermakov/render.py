"""Reals rendered with 17 significant digits, one value or a whole table.

:func:`format_real` is the rule: ``'%.17g' % x``, which round-trips every
double.  :func:`table_chunks` streams the bytes of a table under that rule
block by block, without formatting values one at a time.  Two threads render
a table of several blocks, half a block each and one block ahead of the one
handed back, so rendering holds a few MB however long the table is.

Each finite nonzero |x| = f 2^e is scaled to y = |x| 10^(16 - E) in
[1e16, 1e17) as a double-double: Dekker's exact product of f with a
(hi, lo, 2^k) table entry of the power of ten (Dekker, Numer. Math. 18, 224
(1971)), whose error is about 2^-48 on y.  Rounding y to the nearest integer
N gives the 17 digits and E the decimal exponent.  Where that rounding is
not certain, that is where y lies within 2^-30 of a half-integer (which
includes every exact tie), and for zeros and non-finite values, the value is
rendered by :func:`format_real` instead, whose conversion is correctly
rounded (Gay, AT&T Numerical Analysis Manuscript 90-10 (1990)).  The bytes
are therefore those of ``format_real`` applied to every value.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Values per rendering chunk: bounds the work arrays at a few MB.
_CHUNK = 16384

# Decimal scale exponents 16 - E needed from 5e-324 (E = -324) to the
# largest double (E = 308), one to spare on each side for E corrections.
_P_LO, _P_HI = -293, 341
_FRAC_BITS = 110
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_TIE_BAND = 2.0**-30

# Byte slots of one value.  Every rendering is a subsequence of this
# template: the D (digit) and X (exponent) slots are filled in per value,
# the pattern of the value's layout masks what it does not show, and zero
# bytes are dropped.  The digits appear twice, as integer part before the
# point and as fraction after it.  Offsets: 0 sign, 1-5 "0.000" (fixed
# notation below 1), 7-23 digits, 24 point, 27-43 digits, 47 "e", 48-51
# exponent sign and three digits.
_TEMPLATE = (
    b"\0" b"0.000" b"\0" b"D" b"DDDDDDDDDDDDDDDD" b"."
    b"\0\0" b"D" b"DDDDDDDDDDDDDDDD" b"\0\0\0e" b"X\0XX"
)
_WIDTH = len(_TEMPLATE)
_INT, _POINT, _FRAC, _EXP = 7, 24, 27, 48  # digits 1-16 of each copy start 4-aligned
# Layouts: fixed notation at decimal exponent X = layout + _FIXED_LO for X
# in [_FIXED_LO, _FIXED_HI], and the exponent form.
_FIXED_LO, _FIXED_HI, _EXPONENT = -4, 16, 21


def format_real(x: float) -> str:
    """Reals with 17 significant digits (round-trip exact for doubles)."""
    return "%.17g" % x


class _Tables(NamedTuple):
    hi_hi: np.ndarray  # 10^p = (hi_hi + hi_lo + lo) 2^k, at row p - _P_LO
    hi_lo: np.ndarray
    lo: np.ndarray
    k: np.ndarray
    quads: np.ndarray  # uint32 holding the four ASCII digits of 0..9999
    trailing: np.ndarray  # trailing zeros of 0..9999 written with four digits
    exponents: np.ndarray  # uint32 holding the exponent slots of X + 330
    patterns: np.ndarray  # keep masks at row layout * 17 + last nonzero digit


def _pattern(layout: int, last: int) -> bytes:
    """Keep mask of the template for a layout and a last nonzero digit."""
    keep = bytearray(_WIDTH)
    keep[0] = 1
    x = layout + _FIXED_LO
    if layout == _EXPONENT:
        integer_end = 0
        keep[_EXP - 1 : _EXP + 4] = b"\1" * 5
    elif x < 0:
        integer_end = -1
        keep[1 : 2 - x] = b"\1" * (1 - x)  # "0." and -x - 1 zeros
    else:
        integer_end = x
    for j in range(17):
        keep[(_INT if j <= integer_end else _FRAC) + j] = j <= max(integer_end, last)
    keep[_POINT] = 0 <= integer_end < last
    return bytes(0xFF if b else 0 for b in keep)


@lru_cache(maxsize=None)
def _tables() -> _Tables:
    """Every lookup table of the kernel, built on first use.

    Each power-of-ten entry is 10^p / 2^k, with hi in [1, 2), rounded to
    110 fractional bits in exact integer arithmetic; hi is stored split in
    halves (Veltkamp) for the exact product.
    """
    one = 1 << _FRAC_BITS
    his, los, ks = [], [], []
    for p in range(_P_LO, _P_HI + 1):
        if p >= 0:
            k = (10**p).bit_length() - 1
            shift = _FRAC_BITS - k
            s = 10**p << shift if shift >= 0 else (10**p + (1 << (-shift - 1))) >> -shift
        else:
            d = 10**-p
            k = -d.bit_length()
            s = ((1 << (_FRAC_BITS - k + 1)) + d) // (2 * d)
        hi = s / one
        his.append(hi)
        los.append((s - (int(hi * 2.0**52) << (_FRAC_BITS - 52))) / one)
        ks.append(k)
    hi = np.array(his)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    quads = [f"{i:04d}" for i in range(10000)]
    exponents = [  # %g writes at least two exponent digits
        ("-" if x < 0 else "+") + (f"{abs(x)}" if abs(x) >= 100 else f"\0{abs(x):02d}")
        for x in range(-330, 331)
    ]
    return _Tables(
        hi_hi=hi_hi,
        hi_lo=hi - hi_hi,
        lo=np.array(los),
        k=np.array(ks, dtype=np.int32),
        quads=np.frombuffer("".join(quads).encode(), dtype=np.uint32),
        trailing=np.array([len(s) - len(s.rstrip("0")) for s in quads], dtype=np.int8),
        exponents=np.frombuffer("".join(exponents).encode(), dtype=np.uint32),
        patterns=np.frombuffer(
            b"".join(_pattern(layout, last) for layout in range(22) for last in range(17)),
            dtype=np.uint8,
        ).reshape(-1, _WIDTH),
    )


def _scaled(f, e, row, t: _Tables):
    """(yh, yl) with yh + yl = f 2^e 10^(row + _P_LO) to about 2^-106 relative."""
    hi_hi, hi_lo, lo, k = (np.take(a, row) for a in (t.hi_hi, t.hi_lo, t.lo, t.k))
    k += e
    ph = hi_hi + hi_lo
    ph *= f
    f_hi = _SPLIT * f
    f_hi -= f_hi - f  # Veltkamp: c - (c - f)
    f_lo = f - f_hi
    err = f_hi * hi_hi  # then ((f_hi hi_hi - ph) + f_hi hi_lo + f_lo hi_hi) + f_lo hi_lo
    err -= ph
    err += np.multiply(f_hi, hi_lo, out=f_hi)
    err += np.multiply(f_lo, hi_hi, out=hi_hi)
    err += np.multiply(f_lo, hi_lo, out=hi_lo)
    err += np.multiply(f, lo, out=lo)  # s = err + f lo
    yh = np.add(ph, err, out=f_hi)
    err -= np.subtract(yh, ph, out=ph)  # yl = s - (yh - ph)
    return np.ldexp(yh, k, out=yh), np.ldexp(err, k, out=err)


def _out_of_range(yh, yl):
    return ((yh < 1e16) | ((yh == 1e16) & (yl < 0.0)),
            (yh > 1e17) | ((yh == 1e17) & (yl >= 0.0)))


def _decimal(x, t: _Tables):
    """(N, E, special): |x| = N 10^(E - 16) to 17 digits where certain, N = 1e16 if special."""
    ax = np.abs(x)
    special = ~np.isfinite(ax) | (ax == 0.0)
    np.putmask(ax, special, 1.0)
    big_e = np.floor(np.log10(ax)).astype(np.intp)
    f, e = np.frexp(ax, out=(ax, None))
    yh, yl = _scaled(f, e, (16 - _P_LO) - big_e, t)
    low, high = _out_of_range(yh, yl)
    off = np.flatnonzero(low | high)
    if off.size:  # log10 put E one off, next to a power of ten
        big_e[off] += high[off].astype(np.intp) - low[off]
        yh[off], yl[off] = _scaled(f[off], e[off], (16 - _P_LO) - big_e[off], t)
        low, high = _out_of_range(yh, yl)
        special |= low | high
    fl = np.floor(yl)
    frac = np.subtract(yl, fl, out=yl)
    special |= np.abs(frac - 0.5) <= _TIE_BAND
    n = yh.astype(np.int64) + fl.astype(np.int64)
    n += frac > 0.5
    top = n == 10**17  # rounded up to the next power of ten
    np.putmask(n, top | special, 10**16)
    return n, big_e + top, special


def _digits(n, words, value, t: _Tables):
    """Write the 17 digits of ``n`` into both copies; return its trailing zero digits."""
    hi9 = n // 10**8
    lo8 = (n - hi9 * 10**8).astype(np.int32)
    hi9 = hi9.astype(np.int32)
    lead = hi9 // 10**8
    value[:, _INT] = value[:, _FRAC] = lead + ord("0")
    groups = []
    for part in (hi9 - lead * 10**8, lo8):  # digits 2-9, then 10-17; a % b is slower
        upper = part // 10**4
        groups += (upper.astype(np.intp), (part - upper * 10**4).astype(np.intp))
    for i, g in enumerate(groups):
        words[:, _INT // 4 + 1 + i] = words[:, _FRAC // 4 + 1 + i] = np.take(t.quads, g)
    zeros, run = np.take(t.trailing, groups[3]), groups[3] == 0
    for g in groups[2::-1]:
        zeros += run * np.take(t.trailing, g)
        run &= g == 0
    return zeros


def _render_into(x: np.ndarray, cells: np.ndarray, at: int, patterns: np.ndarray) -> None:
    """Write ``format_real(x[i])`` into row i of the uint8 array ``cells``.

    Columns ``at`` .. ``at + _WIDTH`` of every row must hold ``_TEMPLATE``,
    and ``at`` and the row length must be multiples of 4; those columns are
    left holding the rendering, spread out among zero bytes.  ``patterns``
    holds the keep masks widened to the row length, 0xFF outside those columns.
    """
    t = _tables()
    n, big_e, special = _decimal(x, t)
    words = cells.view(np.uint32)[:, at // 4 :]
    value = cells[:, at : at + _WIDTH]
    zeros = _digits(n, words, value, t)
    value[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    words[:, _EXP // 4] = np.take(t.exponents, big_e + 330)
    fixed = (big_e >= _FIXED_LO) & (big_e <= _FIXED_HI)
    row = np.where(fixed, big_e - _FIXED_LO, _EXPONENT) * 17 + (16 - zeros)
    np.bitwise_and(cells, np.take(patterns, row, axis=0), out=cells)

    for i in np.flatnonzero(special).tolist():
        text = format_real(float(x[i])).encode()
        value[i] = 0
        value[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)


def table_chunks(names: tuple[str, ...], columns, fmt: str):
    """The csv (header line, comma-separated rows) or json-lines (one object
    per row) table of the equal-length 1-D ``columns``, every value rendered
    by :func:`format_real`: the header, then one uint8 array of whole rows per
    block of at most ``_CHUNK`` values, in order, read as slices of each column
    (which need only a length), so no more than two blocks are held at once."""
    width = len(names)
    columns = list(columns)
    if len(columns) != width or len({len(c) for c in columns}) != 1:
        raise ValueError("table columns must be as many as names and of equal length")
    if fmt == "csv":
        head = ",".join(names) + "\n"
        prefixes = [""] + [","] * (width - 1)
        suffix = "\n"
    else:
        head = ""
        prefixes = ["{" + json.dumps(names[0]) + ": "]
        prefixes += [", " + json.dumps(name) + ": " for name in names[1:]]
        suffix = "}\n"
    # One cell per value: its column's prefix, right-aligned at a multiple
    # of 4, the template, and the row suffix after the last column.
    at = -(-max(len(s) for s in prefixes) // 4) * 4
    cell = -(-(at + _WIDTH + len(suffix)) // 4) * 4
    frame = np.zeros((width, cell), dtype=np.uint8)
    for i, s in enumerate(prefixes):
        frame[i, at - len(s) : at] = np.frombuffer(s.encode(), dtype=np.uint8)
    frame[:, at : at + _WIDTH] = np.frombuffer(_TEMPLATE, dtype=np.uint8)
    frame[-1, at + _WIDTH : at + _WIDTH + len(suffix)] = np.frombuffer(suffix.encode(), np.uint8)
    # keep masks as wide as a cell; the lookup tables are built here, before any thread
    patterns = np.pad(_tables().patterns, ((0, 0), (at, cell - at - _WIDTH)), constant_values=0xFF)
    step, rows = max(1, _CHUNK // width), len(columns[0])

    def render(start, stop):
        block = np.stack([c[start:stop] for c in columns], axis=1, dtype=np.float64)
        buf = np.tile(frame.ravel(), len(block))
        _render_into(block.ravel(), buf.reshape(-1, cell), at, patterns)
        return buf[buf != 0]

    yield head.encode()
    if rows <= step:  # a table of one block is rendered here, with no hand-off
        if rows:
            yield render(0, rows)
        return
    from concurrent.futures import ThreadPoolExecutor  # only such a table pays for the import

    ahead, half = deque(), -(-step // 2)
    # the table's own two threads; leaving the block, on end or close, waits for every job
    with ThreadPoolExecutor(2, thread_name_prefix="render") as pool:
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            ahead.append([pool.submit(render, a, min(a + half, stop))
                          for a in range(start, stop, half)])
            if len(ahead) > 1:  # one block ahead keeps both threads busy
                yield np.concatenate([job.result() for job in ahead.popleft()])
        yield np.concatenate([job.result() for job in ahead[0]])
