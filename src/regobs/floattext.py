"""Shortest round-trip text of float64 arrays, written in bulk.

`format_rows` turns a 2-D float64 array into CSV rows in which every cell is
exactly Python's ``repr(float(v))``: the shortest decimal string that reads
back as the same double, and of those the nearest, ties to even.  The digits
come from the main path of Dragonbox (Jeon, "Dragonbox: A New Floating-Point
Binary-to-Decimal Conversion Algorithm", 2020), run on numpy uint64 arrays:
each cell takes one product of (2 fc + 1) 2**beta with the upper half of a
128-bit cached power of ten, in 32-bit halves.  The few cells that this
leaves unsure (near a carry of the lower half, a tie or an exact midpoint,
and powers of two, whose interval is shorter below) read their digits from
``repr``; on trajectory tables they are under 1 % of the cells, though every
integer near 2**53 is one.  Each cell is then laid out by filling a template
row, four digits at a time from a table of 4-digit words, and gathering,
from a small table indexed by its layout (sign, digit count, decimal-point
position), which columns of the row it keeps.  As ``repr`` does, the text
is positional when -4 < decpt <= 16 and ``d.ddde±XX`` otherwise.  ±0.0
needs no digits, and non-finite cells are written as ``repr`` writes them.

The tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_NEAR = np.uint64(1 << 34)

# A cell is written from one 52-column row: this template with its digits
# and tail filled in.  It holds the sign and "0.000" of a small number, the
# 17 digits ("000" then the first digit, then four 4-digit words) that a
# positional number shows before its point, the sign, first digit and point
# of the exponent form, the 16 digits after the first, and a tail that holds
# "±0.0", the ".0" of a whole number, a non-finite text or the exponent
# "e±XX(X)", right-aligned before the separator.  Zeros, text and the
# exponent form keep one or two runs of columns each.
_TEMPLATE = np.frombuffer(b" -0.0000" + b"0" * 16 + b" -0." + b"0" * 16 + b"0-0.0,  ", dtype=np.uint8)
_DIGITS1, _POINT, _DIGITS2, _TAIL, _SEP = 7, 27, 28, 44, 49
_POSITIONAL = range(-4, 16)  # decimal exponents (decpt - 1) that repr writes positionally
_N_DECPT = len(_POSITIONAL)  # positional forms: decpt = -3..16; then 2- and 3-digit exponents
_PER_SIGN = 17 * (_N_DECPT + 2)  # layouts of one sign, by form and olength 1..17
_TEXT_KEY = 2 * _PER_SIGN  # + 0, 1, 2: nothing, the tail's last 3 or 4 columns
_EXP_MIN, _EXP_MAX = -324, 308  # decimal exponents of finite nonzero doubles


class _Tables(NamedTuple):
    limbs: np.ndarray  # (3, 2047) upper 32-bit limbs of Dragonbox's cached 10**k, low first, by biased exponent
    beta: np.ndarray  # Dragonbox's beta, by biased exponent
    delta: np.ndarray  # the interval width in units of the digits, by biased exponent
    e10: np.ndarray  # decimal exponent of the small-divisor digits, by biased exponent
    digits_at: np.ndarray  # decimal digits of 2**(b - 1023), by b < 1080
    pow10: np.ndarray  # 10**k, k = 0..17
    words: np.ndarray  # the four ASCII digits of 0..9999 as one uint32
    lead: np.ndarray  # the template word of columns 24..27 with the first digit d = 0..9
    tails: np.ndarray  # columns 44..51 as 8 bytes, by decimal exponent
    forms: np.ndarray  # 17 * form - 1, by decimal exponent
    keep: np.ndarray  # (751, 52) template columns kept, by layout key


def _cached_power(k: int) -> int:
    """ceil(10**k * 2**(127 - floor(log2 10**k))), in [2**127, 2**128)."""
    q = (k * 1741647) >> 19  # floor(log2 10**k)
    if k >= 0:
        num, den = 10**k << max(127 - q, 0), 1 << max(q - 127, 0)
    else:
        num, den = 1 << (127 - q), 10**-k
    return -(-num // den)


def _main_constants():
    """Cached powers as their upper three 32-bit limbs, low first, beta,
    delta and small-divisor decimal exponent, by biased binary exponent
    (Dragonbox with kappa = 2); each distinct power is built once."""
    e = np.maximum(np.arange(2047), 1) - 1075
    minus_k = ((e * 315653) >> 20) - 2  # floor(e log10 2) - kappa
    beta = e + ((-minus_k * 1741647) >> 19)
    ks, index = np.unique(-minus_k, return_inverse=True)  # 617 distinct powers
    powers = b"".join(_cached_power(k).to_bytes(16, "little") for k in ks.tolist())
    limbs = np.frombuffer(powers, dtype="<u4").reshape(-1, 4)[index, 1:].T.astype(np.uint64)
    assert 6 <= beta.min() and beta.max() <= 9  # so (2 fc + 1) 2**beta < 2**63
    delta = ((limbs[2] << np.uint64(32)) | limbs[1]) >> (63 - beta).astype(np.uint64)
    return limbs, beta.astype(np.uint64), delta, minus_k + 2


def _keep(sign: int, olength: int, form: int) -> list[int]:
    """Template columns of one finite cell.  Forms 0..19 are positional with
    decpt = form - 3; form 20 (21) is the exponent form with two (three)
    exponent digits."""
    decpt = form - 3
    if form >= _N_DECPT:
        cols = [_POINT - 2] if sign else []
        cols.append(_POINT - 1)
        if olength > 1:
            cols += [_POINT, *range(_DIGITS2, _DIGITS2 + olength - 1)]
        return cols + [*range(_SEP - (form - _N_DECPT + 4), _SEP + 1)]
    cols = [1] if sign else []
    if decpt <= 0:
        cols += [2, 3, *range(_DIGITS1 + decpt, _DIGITS1 + olength)]
    else:
        cols += range(_DIGITS1, _DIGITS1 + decpt)
        if decpt < olength:
            cols += [_POINT, *range(_DIGITS2 + decpt - 1, _DIGITS2 + olength - 1)]
        else:
            cols += [_SEP - 2, _SEP - 1]
    return cols + [_SEP]


def _tail(exponent: int) -> bytes:
    """Columns 44..51 of a cell with this decimal exponent: the template's
    for a positional cell, else the exponent right-aligned before ','."""
    if exponent in _POSITIONAL:
        return _TEMPLATE[_TAIL:].tobytes()
    return f"{'e' if abs(exponent) >= 100 else '0e'}{exponent:+03d},  ".encode()


@functools.cache
def _tables() -> _Tables:
    layouts = itertools.chain((_keep(sign, olength, form) for sign in (0, 1) for form in range(_N_DECPT + 2)
                               for olength in range(1, 18)),
                              [[_SEP], [*range(_SEP - 3, _SEP + 1)], [*range(_SEP - 4, _SEP + 1)]])
    keep = np.zeros((_TEXT_KEY + 3, _TEMPLATE.size), dtype=bool)
    for row, cols in zip(keep, layouts):
        row[cols] = True
    exponents = range(_EXP_MIN, _EXP_MAX + 1)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    forms = [x - _POSITIONAL.start if x in _POSITIONAL else _N_DECPT + (abs(x) >= 100) for x in exponents]
    return _Tables(
        *_main_constants(),
        digits_at=np.array([len(str(1 << max(b - 1023, 0))) for b in range(1023 + 57)], dtype=np.int64),
        pow10=np.array([10**k for k in range(18)], dtype=np.uint64),
        words=np.stack([np.tile(np.repeat(ascii_digits, 10**(3 - k)), 10**k) for k in range(4)], axis=1)
        .view(np.uint32).ravel(),
        lead=np.frombuffer("".join(f" -{d}." for d in range(10)).encode(), dtype=np.uint32),
        tails=np.frombuffer(b"".join(map(_tail, exponents)), dtype=np.uint64),
        forms=17 * np.array(forms, dtype=np.int64) - 1,
        keep=keep,
    )


def _repr_digits(values) -> np.ndarray:
    """(n, 2) digits and decimal exponent of positive doubles, read from
    their repr with trailing zeros moved into the exponent."""
    found = []
    for v in values.tolist():
        mantissa, _, exponent = repr(v).partition("e")
        whole, _, fraction = mantissa.partition(".")
        text = (whole + fraction).rstrip("0")
        found.append((int(text), int(exponent or 0) + len(whole) - len(text)))
    return np.array(found, dtype=np.int64).reshape(-1, 2)


def _shortest(bits, tables: _Tables):
    """Shortest round-trip decimal of the bit patterns of finite, positive
    doubles, nearest and ties to even: returns (digits, e10) with digits *
    10**e10 the decimal, with no trailing zeros.  Dragonbox's main path
    settles almost every cell; the cells it leaves unsure take their digits
    from repr."""
    biased = (bits >> 52).astype(np.intp)
    two_fc = np.minimum(bits, (bits & _M52) | _HIDDEN) << 1  # a subnormal keeps its bits
    beta = tables.beta[biased]
    c1, c2, c3 = (limb[biased] for limb in tables.limbs)
    # zi = floor(u c / 2**128), u = (2 fc + 1) 2**beta < 2**63, from u times
    # the upper half (c3, c2) of c's 32-bit limbs.  What that leaves out
    # adds to bits 64..127, low, at least u1 c1 and less than that plus
    # 2**34, so a cell within 2**34 of a carry, or with low = 0, where z may
    # be an integer, is unsure.
    u = (two_fc | 1) << beta
    u0, u1 = u & _M32, u >> 32
    p01, p10 = u0 * c3, u1 * c2
    mid = ((u0 * c2) >> 32) + (p01 & _M32) + (p10 & _M32)
    zi = u1 * c3 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    low = mid << 32
    low += u1 * c1
    zi += low < mid << 32

    # The larger divisor 10**(kappa + 1) gives the digits when a multiple of
    # it lies in the interval, less than delta below zi.
    digits = zi // np.uint64(1000)
    r = zi - digits * np.uint64(1000)
    delta = tables.delta[biased]
    big = r < delta
    # Otherwise the smaller divisor 10**kappa: the digits of y, within half
    # a unit of z - delta / 2, rounded to nearest.
    dist = r + np.uint64(50) - (delta >> 1)  # wraps where big, which takes digits as they are
    step = dist // np.uint64(100)
    digits = np.where(big, digits, digits * np.uint64(10) + step)
    e10 = tables.e10[biased] + big
    # Unsure: r = delta, which compares the fractions of z and of the left
    # endpoint, a dist divisible by 100, which rounds by the parity of y and
    # whether it is an integer, and a power of two, whose interval below it
    # is shorter.
    unsure = np.flatnonzero((low + _NEAR <= _NEAR) | (r == delta) | (~big & (dist == step * np.uint64(100)))
                            | (two_fc == _HIDDEN << 1))

    # digits of the larger divisor may end in zeros
    zeros = np.flatnonzero(big & (digits % np.uint64(10) == 0))
    if zeros.size:
        ends, removed = digits[zeros], np.zeros(zeros.size, dtype=np.int64)
        for k in (16, 8, 4, 2, 1):
            head = ends // tables.pow10[k]
            hit = head * tables.pow10[k] == ends
            np.copyto(ends, head, where=hit)
            removed += k * hit
        digits[zeros] = ends
        e10[zeros] += removed
    if unsure.size:
        digits[unsure], e10[unsure] = _repr_digits(bits[unsure].view(np.float64)).T
    return digits, e10


def _cells(bits, tables: _Tables):
    """Layout keys and filled template rows, as (n, 13) uint32, of finite,
    nonzero doubles."""
    digits, e10 = _shortest(bits & np.uint64((1 << 63) - 1), tables)
    # digits < 2**57 round to a double whose exponent is floor(log2(digits))
    # or, just below a power of two, one more, which has as many digits
    olength = tables.digits_at[digits.astype(np.float64).view(np.int64) >> 52]
    olength += digits >= tables.pow10[olength]
    exponent = e10 + olength - (1 + _EXP_MIN)
    digits *= tables.pow10[17 - olength]
    digits = digits.view(np.int64)
    first = digits // 10**16
    rest = digits - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    text = np.empty((digits.size, _TEMPLATE.size // 4), dtype=np.uint32)
    text[:, 0] = _TEMPLATE.view(np.uint32)[0]
    text[:, 1] = tables.words[first]
    text[:, 6] = tables.lead[first]
    for k, half in ((0, high), (2, low)):
        part = half // 10**4
        for c, group in ((k, part), (k + 1, half - part * 10**4)):
            text[:, 2 + c] = text[:, 7 + c] = tables.words[group]
    text[:, 11:13] = tables.tails[exponent].view(np.uint32).reshape(-1, 2)
    key = (bits >> 63).astype(np.intp) * _PER_SIGN + tables.forms[exponent] + olength
    return key, text


def _layout(values, empty):
    """The filled template rows and layout keys of every cell of a 2-D
    float64 array, with a row's last separator a newline."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    cols = values.shape[1]
    flat = values.ravel()
    bits = flat.view(np.uint64)
    tables = _tables()
    text = np.empty((flat.size, _TEMPLATE.size), dtype=np.uint8)
    text[:] = _TEMPLATE
    key = (bits >> 63).astype(np.intp) + (_TEXT_KEY + 1)
    finite = np.isfinite(flat)
    nonzero = np.flatnonzero(finite & (flat != 0))
    if nonzero.size:
        key[nonzero], text.view(np.uint32)[nonzero] = _cells(bits[nonzero], tables)
    for k in np.flatnonzero(~finite):
        word = repr(float(flat[k])).encode("ascii")
        text[k, _SEP - len(word):_SEP] = np.frombuffer(word, dtype=np.uint8)
        key[k] = _TEXT_KEY + len(word) - 2
    if empty is not None:
        key[np.asarray(empty, dtype=bool).ravel()] = _TEXT_KEY
    text[cols - 1::cols, _SEP] = ord("\n")
    return text, key


def format_rows(values, empty=None) -> bytes:
    """CSV text of a 2-D float64 array: cells joined by ',' and rows ended
    by '\\n', each cell exactly ``repr(float(v))``, and cells where the
    optional boolean array `empty` is true left blank.  It holds about 270
    bytes of memory per cell at its peak, so format large arrays in row
    blocks."""
    text, key = _layout(values, empty)
    return text[_tables().keep[key]].tobytes()
