"""Shortest round-trip text of float64 arrays, written in bulk.

`format_rows` turns a 2-D float64 array into CSV rows in which every cell is
exactly Python's ``repr(float(v))``: the shortest decimal string that reads
back as the same double, and of those the nearest, ties to even.  The digits
come from Ryu (Adams, "Ryū: fast float-to-string conversion", PLDI 2018),
which finds them with fixed-width integer arithmetic; here that arithmetic
runs on numpy uint64 arrays, with the 125-bit powers of five held as 32-bit
limbs.  Each cell is then laid out by gathering, from a small table indexed
by its layout (sign, digit count, decimal-point position), which columns of
a fixed template row it keeps.  As ``repr`` does, the text is positional
when -4 < decpt <= 16 and ``d.ddde±XX`` otherwise.  ±0.0 needs no digits,
and only non-finite cells go through ``repr`` itself.

The tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_M32 = 0xFFFFFFFF
_POW5_BITS = 125  # bit length of Ryu's multipliers 5^i and 2^k / 5^q
_LIMB_SHIFT = 96  # every Ryu shift lies in 118..125, so results sit in limbs 3 to 5

# A cell is written from one 52-column row: this template with its digits,
# exponent and text slot filled in.  Its layout keeps the sign, the "0.000"
# of a small number, the 17 digits (zero-padded on the right) up to the
# decimal point, the point, the digits after it, the "0" of a whole number's
# ".0", the exponent "e±XXX", a text slot for non-finite cells, and the
# separator, or some of them.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"0e+000" + b"    " + b",", dtype=np.uint8)
_DIGITS1, _POINT, _DIGITS2, _WHOLE, _EXP, _TEXT, _SEP = 6, 23, 24, 41, 42, 47, 51
_N_DECPT = 20  # positional forms: decpt = -3..16; then 2- and 3-digit exponents
_PER_SIGN = 17 * (_N_DECPT + 2)  # layouts of one sign, by form and olength 1..17
_ZERO_KEY = 4 * 17  # the digit 0 at decpt 1, which reads "0.0"
_TEXT_KEY = 2 * _PER_SIGN  # + k: the first k columns of the text slot


class _Tables(NamedTuple):
    mul: np.ndarray  # (4, 2047) uint64 limbs of Ryu's multiplier, by biased exponent
    off: np.ndarray  # Ryu's shift minus _LIMB_SHIFT, by biased exponent
    q: np.ndarray  # Ryu's q, by biased exponent
    e10: np.ndarray  # decimal exponent of the unrounded digits, by biased exponent
    pow5: np.ndarray  # 5**k, k = 0..21
    pow10: np.ndarray  # 10**k, k = 0..19
    keep: np.ndarray  # (753, 52) template columns kept, by layout key


def _pow5bits(e: int) -> int:
    """Bit length of 5**e for 0 <= e <= 3528."""
    return ((e * 1217359) >> 19) + 1


def _ryu_constants(biased: int) -> tuple[int, int, int, int]:
    """Ryu's multiplier, shift, q and decimal exponent for one biased
    binary exponent (d2d with two extra mantissa bits)."""
    e2 = max(biased, 1) - 1077
    if e2 >= 0:
        q = ((e2 * 78913) >> 18) - (e2 > 3)
        k = _POW5_BITS + _pow5bits(q) - 1
        return (1 << k) // 5**q + 1, q - e2 + k, q, q
    q = ((-e2 * 732923) >> 20) - (-e2 > 1)
    i = -e2 - q
    k = _pow5bits(i) - _POW5_BITS
    return (5**i >> k if k >= 0 else 5**i << -k), q - k, q, q + e2


def _keep(sign: int, olength: int, form: int) -> list[int]:
    """Template columns of one finite cell.  Forms 0..19 are positional with
    decpt = form - 3; form 20 (21) is the exponent form with two (three)
    exponent digits."""
    decpt = form - 3
    cols = [0] if sign else []
    if form >= _N_DECPT:
        cols.append(_DIGITS1)
        if olength > 1:
            cols += [_POINT, *range(_DIGITS2 + 1, _DIGITS2 + olength)]
        cols += [_EXP, _EXP + 1, *range(_EXP + 5 - (form - _N_DECPT + 2), _EXP + 5)]
    elif decpt <= 0:
        cols += [1, 2, *range(3, 3 - decpt), *range(_DIGITS1, _DIGITS1 + olength)]
    else:
        cols += [*range(_DIGITS1, _DIGITS1 + decpt), _POINT, *range(_DIGITS2 + decpt, _DIGITS2 + olength)]
        if decpt >= olength:
            cols.append(_WHOLE)
    return cols + [_SEP]


@functools.cache
def _tables() -> _Tables:
    mul, shift, q, e10 = zip(*(_ryu_constants(biased) for biased in range(2047)))
    assert 118 <= min(shift) and max(shift) <= 125
    layouts = [_keep(sign, olength, form)
               for sign in (0, 1) for form in range(_N_DECPT + 2) for olength in range(1, 18)]
    layouts += [[*range(_TEXT, _TEXT + k), _SEP] for k in range(5)]
    keep = np.zeros((len(layouts), _TEMPLATE.size), dtype=bool)
    for row, cols in zip(keep, layouts):
        row[cols] = True
    return _Tables(
        mul=np.array([[(m >> (32 * k)) & _M32 for m in mul] for k in range(4)], dtype=np.uint64),
        off=np.array(shift, dtype=np.uint64) - np.uint64(_LIMB_SHIFT),
        q=np.array(q, dtype=np.int64),
        e10=np.array(e10, dtype=np.int64),
        pow5=np.array([5**k for k in range(22)], dtype=np.uint64),
        pow10=np.array([10**k for k in range(20)], dtype=np.uint64),
        keep=keep,
    )


def _products(m2, mm_shift, mul, off):
    """floor(m * M / 2**(96 + off)) for m = 4*m2, 4*m2 + 2 and
    4*m2 - 1 - mm_shift, where m2 < 2**53 and M is given by its 32-bit limbs
    `mul`: Ryu's vr, vp and vm."""
    cols = np.zeros((6, m2.size), dtype=np.uint64)
    for a, part in enumerate((m2 & np.uint64(_M32), m2 >> 32)):
        for b in range(4):
            p = part * mul[b]
            cols[a + b] += p & np.uint64(_M32)
            cols[a + b + 1] += p >> 32
    # 4 * m2 * M column by column; each column stays below 2**37
    cols = cols.view(np.int64) << 2
    mul = mul.view(np.int64)
    results = []
    for step in (0, 2, -1 - mm_shift.astype(np.int64)):
        limbs = [cols[c] + step * mul[c] for c in range(4)] + [cols[4], cols[5]]
        for c in range(5):
            limbs[c + 1] = limbs[c + 1] + (limbs[c] >> 32)  # arithmetic, so borrows carry too
        low = (limbs[3] & _M32).view(np.uint64) | (limbs[4].view(np.uint64) << 32)
        results.append((low >> off) | (limbs[5].view(np.uint64) << (64 - off)))
    return results


def _shortest(bits, tables: _Tables):
    """Ryu's d2d on the bit patterns of finite, positive doubles: returns
    (digits, e10) with digits * 10**e10 the shortest decimal that reads
    back as the double, and the nearest such, with no trailing zeros."""
    ieee_m = bits & np.uint64((1 << 52) - 1)
    biased = (bits >> 52).astype(np.intp)
    m2 = np.where(biased == 0, ieee_m, ieee_m | np.uint64(1 << 52))
    even = (m2 & 1) == 0
    mm_shift = (ieee_m != 0) | (biased <= 1)
    vr, vp, vm = _products(m2, mm_shift, tables.mul[:, biased], tables.off[biased])

    # Which of vr and the bounds are exact, i.e. lost only zeros to the shift.
    mv = m2 << 2
    q = tables.q[biased]
    up = biased >= 1077
    vr_tz = np.zeros(bits.size, dtype=bool)
    vm_tz = np.zeros(bits.size, dtype=bool)
    small = up & (q <= 21)
    if small.any():
        p5 = tables.pow5[np.minimum(q, 21)]
        mv5 = small & (mv % 5 == 0)
        vr_tz |= mv5 & (mv % p5 == 0)
        vm_tz |= small & ~mv5 & even & ((mv - 1 - mm_shift) % p5 == 0)
        vp -= small & ~mv5 & ~even & ((mv + 2) % p5 == 0)
    tiny = ~up & (q <= 1)
    vr_tz |= tiny
    vm_tz |= tiny & even & mm_shift
    vp -= tiny & ~even
    mid = ~up & (q > 1) & (q < 63)
    vr_tz |= mid & (mv & ((np.uint64(1) << np.minimum(q, 62).astype(np.uint64)) - 1) == 0)

    # Remove the digits that leave a decimal inside the interval, then any
    # zeros of an included lower bound.
    removed = np.zeros(bits.size, dtype=np.intp)
    for scale in tables.pow10[1:]:
        shorter = vp // scale > vm // scale
        if not shorter.any():
            break
        removed += shorter
    scale = tables.pow10[removed]
    below = tables.pow10[np.maximum(removed - 1, 0)]
    head = vr // below
    vr_tz &= head * below == vr
    vm_tz &= vm % scale == 0
    vr //= scale
    vp //= scale
    vm //= scale
    last = np.where(removed > 0, head - vr * 10, 0).astype(np.uint64)
    active = np.flatnonzero(vm_tz)
    active = active[vm[active] % 10 == 0]
    while active.size:
        vr_old = vr[active]
        vr[active] = vr_old // 10
        vp[active] //= 10
        vm[active] //= 10
        vr_tz[active] &= last[active] == 0
        last[active] = vr_old - 10 * vr[active]
        removed[active] += 1
        active = active[vm[active] % 10 == 0]
    last[vr_tz & (last == 5) & ((vr & 1) == 0)] = 4  # round half to even
    digits = vr + (((vr == vm) & ~(even & vm_tz)) | (last >= 5))
    e10 = tables.e10[biased] + removed
    # a carry can leave trailing zeros; repr prints none
    active = np.flatnonzero(digits % 10 == 0)
    while active.size:
        digits[active] //= 10
        e10[active] += 1
        active = active[digits[active] % 10 == 0]
    return digits, e10


def _cells(bits, tables: _Tables):
    """Layout keys and filled template rows of finite, nonzero doubles."""
    digits, e10 = _shortest(bits & np.uint64((1 << 63) - 1), tables)
    olength = np.searchsorted(tables.pow10, digits, side="right")
    decpt = e10 + olength
    digits *= tables.pow10[17 - olength]
    text = np.empty((bits.size, _TEMPLATE.size), dtype=np.uint8)
    text[:] = _TEMPLATE
    for c in range(_DIGITS1 + 16, _DIGITS1 - 1, -1):
        tens = digits // 10
        text[:, c] = digits - tens * 10 + 48
        digits = tens
    text[:, _DIGITS2:_DIGITS2 + 17] = text[:, _DIGITS1:_DIGITS1 + 17]
    exponent = decpt - 1
    magnitude = np.abs(exponent)
    text[exponent < 0, _EXP + 1] = ord("-")
    text[:, _EXP + 2] = 48 + magnitude // 100
    text[:, _EXP + 3] = 48 + magnitude // 10 % 10
    text[:, _EXP + 4] = 48 + magnitude % 10
    form = np.where((decpt > -4) & (decpt <= 16), decpt + 3, _N_DECPT + (magnitude >= 100))
    return (bits >> 63).astype(np.intp) * _PER_SIGN + form * 17 + olength - 1, text


def format_rows(values, empty=None) -> bytes:
    """CSV text of a 2-D float64 array: cells joined by ',' and rows ended
    by '\\n', each cell exactly ``repr(float(v))``, and cells where the
    optional boolean array `empty` is true left blank.  It holds about 320
    bytes of memory per cell at its peak, so format large arrays in row
    blocks."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    cols = values.shape[1]
    flat = values.ravel()
    bits = flat.view(np.uint64)
    tables = _tables()
    text = np.empty((flat.size, _TEMPLATE.size), dtype=np.uint8)
    text[:] = _TEMPLATE
    key = (bits >> 63).astype(np.intp) * _PER_SIGN + _ZERO_KEY
    finite = np.isfinite(flat)
    nonzero = np.flatnonzero(finite & (flat != 0))
    if nonzero.size:
        key[nonzero], text[nonzero] = _cells(bits[nonzero], tables)
    for k in np.flatnonzero(~finite):
        word = repr(float(flat[k])).encode("ascii")
        text[k, _TEXT:_TEXT + len(word)] = np.frombuffer(word, dtype=np.uint8)
        key[k] = _TEXT_KEY + len(word)
    if empty is not None:
        key[np.asarray(empty, dtype=bool).ravel()] = _TEXT_KEY
    text[cols - 1::cols, _SEP] = ord("\n")
    return text[tables.keep[key]].tobytes()
