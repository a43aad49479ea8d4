"""CSV rows of float64 arrays, each cell the text of ``'%.17g' % v``.

Every cell is formatted by numpy operations over the whole array, exactly:
for ``1e-11 <= |v| < 1e16`` the 17 significant digits are the integer
``D = round-half-even(|v| * 10**(16 - d))``, ``d = floor(log10 |v|)``.
Writing ``|v| = m * 2**e`` with a 53-bit ``m``, that is ``m * 5**(16 - d)``
shifted right by ``-(e + 16 - d)`` bits; ``5**27`` still fits in 64 bits,
so the product is one 128-bit integer built from four 32-bit partial
products, and the bits shifted out decide the rounding (the method of
Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019).
``d`` comes from ``np.log10`` and is corrected by one where the scaled
value falls outside [1e16, 1e17).  D never rounds up to 1e17 in this range
(the only candidates, the largest doubles below the powers of ten, are all
in the tests), so there is no carry.  The digits are cut from D by
integer division by scalars, trailing zeros are stripped, and the form is
chosen as printf's ``%g`` does.

Zero, subnormals and any ``|v|`` outside that range (and non-finite values)
are formatted one cell at a time by Python's ``%`` operator.

Each cell is laid out in ``_WIDTH`` fixed slots, with NUL in the unused
ones, and the NULs are deleted from the block's bytes at the end::

    sign | "0.", up to 3 zeros | 17 digits, one "." | "e-dd" | separator

The "0." prefix serves fixed-form values below 1; the exponent, always
negative on this path, serves the scientific form.
"""

import numpy as np

_WIDTH = 1 + 2 + 3 + 18 + 4 + 1
_BODY = 6  # up to 17 digits and one "."
_EXP0 = _BODY + 18  # "e", "-", two exponent digits

# exact range of the numpy path: -11 <= d <= 15
_LOW, _HIGH = 1e-11, 1e16
_D_MIN, _D_MAX = -11, 15
_M32 = np.uint64(0xFFFFFFFF)
_U32, _U64, _ONE = np.uint64(32), np.uint64(64), np.uint64(1)
_POW5 = np.array([5 ** p for p in range(16 - _D_MIN + 1)], dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _M32, _POW5 >> _U32
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
_IOTA = np.arange(17, dtype=np.int8)[:, None]
_IOTA18 = np.arange(18, dtype=np.int8)[:, None]
_ZERO, _POINT = np.uint8(ord("0")), np.uint8(ord("."))


def format_rows(values, columns) -> bytes:
    """The rows of the 2-D float64 ``values`` as CSV text.

    Cell j of a row is ``'%.17g' % values[row, columns[j]]``; cells are
    joined by "," and each row ends in a newline.  A column named several
    times is formatted once.
    """
    rows, cols = values.shape
    # slot-major (_WIDTH, cells) to cell-major (rows, len(columns), _WIDTH)
    cells = np.take(_slots(values.reshape(-1)).T.reshape(rows, cols, _WIDTH),
                    columns, axis=1)
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def _scaled(m, e, d):
    """Floor and round-half-even of ``m * 2**e * 10**(16 - d)``.

    Needs ``0 <= 16 - d <= 27`` and the result below 2**64; the right shift
    ``d - 16 - e`` then lies in [-2, 63].
    """
    m_lo, m_hi = m & _M32, m >> _U32
    f_lo, f_hi = _POW5_LO[16 - d], _POW5_HI[16 - d]
    ll, lh, hl = m_lo * f_lo, m_lo * f_hi, m_hi * f_lo
    mid = (ll >> _U32) + (lh & _M32) + (hl & _M32)
    lo = (ll & _M32) | (mid << _U32)
    hi = m_hi * f_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    shift = d - 16 - e
    right = np.maximum(shift, 0).astype(np.uint64)
    # numpy shifts by 64 or more give 0
    floor = ((hi << (_U64 - right)) | (lo >> right)) \
        << np.maximum(-shift, 0).astype(np.uint64)
    below = (_ONE << right) - _ONE  # the bits shifted out
    # above half, or half and floor odd; never when nothing was shifted out
    up = (lo & below) + (floor & _ONE) > (below >> _ONE) + _ONE
    return floor, floor + up


def _slots(v):
    """(_WIDTH, len(v)) uint8: column i holds the text of ``'%.17g' % v[i]``
    in the slots of the module docstring, NUL where unused; the separator
    slot is left NUL."""
    a = np.abs(v)
    fast = (a >= _LOW) & (a < _HIGH)
    a[~fast] = 1.0
    bits = a.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    e = (bits >> np.uint64(52)).astype(np.int64) - 1075
    d = np.clip(np.floor(np.log10(a)), _D_MIN, _D_MAX).astype(np.int64)
    floor, digits = _scaled(m, e, d)
    off = (floor < _E16).astype(np.int64) - (floor >= _E17)
    redo = np.flatnonzero(off)
    if redo.size:
        d[redo] -= off[redo]
        fast[redo] &= d[redo] >= _D_MIN
        d[redo] = np.maximum(d[redo], _D_MIN)
        digits[redo] = _scaled(m[redo], e[redo], d[redo])[1]
    d = d.astype(np.int8)

    text = _digit_text(digits)
    figures = ((text != _ZERO) * _IOTA).max(axis=0) + 1
    fixed = d >= -4
    small = fixed & (d < 0)
    sci = ~fixed
    # "0." and up to three zeros lead a small number; otherwise the body's
    # "." follows digit `point`, the units digit or, in scientific form, the
    # first digit; 17 stands for no "."
    point = fixed * (d + small * (17 - d))
    point += (figures <= point + 1) * (17 - point)
    text *= _IOTA < np.maximum(figures, fixed * (d + 1))
    out = np.zeros((_WIDTH, len(v)), dtype=np.uint8)
    body = out[_BODY:_BODY + 18]
    body[:17] = text * (_IOTA <= point)
    body[1:] += text * (_IOTA > point)
    body += (_IOTA18 == point + 1) * _POINT
    out[0] = np.signbit(v) * ord("-")
    out[1] = small * _ZERO
    out[2] = small * _POINT
    out[3:6] = (_IOTA[:3] < small * (-1 - d)) * _ZERO
    tens = sci * -d // 10
    out[_EXP0] = sci * ord("e")
    out[_EXP0 + 1] = sci * ord("-")
    out[_EXP0 + 2] = sci * (_ZERO + tens)
    out[_EXP0 + 3] = sci * (_ZERO - 10 * tens - d)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b"%.17g" % x for x in v[slow].tolist()],
                        dtype=f"S{_WIDTH - 1}")  # NUL-padded
        out[:_WIDTH - 1, slow] = text.view(np.uint8).reshape(-1, _WIDTH - 1).T
    return out


def _digit_text(digits):
    """(17, n) uint8: the ASCII digits of integers in [1e16, 1e17)."""
    high = digits // np.uint64(10 ** 8)
    low = (digits - high * np.uint64(10 ** 8)).astype(np.int32)
    high = high.astype(np.int32)
    first = high // 10 ** 8
    high -= first * 10 ** 8
    quads = np.empty((4, len(digits)), dtype=np.int32)
    quads[0] = high // 10_000
    quads[1] = high - quads[0] * 10_000
    quads[2] = low // 10_000
    quads[3] = low - quads[2] * 10_000
    text = np.empty((17, len(digits)), dtype=np.uint8)
    text[0] = first + _ZERO
    group = text[1:].reshape(4, 4, -1)  # group[i, k]: digit k of quads[i]
    for k, unit in enumerate((1000, 100, 10)):
        digit = quads // unit
        group[:, k] = digit + _ZERO
        quads -= digit * unit
    group[:, 3] = quads + _ZERO
    return text
