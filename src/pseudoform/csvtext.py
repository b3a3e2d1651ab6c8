"""``%.17g`` CSV text of float64 tables, computed with NumPy.

``csv_text(blocks)`` yields, for each finite 2-D float64 block, exactly
``"".join(",".join("%.17g" % v for v in row) + "\\n" for row in block)``
as ASCII bytes, so a writer need not decode it.
CPython's ``%.17g`` runs each value through dtoa's bignum path, since 17
digits is past its fast path; here whole blocks are converted at once.

**Certified digits.**  For |v| in [1e-99, 1e100), the two-digit exponents
-99 <= E <= 99, with E = floor(log10|v|) from ``np.log10``, y = |v| 10^(16-E)
is formed as a double-double: the
power of ten is a pair hi + lo (hi the correctly rounded double, lo the
rounded remainder, built exactly from Python ints), |v| hi is Dekker's
exact product of Veltkamp halves (Numer. Math. 18, 1971), and |v| lo is
added in plain float64.  For 10^16 <= y < 10^17 three roundings remain:
lo against the exact remainder (at most 2^-106 y, 1.3e-15), |v| lo (half
an ulp of a number below 16, 9e-16) and the sum of the product's error
term and |v| lo (half an ulp of a number below 32, 1.8e-15).  So the
computed fractional part of y is within 5e-15 of the exact one, and when
it lies more than 1e-9 from 1/2, D = round(y) is the correctly rounded
17-digit significand.  v is printed from D and E when also
10^16 <= floor(y) < 10^17 - 1, which fails when log10 misjudged E or the
rounding may carry into an 18th digit.  ±0 is written as ``0`` or ``-0``
from the same templates.
Every other value (a magnitude outside the window, a near-tie, a misjudged
E) is formatted by ``'%.17g' % v`` itself, so the text is the same either
way.

**Text.**  Each value gets a 24-byte record of three uint64 words, which
holds its longest texts, ``-0.00012345678901234567,`` and
``-1.2345678901234567e-05,``.  A digits array holds the sign at byte 0,
``0.000`` at bytes 1..5 and D's 17 digits at bytes 6..22 (table entries
of two, four and three digits), and a copy moved one byte down holds the
digits at bytes 5..21.  A table indexed by (layout, last nonzero digit)
gives the masks that pick each byte from the digits, the moved copy or a
constant (the point): ``0.`` and -E - 1 zeros and the digits for
-4 <= E < 0, the integer digits from the moved copy and then the point
and the fraction digits for 0 <= E <= 16.  So trailing zeros, and the
point when nothing follows it, become zero bytes, and byte 23 takes the
separator.  The last nonzero digit is the last three digits' table entry;
only where those are 000 are the other groups searched.  The exponent
form (E < -4 or E > 16) is assembled on its own from the digits' words,
the point and a two-digit exponent.  The record of a value ``%`` formats
is ``%.17g``, and one ``%`` over the block's text fills them all in.
Dropping every zero byte leaves the text.  Only IEEE float64
arithmetic and integer and bitwise operations are used, no ``longdouble``
(whose width differs between platforms), so the text does not depend on
the platform.  The block's work arrays are reused while the block shape
stays the same.
"""

import math

import numpy as np

_LOW = 1e-99  # the least double >= 10^-99
_HIGH = math.nextafter(1e100, 0.0)  # the greatest double < 10^100 (1e100 rounds up)
_EMIN, _EMAX = -100, 100  # decimal exponents that log10 gives in the window
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_EXP_FORM = 21  # layout of the exponent form
_WIDTH = 24  # bytes per value record
_PERCENT = np.frombuffer(b"%.17g".ljust(_WIDTH - 1, b"\0"), np.uint8)  # a record % fills in


def _power_pair(num, den):
    """num / den as hi + lo: hi correctly rounded, lo the rounded remainder."""
    hi = num / den  # int true division rounds correctly
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _tables():
    exps = np.arange(_EMIN, _EMAX + 1)
    hi, lo = np.array([_power_pair(10 ** (16 - e), 1) if e <= 16 else _power_pair(1, 10 ** (e - 16))
                       for e in exps.tolist()]).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    powers = np.stack([hi, hi_hi, hi - hi_hi, lo])
    # %g's layouts: 0..3 fixed with E = -1..-4 (the digits follow "0." and
    # -E - 1 zeros), 4 + E fixed with 0 <= E <= 16 (the point after digit E),
    # 21 the exponent form (the point after digit 0, then the suffix)
    layout = np.where((exps >= 0) & (exps <= 16), exps + 4,
                      np.where((exps < 0) & (exps >= -4), -exps - 1, _EXP_FORM))
    return powers, layout


def _digit_tables():
    """ASCII digits of D's groups, and the index in D of each group's last
    nonzero digit.

    D's 17 digits are written at record bytes 6..22 as a pair (digits 0-1,
    a uint16 at byte 6), three quads (2-5, 6-9, 10-13, uint32s at bytes 8,
    12 and 16) and a triple (14-16, the low three bytes of a uint32 at byte
    20).  A zero group holds no last nonzero digit (-64), except the pair,
    which is zero only for D = 0, printed "0", and the triple (0), after
    which the other groups are searched.
    """
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    place = np.arange(4)[:, None]
    at = np.where(np.arange(10) > 0, place, -64)  # where a digit is nonzero, its place
    # the quad of 1000a + 100b + 10c + d is the bytes "abcd", a first (little-endian)
    quad = (ascii[:, None, None, None] | ascii[:, None, None] << 8 | ascii[:, None] << 16
            | ascii << 24).reshape(-1)
    last = np.maximum(np.maximum(at[0][:, None, None, None], at[1][:, None, None]),
                      np.maximum(at[2][:, None], at[3])).reshape(-1).astype(np.int8)
    pair = (quad[:100] >> 16).astype(np.uint16)  # "00ab" -> "ab"
    triple = quad[:1000] >> 8  # "0abc" -> "abc\0"
    others = [np.maximum(last[:100] - 2, 0), last + 2, last + 6, last + 10]
    return pair, quad, triple, np.maximum(last[:1000] + 13, 0), others


def _masks():
    """(layout, last nonzero digit) -> the words that pick each record byte
    from the digits, from the digits moved one byte down, or from a constant.

    The digits array holds the sign at byte 0, ``0.000`` at bytes 1..5 and
    D's digits at bytes 6..22, so the moved copy holds D's digits at bytes
    5..21.  A small layout keeps the sign, ``0.`` and -E - 1 zeros and the
    digits; a fixed one keeps the sign and its integer digits from the moved
    copy, and the point (the one constant) and the fraction digits when a
    fraction digit survives.  The exponent form's rows are all zero: it is
    assembled on its own, by ``_exponent_form``.
    """
    layout, last = np.indices((22, 17))
    small = layout < 4  # E = -1 - layout
    fixed = (layout >= 4) & (layout < _EXP_FORM)
    point = layout - 4  # a fixed layout's last integer digit
    frac = fixed & (last > point)  # a fraction digit survives, so the point stays
    j = np.arange(_WIDTH)[:, None, None]
    digits = (j <= 6 + last) & np.where(small, j >= 6, frac & (j >= 7 + point))
    keep = (j == 0) | small & (j >= 1) & (j <= 2 + layout) | digits
    moved = fixed & (j >= 5) & (j <= 5 + point)
    const = np.where(frac & (j == 6 + point), ord("."), 0)
    picks = np.stack([keep * 0xFF, moved * 0xFF, const]).astype(np.uint8)
    return np.ascontiguousarray(picks.transpose(0, 2, 3, 1)).view(np.uint64).reshape(3, -1, 3)


def _exponent_tables():
    """The exponent form's words: by last nonzero digit, the three that keep
    digits 1.. at record bytes 3.. and the point at byte 2 when a digit
    follows it; by exponent index, the suffix ``e``, sign and two digits at
    bytes 19..22 (E = +-100 is never certified)."""
    j, last = np.arange(_WIDTH), np.arange(17)[:, None]
    keep = (((j >= 3) & (j <= 2 + last)) * 0xFF).astype(np.uint8).view(np.uint64)
    point = np.where(last[:, 0] > 0, ord(".") << 16, 0).astype(np.uint64)
    exps = np.arange(_EMIN, _EMAX + 1)
    mag = np.abs(exps) % 100
    suffix = (ord("e") | np.where(exps < 0, ord("-"), ord("+")) << 8
              | (ord("0") + mag // 10) << 16 | (ord("0") + mag % 10) << 24).astype(np.uint64)
    return (*np.ascontiguousarray(keep.T), point), suffix << 24


_POWERS, _LAYOUT = _tables()
_PAIR, _QUAD, _TRIPLE, _TRIPLE_LAST, _LAST = _digit_tables()
_PICKS = _masks()
_EXP_PICKS, _SUFFIX = _exponent_tables()
_KEY = _LAYOUT * 17  # first table row of each exponent's layout
_KEY_EXP_FORM = _EXP_FORM * 17  # the last layout's first row


class _Work:
    """The arrays of one block shape, reused from block to block."""

    def __init__(self, shape):
        self.shape = shape
        n = math.prod(shape)
        self.digits = np.zeros((n, 3), np.uint64)  # see _masks
        self.digits.view(np.uint8)[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
        self.moved = np.zeros((n, 3), np.uint64)
        self.picks = np.empty((3, n, 3), np.uint64)
        self.record = np.empty((n, 3), np.uint64)
        seps = np.full(shape, ord(","), np.uint8)  # each record's last byte
        seps[:, -1] = ord("\n")
        self.seps = seps.reshape(-1)


def csv_text(blocks):
    """Yield the ``%.17g`` CSV text of each finite 2-D float64 block of rows,
    as ASCII bytes."""
    work = None
    for block in blocks:
        if not block.size:
            yield b""
            continue
        if work is None or block.shape != work.shape:
            work = _Work(block.shape)
        yield _block_text(block, work)


def _scaled(a):
    """Split y = a 10^(16-E) for magnitudes ``a`` clipped into the window.

    Returns the clipped magnitudes, the index of E in the tables, floor(y)
    as int64 and the fractional part of y as computed, within 5e-15 of the
    exact one when 10^16 <= y < 10^17 (see the module docstring).
    """
    inside = np.clip(a, _LOW, _HIGH)
    e = np.log10(inside)
    e -= _EMIN
    exp_index = np.floor(e, out=e).astype(np.intp)
    hi, hi_hi, hi_lo, lo = np.take(_POWERS, exp_index, axis=1)
    # y = p + t: Dekker's exact product inside * hi = p + (its error), plus inside * lo
    c = inside * _SPLIT
    a_hi = c - (c - inside)
    a_lo = inside - a_hi
    p = inside * hi
    t = a_hi * hi_hi
    t -= p
    t += a_hi * hi_lo
    t += a_lo * hi_hi
    t += a_lo * hi_lo
    t += inside * lo
    whole = np.floor(t)
    t -= whole
    floor_y = p.astype(np.int64)  # p >= 2**53 is an integer when 1e16 <= y
    floor_y += whole.astype(np.int64)
    return inside, exp_index, floor_y, t


def _block_text(block, work):
    v = block.reshape(-1)
    a = np.abs(v)
    inside, exp_index, d, frac = _scaled(a)
    certified = (d - 10**16).view(np.uint64) < np.uint64(9 * 10**16 - 1)
    d += frac > 0.5  # D = round(y)
    frac -= 0.5
    certified &= np.abs(frac) > 1e-9
    certified &= inside == a
    other = ~(certified | (v == 0))  # the values % formats
    d *= certified  # 0 for ±0, whose digits print "0", and for the other values
    exp_index = np.where(certified, exp_index, -_EMIN)  # E = 0 for those

    # D's digit groups: the pair D // 10**15, the two quads of the next 8
    # digits, and the last 7 digits as a quad and a triple
    pair = d // 10**15
    rest = d - pair * 10**15
    high = rest // 10**7
    low = rest - high * 10**7
    first, third = high // 10000, low // 1000
    quads = [first, high - first * 10000, third]
    triple = low - third * 1000
    digits = work.digits
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=digits.view(np.uint8)[:, 0])
    digits.view(np.uint16)[:, 3] = _PAIR[pair]
    digits32 = digits.view(np.uint32)
    for k, quad in enumerate(quads):
        digits32[:, 2 + k] = _QUAD[quad]
    digits32[:, 5] = _TRIPLE[triple]
    # the last nonzero digit: the triple's, or where the triple is 000, the
    # last of the other groups' (D = 0 has its digit 0)
    key = _KEY[exp_index]
    key += _TRIPLE_LAST[triple]
    if triple.min() == 0:
        rows = np.flatnonzero(triple == 0)
        found = _LAST[0][pair[rows]]
        for table, quad in zip(_LAST[1:], quads):
            np.maximum(found, table[quad[rows]], out=found)
        key[rows] += found
    moved8 = work.moved.view(np.uint8).reshape(-1)
    moved8[:-1] = digits.view(np.uint8).reshape(-1)[1:]
    picks = np.take(_PICKS, key, axis=1, out=work.picks, mode="clip")
    record = np.bitwise_and(digits, picks[0], out=work.record)
    moved = np.bitwise_and(work.moved, picks[1], out=picks[1])
    record |= moved
    record |= picks[2]
    exp_form = np.flatnonzero(key >= _KEY_EXP_FORM)
    if exp_form.size:
        _exponent_form(record, digits, exp_form, key[exp_form] - _KEY_EXP_FORM,
                       exp_index[exp_form])
    text = record.view(np.uint8)
    text[:, -1] = work.seps
    if not other.any():
        return text.tobytes().translate(None, b"\0")
    # every other value's record is "%.17g", filled in by one % over the text
    text[other, :-1] = _PERCENT
    return text.tobytes().translate(None, b"\0") % tuple(v[other].tolist())


def _exponent_form(record, digits, rows, last, exp_index):
    """Write the records of the values in the exponent form at ``rows`` from
    their words of the digits array: the sign, the first digit, the point
    and the other digits up to the last nonzero one, and the suffix at
    bytes 19..22."""
    w0, w1, w2 = (digits[:, k].take(rows) for k in range(3))
    keep0, keep1, keep2, point = (table.take(last) for table in _EXP_PICKS)
    # digits 1..16 move from bytes 7..22 to 3..18; the sign stays, digit 0 goes to byte 1
    record[:, 0][rows] = (w0 >> 32 | w1 << 32) & keep0 | point | w0 & 0xFF | w0 >> 40 & 0xFF00
    record[:, 1][rows] = (w1 >> 32 | w2 << 32) & keep1
    record[:, 2][rows] = (w2 >> 32) & keep2 | _SUFFIX.take(exp_index)
