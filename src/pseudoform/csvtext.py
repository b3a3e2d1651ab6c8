"""``%.17g`` CSV text of float64 tables, computed with NumPy.

``csv_text(blocks)`` yields, for each finite 2-D float64 block, exactly
``"".join(",".join("%.17g" % v for v in row) + "\\n" for row in block)``.
CPython's ``%.17g`` runs each value through dtoa's bignum path, since 17
digits is past its fast path; here whole blocks are converted at once.

**Certified digits.**  For |v| in [1e-280, 1e280], with E = floor(log10|v|)
from ``np.log10``, y = |v| 10^(16-E) is formed as a double-double: the
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

**Text.**  Each value gets a 32-byte record of four uint64 words: the
right-aligned prefix (sign, and ``0.`` and zeros for -4 <= E < 0), then
the digits, then the exponent suffix and the separator.  D's digits are
four 4-digit table entries and a last digit; the shifted copy that makes
room for the point is the same bytes moved by one.  A table indexed by
(layout, sign, last nonzero digit) gives the masks that pick each byte
from the digits, the shifted digits or a constant (prefix and point), so
trailing zeros, and the point when nothing follows it, become zero
bytes.  Dropping every zero byte leaves the text.  Only IEEE float64
arithmetic and integer and bitwise operations are used, no ``longdouble``
(whose width differs between platforms), so the text does not depend on
the platform.  The block's work arrays are reused while the block size
stays the same.
"""

import numpy as np

_EMIN, _EMAX = -281, 280  # decimal exponents that log10 gives in the window
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_EXP_FORM = 21  # layout of the exponent form
_WIDTH = 32  # bytes per value record


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
    # E + 1 zeros), 4 + E fixed with 0 <= E <= 16 (the point after digit E),
    # 21 the exponent form (the point after digit 0, then the suffix)
    layout = np.where((exps >= 0) & (exps <= 16), exps + 4,
                      np.where((exps < 0) & (exps >= -4), -exps - 1, _EXP_FORM))
    suffix = np.frombuffer(b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in exps.tolist()),
                           np.uint8).reshape(-1, 5)
    return powers, layout, suffix


def _digit_tables():
    """Four ASCII digits per uint32 for 0..9999, and the index of each
    group's last nonzero digit, offset for each of the four groups of D."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = (digits + ord("0")).astype(np.uint8).view(np.uint32).reshape(-1)
    nonzero = digits != 0
    last = (3 - np.argmax(nonzero[:, ::-1], axis=1)).astype(np.int8)
    # a zero group holds no last nonzero digit, except the first: D = 0 is printed "0"
    groups = [np.where(nonzero.any(axis=1), last + 4 * k, 0 if k == 0 else -64).astype(np.int8)
              for k in range(4)]
    return quad, groups


def _masks():
    """(layout, sign, last nonzero digit) -> the words that pick each record
    byte from the digits, from the digits moved one byte on, or from a
    constant; and the separator's byte in the record."""
    layout, neg, last = np.indices((22, 2, 17))
    fixneg = layout < 4
    point = np.where(fixneg, -1, np.where(layout == _EXP_FORM, 0, layout - 4))  # last integer digit
    frac = ~fixneg & (last > point)  # a fraction digit survives, so the point stays
    j = np.arange(_WIDTH)[:, None, None, None]
    keep = (j >= 8) & (j <= 8 + np.where(fixneg, last, point))
    moved = frac & (j >= 10 + point) & (j < 10 + last)
    const = np.where(frac & (j == 9 + point), ord("."), 0)
    for code in range(22):
        for sign in range(2):
            prefix = b"-" * sign + (b"0." + b"0" * code if code < 4 else b"")
            const[8 - len(prefix):8, code, sign, :] = np.frombuffer(prefix, np.uint8)[:, None]
    picks = np.stack([keep * 0xFF, moved * 0xFF, const]).astype(np.uint8)
    picks = np.ascontiguousarray(picks.transpose(0, 2, 3, 4, 1)).view(np.uint64).reshape(3, -1, 4)
    end = np.where(fixneg, last + 1, np.where(frac, last + 2, point + 1))
    sep = np.where(layout == _EXP_FORM, _WIDTH - 1, 8 + end).reshape(-1)
    return picks, sep


_POWERS, _LAYOUT, _SUFFIX = _tables()
_QUAD, _LAST = _digit_tables()
_PICKS, _SEP = _masks()
_KEY = _LAYOUT * 34  # first table row of each exponent's layout
_KEY_EXP_FORM = _EXP_FORM * 34  # the last layout's first row


class _Work:
    """The arrays of one block size, reused from block to block."""

    def __init__(self, n):
        self.size = n
        self.digits = np.zeros((n, 4), np.uint64)  # words 1..3: D's 17 ASCII digits
        self.moved = np.empty((n, 4), np.uint64)
        self.picks = np.empty((3, n, 4), np.uint64)
        self.record = np.empty((n, 4), np.uint64)
        self.starts = np.arange(0, _WIDTH * n, _WIDTH)


def csv_text(blocks):
    """Yield the ``%.17g`` CSV text of each finite 2-D float64 block of rows."""
    work = _Work(0)
    for block in blocks:
        if block.size != work.size:
            work = _Work(block.size)
        yield _block_text(block, work) if block.size else ""


def _scaled(a):
    """Split y = a 10^(16-E) for magnitudes ``a`` clipped into the window.

    Returns the clipped magnitudes, the index of E in the tables, floor(y)
    as int64 and the fractional part of y as computed, within 5e-15 of the
    exact one when 10^16 <= y < 10^17 (see the module docstring).
    """
    inside = np.clip(a, 1e-280, 1e280)
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
    printed = certified | (v == 0)
    d *= certified  # 0 for ±0, whose digits print "0", and for the values % formats
    exp_index = np.where(certified, exp_index, -_EMIN)  # E = 0 for those

    # D's digits: four groups of 4 from D // 10**9 and D % 10**9 // 10, then D % 10
    high = d // 10**9
    rest = d - high * 10**9
    low = rest // 10
    final = rest - low * 10
    digits32 = work.digits.view(np.uint32)
    groups = []
    for part in (high, low):
        first = part // 10000
        groups += [first, part - first * 10000]
    last = _LAST[0][groups[0]]
    for k, group in enumerate(groups):
        digits32[:, 2 + k] = _QUAD[group]
        if k:
            np.maximum(last, _LAST[k][group], out=last)
    digits32[:, 6] = final + ord("0")
    last[final != 0] = 16

    key = _KEY[exp_index]
    key += np.signbit(v) * 17
    key += last
    moved = work.moved
    moved8 = moved.view(np.uint8).reshape(-1)
    moved8[0] = 0
    moved8[1:] = work.digits.view(np.uint8).reshape(-1)[:-1]
    picks = np.take(_PICKS, key, axis=1, out=work.picks, mode="clip")
    record = np.bitwise_and(work.digits, picks[0], out=work.record)
    moved &= picks[1]
    record |= moved
    record |= picks[2]
    text = record.view(np.uint8)

    sep_at = _SEP[key]
    exp_form = np.flatnonzero(key >= _KEY_EXP_FORM)
    text[exp_form, 26:31] = _SUFFIX[exp_index[exp_form]]
    other = np.flatnonzero(~printed)
    if other.size:
        formatted = b"".join([(b"%.17g" % x).ljust(31, b"\0") for x in v[other].tolist()])
        text[other, :31] = np.frombuffer(formatted, np.uint8).reshape(-1, 31)
        sep_at[other] = _WIDTH - 1
    seps = np.full(block.shape, ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    sep_at += work.starts
    text.reshape(-1)[sep_at] = seps.reshape(-1)
    return text[text != 0].tobytes().decode("ascii")
