"""The text ``'%.17g' % v`` or ``repr(v)`` gives for each float64 of an array,
from numpy passes whose cost does not depend on the exponent.

CPython prints a float with Gay's correctly rounded dtoa (Gay 1990), whose
bignum arithmetic grows with the decimal exponent: a value near 1e-300 takes
several times as long as one near 1.  Exact printing needs only fixed-width
arithmetic and a table of powers of ten (Adams 2018, "Ryu: fast
float-to-string conversion").  Here, per value v != 0:

- the decimal exponent e = floor(log10|v|) gives q = 16 - e, and
  P = |v| * 10^q lies in [1e16, 1e17);
- P is the double-double product of |v| * 2^B, exact, with a table entry
  10^q * 2^-B (Dekker's split, no fused multiply-add), to within 1e-14;
- ``'%.17g'`` takes the 17 digits round(P), half to even; ``repr`` the
  fewest digits that lie strictly inside the round-trip half-interval
  P +/- h, h = P / (2M) for the integer significand M, and among those the
  nearest to P;
- the digits become ASCII through a 10^4-entry table, and a layout table
  keyed by sign, form (the fixed-point exponent, or an exponent of two or
  three digits) and digit count places them with '-', '.', '0' and the
  exponent text.

A value the kernel cannot decide with a margin of EPS goes to Python's own
``%`` or ``repr``, so every text is Python's: a rounding or round-trip
boundary within EPS of the product (its error is below 1e-14), a ``log10``
exponent off by one, a power of two under ``repr`` (its half-interval is
not symmetric), +/-0 and non-finite values.
"""

import numpy as np

__all__ = ["texts"]

# values converted per pass: the block's working arrays stay a few hundred kB
BLOCK = 2048
# the margin a rounding or round-trip decision must clear, in units of the
# digit it rounds or of the half-interval: 1e5 times the product's error
EPS = 1e-9
# decimal exponents of the finite nonzero doubles, one more at each end
_EMIN, _EMAX = -325, 309
_WIDTH = 24  # the longest text: '-1.2345678901234567e-308'
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _powers_of_ten():
    """Per decimal exponent e from _EMIN to _EMAX, a row of 2^B, then
    10^q * 2^-B for q = 16 - e as a double-double (hi, lo), then hi split in
    halves, with B close to -e*log2(10): |v| * 2^B is near 1 and no factor
    leaves the normal range."""
    rows = []
    for e in range(_EMIN, _EMAX + 1):
        q, b = 16 - e, max(-1000, min(1000, round(-e * 3.3219280948873623)))
        num = 10 ** max(q, 0) << max(-b, 0)
        den = 10 ** max(-q, 0) << max(b, 0)
        hi = num / den  # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        rows.append((2.0**b, hi, (num * d - n * den) / (den * d)))
    table = np.array(rows)
    return np.column_stack([table, *_split(table[:, 1])])


def _split(a):
    """Dekker's split of a into two halves of 26 bits, a = high + low exactly."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


def _layouts(shortest):
    """Per key (sign, form, digit count) the source columns of each output
    character, as uint8 rows of _WIDTH.

    The source row of a value (32 bytes, ``_ROW`` filled in) holds NUL, '-',
    '.', '0' at columns 0-3, its 17 digits at 7-23 and its exponent text
    ('e-05', 'e+308') at 24-28.  Form f < 21 is fixed point with decimal
    exponent f - 4; 21 and 22 are exponent form with two and three exponent
    digits.  A negative value's row is the positive one's after a '-'.
    """
    table = np.zeros((2, 23, 17, _WIDTH), np.uint8)
    for form in range(23):
        for nd in range(1, 18):
            digits = list(range(7, 7 + nd))
            if form >= 21:
                cols = digits[:1] + ([2] + digits[1:] if nd > 1 else [])
                cols += range(24, 28 + form - 21)
            elif form < 4:  # 0.000ddd
                cols = [3, 2] + [3] * (3 - form) + digits
            else:
                # a fixed-point integer part takes the zero digits past nd
                x = form - 4
                whole = list(range(7, 7 + max(nd, x + 1)))
                cols = whole[: x + 1]
                cols += [2] + whole[x + 1:] if nd > x + 1 else [2, 3] if shortest else []
            table[0, form, nd - 1, : len(cols)] = cols
    table[1, ..., 0] = 1
    table[1, ..., 1:] = table[0, ..., :-1]
    return table.reshape(-1, _WIDTH)


def _ascii_tables():
    """(the four ASCII digits of 0..9999 as one little-endian uint32; for
    0..9999 as the group j = 0..3 of four digits after the leading one of 17,
    how many digits follow the leading one up to the group's last nonzero
    digit, 0 for 0; the exponent text 'e%+03d' of each decimal exponent as
    one uint64, NUL-padded)."""
    n = np.arange(10_000, dtype=np.uint32)
    digits = np.full(10_000, 0x30303030, np.uint32)  # '0000'
    last = np.zeros(10_000, np.int64)
    for place, p in enumerate((1000, 100, 10, 1)):
        digit = n // p % 10
        digits += digit << (8 * place)
        np.maximum(last, (digit > 0) * (place + 1), out=last)
    places = np.array([(last + 4 * j) * (last > 0) for j in range(4)], np.int8)
    exps = b"".join(("e%+03d" % x).encode().ljust(8, b"\0") for x in range(_EMIN, _EMAX + 2))
    return digits, places, np.frombuffer(exps, np.uint64)


_POWERS = _powers_of_ten()
_DIGITS, _PLACES, _EXPONENT = _ascii_tables()
_LAYOUT = {False: _layouts(False), True: _layouts(True)}
_ROW = np.zeros(32, np.uint8)
_ROW[1:4] = (45, 46, 48)  # '-', '.', '0'
_BASE = np.arange(0, 32 * BLOCK, 32)[:, None]


def texts(values, shortest):
    """The list of ``repr(v)`` (``shortest``) or ``'%.17g' % v`` for each v of
    the float64 array ``values``, computed BLOCK values at a time."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = [None] * len(values)  # one list, not one grown block by block
    for start in range(0, len(values), BLOCK):
        out[start:start + BLOCK] = _block(values[start:start + BLOCK], shortest)
    return out


def _block(v, shortest):
    ok = np.isfinite(v) & (v != 0)
    x = np.where(ok, np.abs(v), 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    # P = |v| 10^(16-e) = (|v| 2^B)(10^q 2^-B): Dekker's two-product with the
    # high part of the table entry, then its low part
    scale, th, tl, thh, thl = np.take(_POWERS, e - _EMIN, axis=0).T
    a = x * scale
    ah, al = _split(a)
    p = a * th
    s = ((ah * thh - p) + ah * thl + al * thh) + al * thl + a * tl
    hi = p + s
    lo = s - (hi - p)
    floor_lo = np.floor(lo)
    t = lo - floor_lo  # P = n + t, n an integer, 0 <= t < 1
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)
    ok &= (n >= _POW10[16]) & (n < _POW10[17])
    if shortest:
        digits = _shortest(n, t, hi, x.view(np.int64), ok)
    else:
        ok &= np.abs(t - 0.5) > EPS
        digits = n + (t > 0.5)
    digits[~ok] = _POW10[16]
    carry = digits == _POW10[17]
    digits[carry] = _POW10[16]
    e += carry
    text = _ascii(digits, e, v < 0, shortest)
    for i in np.flatnonzero(~ok).tolist():
        text[i] = repr(float(v[i])) if shortest else "%.17g" % v[i]
    return text


def _shortest(n, t, hi, bits, ok):
    """The digits of repr: the multiple of 10^k in (P - h, P + h) with the
    largest k, nearest to P, scaled to 17 digits.

    2h = P / M is 2^u 10^q for the ulp 2^u, a power of ten or at least 1e-4
    from one in relative terms, so its log10 gives k0, the largest k with
    10^k <= 2h: every k <= k0 has a candidate (the nearest multiple of 10^k0
    is at most h from P, a tie at h being left to Python), and at most one
    multiple of m = 10^(k0+1) lies inside.  If one does, its trailing zeros
    give the digit count; else repr's digits are the nearest multiple of
    10^k0.
    """
    biased = bits >> 52
    fraction = bits & ((1 << 52) - 1)
    ok &= (fraction != 0) | (biased <= 1)  # a power of two: asymmetric interval
    h2 = hi / (fraction + np.where(biased > 0, 2.0**52, 0.0))
    k0 = np.clip(np.floor(np.log10(h2)).astype(np.int64), 0, 16)
    h = 0.5 * h2
    m, m0 = _POW10[k0 + 1], _POW10[k0]
    r = n % m
    low = r + t
    r0 = r % m0
    low0 = r0 + t
    ok &= (np.abs(low - h) > EPS * h) & (np.abs(m - low - h) > EPS * h)
    ok &= np.abs(low0 - 0.5 * m0) > EPS * m0
    up = m - low < h
    return np.where(up | (low < h), n - r + m * up, n - r0 + m0 * (low0 > 0.5 * m0))


def _ascii(digits, e, negative, shortest):
    """The texts of 17-digit integers ``digits`` times 10^(e-16), signed."""
    size = len(digits)
    src = np.empty((size, 32), np.uint8)
    src[:] = _ROW
    top = digits // _POW10[16]
    rest = digits - top * _POW10[16]
    src[:, 7] = 48 + top
    words = src.view(np.uint32)
    last = np.zeros(size, np.int8)
    for j in range(4):
        p = _POW10[12 - 4 * j]
        group = rest // p
        rest -= group * p
        words[:, 2 + j] = _DIGITS[group]
        np.maximum(last, _PLACES[j][group], out=last)
    src.view(np.uint64)[:, 3] = _EXPONENT[e - _EMIN]
    fixed = (e >= -4) & (e <= (15 if shortest else 16))
    form = np.where(fixed, e + 4, 21 + (np.abs(e) >= 100))
    key = (negative * 23 + form) * 17 + last
    cols = np.add(np.take(_LAYOUT[shortest], key, axis=0), _BASE[:size])
    chars = np.take(src.ravel(), cols).astype(np.uint32)
    return chars.view(f"U{_WIDTH}").ravel().tolist()
