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

``rows`` writes a whole grid of (k, f(k)) rows the same way, as byte blocks:
a constant row per block with k's digits from the same table (k = lo + i is
monotone, so the rows whose k has one sign and digit count are contiguous
and of one width), the f texts placed right-aligned by the layout table,
and in the trailing run of zeros no f conversion at all.
"""

import functools

import numpy as np

__all__ = ["rows", "texts"]

# values converted per pass: the block's working arrays stay a few hundred kB
BLOCK = 2048
# below this many values a pass costs more than Python's own texts: about
# 50 us (%.17g) or 85 us (repr) before the first value, against 0.6-1.8 us a
# value in Python on a 2-core VM
KERNEL_MIN = 64
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


@functools.cache
def _layouts(shortest, pad):
    """Per key (sign, form, digit count) the source columns of each output
    character, as uint8 rows of _WIDTH: the text right-aligned in a field of
    ``pad`` characters (as ``'%*s' % (pad, text)``), then NULs.

    The source row of a value (32 bytes, ``_ROW`` filled in) holds NUL, '-',
    '.', '0', ' ' at columns 0-4, its 17 digits at 7-23 and its exponent text
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
    table = table.reshape(-1, _WIDTH)
    shift = np.maximum(pad - np.count_nonzero(table, axis=1), 0)[:, None]
    source = np.arange(_WIDTH) - shift
    return np.where(source >= 0, np.take_along_axis(table, np.maximum(source, 0), 1), 4)


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
_ROW = np.zeros(32, np.uint8)
_ROW[1:5] = (45, 46, 48, 32)  # '-', '.', '0', ' '
_BASE = np.arange(0, 32 * BLOCK, 32)[:, None]


def texts(values, shortest):
    """The list of ``repr(v)`` (``shortest``) or ``'%.17g' % v`` for each v of
    the float64 array ``values``, computed BLOCK values at a time."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = [None] * len(values)  # one list, not one grown block by block
    for start in range(0, len(values), BLOCK):
        chars = _block(values[start:start + BLOCK], shortest, 0)
        out[start:start + BLOCK] = chars.astype(np.uint32).view(f"U{_WIDTH}").ravel().tolist()
    return out


def rows(ks, values, row, shortest, sep):
    """The lines ``before k between f after`` of the grid ``ks``, f =
    ``values``, joined by ``sep``, as str blocks of at most BLOCK rows.

    ``row`` is (before, k width, between, f width, after); k and f are
    right-aligned in fields of those widths, as ``%*d`` and ``%*.17g`` align
    them.  k is written as ``%d`` writes it when ks[0] is integral (every
    step then is, and |k| < 2^53 has at most 16 digits, four groups of the
    digit table), else as ``%r``; f as ``%r`` (``shortest``) or ``%.17g``.
    The trailing run of values with the last value's bits, when that value
    is 0, is written from a row with that zero's text in place.
    """
    before, k_width, between, f_width, after = row
    n, live = len(ks), _live_rows(values)
    integral = float(ks[0]).is_integer()
    zero = None
    if live < n:
        zero = float(values[-1])
        zero = (repr(zero) if shortest else "%.17g" % zero).rjust(f_width)
    cuts = {live, n, *range(0, n, BLOCK)}
    if integral:
        ks = ks.astype(np.int64)
        # the first k of each sign and digit count: -999...9, ..., -9, 0, 10, 100, ...
        firsts = np.concatenate([1 - _POW10[:0:-1], [0], _POW10[1:]])
        cuts.update(np.searchsorted(ks, firsts).tolist())
    cuts = sorted(cuts)
    # the live rows' f texts, one kernel call per block of BLOCK rows
    for lo, hi in zip(cuts, cuts[1:]):
        at = lo % BLOCK
        if at == 0 and lo < live:
            f_chars = _block(values[lo:min(lo + BLOCK, live)], shortest, f_width)
        text = _rows(ks[lo:hi], f_chars[at:at + hi - lo] if hi <= live else None,
                     before, k_width, between, after + sep, zero)
        yield text[: -len(sep)] if hi == n else text


def _rows(ks, f_chars, before, k_width, between, end, zero):
    """The rows of the steps ``ks``, integers of one sign and digit count or
    floats that are not integers, with the f texts ``f_chars`` (a ``_block``)
    or, when it is None, the text ``zero``."""
    integral = ks.dtype == np.int64
    if integral:
        negative, size = bool(ks[0] < 0), len(str(abs(int(ks[0]))))
        k_cols = max(k_width, size + negative)
        k_text = " " * (k_cols - size - negative) + "-" * negative + "0" * size
        k_at = len(before) + len(k_text) - size
        k_chars = _integers(np.abs(ks), size)
    else:
        k_text, k_at = "\0" * _WIDTH, len(before)
        k_chars = _block(ks, True, k_width)
    f_at = len(before) + len(k_text) + len(between)
    f_text = zero if f_chars is None else "\0" * _WIDTH
    template = np.frombuffer((before + k_text + between + f_text + end).encode(), np.uint8)
    out = np.empty((len(ks), len(template)), np.uint8)
    out[:] = template
    out[:, k_at:k_at + k_chars.shape[1]] = k_chars
    if f_chars is not None:
        out[:, f_at:f_at + _WIDTH] = f_chars
    blob = out.tobytes()
    # NULs pad only the texts of varying width: k's when not integral, f's
    # in a field narrower than the longest text
    if not integral or (f_chars is not None and not f_chars[:, -1].all()):
        blob = blob.replace(b"\0", b"")
    return blob.decode("ascii")


def _integers(n, size):
    """The ``size`` ASCII digits of each nonnegative int64 of ``n``, as uint8
    rows: groups of four from the digit table, least significant last."""
    groups = -(-size // 4)
    words = np.empty((len(n), groups), np.uint32)
    for j in range(groups - 1, -1, -1):
        n, group = np.divmod(n, 10_000)
        words[:, j] = _DIGITS[group]
    return words.view(np.uint8)[:, 4 * groups - size:]


def _live_rows(values):
    """How many values come before the trailing run of values with the last
    value's bits, when that value is 0; all of them otherwise."""
    if values[-1] != 0:
        return len(values)
    bits = values.view(np.int64)
    differ = np.flatnonzero(bits != bits[-1])
    return int(differ[-1]) + 1 if differ.size else 0


def _block(v, shortest, pad):
    """The texts of the float64 array v as uint8 rows of _WIDTH: each
    right-aligned in ``pad`` characters, then NULs."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if len(v) < KERNEL_MIN:
        return _python(v, shortest, pad)
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
    chars = _ascii(digits, e, v < 0, shortest, pad)
    if not ok.all():
        chars[~ok] = _python(v[~ok], shortest, pad)
    return chars


def _python(v, shortest, pad):
    """Python's own texts of the float64 array v, as ``_block`` gives them."""
    spec = "%*r" if shortest else "%*.17g"
    texts = [spec % (pad, x) for x in v.tolist()]
    return np.array(texts, f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)


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


def _ascii(digits, e, negative, shortest, pad):
    """The texts of 17-digit integers ``digits`` times 10^(e-16), signed, as
    uint8 rows placed by ``_layouts(shortest, pad)``."""
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
    cols = np.add(np.take(_layouts(shortest, pad), key, axis=0), _BASE[:size])
    return np.take(src.ravel(), cols)
