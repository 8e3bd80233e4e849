"""Text of float32 table rows, exactly as ``str(np.float32(v))`` writes each
value, for many values at once.

``EmbeddingTable.save_vec`` is the only caller and imports this module when
it runs, so no other command loads or builds these tables.

numpy writes a float32 in positional form, with the shortest digits that
round back to it, when 1e-4 <= |v| < 1e6; everything else is in scientific
form. The fast path takes the positional range only. Let e be the decimal
exponent of |v| (10**e <= |v| < 10**(e+1)), and let the float32 value be
m * 2**q with a 24-bit integer m. Then S = |v| * 10**(8 - e) lies in
[1e8, 1e9), and S and the half-ulp h = 2**(q-1) * 10**(8 - e) are exact
doubles: their significands are below 2**24 * 5**12 < 2**53. A decimal string
reads back as v exactly when its value, in units of S, lies strictly inside
(S - h, S + h). So the shortest digits are the multiple c of 10**k nearest to
S, for the largest k that has a multiple of 10**k inside that interval, and
every step is decided by comparisons of exact doubles. No digits can fall on
an edge: S +- h = (2m +- 1) * 2**(q-1) * 10**(8 - e) is odd times 2**(q+7-e)
times a power of 5, and q + 7 - e <= -2 throughout the range, so an edge is
never an integer.

A value is left to ``str()`` when the fast path cannot certify it: outside
the positional range (zeros, subnormals, infinities and NaN included), a power of two (its
interval is narrower below than above), or two candidates equally near S.
``row_texts`` writes a row that holds any such value with ``str()`` per
value, as the per-value writer did; on normally distributed tables that is
about one row in a hundred.

``tools/vectext_exhaustive.py`` compares the fast path with ``str()`` on
every float32 in the positional range.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["row_texts"]

# Values formatted at once. Each passes through about a dozen float64 and
# uint64 work arrays, about 1.5 MB a chunk. On a 16,000 x 100 table, 2**14
# to 2**16 values a chunk write in about the same time, 2**12 a third slower.
CHUNK_VALUES = 1 << 14

# frexp exponents of the positional range: 1e-4 is in [2**-14, 2**-13), and
# 1e6 in [2**19, 2**20).
_EX_MIN, _EX_MAX = -13, 20


def _binade_tables():
    """Per binade [2**(ex-1), 2**ex) and per decade in it: decimal exponent,
    scale 10**(8-e) and half-ulp in units of S.

    A binade spans less than a decade, so it meets at most two: a value is in
    the upper one when it is at least ``up[b]``. Entry 2*b + upper of the
    other tables belongs to binade b = ex - _EX_MIN. Decades outside
    [-4, 5] are clipped: no value in the positional range has them.
    """
    up, exp10, scale, half = [], [], [], []
    for ex in range(_EX_MIN, _EX_MAX + 1):
        low = math.floor(math.log10(2.0 ** (ex - 1)))  # 2**n is never a power of 10 but 1
        up.append(float(f"1e{low + 1}"))
        for e in (low, low + 1):
            e = min(max(e, -4), 5)
            exp10.append(e)
            scale.append(float(10 ** (8 - e)))
            half.append(math.ldexp(float(10 ** (8 - e)), ex - 25))
    return np.array(up), np.array(exp10, dtype=np.intp), np.array(scale), np.array(half)


_UP, _EXP10, _SCALE, _HALF = _binade_tables()
_POW10 = 10.0 ** np.arange(10)


def _shortest(x):
    """Shortest digits of float32 magnitudes ``x`` (float64, all in
    [1e-4, 1e6)).

    Returns (c, e, k, uncertain): the digits are c / 10**k, an integer with
    no trailing zero, and c / 10**(8 - e) is the value they spell, with
    1e8 <= c <= 1e9. ``uncertain`` marks values the caller must leave to
    ``str()``.
    """
    mant, ex = np.frexp(x)
    j = ex.astype(np.intp)
    j -= _EX_MIN
    upper = x >= _UP[j]
    j += j
    j += upper
    S = x * _SCALE[j]
    h = _HALF[j]
    e = _EXP10[j]
    uncertain = mant == 0.5
    # k = the largest level with a multiple of 10**k strictly inside
    # (S - h, S + h). Level 0 always has one (h > 2.9), and the levels that
    # have one are 0..k, so counting them gives k.
    k = np.zeros(x.size, dtype=np.intp)
    for level in (1, 2):
        p = _POW10[level]
        d = np.rint(S / p)
        d *= p
        d -= S
        np.abs(d, out=d)
        d = np.minimum(d, p - d)  # exact distance to the nearest multiple
        k += d < h
    # About a third of the values reach level 2, a thirtieth level 3.
    idx = np.flatnonzero(k == 2)
    for level in range(3, 9):
        if not idx.size:
            break
        p = _POW10[level]
        Si = S[idx]
        d = np.abs(np.rint(Si / p) * p - Si)
        idx = idx[np.minimum(d, p - d) < h[idx]]
        k[idx] = level
    p = _POW10[k]
    c = np.rint(S / p)
    c *= p
    # Two candidates equally near S, or a quotient that rounded to the
    # farther one: leave both to str().
    uncertain |= 2 * np.abs(S - c) >= p
    return c, e, k, uncertain


def _patterns():
    """Byte masks that cut a value's text out of its 24-byte work row.

    The work row is "0" + six integer digits + "." + twelve fraction digits
    + four spare bytes, as three little-endian uint64 words. A value with il
    integer digits, fl fraction digits, a sign and a separator (" ", or
    "\\n" after a row's last value) keeps bytes 7-il .. 7+fl, gets "-" at
    6-il and the separator at 8+fl, and is shifted to start at byte 0; the
    longest text is 16 bytes. Index: ((il-1)*12 + fl-1)*4 + 2*negative + last.
    """
    n = 6 * 12 * 4
    keep = np.zeros((n, 24), dtype=np.uint8)
    put = np.zeros((n, 24), dtype=np.uint8)
    shift = np.zeros(n, dtype=np.uint64)
    for il in range(1, 7):
        for fl in range(1, 13):
            for negative in (0, 1):
                for last in (0, 1):
                    pid = ((il - 1) * 12 + fl - 1) * 4 + 2 * negative + last
                    keep[pid, 7 - il : 8 + fl] = 0xFF
                    if negative:
                        put[pid, 6 - il] = ord("-")
                    put[pid, 8 + fl] = ord("\n" if last else " ")
                    shift[pid] = 8 * (7 - il - negative)
    keep, put = ([np.ascontiguousarray(w) for w in a.view(np.uint64).T] for a in (keep, put))
    return keep, put, shift, 64 - shift


_KEEP, _PUT, _SHR, _SHL = _patterns()


def _digit_table(width):
    """Text of 0 .. 10**width - 1 in ``width`` digits, padded to four bytes
    with ".", as the low half of a uint64 each."""
    n = np.arange(10**width, dtype=np.uint32)[:, None]
    text = np.full((10**width, 4), ord("."), dtype=np.uint8)
    text[:, :width] = n // 10 ** np.arange(width - 1, -1, -1, dtype=np.uint32) % 10 + ord("0")
    return text.view("<u4").ravel().astype(np.uint64)


_DIGITS4 = _digit_table(4)
_DIGITS3_DOT = _digit_table(3)
_INT_SCALE = 10.0 ** (8 - np.arange(-4, 6))  # c / this = integer part
_FRAC_SCALE = 10.0 ** (4 + np.arange(-4, 6))  # fraction * this = 12 digits


def _fast_rows(block):
    """Text of each row of a float32 matrix, values joined by spaces.

    Returns (lines, exact): lines[i] is bytes without a line break, and is
    ``str()``'s text only where exact[i] is true.
    """
    n, dim = block.shape
    v = block.ravel()
    with np.errstate(invalid="ignore"):  # a signalling NaN warns as it widens
        x = v.astype(np.float64)
    np.abs(x, out=x)
    outside = ~((x >= 1e-4) & (x < 1e6))  # NaN too
    x[outside] = 1.0  # any in-range value; its row is rewritten anyway
    c, e, k, uncertain = _shortest(x)
    uncertain |= outside
    # Rounding up to 1e9 moves the point. No value below 1e6 rounds up to it
    # (999999.94, the largest, prints as itself), so e stays <= 5.
    carry = np.flatnonzero(c == 1e9)
    c[carry] = 1e8
    e[carry] += 1
    # Integer part and twelve fraction digits; every step is exact in float64.
    ie = e + 4
    scale = _INT_SCALE[ie]
    whole = np.floor(c / scale)
    frac = c - whole * scale
    frac *= _FRAC_SCALE[ie]
    w_hi = np.floor(whole / 1000)
    w_lo = whole - 1000 * w_hi
    f0 = np.floor(frac / 1e8)
    frac -= f0 * 1e8
    f1 = np.floor(frac / 1e4)
    f2 = frac - f1 * 1e4
    int_digits = np.maximum(e + 1, 1)
    frac_digits = np.maximum(8 - k - e, 1)
    pid = (int_digits - 1) * 48 + (frac_digits - 1) * 4
    pid += 2 * np.signbit(v)
    pid[dim - 1 :: dim] += 1
    w_hi, w_lo, f0, f1, f2 = (a.astype(np.intp) for a in (w_hi, w_lo, f0, f1, f2))
    w0 = _DIGITS4[w_hi] | (_DIGITS3_DOT[w_lo] << np.uint64(32))
    w1 = _DIGITS4[f0] | (_DIGITS4[f1] << np.uint64(32))
    w2 = _DIGITS4[f2]
    for w, keep, put in zip((w0, w1, w2), _KEEP, _PUT):
        w &= keep[pid]
        w |= put[pid]
    shr, shl = _SHR[pid], _SHL[pid]
    text = np.empty((v.size, 2), dtype=np.uint64)
    text[:, 0] = (w0 >> shr) | (w1 << shl)
    text[:, 1] = (w1 >> shr) | (w2 << shl)
    text = text.view(np.uint8)
    lines = text[text != 0].tobytes().split(b"\n")
    lines.pop()  # after the last row's line break
    return lines, ~uncertain.reshape(n, dim).any(axis=1)


def row_texts(vectors):
    """Yield each row of a float32 matrix as bytes: its values as
    ``str(np.float32(v))`` writes them, joined by single spaces.

    Rows go CHUNK_VALUES values at a time through the fast path; a row it
    cannot certify is formatted with ``str()`` per value.
    """
    rows = max(1, CHUNK_VALUES // vectors.shape[1])
    for start in range(0, len(vectors), rows):
        block = vectors[start : start + rows]
        lines, exact = _fast_rows(block)
        for i in np.flatnonzero(~exact):
            lines[i] = " ".join(map(str, block[i])).encode()
        yield from lines
