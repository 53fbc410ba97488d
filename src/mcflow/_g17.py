"""An exact, vectorised ``%.17g``: the text of snapshot node blocks.

A value x != 0 has a decimal exponent X and a 17-digit integer D in
[1e16, 1e17), the correctly rounded |x| * 10^(16-X); ``%.17g`` prints D
without its trailing zeros, in fixed notation for -4 <= X <= 16 and in
exponent notation otherwise.  The product is taken exactly: Dekker's
two-product (split at 2^27 + 1, as numpy has no fused multiply-add; Dekker,
Numer. Math. 18, 1971) against 10^(16-X) held as a sum of two doubles.  For
0 <= 16-X <= 22 the power is one exact double, so the fraction that decides
the rounding is exact and a tie goes to even, as in Python.  Otherwise the
fraction is known to 5e-15, and one within ``TIE`` of 1/2 is left to Python.

The text is laid out by table lookups: the digits come in chunks of four, and
each value gets one row of bytes that holds every character its text can use,
in order, so that each form of ``%.17g`` is a subsequence of the row, picked
by a mask chosen by (X, significant digits, sign).

:func:`mcflow.immersion.save_snapshot` imports this module on its first
call, so importing :mod:`mcflow`, and a run that writes no snapshot, pay
neither for compiling it nor for building its tables.
"""

from __future__ import annotations

import numpy as np

RANGE = (1e-280, 1e280)     # the kernel takes 0 and RANGE[0] <= |x| < RANGE[1]
TIE = 1e-9
_EXP = 282                  # power tables: 10^(16-X) for |X| <= _EXP
_SPLIT = 134217729.0        # 2^27 + 1

# The row of one value: d0.A is the mantissa (A = d1..d16); lead and zero_dot
# are the 0.000 of -4 <= X <= -2 and the 0. of X = -1, in front of all 17
# digits B = d0..d16; exp is "e" and the signed exponent, two digits
# right-aligned.  A sign and a separator stand next to each form, so that
# the common ones are one or two runs of the row.
_SEGMENTS = (("sign", b"-"), ("d0", b"0"), ("dot", b"."), ("A", b"0" * 16),
             ("sep1", b" "), ("sign_lead", b"-"), ("lead", b"0.000"),
             ("sign_b", b"-"), ("zero_dot", b"0."), ("B", b"0" * 17),
             ("sep2", b" "), ("exp", b"e+000"), ("sep3", b" "))
_TEMPLATE = np.frombuffer(b"".join(text for _, text in _SEGMENTS), np.uint8)
_WIDTH = len(_TEMPLATE)
_COL = {}                   # the first column of each segment
for _name, _text in _SEGMENTS:
    _COL[_name] = sum(len(text) for _, text in _SEGMENTS[:len(_COL)])


def _powers():
    """10^(16-X) = hi + lo for |X| <= _EXP, each rounded to nearest from the
    exact value, and hi split in halves for Dekker's product."""
    his, los = [], []
    for x in range(-_EXP, _EXP + 1):
        if x <= 16:
            p = 10 ** (16 - x)
            hi = float(p)
            los.append(float(p - int(hi)))
        else:
            q = 10 ** (x - 16)
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            los.append((den - num * q) / (den * q))
        his.append(hi)
    hi, lo = np.array(his), np.array(los)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, lo, hh, hi - hh


def _exponents():
    """The exponent text of each X: 8 bytes "e+XX", right-aligned in the
    first 5 ("\\0e+XX", or "e+XXX" for |X| >= 100)."""
    xs = np.arange(-_EXP, _EXP + 1)
    ax = np.abs(xs)
    exp = np.zeros((len(xs), 8), np.uint8)
    sign = np.where(xs < 0, ord("-"), ord("+"))
    two = ax < 100
    exp[:, 0] = np.where(two, 0, ord("e"))
    exp[:, 1] = np.where(two, ord("e"), sign)
    exp[:, 2] = np.where(two, sign, ax // 100 + ord("0"))
    exp[:, 3] = ax // 10 % 10 + ord("0")
    exp[:, 4] = ax % 10 + ord("0")
    return exp.view(np.uint64).ravel()


def _chunks():
    """The 4 digit bytes and the trailing zeros of each n < 10^4, held at
    [n // 1000, n // 100 % 10, n // 10 % 10, n % 10]."""
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        digits[..., j] = ascii.reshape((10,) + (1,) * (3 - j))
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    for j in range(1, 5):
        zeros[(slice(None),) * (4 - j) + (0,) * j] += 1
    return digits.reshape(10000, 4).view(np.uint32).ravel(), zeros.ravel()


def _keep_masks():
    """keep[(cls * 17 + s - 1) * 2 + neg]: the bytes of a row that the text
    keeps, for class cls (X + 4 for -4 <= X <= 16, 21 for two exponent digits,
    22 for three), s significant digits and a sign bit neg."""
    cols = np.arange(_WIDTH)
    s = np.arange(1, 18)[:, None]

    def run(name, start, stop):
        return (cols >= _COL[name] + start) & (cols < _COL[name] + stop)

    keep = np.zeros((23, 17, 2, _WIDTH), bool)
    for cls in range(23):
        if cls < 4:                         # 0.000ddd, X = cls - 4
            zeros = 3 - cls
            sign = "sign_b" if zeros == 0 else "sign_lead"
            lead = run("zero_dot", 0, 2) if zeros == 0 else run("lead", 0, 2 + zeros)
            row = lead | run("B", 0, s) | run("sep2", 0, 1)
        else:
            sign = "sign"
            a = cls - 3 if cls <= 20 else 1     # digits before the point
            frac = s > a
            row = run("d0", 0, 1) | run("A", 0, a - 1)
            if a > 1:                           # ddd.ddd: point and fraction from B
                row = row | frac & (run("zero_dot", 1, 2) | run("B", a, s))
                row = row | np.where(frac, run("sep2", 0, 1), run("sep1", 0, 1))
            else:
                row = row | frac & (run("dot", 0, 1) | run("A", 0, s - 1))
                if cls <= 20:
                    row = row | run("sep1", 0, 1)
                else:
                    row = row | run("exp", 1 if cls == 21 else 0, 5) | run("sep3", 0, 1)
        keep[cls, :, 0] = row
        keep[cls, :, 1] = row | run(sign, 0, 1)
    return keep.reshape(-1, _WIDTH)


_P_HI, _P_LO, _P_HH, _P_HL = _powers()
_EXP_TEXT = _exponents()
_DIGITS4, _ZEROS4 = _chunks()
_KEEP = _keep_masks()
_XS = np.arange(-_EXP, _EXP + 1)
_CLS_KEY = np.where((_XS >= -4) & (_XS <= 16), _XS + 4,
                    np.where(np.abs(_XS) < 100, 21, 22)) * 34


def _scaled(ax, X):
    """|x| * 10^(16-X) as hi + lo, and whether 10^(16-X) was inexact."""
    i = X + _EXP
    hh, hl, lo_p = _P_HH.take(i), _P_HL.take(i), _P_LO.take(i)
    hi = ax * _P_HI.take(i)
    c = _SPLIT * ax
    xh = c - (c - ax)
    xl = ax - xh
    err = ((xh * hh - hi) + xh * hl + xl * hh) + xl * hl
    return hi, err + ax * lo_p, lo_p != 0


def _digits(x):
    """(D, X) of each value of x, with D = X = 0 for a zero, or None if a
    value is not for the kernel."""
    ax = np.abs(x)
    zero = ax == 0
    ax[zero] = 1.0
    if not np.all((ax >= RANGE[0]) & (ax < RANGE[1])):
        return None
    X = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo, inexact = _scaled(ax, X)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = low | high
    if fix.any():                       # log10 rounded across a power of ten
        X[fix] += high[fix].astype(np.int64) - low[fix]
        hi[fix], lo[fix], inexact[fix] = _scaled(ax[fix], X[fix])
    if np.any((np.abs(lo - np.floor(lo) - 0.5) < TIE) & inexact):
        return None
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X[carry] += 1
    D[zero] = 0
    X[zero] = 0
    return D, X


def format_values(x, seps):
    """The bytes of ``"%.17g" % v`` and then its separator byte, for every
    value v of the float array x, as a uint8 array; or None if a value is
    not for the kernel: NaN, infinite, subnormal or outside ``RANGE``, or
    rounded within ``TIE`` of a tie by an inexact power of ten."""
    n = len(x)
    digits = _digits(x)
    if digits is None:
        return None
    D, X = digits
    # D = d0 and four chunks of 4 digits.  Each intermediate is dropped after
    # its last use, which keeps a block's peak near 140 bytes per value.
    upper = D // 10 ** 8
    lower = D - upper * 10 ** 8
    d0 = upper // 10 ** 8
    upper -= d0 * 10 ** 8
    d0 = d0.astype(np.uint8) + ord("0")
    chunks = np.empty((n, 4), np.int64)
    chunks[:, 0] = upper // 10 ** 4
    chunks[:, 1] = upper - chunks[:, 0] * 10 ** 4
    chunks[:, 2] = lower // 10 ** 4
    chunks[:, 3] = lower - chunks[:, 2] * 10 ** 4
    del D, upper, lower
    # the keep mask: class, significant digits (16 trailing zeros for
    # D = 0, so "0"), sign
    key = _CLS_KEY.take(X + _EXP)
    zeros4 = _ZEROS4.take(chunks)
    zeros = zeros4[:, 0]
    for j in (1, 2, 3):
        zeros = np.where(zeros4[:, j] == 4, zeros + 4, zeros4[:, j])
    key += (16 - zeros) * 2
    key += np.signbit(x)
    del zeros4, zeros
    rows = np.tile(_TEMPLATE, n).reshape(n, _WIDTH)
    digits = _DIGITS4.take(chunks).view(np.uint8).reshape(n, 16)
    del chunks
    rows[:, _COL["A"]:_COL["A"] + 16] = digits
    rows[:, _COL["B"] + 1:_COL["B"] + 17] = digits
    del digits
    rows[:, _COL["d0"]] = d0
    rows[:, _COL["B"]] = d0
    for sep in ("sep1", "sep2", "sep3"):
        rows[:, _COL[sep]] = seps
    e = np.flatnonzero((X < -4) | (X > 16))       # exponent notation
    if len(e):
        exp = _EXP_TEXT.take(X[e] + _EXP).view(np.uint8).reshape(len(e), 8)
        rows[e, _COL["exp"]:_COL["exp"] + 5] = exp[:, :5]
    return rows[_KEEP.take(key, axis=0)]
