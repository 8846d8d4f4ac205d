"""Exact vectorized text of CSV rows: each float as ``format(x, ".17g")``, byte for byte.

``write_rows`` writes the rows of a trace CSV many values at a time. A float
column gets Python's ``format(x, ".17g")`` and an integer column ``str(n)``,
byte for byte.

Digits come from the fixed-precision method of Adams, "Ryū revisited: printf
floating point conversion" (OOPSLA 2019). Write |x| = f * 2^q with f < 2^53.
Its 17 correctly rounded significant digits are the integer
round-half-even(f * 5^s * 2^(q + s)), with s = 16 - X and X the decimal
exponent. X is first estimated with log10. It is then fixed by checking the
integer part against 10^16 and 10^17. f * 5^s is a 128-bit product of uint64
halves, and the shift and the rounding work on that product. Every step stays
in uint64, since mixing uint64 with int64 promotes to float64, and no shift is
by 64 or more. This fast path covers ±0 and 1e-4 <= |x| < 1e17, which is the
fixed-notation range of ``g`` (X from -4 to 16). Every other value (smaller,
larger, inf or nan) is formatted by ``format`` itself, one at a time.

Each value's text is laid out down one column of a (bytes, values) uint8
array, with 0 in every position the text leaves out. Stacking the fields of a
row gives its line, and dropping the 0 bytes compacts the lines. Rows go in
blocks of ``_BLOCK_ROWS``, which bounds the working memory.
"""

from __future__ import annotations

from typing import BinaryIO, Sequence

import numpy as np

_BLOCK_ROWS = 2048
_TEXT = 24  # the longest ".17g" text, e.g. "-2.2250738585072014e-308"
_U = np.uint64
_ONE, _LO32, _32 = _U(1), _U(0xFFFFFFFF), _U(32)
_E16, _E17 = _U(10**16), _U(10**17)
_POW5 = np.array([5**s for s in range(21)], dtype=np.uint64)  # 5^s for s = 16 - X, X from -4 to 16
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_ROWS = np.arange(_TEXT, dtype=np.uint8)[:, None]
# the four ASCII digits of 0..9999 as one uint32 each, built from 10 KB pieces
_DIGITS = np.arange(48, 58, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


def _digits(n: np.ndarray, width: int) -> np.ndarray:
    """(width, len(n)) ASCII digits of each uint64 n < 10^width, most significant first."""
    quads = -(-width // 4)
    groups = np.empty((quads, len(n)), dtype=np.intp)  # each < 10^4, the index type of np.take
    for k in range(quads - 1, 0, -1):
        rest = n // _U(10_000)
        groups[k] = n - rest * _U(10_000)
        n = rest
    groups[0] = n
    text = np.take(_QUADS, groups).view(np.uint8).reshape(quads, len(n), 4).transpose(0, 2, 1)
    return text.reshape(4 * quads, len(n))[4 * quads - width:]


def _scaled(f: np.ndarray, q: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(f * 2^q * 10^s), and whether round-half-even rounds it up; f < 2^53, 0 <= s <= 20."""
    m = _POW5[s]
    f0, f1, m0, m1 = f & _LO32, f >> _32, m & _LO32, m >> _32
    low = f0 * m0
    mid = (low >> _32) + f0 * m1 + f1 * m0  # < 2^54: f1 < 2^21 and m1 < 2^15
    lo = (low & _LO32) | (mid << _32)
    hi = f1 * m1 + (mid >> _32)
    e = q + s
    right, left = np.maximum(-e, 0).astype(np.uint64), np.maximum(e, 0).astype(np.uint64)
    quot = (hi << (_U(63) - right) << _ONE) | (lo >> right)  # two shifts, since right may be 0
    rest = lo & ((_ONE << right) - _ONE)
    half = (_ONE << right) >> _ONE
    up = (rest > half) | ((rest == half) & (half != 0) & ((quot & _ONE) != 0))
    return quot << left, up


def _floats(x: np.ndarray) -> np.ndarray:
    """(24, len(x)) uint8: the text ``format(v, ".17g")`` of each float64 x, one column each."""
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)
    ax[~fast] = 1.0
    bits = ax.view(np.uint64)
    f = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    q = (bits >> _U(52)).astype(np.int64) - 1075
    X = np.clip(np.floor(np.log10(ax)), -4, 16).astype(np.int64)
    n, up = _scaled(f, q, 16 - X)
    low, high = n < _E16, n >= _E17
    fix = np.flatnonzero(low | high)
    if len(fix):
        X[fix] += high[fix].astype(np.int64) - low[fix]
        n[fix], up[fix] = _scaled(f[fix], q[fix], 16 - X[fix])
    # Rounding never carries n to 10^17: every double in the fast range lies at
    # least 8e-17 * 10^(X+1) below the next power of ten, more than the half
    # unit 5e-18 * 10^(X+1) of the 17th digit.
    n += up
    zero = x == 0
    fast |= zero
    n[zero] = 0
    X[~fast | zero] = 0
    # The digits "0000" + n, a point inserted at row p = 5 + X, shown from row a = 4 + min(X, 0) to row end.
    digits = np.empty((22, len(x)), dtype=np.uint8)
    digits[:4] = digits[21] = 48
    digits[4:21] = _digits(n, 17)
    p = (5 + X).astype(np.uint8)
    text = np.empty((_TEXT, len(x)), dtype=np.uint8)
    body = text[1:23]
    body[0] = digits[0]
    np.subtract(digits[:-1], digits[1:], out=body[1:])  # uint8 arithmetic: digits[j - 1] after the point
    body[1:] *= _ROWS[1:22] > p
    body[1:] += digits[1:]
    body[p, np.arange(len(x))] = 46
    last = np.max((body != 48) * _ROWS[1:23], axis=0)  # one past the last byte that is not '0'
    end = np.where(last == p + 1, p, last)  # no fraction digit left: drop the point too
    a = (4 + np.minimum(X, 0)).astype(np.uint8)
    body *= (_ROWS[:22] >= a) & (_ROWS[:22] < end)
    text[0] = np.signbit(x) * np.uint8(45)
    text[23] = 0
    slow = np.flatnonzero(~fast)
    if len(slow):
        words = np.array([format(v, ".17g") for v in x[slow].tolist()], dtype=f"S{_TEXT}")
        text[:, slow] = words.view(np.uint8).reshape(len(slow), _TEXT).T
    return text


def _ints(blocks: Sequence[np.ndarray], width: int) -> np.ndarray:
    """(width, values) uint8: the text ``str(v)`` of each integer v of the blocks, right-aligned in one column each."""
    neg = np.concatenate([b < 0 for b in blocks])
    mag = np.concatenate([b.astype(np.uint64) for b in blocks])
    mag[neg] = _U(0) - mag[neg]  # two's complement: |v| for every int64, its minimum included
    count = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
    start = (width - count).astype(np.uint8)
    text = _digits(mag, width)
    text *= _ROWS[:width] >= start
    cols = np.flatnonzero(neg)
    text[start[cols] - 1, cols] = 45
    return text


def _width(v: np.ndarray) -> int:
    """The length of the longest ``str`` of an integer array's values."""
    return max(len(str(int(v.min()))), len(str(int(v.max())))) if len(v) else 1


def write_rows(fh: BinaryIO, prefix: bytes, columns: Sequence[np.ndarray]) -> None:
    """Write one ASCII line per row to the binary file fh: ``prefix``, then the row's values joined by commas.

    Each column is an integer or a float array. A float is written as
    ``format(x, ".17g")`` and an integer as ``str(n)``.
    """
    columns = [np.asarray(c) for c in columns]
    if any(c.dtype.kind not in "fiu" for c in columns):
        raise TypeError(f"a CSV column holds integers or floats, got {[c.dtype for c in columns]}")
    floats = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    ints = [i for i, c in enumerate(columns) if c.dtype.kind != "f"]
    width = max((_width(columns[i]) for i in ints), default=1)
    ends = np.cumsum([(_TEXT if i in floats else width) + 1 for i in range(len(columns))])
    rows = len(columns[0])
    buf = np.empty((int(ends[-1]), min(rows, _BLOCK_ROWS)), dtype=np.uint8)
    buf[ends[:-1] - 1] = 44
    buf[-1] = 10
    for lo in range(0, rows, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, rows - lo)
        texts = []
        if floats:
            x = np.concatenate([columns[i][lo:lo + m] for i in floats], dtype=np.float64)
            texts += zip(floats, np.split(_floats(x), len(floats), axis=1))
        if ints:
            texts += zip(ints, np.split(_ints([columns[i][lo:lo + m] for i in ints], width), len(ints), axis=1))
        for i, text in texts:
            buf[ends[i] - len(text) - 1:ends[i] - 1, :m] = text
        lines = np.ascontiguousarray(buf[:, :m].T)
        body = lines[lines != 0].tobytes()
        fh.write(prefix + body[:-1].replace(b"\n", b"\n" + prefix) + b"\n")
