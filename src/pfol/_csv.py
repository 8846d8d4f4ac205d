"""Exact vectorized text of CSV rows: each float as ``format(x, ".17g")``, byte for byte.

``write_rows`` writes the rows of a trace CSV many values at a time. A float
column gets Python's ``format(x, ".17g")`` and an integer column ``str(n)``,
byte for byte.

The 17 correctly rounded significant digits of |x| are the integer
round-half-even(|x| * 10^s), with s = 16 - X and X the decimal exponent. X is
first estimated with log10. It is then fixed by checking the floor of the
product against 10^16 and 10^17. The product comes from Dekker's two-product
("A floating-point technique for extending the available precision", Numer.
Math. 18, 1971): splitting each factor at 2^27 + 1 into two halves of at most
26 significant bits makes every partial product exact, so p = fl(|x| * 10^s)
and its error e come out with p + e = |x| * 10^s exactly, barring overflow
and underflow, which the fast range rules out. 10^s is exact in float64 up to
s = 22 (5^22 < 2^53), and s runs from 0 to 20 here. Once the product is at
least 10^16 > 2^53, every double near it is an even integer, p among them, and
|e| <= ulp(p) / 2 <= 8. So the floor is p + floor(e) and the digits are
p + rint(e), rint rounding ties to even as p's parity needs. Below 2^53, which
only a first estimate of X one too high reaches, p need not be an integer,
but the floor returned is still below 10^16, which is all the fix reads.

This fast path covers ±0 and 1e-4 <= |x| < 1e17, which is the fixed-notation
range of ``g`` (X from -4 to 16). Every other value (smaller, larger, inf or
nan) is formatted by ``format`` itself, one at a time.

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
_TEN = np.array([float(10**s) for s in range(21)])  # 10^s for s = 16 - X, X from -4 to 16
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_ROWS = np.arange(_TEXT, dtype=np.uint8)[:, None]
# the four ASCII digits of 0..9999 as one uint32 each, built from 10 KB pieces
_DIGITS = np.arange(48, 58, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


def _digits(n: np.ndarray, width: int) -> np.ndarray:
    """(width, len(n)) ASCII digits of each integer 0 <= n < 10^width, most significant first."""
    quads = -(-width // 4)
    groups = np.empty((quads, len(n)), dtype=np.intp)  # each < 10^4, the index type of np.take
    for k in range(quads - 1, 0, -1):
        rest = n // 10_000
        groups[k] = n - rest * 10_000
        n = rest
    groups[0] = n
    text = np.take(_QUADS, groups).view(np.uint8).reshape(quads, len(n), 4).transpose(0, 2, 1)
    return text.reshape(4 * quads, len(n))[4 * quads - width:]


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of v into hi + lo, each of at most 26 significant bits."""
    t = v * 134217729.0  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _scaled(ax: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(ax * 10^s) as int64, and whether round-half-even rounds it up; exact when fl(ax * 10^s) >= 2^53."""
    b = _TEN[s]
    p = ax * b
    (ah, al), (bh, bl) = _split(ax), _split(b)
    e = ah * bh - p + al * bh + ah * bl + al * bl  # p + e = ax * 10^s, every step exact
    down = np.floor(e)
    return p.astype(np.int64) + down.astype(np.int64), np.rint(e) > down


def _floats(x: np.ndarray) -> np.ndarray:
    """(24, len(x)) uint8: the text ``format(v, ".17g")`` of each float64 x, one column each."""
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)
    ax[~fast] = 1.0
    X = np.clip(np.floor(np.log10(ax)), -4, 16).astype(np.int64)
    n, up = _scaled(ax, 16 - X)
    low, high = n < 10**16, n >= 10**17
    fix = np.flatnonzero(low | high)
    if len(fix):
        X[fix] += high[fix].astype(np.int64) - low[fix]
        n[fix], up[fix] = _scaled(ax[fix], 16 - X[fix])
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
    mag[neg] = np.uint64(0) - mag[neg]  # two's complement: |v| for every int64, its minimum included
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
    ``format(x, ".17g")`` and an integer as ``str(n)``. The prefix is the
    first field of every line, the same bytes in each row's column of the
    block, as the commas are. Since 0 marks a byte that a line leaves out, a
    prefix holding a NUL byte is a ValueError.
    """
    columns = [np.asarray(c) for c in columns]
    if any(c.dtype.kind not in "fiu" for c in columns):
        raise TypeError(f"a CSV column holds integers or floats, got {[c.dtype for c in columns]}")
    if b"\0" in prefix:
        raise ValueError(f"a CSV row prefix cannot hold a NUL byte, got {prefix!r}")
    floats = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    ints = [i for i, c in enumerate(columns) if c.dtype.kind != "f"]
    width = max((_width(columns[i]) for i in ints), default=1)
    ends = len(prefix) + np.cumsum([(_TEXT if i in floats else width) + 1 for i in range(len(columns))])
    rows = len(columns[0])
    buf = np.empty((int(ends[-1]), min(rows, _BLOCK_ROWS)), dtype=np.uint8)
    buf[:len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)[:, None]
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
        lines = buf[:, :m].T
        fh.write(lines[lines != 0])
