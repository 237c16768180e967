"""CSV rows of float64 columns, every field byte for byte ``format(v, ".17g")``.

S = |x| * 10**(16 - X), X = floor(log10|x|) corrected by one, is a
double-double to about 2**-100 (Dekker's two-product with a table of
10**k), so N = round(S) is exact unless S's fraction lies within 1e-6 of
1/2; such near-ties, inf and nan are left to Python (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019).  A field's
text is a subsequence of one layout -- sign, "0.000", each digit followed
by a '.' slot, "e+ddd" -- that a keep-mask per (sign, exponent class,
last non-zero digit) selects, with one ``np.compress`` per block.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence
from types import SimpleNamespace

import numpy as np

#: rows per block: bounds the formatter's memory whatever the row count
BLOCK_ROWS = 512
_K0, _K1 = -300, 350  # the powers 10**k held: k = 16 - X, X in [-325, 309]
_CLASSES = 23  # X = -4..16 in fixed notation, then 2- and 3-digit exponents
_SPLICED = 2 * _CLASSES * 17  # the key that keeps only the sign slot, set to "\x01"


def _powers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hi, lo, b with 10**k = (hi + lo) * 2**b to about 2**-105, k = _K0.._K1."""
    tens = list(itertools.accumulate(range(max(-_K0, _K1)), lambda n, _: 10 * n, initial=1))
    rows = []
    for k in range(_K0, _K1 + 1):
        n = tens[abs(k)]
        t, s = (n << 120) >> n.bit_length(), n.bit_length() - 120  # 10**|k| to 120 bits
        if k < 0:
            t, s = (1 << 240) // t, -240 - s
        cut = t.bit_length() - 53
        rows.append((math.ldexp(t >> cut, -52), math.ldexp(t - (t >> cut << cut), -52 - cut),
                     s + cut + 52))
    hi, lo, b = zip(*rows)
    return np.array(hi), np.array(lo), np.array(b, np.int32)  # frexp's exponents are int32


def _split(a):
    """Veltkamp's split of a into a 26-bit head and the rest, exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    head = c - (c - a)
    return head, a - head


def _masks() -> np.ndarray:
    """Keep-masks over the layout, 48 wide, by key (sign * 23 + class) * 17 +
    last non-zero digit, then the row of _SPLICED."""
    X = np.r_[np.arange(-4, 17), 0, 0][:, None]  # per class; 21 and 22 are scientific
    sci = (np.arange(_CLASSES) >= 21)[:, None]
    last = i = np.arange(17)
    dot = np.where(sci, 0, np.where(X >= 0, X, -1))  # the digit the '.' follows
    m = np.zeros((2, _CLASSES, 17, 48), bool)
    m[1, ..., 0] = True
    m[..., 1:6] = (~sci & (X < 0))[..., None] & (np.arange(5) <= -X[..., None])
    m[..., 6:40:2] = i <= np.where(~sci & (X >= 0), np.maximum(X, last), last)[..., None]
    m[..., 7:40:2] = (i == dot[..., None]) & (last > dot)[..., None]
    three = (np.arange(_CLASSES) == 22)[:, None, None]
    m[..., 40:45] = sci[..., None] & ((np.arange(5) != 2) | three)
    return np.vstack([m.reshape(-1, 48), np.arange(48) == 0])


@functools.cache
def _tables() -> SimpleNamespace:
    hi, lo, b = _powers()
    d = np.arange(48, 58, dtype=np.uint8)
    digits4 = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    pairs = np.full((10000, 8), ord("."), np.uint8)
    pairs[:, ::2] = digits4
    X = np.arange(16 - _K1, 17 - _K0)
    masks = _masks()
    return SimpleNamespace(
        hi=hi, hi_split=_split(hi), lo=lo, b=b,
        # the layout as 8-byte words: "-0.000d." by the leading digit,
        # "d.d.d.d." by 4-digit group, "e+ddd" by X + _K1 - 16
        first=np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64),
        pairs=pairs.view(np.uint64).ravel(),
        exps=np.frombuffer(b"".join(b"e%+04d\0\0\0" % x for x in X.tolist()), np.uint64),
        # index of a 4-digit group's last non-zero digit; -99 for the group 0
        last4=np.where(np.arange(10000) > 0, 3 - np.argmax(digits4[:, ::-1] > 48, axis=1), -99),
        cls=17 * np.where((X >= -4) & (X <= 16), X + 4, np.where(np.abs(X) < 100, 21, 22)),
        masks=masks.view(np.uint64))


def _scaled(m, e, X, t):
    """|x| * 10**(16 - X) for |x| = m * 2**e as P + R, P = fl(m * hi) scaled."""
    i = 16 - X - _K0
    p = m * t.hi[i]
    mh, ml = _split(m)
    hh, hl = t.hi_split[0][i], t.hi_split[1][i]
    r = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * t.lo[i]
    s = e + t.b[i]
    return np.ldexp(p, s), np.ldexp(r, s)


def _significand(a, t):
    """(N, X, near_tie): a = N * 10**(X - 16) for positive finite a, N in
    [1e16, 1e17) and exact where near_tie is False."""
    m, e = np.frexp(a)
    X = np.floor(np.log10(a)).astype(np.int64)
    P, R = _scaled(m, e, X, t)
    # P is exact and R small, so these signs are those of S - 1e17 and S - 1e16
    off = ((P - 1e17) + R >= 0).astype(np.int64) - ((P - 1e16) + R < 0)
    fix = np.flatnonzero(off)
    if fix.size:
        X[fix] += off[fix]
        P[fix], R[fix] = _scaled(m[fix], e[fix], X[fix], t)
    frac = R - np.floor(R)  # P is an integer: S >= 1e16 > 2**53
    N = P.astype(np.int64) + (R - frac).astype(np.int64) + (frac > 0.5)
    carry = N == 10 ** 17
    return np.where(carry, 10 ** 16, N), X + carry, np.abs(frac - 0.5) < 1e-6


def _block(vals: np.ndarray, tails: np.ndarray) -> str:
    """CSV text of the (rows, fields) array ``vals``; ``tails`` holds each
    field's separators from byte 45 of its layout on, zeros elsewhere."""
    t = _tables()
    (n, f), v = vals.shape, vals.ravel()
    a = np.abs(v)
    spliced, zero = ~np.isfinite(a), a == 0
    a[spliced | zero] = 1.0
    N, X, tie = _significand(a, t)
    spliced |= tie
    N[zero] = X[zero] = 0  # "0": the digit 0 alone at X = 0
    head, tail = np.divmod(N, 10 ** 8)
    d1, mid = np.divmod(head, 10 ** 8)
    groups = np.stack([d1, *np.divmod(mid, 10 ** 4), *np.divmod(tail, 10 ** 4)])
    # the index of the last non-zero digit; groups start at digit -3 ("000d"), 1, 5, 9, 13
    last = np.maximum((t.last4[groups] + np.arange(-3, 14, 4)[:, None]).max(axis=0), 0)
    at = X + _K1 - 16  # index into the tables by exponent
    key = t.cls[at] + np.signbit(v) * (_CLASSES * 17) + last
    key[spliced] = _SPLICED

    tail_words, tail_keep = tails.view(np.uint64), (tails > 0).view(np.uint64)
    out = np.empty((n, f, tail_words.shape[1]), np.uint64)
    out[..., 0] = t.first[d1].reshape(n, f)
    out[..., 1:5] = t.pairs[groups[1:]].T.reshape(n, f, 4)
    out[..., 5:] = tail_words[:, 5:]
    out[..., 5] |= t.exps[at].reshape(n, f)
    keep = np.empty(out.shape, np.uint64)
    keep[..., :6] = np.take(t.masks, key, axis=0).reshape(n, f, 6) | tail_keep[:, :6]
    keep[..., 6:] = tail_keep[:, 6:]
    out.view(np.uint8).reshape(n * f, -1)[spliced, 0] = 1  # where Python's text goes
    text = np.compress(keep.view(bool).ravel(), out.view(np.uint8).ravel()).tobytes().decode()
    if spliced.any():
        parts = text.split("\x01")
        text = "".join(p + format(x, ".17g") for p, x in zip(parts, v[spliced].tolist()))
        text += parts[-1]
    return text


def csv_rows(columns: Sequence[np.ndarray | None]) -> Iterator[str]:
    """The CSV rows of ``columns``, one string per BLOCK_ROWS rows: each
    column a 1-d float array, or None for an empty field (not the first);
    fields are ``format(v, ".17g")`` joined by ',', and rows end in '\\n'."""
    if columns[0] is None:
        raise ValueError("the first column must be an array")
    present = [j for j, col in enumerate(columns) if col is not None]
    seps = [b"," * (end - j) for j, end in zip(present, present[1:] + [len(columns)])]
    seps[-1] = seps[-1][:-1] + b"\n"
    tails = np.zeros((len(seps), 40 + -(-(5 + max(map(len, seps))) // 8) * 8), np.uint8)
    for f, sep in enumerate(seps):
        tails[f, 45:45 + len(sep)] = np.frombuffer(sep, np.uint8)
    cols = [np.asarray(columns[j], dtype=float) for j in present]
    for start in range(0, len(cols[0]), BLOCK_ROWS):
        yield _block(np.stack([col[start:start + BLOCK_ROWS] for col in cols], axis=1), tails)
