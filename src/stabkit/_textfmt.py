"""The text of every number stabkit writes: CSV values as Python's
``'%.17g' % v`` and SVG coordinates as ``'%.2f' % v``, byte for byte,
without a Python call per value.

A document is rendered from *pieces*: strings, float columns and text
columns. Each row is its pieces in order, a string being the same on
every row, so ``svg_rows(["x=", xs, ",", labels, "\\n"])`` is the rows
of ``"x=%.2f,%s\\n"``. Rows are rendered in blocks of about ``_BLOCK``
values. Every value of a block is formatted at once into a fixed-width
slot of 8-byte words, one row of words per word position and one column
per value, so that each step is one numpy operation over a whole row. The
slot bytes a value does not use are NUL, and one ``bytes.translate`` per
block deletes them.

``%.17g``: the 17-digit integer D = round(|x| 10^(16-X)) comes from an
exact (Dekker) two-product of |x| with 10^(16-X) held as hi + lo doubles,
plus an error term of at most ~1e-14. X starts as ``floor(log10|x|)`` and
is corrected from the *unrounded* product, which must lie in
[10^16, 10^17); a D that then rounds up to 10^17 carries into X. ``%.2f``:
the two-product 100 |x| = p + e is exact, so the sign of
``((p - floor(p)) - 1/2) + e`` decides the rounding exactly, ties going
half-even as Python's do.

Values the fast path cannot decide are formatted by Python's ``%`` and
spliced in, whatever their length: infinities and NaN; for ``%.17g``,
|x| outside [1e-280, 1e280] and values within 2^-30 of a rounding tie;
for ``%.2f``, |x| >= 2^52 / 100. Their slots hold the single byte 0x01,
so strings and text columns are ASCII without the bytes 0x00 and 0x01.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Values per block: enough to amortise each block's ~100 numpy calls, few
# enough that its largest temporaries (6 x 2048 words, 96 KiB) stay below
# glibc's 128 KiB mmap threshold. Blocks of 4096 values ran ~20% slower,
# mapping fresh pages for every block.
_BLOCK = 2048

_MARK = 1  # the one byte of a spliced value's slot


def _words(rows) -> np.ndarray:
    """8-byte strings (NUL-padded) as uint64 words with those bytes."""
    return np.array([row.ljust(8, b"\0") for row in rows], "S8").view(np.uint64)


def _split(x):
    """``x`` as hi + lo doubles of at most 26 significant bits each
    (Veltkamp's split)."""
    c = x * 134217729.0
    hi = c - (c - x)
    return hi, x - hi


# ---------------------------------------------------------------- %.17g
#
# Slot: six words. Word 0 is the sign, the "0." prefix of 1e-4 <= |x| < 1,
# the leading digit and its point; words 1-4 hold digits 1-16, each with a
# byte after it for the point; word 5 is the exponent suffix "e+XX", with
# 3 bytes left for what follows the value.

_G_LOW, _G_HIGH = 1e-280, 1e280
_TIE = 2.0**-30
# Exponents X the fast path can meet: floor(log10) of the range, +-1 for
# its correction and +1 for the carry.
_X_MIN, _X_MAX = -282, 282
_NO_POINT = 17


def _power_table():
    """10^(16-X) for every X in [_X_MIN, _X_MAX] as hi + lo doubles, hi
    split for the two-product; built from exact integers."""
    hi, lo = [], []
    for x in range(_X_MIN, _X_MAX + 1):
        if x <= 16:
            power = 10 ** (16 - x)
            hi.append(float(power))  # int to float rounds correctly
            lo.append(float(power - int(hi[-1])))
        else:  # 10^-m - hi = (h_den - h_num 10^m) / 10^m / h_den, h_den = 2^s
            power = 10 ** (x - 16)
            hi.append(1 / power)  # int true division rounds correctly
            h_num, h_den = hi[-1].as_integer_ratio()
            lo.append(math.ldexp((h_den - h_num * power) / power, 1 - h_den.bit_length()))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


_POW_HI, _POW_HH, _POW_HL, _POW_LO = _power_table()


def _exponent_table():
    """Per exponent X: the prefix and suffix words, the digit the point
    follows (``_NO_POINT`` for none) and the fewest digits shown."""
    x = np.arange(_X_MIN, _X_MAX + 1)
    exp = (x < -4) | (x >= 17)
    prefix = np.zeros((x.size, 8), np.uint8)
    for shift in range(1, 5):  # "0." and shift - 1 zeros for X = -shift
        prefix[x == -shift, 1:shift + 2] = np.frombuffer(b"0." + b"0" * (shift - 1), np.uint8)
    suffix = np.zeros((x.size, 8), np.uint8)
    suffix[:, 0], suffix[:, 1] = ord("e"), np.where(x < 0, ord("-"), ord("+"))
    wide = np.abs(x) >= 100  # "e+XX", or "e+XXX" from X = 100
    tens = np.abs(x) // 10 % 10 + ord("0")
    units = np.abs(x) % 10 + ord("0")
    suffix[:, 2] = np.where(wide, np.abs(x) // 100 + ord("0"), tens)
    suffix[:, 3] = np.where(wide, tens, units)
    suffix[:, 4] = np.where(wide, units, 0)
    suffix[~exp] = 0
    point = np.where(exp, 0, np.where(x < 0, _NO_POINT, x))
    keep = np.where(exp | (x < 0), 1, x + 1)
    return prefix.view(np.uint64)[:, 0], suffix.view(np.uint64)[:, 0], point, keep


_LEAD = _words([b"\0" * 6 + bytes([48 + d]) for d in range(10)])
_SIGN = _words([b"", b"-"])


def _group_table():
    """For every group 0..9999: its four digits, each followed by a byte
    for a point, as a word; and its trailing decimal zeros (4 for 0000)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    cells = np.zeros((8, digits.shape[1]), np.uint8)
    cells[::2] = digits + ord("0")
    zero = (digits == 0).astype(np.int8)
    trailing = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))
    return np.ascontiguousarray(cells.T).view(np.uint64)[:, 0], trailing


_CELLS, _TRAILING = _group_table()


def _digit_masks():
    """For word w (0 holds digit 0, word w > 0 digits 4w-3..4w) and every
    (digits shown, digit the point follows) state s = 18 shown + point:
    the mask of the word's shown digits, and the word's point if it holds
    one. Indexed as [w * 18 * 18 + s]."""
    shown = np.arange(18)[:, None, None]
    point = np.arange(18)[None, :, None]
    digit = np.array([[-1] * 3 + [0]] + [[4 * w - 3 + c for c in range(4)] for w in range(1, 5)])
    digit = digit[:, None, None, :]  # word x shown x point x cell
    keep = np.where(digit < 0, 0, np.where(digit < shown, 0xFF, 0)).astype(np.uint8)
    dot = np.where((digit == point) & (digit >= 0), ord("."), 0).astype(np.uint8)
    keep, dot = np.broadcast_arrays(keep, dot)
    masks = np.zeros(keep.shape[:-1] + (8,), np.uint8)
    points = masks.copy()
    masks[..., ::2] = masks[..., 1::2] = keep
    points[..., 1::2] = dot
    # Word 0 keeps its other bytes: it also holds the sign and prefix.
    masks[0, ..., :6] = 0xFF
    return (masks.view(np.uint64).ravel(), points.view(np.uint64).ravel())


_MASKS, _POINTS = _digit_masks()
_WORD_OFFSETS = (np.arange(1, 5) * 18 * 18)[:, None]


def _digit_states():
    """For exponent index i and trailing zero count z of D (0..16), at
    [17 i + z]: the state (18 digits shown + digit the point follows) and
    word 0 without its sign and leading digit; and per exponent index the
    suffix word."""
    prefix, suffix, point, keep = _exponent_table()
    shown = np.maximum(17 - np.arange(17)[None, :], keep[:, None])
    point = np.where(point[:, None] + 1 < shown, point[:, None], _NO_POINT)
    state = (shown * 18 + point).ravel()
    return state.astype(np.int16), np.repeat(prefix, 17) | _POINTS[state], suffix


_STATE, _WORD0, _SUFFIX = _digit_states()


def _scaled(a, xe):
    """|x| 10^(16-X) as the double p plus an error term: (p, err)."""
    i = xe - _X_MIN
    s_hh, s_hl = _POW_HH[i], _POW_HL[i]
    a_hi, a_lo = _split(a)
    p = a * _POW_HI[i]
    e = ((a_hi * s_hh - p) + a_hi * s_hl + a_lo * s_hh) + a_lo * s_hl
    return p, e + a * _POW_LO[i]


def _g17_slots(x: np.ndarray):
    """Slots of ``'%.17g' % v`` for the values ``x``: (words, free bytes
    at the end, mask of values left to Python)."""
    a = np.abs(x)
    fast = (a >= _G_LOW) & (a <= _G_HIGH)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    xe = np.floor(np.log10(a)).astype(np.intp)
    p, err = _scaled(a, xe)
    # Correct X from the unrounded product p + err, not from its rounding.
    edge = ((p >= 1e17) | (p <= 1e16)).nonzero()[0]
    if edge.size:
        p_edge, err_edge = p[edge], err[edge]
        shift = ((p_edge > 1e17) | ((p_edge == 1e17) & (err_edge >= 0.0))).astype(np.intp)
        shift -= (p_edge < 1e16) | ((p_edge == 1e16) & (err_edge < 0.0))
        moved = edge[shift != 0]
        if moved.size:
            xe[moved] += shift[shift != 0]
            p[moved], err[moved] = _scaled(a[moved], xe[moved])
    whole = np.floor(err)
    frac = err - whole
    fallback = ~(fast | zero) | (np.abs(frac - 0.5) < _TIE)
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    d *= fast  # a zero is D = 0 with X = 0
    carry = (d == 10**17).nonzero()[0]
    if carry.size:
        d[carry] = 10**16
        xe[carry] += 1

    hi = d // 10**8
    halves = np.empty((2, x.shape[0]), np.int64)
    halves[0], halves[1] = hi, d - hi * 10**8
    quarters = halves // 10**4
    groups = np.empty((5, x.shape[0]), np.int64)  # digit 0, then digits 1-4, ..., 13-16
    groups[2::2] = halves - quarters * 10**4
    groups[0] = quarters[0] // 10**4
    groups[1] = quarters[0] - groups[0] * 10**4
    groups[3] = quarters[1]
    trailing = _TRAILING[groups[1:]]
    zeros = groups[1:] == 0
    count = trailing[3] + zeros[3] * (trailing[2] + zeros[2] * (trailing[1] + zeros[1] * trailing[0]))

    i = xe - _X_MIN
    at = i * 17 + count
    state = _STATE[at]
    words = np.empty((6, x.shape[0]), np.uint64)
    words[0] = _WORD0[at] | _LEAD[groups[0]] | _SIGN[np.signbit(x).view(np.int8)]
    at = state + _WORD_OFFSETS
    words[1:5] = (_CELLS[groups[1:]] & _MASKS[at]) | _POINTS[at]
    words[5] = _SUFFIX[i]
    return words, 3, fallback


# ---------------------------------------------------------------- %.2f
#
# Slot: the sign, as many integer digits as the block's largest value has,
# the point and two decimals, padded with NUL to whole words.

_F_HIGH = 2.0**52 / 100


def _f2_slots(x: np.ndarray):
    """Slots of ``'%.2f' % v`` for the values ``x``: (words, free bytes
    at the end, mask of values left to Python)."""
    a = np.abs(x)
    fallback = ~(a < _F_HIGH)
    a = np.where(fallback, 0.0, a)
    p = a * 100.0
    a_hi, a_lo = _split(a)
    e = (a_hi * 100.0 - p) + a_lo * 100.0  # p + e = 100 a exactly
    whole = np.floor(p)
    above = ((p - whole) - 0.5) + e
    cents = whole.astype(np.int64)
    cents += (above > 0.0) | ((above == 0.0) & ((cents & 1) == 1))
    units = cents // 100
    cents -= units * 100

    width = len(str(int(units.max())))
    size = -(-(width + 4) // 8) * 8
    chars = np.zeros((size, x.shape[0]), np.uint8)
    chars[0] = np.signbit(x) * np.uint8(ord("-"))
    for j in range(width):
        power = 10 ** (width - 1 - j)
        shifted = units // power
        digit = shifted - shifted // 10 * 10 + ord("0")
        chars[1 + j] = digit if j == width - 1 else digit * (units >= power)
    chars[width + 1] = ord(".")
    tens = cents // 10
    chars[width + 2] = tens + ord("0")
    chars[width + 3] = cents - tens * 10 + ord("0")
    words = np.ascontiguousarray(chars.T).view(np.uint64).T
    return words, size - width - 4, fallback


# ---------------------------------------------------------------- documents


@functools.cache
def _literal(text: bytes, at: int) -> np.ndarray:
    """``text`` as words, starting at byte ``at`` of the first (shared:
    read only)."""
    text = b"\0" * at + text
    return _words([text[k:k + 8] for k in range(0, len(text), 8)])


def _layout(parts, count: int, size: int, free: int):
    """Where each part of a row goes: (segments, tails, row width in words).

    A segment is ``(start word, c)`` for float column c, whose slots are
    ``size`` words wide, or ``(start word, words)`` for string and text
    parts. A string that fits in the ``free`` bytes at the end of a float
    slot goes into the slot's last word instead: ``tails[c]`` is that word
    for column c."""
    segments, tails, width = [], np.zeros(count, np.uint64), 0
    index = 0
    while index < len(parts):
        part = parts[index]
        index += 1
        if isinstance(part, int):
            tail = parts[index] if index < len(parts) else None
            if isinstance(tail, bytes) and len(tail) <= free:
                tails[part] = _literal(tail, 8 - free)[0]
                index += 1
            segments.append((width, part))
            width += size
        else:
            words = _literal(part, 0) if isinstance(part, bytes) else part
            segments.append((width, words))
            width += words.shape[-1]
    return segments, tails, width


def _text_words(column: np.ndarray) -> np.ndarray:
    """An ASCII text column (str or bytes) as rows of NUL-padded words."""
    column = np.ascontiguousarray(column)
    if column.dtype.kind == "U":  # UTF-32 code points
        codes = column.view(np.uint32).reshape(column.shape[0], -1)
        if codes.size and codes.max() >= 128:
            raise ValueError("text columns must be ASCII")
    else:
        codes = column.view(np.uint8).reshape(column.shape[0], -1)
    chars = np.zeros((column.shape[0], -(-codes.shape[1] // 8) * 8), np.uint8)
    chars[:, :codes.shape[1]] = codes
    return chars.view(np.uint64)


def _render(pieces, slots_of, template: str) -> str:
    """The rows of ``pieces``; ``slots_of`` formats float columns, and
    ``template % v`` each value it leaves to Python."""
    floats, parts = [], []
    for piece in pieces:
        if isinstance(piece, str):
            if parts and isinstance(parts[-1], bytes):
                parts[-1] += piece.encode("ascii")
            elif piece:
                parts.append(piece.encode("ascii"))
            continue
        array = np.asarray(piece)
        if array.dtype.kind in "fiu":
            parts.append(len(floats))
            floats.append(array)
        else:
            parts.append(_text_words(array))
    if not floats:
        raise ValueError("a document needs a float column")
    rows, count = floats[0].shape[0], len(floats)
    values = np.empty((rows, count))
    for col, column in enumerate(floats):
        values[:, col] = column
    layouts = {}
    out = []
    step = max(1, _BLOCK // count)
    for start in range(0, rows, step):
        stop = min(rows, start + step)
        flat = values[start:stop].ravel()
        words, free, fallback = slots_of(flat)
        size = words.shape[0]
        spliced = fallback.nonzero()[0]
        if spliced.size:
            words[:, spliced] = 0
            words[0, spliced] = _MARK
        if (size, free) not in layouts:
            layouts[size, free] = _layout(parts, count, size, free)
        segments, tails, width = layouts[size, free]
        words = words.reshape(size, stop - start, count)
        words[-1] |= tails
        block = np.empty((stop - start, width), np.uint64)
        for at, what in segments:
            if isinstance(what, int):
                block[:, at:at + size] = words[:, :, what].T
            elif what.ndim == 1:
                block[:, at:at + what.shape[0]] = what
            else:
                block[:, at:at + what.shape[1]] = what[start:stop]
        text = block.tobytes().translate(None, b"\0")
        if spliced.size:
            between = text.split(bytes([_MARK]))
            fills = [(template % value).encode("ascii") for value in flat[spliced].tolist()]
            text = b"".join([s for pair in zip(between, fills) for s in pair] + [between[-1]])
        out.append(text.decode("ascii"))
    return "".join(out)


CSV_NUMBER = "%.17g"
SVG_NUMBER = "%.2f"


def csv_rows(columns) -> str:
    """Comma-separated rows of ``columns``, each row ended by a newline:
    float columns as ``CSV_NUMBER % v``, text columns and strings (the
    same on every row) as they are."""
    pieces = [piece for column in columns for piece in (column, ",")]
    pieces[-1] = "\n"
    return _render(pieces, _g17_slots, CSV_NUMBER)


def svg_rows(pieces) -> str:
    """The rows of ``pieces`` with every float column as ``SVG_NUMBER % v``."""
    return _render(pieces, _f2_slots, SVG_NUMBER)


def svg_number(value: float) -> str:
    """One SVG coordinate, as :func:`svg_rows` writes it."""
    return SVG_NUMBER % value
