"""``float.__repr__`` for a whole float64 array, at numpy speed.

``table(values)`` returns the token of each value as one row of a uint8
array, padded with NUL bytes to the longest token: row i, NULs deleted, is
``float.__repr__(values[i])`` byte for byte.  The shortest round-trip
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) on uint64 arrays, and are laid out as repr lays them out.
Python's repr is David Gay's shortest, correctly rounded string, and so is
Schubfach's, as long as the rounding interval takes both of its ends when
the significand is even (round-half-even parsing) and a tie between two
shortest candidates goes to the even one.  JDK's treatment of subnormals is
not Python's (it prints ``4.9E-324`` for what Python prints as ``5e-324``),
so subnormals are left to ``float.__repr__``, and zero, whose token is
always ``0.0``, never goes through the kernel.
"""

from __future__ import annotations

import mmap

import numpy as np

# below this many values map(float.__repr__) is faster than the vector
# path's fixed cost (per-call and per-chunk set-up)
MIN_VECTOR = 512
# most values per chunk: an operation over a cache-sized chunk costs
# several times less per element than over the whole array
CHUNK = 4096
# tables of at least this many bytes are mapped on their own (see table)
_MAPPED_FROM = 128 * 1024
# A chunk's shifted tokens are assembled a block of rows at a time, and its
# template gather a sub-block at a time, so that every temporary stays below
# glibc's default mmap threshold, 128 KiB: a chunk's word indices, 8 uint16
# a row, take 64 KiB, a block's, 6 intp a row, 96 KiB, and a gather's
# index, WIDTH intp a row, 96 KiB.  A larger block is mapped afresh, with
# its page faults, on every use, and freeing it raises that threshold and
# the heap's trim threshold with it: about a megabyte of heap top stayed
# resident after a whole chunk's index, 768 KiB
_BLOCK = 2048
_GATHER = 512

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
_K_MIN = -324  # the decimal exponents k that normal doubles need
_K_MAX = 292

# repr writes 0.D x 10^d positionally when -4 < d <= 16, with ".0" on an
# integral value; otherwise as D1.D2...e+XX, with at least two exponent
# digits.  A layout is d + 3 for a positional d, _EXP for the others, and
# a template is the 24 bytes of a row (below) that make up a repr
_D_LO, _D_HI = -3, 16
_EXP = _D_HI - _D_LO + 1
# bytes per token: the longest repr of a value without a sign bit,
# "2.2250738585072014e-308", and a NUL at least
WIDTH = 24
# a row of the byte buffer: ".0" and NULs at bytes 0-3, the 17 digits at
# bytes 7-23 (bytes 4-6 are the leading zeros of the first 4-digit group),
# then the exponent, "e-05" or "e+308", with NULs after it at 24-31
_DOT, _ZERO, _NUL, _DIGIT, _EXPONENT = 0, 1, 2, 7, 24
_ROW = 32
# where a row's first word follows the 10,000 digit groups in _WORDS
_FIRST = 10_000


def _tables():
    """The lookup tables: Schubfach's g(k) =
    floor(10^-k / 2^r) + 1, 2^125 <= g < 2^126, as g1 = g >> 63 and the
    32-bit limbs of g1 and of g0 = g mod 2^63; the 4-byte words a row is
    made of, the 4 ASCII digits of each group 0000-9999 then those at
    _FIRST; for the four groups that follow the leading digit, the digit
    count up to a group's last nonzero digit; the templates; and the masks
    of the shifted tokens."""
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        # r = floor(log2 10^-k) - 125, so that 2^125 <= 10^-k / 2^r < 2^126
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            # 10^k is not a power of two, so floor(log2 10^-k) = -bit_length
            p = 10**k
            g = (1 << (p.bit_length() + 125)) // p + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs.append((g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    g1h, g1l, g0h, g0l = np.array(limbs, dtype=np.uint64).T
    # one row each for g1, its limbs and the limbs of g0, a column per k
    g = np.stack([(g1h << 32) | g1l, g1h, g1l, g0h, g0l])

    group = np.arange(10_000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    ascii4 = (digits + ord("0")).astype(np.uint8).view("<u4").reshape(-1)
    # 1 + 4j + the digits of group j up to its last nonzero one, or 1 (the
    # leading digit alone) for a group of zeros
    kept = 4 - np.select([group % 10**j == 0 for j in (3, 2, 1)], [3, 2, 1], 0)
    kept = np.where(group == 0, 1, 1 + 4 * np.arange(4)[:, None] + kept).astype(np.int16)

    # two words each, by decimal point position d - _K_MIN: a normal double
    # has k <= d - 16 <= k + 1
    exponents = b"".join(
        f"e{d - 1:+03d}".encode().ljust(8, b"\0") for d in range(_K_MIN, _K_MAX + 18)
    )

    # each template spelled with a-q for the 17 digits and v-z for the
    # exponent's bytes, then turned into byte offsets in a row
    spelled = []
    for length in range(18):
        digit = "abcdefghijklmnopq"[:length]
        for d in range(_D_LO, _D_HI + 1):
            if d <= 0:
                spelled.append("0." + "0" * -d + digit)
            elif d < length:
                spelled.append(digit[:d] + "." + digit[d:])
            else:
                spelled.append(digit + "0" * (d - length) + ".0")
        spelled.append(digit[:1] + ("." + digit[1:] if length > 1 else "") + "vwxyz")
    offset = np.full(128, _NUL, dtype=np.uint8)
    offset[np.frombuffer(b"abcdefghijklmnopq", np.uint8)] = _DIGIT + np.arange(17)
    offset[np.frombuffer(b"vwxyz", np.uint8)] = _EXPONENT + np.arange(5)
    offset[[ord("."), ord("0")]] = _DOT, _ZERO
    spelled = "".join(t.ljust(WIDTH) for t in spelled).encode()
    templates = offset[np.frombuffer(spelled, np.uint8)].reshape(18 * (_EXP + 1), WIDTH)

    # by token length t, the words that keep bytes 2 to t - 1 of a token
    byte = np.arange(WIDTH)
    masks = ((2 <= byte) & (byte < np.arange(WIDTH + 1)[:, None])) * np.uint8(255)
    masks = masks.astype(np.uint8).view("<u8")

    # after the digit groups, at _FIRST, a row's first word, then those of
    # the exponents
    words = np.concatenate([ascii4, np.frombuffer(b".0\0\0" + exponents, "<u4")])

    tables = g, words, kept, templates, masks
    for table in tables:
        table.setflags(write=False)
    return tables


# Built at import, which comes before the first render's temporaries: the
# tables live as long as the process, and built in the middle of a large
# render they would land among its temporaries and keep the heap from
# shrinking after it.  They take about 5 ms.
_G, _WORDS, _KEPT, _TEMPLATES, _MASKS = _tables()
# "0.", the first two bytes of a token of layout 0-3, as a little-endian word
_HEAD = np.frombuffer(b"0.".ljust(8, b"\0"), dtype="<u8")[0]


# The kernel below keeps few arrays alive at once, updating them in place
# where it can.  Every live array holds a small block for its shape, and
# numpy keeps only a few freed ones for reuse; more than that are allocated
# afresh wherever the heap has room, and those that end up kept can sit
# above a large render's temporaries and stop the heap from shrinking after
# it.


def _hi64(a1, a0, b1, b0):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), from 32-bit limbs."""
    mid = a0 * b0
    mid >>= 32
    hi = a1 * b1
    for p in (a0 * b1, a1 * b0):
        hi += p >> 32
        p &= _M32
        mid += p
    mid >>= 32
    hi += mid
    return hi


def _digits(bits, g):
    """Schubfach on normal doubles given as bits: (f, k) with f 10^k the
    shortest decimal that rounds to each, f of 16 or 17 digits."""
    c = bits & _U(2**52 - 1)
    q = (bits >> _U(52)).view(np.int64)
    q -= 1075
    # at a power of two (not the smallest normal) the interval below is half
    irregular = c == 0
    irregular &= q > -1074
    c |= _U(2**52)
    # k = floor(log10 2^q), or floor(log10 (3/4) 2^q) where irregular, and
    # h = q + floor(-k log2 10) + 2, in fixed point exact over this range
    k = q * 661_971_961_083
    k -= irregular * 274_743_187_321
    k >>= 41
    h = k * -913_124_641_741
    h >>= 38
    h += q
    h += 2
    del q
    # g1, then the limbs of g1 and those of g0: all five rows taken as one
    # (5, m) array would pass the mmap threshold (see _BLOCK)
    at = k - _K_MIN
    g1, g1hl, g0hl = g[0].take(at), g[1:3].take(at, axis=1), g[3:].take(at, axis=1)
    del at
    # the rounding interval's middle and ends, times 2^(h + 2), rounded to odd
    cp = np.empty((3, len(c)), dtype=np.uint64)
    np.left_shift(c, _U(2), out=cp[0])
    np.subtract(cp[0], _U(2), out=cp[1])
    cp[1] += irregular
    np.add(cp[0], _U(2), out=cp[2])
    del irregular
    cp <<= h.view(np.uint64)
    del h
    z = g1 * cp
    z >>= 1
    cph = cp >> 32
    cp &= _M32
    z += _hi64(*g0hl, cph, cp)
    v = _hi64(*g1hl, cph, cp)
    del g1, g1hl, g0hl, cp, cph
    v += z >> 63
    z &= _M63
    v |= z != 0
    del z
    # v holds vb and the interval's ends vbl and vbr; the interval is closed
    # for an even c, as round-half-even parsing has it
    c &= _U(1)
    v[1] += c
    v[2] -= c
    del c
    # one digit fewer, u' = 10 floor(s / 10) or w' = u' + 10, if exactly one
    # is in the interval; else s or s + 1, the one in it or else the closer,
    # a tie going to the even one
    s = v[0] >> 2
    sp = s // _U(10)
    sp *= _U(10)
    bound = sp << 2
    upin = v[1] <= bound
    bound += _U(40)
    short = upin != (bound <= v[2])
    # w' where u' is out of the interval, as a blend: a masked add costs
    # several times more
    sp += ~upin * _U(10)
    del upin
    np.left_shift(s, _U(2), out=bound)  # s4
    lower = v[0] < bound + _U(3) - (s & _U(1))
    lower |= v[2] < bound + _U(4)
    lower &= v[1] <= bound
    del bound
    s += ~lower
    # sp where short, blended
    sp -= s
    sp *= short
    s += sp
    return s, k


def _shifted(groups, layout, length, dest):
    """Write into the rows of ``dest`` the tokens of layouts 0-3 from
    ``groups``, the indices in ``_WORDS`` of each row's first six words,
    the layouts (int64) and the digit counts; rows of another layout get
    bytes that are to be overwritten.

    A layout-l token, 0.D... to 0.000D..., is "0.", 3 - l zeros and its
    digits: the bytes of its row from l + 4 on, the zeros in front of the
    first digit (at byte 7) and the digits.  So it is the row's first
    three words shifted right by l + 2 bytes, with its first two bytes set
    to "0." and those from its length, 5 - l + digits, on cleared.  The
    row's last word would land past that length, so it is not read."""
    shift = (layout * 8 + 16).view(np.uint64)
    length = length - layout
    length += 5
    for b in range(0, len(dest), _BLOCK):
        words = _WORDS.take(groups[:6, b : b + _BLOCK].T).view(np.uint64)
        token = dest[b : b + _BLOCK].view(np.uint64)
        # a word at a time: over (rows, 3) arrays numpy's inner loops
        # would run 3 values long
        right = shift[b : b + _BLOCK]
        for j in range(3):
            np.right_shift(words[:, j], right, out=token[:, j])
        left = _U(64) - right
        for j in range(2):
            token[:, j] |= words[:, j + 1] << left
        token &= _MASKS.take(length[b : b + _BLOCK], axis=0, mode="clip")
        token[:, 0] |= _HEAD


def _padded(values):
    """The tokens of ``float.__repr__``, NUL-padded bytes as wide as the
    longest, as rows of a uint8 array."""
    tokens = np.array(list(map(float.__repr__, values.tolist())), dtype="S")
    return tokens.view(np.uint8).reshape(len(values), tokens.itemsize)


def table(values) -> np.ndarray:
    """The tokens of ``float.__repr__`` for a 1-D float64 array of finite
    values without a sign bit, such as ``np.abs`` gives: one read-only
    ``(len(values), w)`` uint8 array whose row i is the token of
    ``values[i]``, padded with NUL bytes, w the length of the longest."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if len(values) < MIN_VECTOR:
        out = _padded(values)
        out.setflags(write=False)
        return out
    bits = values.view(np.uint64)
    # the kernel writes the normal values, by index, or as one slice where
    # every value is normal; zeros get a constant row, and subnormals are
    # written by float.__repr__ below
    small = np.flatnonzero(bits < _U(2**52))
    normal = np.flatnonzero(bits >= _U(2**52)) if len(small) else None
    # chunks of at most CHUNK values, equal to within one: a short last
    # chunk would give arrays small enough for numpy to keep their blocks
    # after the call
    total = len(values) - len(small)
    chunks = -(-total // CHUNK)
    cuts = [total * i // max(1, chunks) for i in range(chunks + 1)]
    size = -(-total // max(1, chunks))
    # the tokens gathered by template, and their indices into the rows
    gathered = np.empty((min(size, _GATHER), WIDTH), dtype=np.uint8)
    index = np.empty(gathered.shape, dtype=np.intp)
    offsets = np.arange(0, len(index) * _ROW, _ROW)[:, None]
    # the kernel's rows, copied into the table by index, or gathered
    # straight into it where every value is normal
    rows = None if normal is None else np.empty((size, WIDTH), dtype=np.uint8)
    # The table outlives the chunks' temporaries, and a render's output
    # grows while it is alive: in the heap a large table would leave a hole
    # under that output when it is freed, which keeps the heap from
    # shrinking.  From glibc's default mmap threshold up, it gets an
    # anonymous mapping of its own, which goes back to the system with it,
    # as glibc itself maps such a block until a large free raises the
    # threshold; a smaller one costs less in the heap than a fresh mapping.
    # Either starts out all NUL.
    if len(values) * WIDTH >= _MAPPED_FROM:
        out = np.frombuffer(mmap.mmap(-1, len(values) * WIDTH), dtype=np.uint8)
        out = out.reshape(len(values), WIDTH)
    else:
        out = np.zeros((len(values), WIDTH), dtype=np.uint8)
    # each row as one item, which numpy copies faster by index
    items = out.view(f"V{WIDTH}")[:, 0]
    for lo, hi in zip(cuts, cuts[1:]):
        at = slice(lo, hi) if normal is None else normal[lo:hi]
        dest = out[at] if normal is None else rows[: len(at)]
        f, d = _digits(bits[at], _G)
        m = len(f)
        # 17 digits, the first at the decimal point position d
        long = f >= _U(10**16)
        d += 16
        d += long
        np.multiply(f, _U(10), out=f, where=~long)
        del long
        # the indices in _WORDS of a row's eight words: its first, the
        # digits as 1 + 4 x 4, then the two of its exponent
        head = f // _U(10**8)
        f -= head * _U(10**8)
        groups = np.empty((_ROW // 4, m), dtype=np.uint16)
        groups[0] = _FIRST
        np.floor_divide(head, _U(10**8), out=groups[1])
        head -= groups[1] * _U(10**8)
        np.floor_divide(head, _U(10**4), out=groups[2])
        head -= groups[2] * _U(10**4)
        groups[3] = head
        np.floor_divide(f, _U(10**4), out=groups[4])
        f -= groups[4] * _U(10**4)
        groups[5] = f
        del f, head
        # uint16 arithmetic wraps, so 2 d may be negative
        np.multiply(d, 2, out=groups[6], casting="unsafe")
        groups[6] += _FIRST + 1 - 2 * _K_MIN
        np.add(groups[6], 1, out=groups[7])
        length = np.take(_KEPT[0], groups[2])
        for j in (1, 2, 3):
            np.maximum(length, np.take(_KEPT[j], groups[j + 2]), out=length)
        # the layout, d - _D_LO where positional and _EXP elsewhere: d - _D_LO
        # is negative, so past _EXP as a uint64, or at least _EXP there
        d -= _D_LO
        np.minimum(d.view(np.uint64), _U(_EXP), out=d.view(np.uint64))
        # rows of a layout past 3 are gathered by template, and so is every
        # row of a chunk where they are most; the others are shifted
        rest = np.flatnonzero(d > -_D_LO)
        whole = 2 * len(rest) > m
        if whole:
            rest = slice(None)
        templates = _TEMPLATES.take(d[rest] + length[rest] * (_EXP + 1), axis=0)
        if not whole:
            _shifted(groups, d, length, dest)
        del d, length
        for top in range(0, len(templates), _GATHER):
            these = slice(top, top + _GATHER) if whole else rest[top : top + _GATHER]
            source = _WORDS.take(groups[:, these].T).view(np.uint8).reshape(-1)
            g = len(source) // _ROW
            np.add(offsets[:g], templates[top : top + g], out=index[:g])
            # index is in range, and a mode other than "raise" writes
            # straight into gathered
            source.take(index[:g], out=gathered[:g], mode="clip")
            dest.view(f"V{WIDTH}")[these, 0] = gathered[:g].view(f"V{WIDTH}")[:, 0]
        del groups, rest, templates
        if normal is not None:
            items[at] = dest.view(f"V{WIDTH}")[:, 0]
    zero = bits[small] == 0
    out[small[zero], :3] = np.frombuffer(b"0.0", dtype=np.uint8)
    small = small[~zero]
    tokens = _padded(values[small])
    out[small, : tokens.shape[1]] = tokens
    # cut to the longest token, most often 22 bytes: its last byte is the
    # last nonzero one of the rows' 8-byte words OR-ed together, taken
    # column by column from the last
    words = out.view("<u8")
    for j in (2, 1, 0):
        word = int(np.bitwise_or.reduce(words[:, j]))
        if word:
            out = out[:, : 8 * j + (word.bit_length() + 7) // 8]
            break
    out.setflags(write=False)
    return out
