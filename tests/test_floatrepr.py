"""``floatrepr.table`` against ``float.__repr__``, byte for byte: each row
of the table, its NUL bytes deleted, is the repr of its value, and the rows
are as wide as the longest."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosym import floatrepr, spectral
from orthosym.floatrepr import CHUNK, MIN_VECTOR, WIDTH, table
from orthosym.isotropy import gamma2_elements

from helpers import MASTER_SEED, planted_matrix


def expected(values):
    return list(map(float.__repr__, np.asarray(values, dtype=float).tolist()))


def tokens(values):
    """The rows of ``table(values)`` with their NULs deleted, as the byte
    writer in ``cli`` deletes them."""
    out = table(np.asarray(values, dtype=float))
    longest = max(map(len, expected(values)), default=1)
    assert out.dtype == np.uint8 and out.shape == (len(values), longest) and longest <= WIDTH
    assert not out.flags.writeable
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in out]


# MIN_VECTOR normal doubles of random bits: a case's own values, added to
# them, go through the vector path
_BASE = (
    np.random.default_rng(MASTER_SEED + 90)
    .integers(2**52, 2047 * 2**52, MIN_VECTOR, dtype=np.uint64)
    .view(np.float64)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_reprs_match_float_repr(values):
    assert tokens(values) == expected(values)
    values = np.concatenate([values, _BASE])
    assert tokens(values) == expected(values)


# the values a row can go wrong on: zeros and subnormals (written by
# float.__repr__ over a row the kernel has already filled), powers of two
# (a rounding interval that is narrower below) and both neighbours of each
# power of ten (one digit more or fewer)
_TENS = st.integers(-323, 308).map(lambda k: float(f"1e{k}"))
_EDGES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, sys.float_info.min, sys.float_info.max]),
    st.floats(min_value=0.0, max_value=sys.float_info.min, exclude_max=True),
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
    _TENS,
    _TENS.map(lambda x: float(np.nextafter(x, 0.0))),
    _TENS.map(lambda x: float(np.nextafter(x, np.inf))),
)


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([MIN_VECTOR - 1, MIN_VECTOR, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
    edges=st.lists(st.tuples(st.floats(0.0, 1.0), _EDGES), min_size=1, max_size=60),
    near=st.lists(st.tuples(st.integers(-3, 3), _EDGES), max_size=12),
)
def test_table_rows_match_float_repr_at_zeros_subnormals_and_edges(size, edges, near):
    # random normal doubles with the drawn values put at drawn places, some
    # of them next to the boundaries between chunks
    rng = np.random.default_rng(MASTER_SEED + 93 + size)
    values = rng.integers(0, 2047 * 2**52, size, dtype=np.uint64).view(np.float64)
    for place, x in edges:
        values[min(int(place * size), size - 1)] = x
    chunk = -(-size // -(-size // CHUNK))
    for offset, x in near:
        values[(chunk + offset) % size] = x
    values[::53] = 0.0
    assert tokens(values) == expected(values)


def test_reprs_match_float_repr_at_the_edges():
    # every power of two, the smallest subnormal and the largest double,
    # each power of ten and both its neighbours, the switch to exponent
    # notation on each side, and 2^53 + 1, which rounds to 2^53
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([
        [0.0, 5e-324, sys.float_info.max, np.nextafter(1e16, 0), np.nextafter(1e-4, 1), 9007199254740993.0],
        powers,
        tens,
        np.nextafter(tens, 0),
        np.nextafter(tens, np.inf),
    ])
    assert len(values) > MIN_VECTOR
    assert tokens(values) == expected(values)


def test_reprs_match_float_repr_on_a_sign_group():
    # every distinct magnitude of the n = 12 group that isotropy gamma2 writes
    a, _ = planted_matrix(np.random.default_rng(MASTER_SEED + 91), [-2, -2, -1, 0, 0, 0, 0.5, 1, 1, 3, 3, 4.5])
    dec = spectral.eig_sym(a)
    half = 2**11
    mags = np.unique(np.abs(gamma2_elements(dec, np.arange(half))))
    assert len(mags) > 10 * CHUNK
    assert tokens(mags) == expected(mags)


@pytest.mark.parametrize("size", [MIN_VECTOR - 1, MIN_VECTOR, CHUNK, CHUNK + 1, 3 * CHUNK - 7])
def test_reprs_on_both_sides_of_the_crossover(monkeypatch, size):
    # below MIN_VECTOR every value goes to float.__repr__; from it on, the
    # digits of the normal values, and of no zero or subnormal, come from
    # as few chunks of at most CHUNK values as will do, equal in size to
    # within one value
    chunks = []
    digits = floatrepr._digits

    def counted(bits, g):
        chunks.append(len(bits))
        return digits(bits, g)

    monkeypatch.setattr(floatrepr, "_digits", counted)
    rng = np.random.default_rng(MASTER_SEED + 92 + size)
    values = rng.random(size) * 10.0 ** rng.integers(-8, 20, size)
    values[::97] = 0.0
    values[1::101] = 2.5e-310
    assert tokens(values) == expected(values)
    if size < MIN_VECTOR:
        assert chunks == []
    else:
        normal = np.count_nonzero(values >= sys.float_info.min)
        assert sum(chunks) == normal and len(chunks) == -(-normal // CHUNK)
        assert max(chunks) <= CHUNK and max(chunks) - min(chunks) <= 1


_FEW_BITS = np.random.default_rng(MASTER_SEED + 94).integers(
    2**52, 2047 * 2**52, MIN_VECTOR, dtype=np.uint64
)


@pytest.mark.parametrize(
    "normal",
    [
        [],
        _FEW_BITS[:3].view(np.float64),
        1e6 + 0.25 * np.arange(MIN_VECTOR),  # tokens of 9 to 16 bytes
        _FEW_BITS.view(np.float64),
    ],
    ids=["no normal", "three", "short tokens", "random"],
)
@pytest.mark.parametrize("size", [2 * MIN_VECTOR, 4 * CHUNK])
def test_a_table_of_mostly_zeros(monkeypatch, size, normal):
    # the group of a structured matrix puts mostly zeros into the table:
    # they get a constant row, and the kernel sees the normal values alone,
    # however few; a few subnormals are among them (tokens of 8 bytes at
    # most), and both sizes of table, one in the heap and one mapped on its
    # own
    seen = []
    digits = floatrepr._digits

    def counted(bits, g):
        seen.append(bits.copy())
        return digits(bits, g)

    monkeypatch.setattr(floatrepr, "_digits", counted)
    rng = np.random.default_rng(MASTER_SEED + 95 + size + len(normal))
    values = np.zeros(size)
    at = rng.choice(size, len(normal) + 5, replace=False)
    values[at[: len(normal)]] = normal
    values[at[len(normal) :]] = [5e-324, 2.5e-310, 1e-320, 1e-310, 4e-323]
    assert tokens(values) == expected(values)
    assert all(len(bits) for bits in seen)
    seen = np.concatenate([np.empty(0, dtype=np.uint64), *seen])
    assert np.array_equal(np.sort(seen), np.sort(np.asarray(normal, dtype=float).view(np.uint64)))


def test_table_of_nothing():
    assert tokens([]) == []



def _shape(x):
    """(digits, d) for repr(x) = 0.D x 10^d with that many significant
    digits D."""
    mantissa, _, exponent = repr(x).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).strip("0")
    if exponent:
        return len(digits), int(exponent) + 1
    if whole != "0":
        return len(digits), len(whole)
    return len(digits), len(fraction.lstrip("0")) - len(fraction)


def _every_layout():
    # for each digit count 1-17, a value at each positional decimal point
    # d = -3..16 and four in exponent form, with 2- and 3-digit exponents
    # of either sign: the first double from a decimal 0.1... of that many
    # digits up whose repr has them (past a leading 1, doubles are dense
    # enough that 17 digits are often the shortest)
    rng = np.random.default_rng(MASTER_SEED + 141)
    values = []
    for count in range(1, 18):
        for d in [*range(-3, 17), -7, 25, -150, 200]:
            x = float("0.1" + "".join(map(str, rng.integers(1, 10, count - 1))) + f"e{d}")
            while _shape(x) != (count, d):
                x = float(np.nextafter(x, np.inf))
            values.append(x)
    return np.array(values)


@pytest.mark.parametrize("filler", ["positional", "exponent"])
def test_every_template_matches_float_repr(monkeypatch, filler):
    # every layout at every digit count through the vector path: with
    # mostly 0.D... values in the chunk, those are shifted into place and
    # the rest gathered by template; with mostly other layouts, every row
    # is gathered by template
    values = _every_layout()
    shapes = {(count, d if -3 <= d <= 16 else "e") for count, d in map(_shape, values.tolist())}
    assert len(shapes) == 17 * 21
    shifted, shift = [], floatrepr._shifted
    monkeypatch.setattr(floatrepr, "_shifted", lambda *args: shifted.append(shift(*args)))
    rng = np.random.default_rng(MASTER_SEED + 142)
    fill = rng.uniform(1e-4, 1.0, 3 * len(values)) if filler == "positional" else _BASE
    values = np.concatenate([values, fill])
    assert tokens(values) == expected(values)
    assert bool(shifted) == (filler == "positional")
