"""``floatrepr.reprs`` against ``float.__repr__``, byte for byte."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosym import cli, floatrepr, spectral
from orthosym.floatrepr import CHUNK, MIN_VECTOR, reprs
from orthosym.isotropy import gamma2_elements

from helpers import MASTER_SEED, planted_matrix


def expected(values):
    return list(map(float.__repr__, np.asarray(values, dtype=float).tolist()))


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
    assert reprs(np.array(values)) == expected(values)
    values = np.concatenate([values, _BASE])
    assert reprs(values) == expected(values)


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
    assert reprs(values) == expected(values)


def test_reprs_match_float_repr_on_a_sign_group():
    # every distinct magnitude of the n = 12 group that isotropy gamma2 writes
    a, _ = planted_matrix(np.random.default_rng(MASTER_SEED + 91), [-2, -2, -1, 0, 0, 0, 0.5, 1, 1, 3, 3, 4.5])
    dec = spectral.eig_sym(a)
    half = 2**11
    mags, _ = cli._unique_codes(np.abs(gamma2_elements(dec, np.arange(half))).reshape(half, -1))
    assert len(mags) > 10 * CHUNK
    assert reprs(mags) == expected(mags)


@pytest.mark.parametrize("size", [MIN_VECTOR - 1, MIN_VECTOR, CHUNK, CHUNK + 1, 3 * CHUNK - 7])
def test_reprs_on_both_sides_of_the_crossover(monkeypatch, size):
    # below MIN_VECTOR every value goes to float.__repr__; from it on, the
    # digits come from as few chunks of at most CHUNK values as will do,
    # equal in size to within one value
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
    assert reprs(values) == expected(values)
    if size < MIN_VECTOR:
        assert chunks == []
    else:
        assert sum(chunks) == size and len(chunks) == -(-size // CHUNK)
        assert max(chunks) <= CHUNK and max(chunks) - min(chunks) <= 1
