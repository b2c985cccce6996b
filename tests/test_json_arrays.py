"""JSON with large float arrays, against ``json.dumps``.

``cli._emit`` writes each finite float64 array of at least
``cli._ARRAY_FROM`` values from ``floatrepr``'s token table.  Its bytes must
be those of ``json.dumps`` of the payload with every array as its
``.tolist()``.  These tests compare with ``json`` in the same process, so
unlike the sha256 pins they hold on every BLAS kernel."""

import argparse
import contextlib
import io
import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosym import cli, dynsys
from orthosym.cli import run

from helpers import MASTER_SEED, format_matrix, haar_orthogonal, planted_matrix

CROSSOVER = cli._ARRAY_FROM


def tolisted(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: tolisted(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [tolisted(v) for v in value]
    return value


def reference(payload):
    return json.dumps(tolisted(payload), sort_keys=True, allow_nan=False) + "\n"


def same(got, want):
    """``got == want``, reported at the first difference: pytest's diff of
    two long one-line strings takes minutes."""
    at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    equal = got == want
    assert equal, f"at {at}: {got[at - 30 : at + 30]!r} against {want[at - 30 : at + 30]!r}"


def emitted(payload):
    """What ``_emit`` writes for the payload, and how many arrays it wrote
    through ``_array_json``."""
    args = argparse.Namespace(format="json", output=None, command="test")
    out = io.StringIO()
    with mock.patch.object(cli, "_array_json", wraps=cli._array_json) as writer:
        with contextlib.redirect_stdout(out):
            cli._emit(args, lambda: payload, None)
    return out.getvalue(), writer.call_count


# the values a token can go wrong on: signed zeros, subnormals, the largest
# float, integral values, and both sides of the switch to exponent notation
# at 1e16 and below 1e-4
_SPECIAL = [
    0.0, 5e-324, 2.5e-310, sys.float_info.min, sys.float_info.max, 1.0, 123.0,
    2.0**53, 9007199254740993.0, 1e16, float(np.nextafter(1e16, 0)), 1e22,
    1e-4, float(np.nextafter(1e-4, 0)), 1e-5, 1 / 3, 0.1,
]
_VALUES = st.one_of(
    st.sampled_from(_SPECIAL + [-x for x in _SPECIAL]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),
    st.integers(-(2**60), 2**60).map(float),
)
# every size on both sides of the crossover and of floatrepr's first chunk,
# as 1-D and 2-D shapes
_SHAPES = [
    (CROSSOVER - 1,), (CROSSOVER,), (4096,), (4097,),
    (1, CROSSOVER - 1), (CROSSOVER - 1, 1), (16, CROSSOVER // 16),
    (64, 64), (17, 241), (4097, 1),
]


def laid_out(values, layout):
    """``values`` (C order) as an equal array in the given memory layout."""
    if layout == "F-order":
        return np.asfortranarray(values)
    if layout == "transposed":
        return values.T.copy().T
    if layout == "strided":
        wide = np.zeros(values.shape[:-1] + (2 * values.shape[-1],))
        wide[..., ::2] = values
        return wide[..., ::2]
    out = values.copy()
    if layout == "read-only":
        out.setflags(write=False)
    return out


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    placed=st.lists(st.tuples(st.floats(0.0, 1.0), _VALUES), max_size=40),
    layout=st.sampled_from(["C-order", "F-order", "transposed", "strided", "read-only"]),
)
def test_array_json_matches_json_dumps(shape, seed, placed, layout):
    # random bits give every exponent and both signs, with the drawn values
    # put at drawn places; the payload holds the array twice over with
    # arrays that stay on .tolist() between them
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).copy()
    values[~np.isfinite(values)] = -0.0
    flat = values.reshape(-1)
    for place, x in placed:
        flat[min(int(place * flat.size), flat.size - 1)] = x
    a = laid_out(values, layout)
    assert np.array_equal(a.view(np.uint64), values.view(np.uint64))
    payload = {
        "array": a,
        "family": [{"p": -a, "cost": 0.5}, {"p": a[:1], "cost": None}],
        "ints": np.arange(CROSSOVER),
        "lambdas": flat[:5],
    }
    out, written = emitted(payload)
    same(out, reference(payload))
    assert written == sum(x.size >= CROSSOVER for x in (a, a, a[:1]))


@pytest.mark.parametrize(
    "a",
    [
        np.arange(2 * CROSSOVER),
        np.arange(2 * CROSSOVER).reshape(32, -1),
        np.zeros(0),
        np.zeros((0, CROSSOVER)),
        np.zeros((CROSSOVER, 0)),
        np.ones(CROSSOVER, dtype=bool),
        np.full(CROSSOVER, 0.1, dtype=np.float32),
        np.full(CROSSOVER, 0.1, dtype=">f8"),
        np.full((8, 8, 8), 0.1),
        np.array(0.1),
    ],
    ids=["ints", "2-D ints", "empty", "0 rows", "0 columns", "bools", "float32", "big-endian", "3-D", "0-D"],
)
def test_other_arrays_stay_on_tolist(a):
    out, written = emitted({"a": a, "b": [a]})
    same(out, reference({"a": a, "b": [a]}))
    assert written == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("size", [CROSSOVER - 1, CROSSOVER, 4096])
def test_a_non_finite_array_raises_json_error(bad, size):
    a = np.linspace(-1.0, 1.0, size)
    a[size // 3] = bad
    with pytest.raises(ValueError) as want:
        json.dumps(a.tolist(), allow_nan=False)
    with pytest.raises(ValueError) as got:
        emitted({"a": a})
    assert str(got.value) == str(want.value)


def test_cli_exit_1_on_a_non_finite_trajectory(monkeypatch, capsys):
    # a trajectory of 3003 values with an infinity in the middle: nothing
    # is written, and the error is json's
    steps = 1000

    def integrate(x0, mu, dt, steps):
        traj = np.ones((steps + 1, 3))
        traj[steps // 2, 1] = np.inf
        return traj

    monkeypatch.setattr(dynsys, "integrate", integrate)
    with pytest.raises(ValueError) as want:
        json.dumps(integrate(None, 0.0, 0.0, steps).tolist(), allow_nan=False)
    code = run(["dynsys", "integrate", "--steps", str(steps)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", f"error: {want.value}\n")


# ------------------------------------------------------- whole subcommands


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("n64")
    rng = np.random.default_rng(MASTER_SEED + 120)
    reps = np.repeat(np.linspace(-3.0, 4.0, 30), [1, 2, 3, 4, 2, 1] * 5)[:64]
    a, lam = planted_matrix(rng, reps)
    q = haar_orthogonal(rng, 64)
    iso = (q * lam) @ q.T
    graph = np.triu(rng.random((64, 64)) < 0.1, 1)
    small = np.triu(rng.random((12, 12)) < 0.4, 1)
    perm = rng.permutation(12)
    contents = {
        "A": a,
        "B": planted_matrix(rng, reps * 0.5 + 1.0)[0],
        "ISO": (iso + iso.T) / 2.0,
        "Q": haar_orthogonal(rng, 64),
        "A8": planted_matrix(rng, [1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0])[0],
        "G64": (graph | graph.T).astype(int),
        "G12": (small | small.T).astype(int),
        "G12R": (small | small.T).astype(int)[np.ix_(perm, perm)],
    }
    for name, m in contents.items():
        (root / name).write_text(format_matrix(m))
    return {name: str(root / name) for name in contents}


_PROBE = ["--function", "trig-quartic", "--x", "1,1,1", "--h", "0.2,0.05,0.1"]

# every subcommand that writes JSON, at n = 64 where it takes a matrix or a
# graph of any size
SUBCOMMANDS = {
    "eig": ["eig", "--input", "A"],
    "isotropy gamma2": ["isotropy", "gamma2", "--input", "A8"],
    "isotropy sample": ["isotropy", "sample", "--input", "A", "--count", "2"],
    "isotropy check": ["isotropy", "check", "--input", "A", "--candidate", "Q"],
    "procrustes solve": ["procrustes", "solve", "--input-a", "A", "--input-b", "B"],
    "procrustes family": ["procrustes", "family", "--input-a", "A", "--input-b", "ISO", "--count", "3"],
    "graph spectrum": ["graph", "spectrum", "--input", "G64"],
    "graph aut": ["graph", "aut", "--input", "G64"],
    "graph iso": ["graph", "iso", "--input-a", "G12", "--input-b", "G12R"],
    "graph hidden": ["graph", "hidden", "--input", "G64"],
    "stencil probe": ["stencil", "probe", *_PROBE],
    "stencil order": ["stencil", "order", *_PROBE],
    "dynsys equilibria": ["dynsys", "equilibria", "--mu", "0.3"],
    "dynsys sweep": ["dynsys", "sweep"],
    "dynsys integrate": ["dynsys", "integrate", "--x0=0.3,-0.2,0.1", "--mu=0.3", "--steps", "1000"],
    "fixtures verify": ["fixtures", "verify"],
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_json_output_is_canonical_and_the_same_in_a_file(files, tmp_path, capsys, name):
    # json.dumps of the parsed output gives the output back: every float is
    # its shortest round-trip repr and every separator is json's; --output
    # writes the same bytes
    argv = [files.get(arg, arg) for arg in SUBCOMMANDS[name]]
    code = run(argv)
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    same(out.out, json.dumps(json.loads(out.out), sort_keys=True, allow_nan=False) + "\n")
    path = tmp_path / "out.json"
    assert run(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == out.out.encode()
