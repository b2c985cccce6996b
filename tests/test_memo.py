"""The two memos: ``matio.parse_matrix`` remembers the last two texts it
parsed and ``spectral.eig_sym`` the last two decompositions.  A request
answered from them must print the bytes of one that is not."""

import contextlib
import io
import math

import numpy as np
import pytest

from orthosym import cli, dynsys, matio, spectral
from orthosym.errors import InputFormatError
from orthosym.matio import parse_matrix
from orthosym.spectral import eig_sym

from helpers import MASTER_SEED, format_matrix, random_symmetric


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    a = np.asarray(dynsys.guiding_matrix(0.0))
    # the coordinate swap commutes with A; B = P A P^T is isospectral to A
    p = np.eye(3)[[2, 0, 1]]
    contents = {"A": a, "SWAP": dynsys.SWAP_23, "B": p @ a @ p.T}
    for name, m in contents.items():
        (tmp_path / name).write_text(format_matrix(m))
    return {name: str(tmp_path / name) for name in contents}


@pytest.mark.parametrize(
    "argv",
    [
        ["eig", "--input", "A"],
        ["isotropy", "gamma2", "--input", "A"],
        ["isotropy", "sample", "--input", "A", "--count", "2", "--seed", "4"],
        ["isotropy", "check", "--input", "A", "--candidate", "SWAP"],
        ["procrustes", "solve", "--input-a", "A", "--input-b", "B"],
        ["procrustes", "family", "--input-a", "A", "--input-b", "B", "--count", "2"],
    ],
    ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")),
)
@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_a_hit_prints_the_bytes_of_a_miss(files, argv, fmt):
    # tests/conftest.py empties both memos, so the first run is a miss
    argv = [files.get(arg, arg) for arg in argv] + ["--format", fmt]
    miss = run(argv)
    parsed, solved = matio._parse_matrix_text.cache_info(), spectral._decompose.cache_info()
    hit = run(argv)
    assert hit == miss
    assert matio._parse_matrix_text.cache_info().hits > parsed.hits
    assert spectral._decompose.cache_info().hits > solved.hits


def test_a_hit_returns_the_same_decomposition():
    a = random_symmetric(np.random.default_rng(MASTER_SEED + 90), 5)
    first = eig_sym(a)
    again = eig_sym(a.tolist())
    assert again is first
    assert again.reconstruct() is first.reconstruct()


def test_a_rewritten_file_is_parsed_again(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 0\n0 1\n")
    assert parse_matrix(path).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    path.write_text("2 0\n0 1\n")
    assert parse_matrix(path).tolist() == [[2.0, 0.0], [0.0, 1.0]]
    code, out, _ = run(["eig", "--input", str(path), "--format", "text"])
    assert (code, out) == (0, "eigenvalues: 1.0 2.0\nmultiplicities: [1, 1]\n")


def test_a_malformed_file_fails_the_same_way_every_time(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 2\n3 four\n")
    errors = []
    for _ in range(2):
        with pytest.raises(InputFormatError) as err:
            parse_matrix(path)
        errors.append((str(err.value), err.value.line))
    assert errors[0] == errors[1]
    assert errors[0][1] == 2
    argv = ["eig", "--input", str(path)]
    assert run(argv) == run(argv)
    assert run(argv)[0] == 1


def test_parse_returns_a_fresh_writable_array(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 2\n2 3\n")
    first = parse_matrix(path)
    assert first.flags.writeable
    first[0, 0] = 99.0
    second = parse_matrix(path)
    assert second is not first
    assert second.tolist() == [[1.0, 2.0], [2.0, 3.0]]
    assert parse_matrix(io.StringIO("1 2\n2 3\n")).tolist() == second.tolist()


def test_a_changed_input_is_decomposed_again():
    a = random_symmetric(np.random.default_rng(MASTER_SEED + 91), 4)
    first = eig_sym(a)
    lambdas = first.lambdas.copy()
    a[0, 0] += 1.0
    second = eig_sym(a)
    assert second is not first
    assert second.lambdas.tolist() != lambdas.tolist()
    assert first.lambdas.tolist() == lambdas.tolist()


def test_each_cluster_tol_bit_pattern_is_its_own_entry():
    a = np.diag([1.0, 2.0, 2.0])
    decs = [eig_sym(a, cluster_tol=tol) for tol in (-0.0, 0.0, None)]
    assert spectral._decompose.cache_info().misses == 3
    assert len({id(d) for d in decs}) == 3
    assert [math.copysign(1.0, d.cluster_tol) for d in decs[:2]] == [-1.0, 1.0]
    assert eig_sym(a, cluster_tol=0.0) is decs[1]
    assert eig_sym(a) is decs[2]


def test_each_memo_holds_at_most_two_entries(tmp_path):
    rng = np.random.default_rng(MASTER_SEED + 92)
    for k in range(5):
        path = tmp_path / f"m{k}.txt"
        path.write_text(format_matrix(random_symmetric(rng, 3)))
        eig_sym(parse_matrix(path))
    assert matio._parse_matrix_text.cache_info().currsize == 2
    assert spectral._decompose.cache_info().currsize == 2
