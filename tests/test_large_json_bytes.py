"""The exact stdout of requests whose JSON holds large float arrays.

Each digest is the sha256 of the bytes one request prints.  The arrays
here (n = 48 and 64 matrices, a 1001-step trajectory, 2304 to 12288
values each) are far larger than those of the n <= 8 pins in
``test_sample_cli_bytes.py``, so a change in how a large array is written
to JSON, such as writing it from ``floatrepr``'s token table, shows here
as a changed digest.  Every matrix has repeated eigenvalues."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from orthosym.cli import run

from helpers import MASTER_SEED, format_matrix, haar_orthogonal, planted_matrix


def planted(seed, reps):
    return planted_matrix(np.random.default_rng(MASTER_SEED + seed), reps)[0]


def isospectral(seed, a):
    # the spectrum of a in another random basis
    lam = np.linalg.eigvalsh(a)
    q = haar_orthogonal(np.random.default_rng(MASTER_SEED + seed), len(lam))
    b = (q * lam) @ q.T
    return (b + b.T) / 2.0


# 16 triples, and blocks of 1-4 mixed with negative eigenvalues
_REPS48 = np.repeat(np.arange(-7.5, 8.5), 3)
_REPS64 = np.repeat(np.linspace(-3.0, 4.0, 25), [1, 2, 3, 4, 2] * 5)[:64]

MATRICES = {
    "p48_a": planted(71, _REPS48),
    "p48_b": planted(72, _REPS48[::-1] * 0.5 + 1.0),
    "p64_a": planted(73, _REPS64),
    "p64_b": planted(74, _REPS64 * 2.0 - 1.0),
}
MATRICES["p48_iso"] = isospectral(75, MATRICES["p48_a"])
MATRICES["p64_iso"] = isospectral(76, MATRICES["p64_a"])

CASES = {
    "eig p48": (
        ["eig", "--input", "p48_a"],
        "383ea8edf0a8558d76f86e987580c3548f4bc9573c7f170eedaf05fd415c148e",
    ),
    "eig p64": (
        ["eig", "--input", "p64_a"],
        "8fd7e9cbed38c0291f38fb97c514dbcd82dd1815c4a269bd1467c51bdc8f3159",
    ),
    "sample p48": (
        ["isotropy", "sample", "--input", "p48_a", "--count", "2", "--seed", "3"],
        "253e4d73184d43609a55ffdf665e9744892a3842bad72b6057ea9c547ebfca9f",
    ),
    "sample p64": (
        ["isotropy", "sample", "--input", "p64_a", "--count", "2", "--seed", "4"],
        "879dff80a93c997a3bc5390bedb152a5362ad1a19c61462b3476388839f2a41d",
    ),
    "solve p48": (
        ["procrustes", "solve", "--input-a", "p48_a", "--input-b", "p48_b"],
        "e2e13948edb9b102140225d0a177378532cc7c0374874067543e1de86c50ec47",
    ),
    "solve p64 descending": (
        ["procrustes", "solve", "--input-a", "p64_a", "--input-b", "p64_b", "--order", "descending"],
        "deea32ae2d5da27077b8ac195a112f0a799180a4be4b10a0ed1a20a07e33e513",
    ),
    "family p48": (
        ["procrustes", "family", "--input-a", "p48_a", "--input-b", "p48_iso", "--count", "2", "--seed", "5"],
        "d61b19eed7ec78f1a2d5fa5bb3ea1a5861ae406855e6abc47e62444b78441693",
    ),
    "family p64": (
        ["procrustes", "family", "--input-a", "p64_a", "--input-b", "p64_iso", "--count", "3", "--seed", "6"],
        "8812cae50a0cfc9a4fae5226079a65a3cce0740a7adecd4a15b86794a0f495ad",
    ),
    "integrate 1000 steps": (
        ["dynsys", "integrate", "--x0=0.3,-0.2,0.1", "--mu=0.3", "--dt", "0.01", "--steps", "1000"],
        "4bb48aa4695f8f768dcf154bc14546bd3e30b90b04ab4f5cb7a8fadefcd47de7",
    ),
}


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    for name, a in MATRICES.items():
        (root / name).write_text(format_matrix(a))
    return root


def stdout_of(matrix_files, argv):
    argv = [str(matrix_files / a) if a in MATRICES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_large_json_stdout_is_byte_stable(matrix_files, case):
    argv, digest = CASES[case]
    assert hashlib.sha256(stdout_of(matrix_files, argv).encode()).hexdigest() == digest

