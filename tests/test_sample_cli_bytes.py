"""The exact stdout of ``isotropy sample`` and ``procrustes family``.

Each digest is the sha256 of the bytes one request prints.  Both requests
print Haar samples of the block group, so a change in how a block element
is drawn, multiplied or expanded to its full matrix shows here as a
changed digest.  Every input has a repeated eigenvalue except ``simple4``,
whose blocks are all 1 x 1."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from orthosym import dynsys
from orthosym.cli import run

from helpers import MASTER_SEED, format_matrix, planted_matrix


def planted(seed, reps):
    return planted_matrix(np.random.default_rng(MASTER_SEED + seed), reps)[0]


MATRICES = {
    "guiding": dynsys.guiding_matrix(0.0),  # multiplicities (1, 2)
    "m321_a": planted(61, [1.0, 1.0, 1.0, 3.0, 3.0, 5.0]),
    "m321_b": planted(62, [1.0, 1.0, 1.0, 3.0, 3.0, 5.0]),
    "m22211_a": planted(63, [-2.0, -2.0, 0.5, 0.5, 1.0, 1.0, 4.0, 7.0]),
    "m22211_b": planted(64, [-2.0, -2.0, 0.5, 0.5, 1.0, 1.0, 4.0, 7.0]),
    "simple4_a": planted(65, [1.0, 2.0, 3.0, 4.0]),
    "simple4_b": planted(66, [1.0, 2.0, 3.0, 4.0]),
}

CASES = {
    "sample guiding": (
        ["isotropy", "sample", "--input", "guiding", "--count", "3", "--seed", "7"],
        "67f757858eeb31876275d87c2e62f9eb3fe110337dd9022c9977ef4e61329c1f",
    ),
    "sample m321": (
        ["isotropy", "sample", "--input", "m321_a", "--count", "2", "--seed", "11"],
        "6feeceac2676eaa8b4fe59878091d55197f596146e7b2a170900834be0d05d78",
    ),
    "sample m22211": (
        ["isotropy", "sample", "--input", "m22211_a", "--count", "2"],
        "11ab612315da6d6ea7fd684b3ba1e19c26388ad607765fb2eb02e2137de70b17",
    ),
    "family m321": (
        ["procrustes", "family", "--input-a", "m321_a", "--input-b", "m321_b", "--count", "3"],
        "c6f0914c55022f57e21a60d6a7dd4b6be52544ccfe8df8c43f4933aa049498fe",
    ),
    "family m22211": (
        ["procrustes", "family", "--input-a", "m22211_a", "--input-b", "m22211_b",
         "--count", "2", "--seed", "5"],
        "08cf41c11d23121945243ee5949947bbdb00a86ce12c1c6599b0671aa15765aa",
    ),
    "family m22211 text": (
        ["procrustes", "family", "--input-a", "m22211_a", "--input-b", "m22211_b",
         "--count", "4", "--seed", "5", "--format", "text"],
        "671d67ac0f7624e5c33c5d9271b522644e95fc2cea601c87315c945dc99350fc",
    ),
    "family simple4": (
        ["procrustes", "family", "--input-a", "simple4_a", "--input-b", "simple4_b", "--count", "2"],
        "52f5dab715cce43d65fd04e80a7ccb0a15e1692b64457ddc08d92046efb3e7aa",
    ),
}


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    for name, a in MATRICES.items():
        (root / name).write_text(format_matrix(a))
    return root


@pytest.mark.parametrize("case", CASES)
def test_sample_stdout_is_byte_stable(matrix_files, case):
    argv, digest = CASES[case]
    argv = [str(matrix_files / a) if a in MATRICES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
