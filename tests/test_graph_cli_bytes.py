"""The exact stdout of ``graph aut``, ``graph iso`` and ``graph hidden``.

Each digest is the sha256 of the bytes one request prints, so a change in
how vertex maps are held, ordered or written shows here as a changed
digest."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from orthosym import fixtures
from orthosym.cli import run

from helpers import MASTER_SEED


def hypercube(d):
    return [(u, u ^ (1 << b)) for u in range(1 << d) for b in range(d) if u < u ^ (1 << b)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + inner + [(i, i + 5) for i in range(5)]


def relabelled(edges, n, seed):
    perm = np.random.default_rng(seed).permutation(n).tolist()
    return [(perm[u], perm[v]) for u, v in edges]


GRAPHS = {
    "q4": relabelled(hypercube(4), 16, MASTER_SEED + 51),
    "petersen": petersen(),
    "petersen_relabelled": relabelled(petersen(), 10, MASTER_SEED + 52),
    "path1200": [(i, i + 1) for i in range(1199)],
    "asymmetric": fixtures.asymmetric_graph().edges(),
    "asymmetric_relabelled": relabelled(fixtures.asymmetric_graph().edges(), 8, MASTER_SEED + 53),
    # K(1,4) and C4 + K1: cospectral, so the exact search runs and fails
    "star": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "square": [(1, 2), (2, 3), (3, 4), (4, 1)],  # vertex 0 is isolated
    "edge": [(0, 1)],
}

HIDDEN = {
    # seeds 0 and 4-7 print the permutation [1, 0], seed 1 [0, 1], and
    # seeds 2 and 3 (minus a permutation matrix) null
    0: "c7422b02a6a13615a3a014acc30e259f9717f617efe7d7d2ab7c2d34aff4b718",
    1: "82ff0189e2257757b6f08b17279a57c74a9d8188bf0dc3006accc25c4c27f37e",
    2: "5d63e64b1ae14290f5dcced2efb0c99ca5518ac81ad37774153b498acf3ee9db",
    3: "5d63e64b1ae14290f5dcced2efb0c99ca5518ac81ad37774153b498acf3ee9db",
    4: "c7422b02a6a13615a3a014acc30e259f9717f617efe7d7d2ab7c2d34aff4b718",
    5: "c7422b02a6a13615a3a014acc30e259f9717f617efe7d7d2ab7c2d34aff4b718",
    6: "c7422b02a6a13615a3a014acc30e259f9717f617efe7d7d2ab7c2d34aff4b718",
    7: "c7422b02a6a13615a3a014acc30e259f9717f617efe7d7d2ab7c2d34aff4b718",
}

CASES = {
    # 384 rows
    "aut q4": (
        ["graph", "aut", "--input", "q4"],
        "56f706c443fbc6f746c6b89947bee01a64f62ad0c32636ae94b3769b14416776",
    ),
    "aut petersen": (
        ["graph", "aut", "--input", "petersen"],
        "7351020fdae0ca42069313f2b30aad6a57d94dcb358b03743a4faaab735d8d48",
    ),
    "aut path1200": (
        ["graph", "aut", "--input", "path1200"],
        "bc22d6a6d739c7e428536bce5d47267409c11527c9cf8004999e9f2316d5992d",
    ),
    "iso petersen": (
        ["graph", "iso", "--input-a", "petersen", "--input-b", "petersen_relabelled"],
        "71460048c894212e44a2010091b1136d4f249970321a6fd164c950c61e301c66",
    ),
    "iso asymmetric": (
        ["graph", "iso", "--input-a", "asymmetric", "--input-b", "asymmetric_relabelled"],
        "61129dc05f8eae0504ba5728ccd66d76f83c187d04ac625e1f675e32191199b7",
    ),
    "iso cospectral": (
        ["graph", "iso", "--input-a", "star", "--input-b", "square"],
        "9749d993016a9cb6b0ab129d1c2a12795db9af2c615e740bbd38f20c2611c679",
    ),
    **{
        f"hidden edge seed {seed}": (["graph", "hidden", "--input", "edge", "--seed", str(seed)], digest)
        for seed, digest in HIDDEN.items()
    },
}


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    for name, edges in GRAPHS.items():
        (root / name).write_text("".join(f"{u} {v}\n" for u, v in edges))
    return root


@pytest.mark.parametrize("case", CASES)
def test_graph_stdout_is_byte_stable(graph_files, case):
    argv, digest = CASES[case]
    argv = [str(graph_files / a) if a in GRAPHS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
