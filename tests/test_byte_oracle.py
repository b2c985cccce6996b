"""The byte oracle: what the CLI prints, digest for digest, on each BLAS kernel.

The printed floats come from BLAS and LAPACK, and each OpenBLAS kernel
rounds them its own way, so the bytes are recorded per kernel:
``byte_records.json`` holds one record per numpy version and OpenBLAS core,
the core being what ``scipy_openblas_get_corename64_`` reports (measured,
never set here).  A record holds

- for each case of PINNED, the sha256 of its stdout (it must exit 0 with
  nothing on stderr);
- for each workload, request kind and format of a replay of perfbench's
  warm-up plus one cycle of every workload at REPLAY_SEED, in json, text
  and csv, one sha256 over each request's exit code, stdout and stderr, in
  order.

A change that means to change bytes, or a kernel without a record, records
the running kernel's digests with ``python tests/test_byte_oracle.py``
(``OPENBLAS_CORETYPE`` forces a kernel; the four recorded here were taken
on one x86-64 host under its default SkylakeX and forced Haswell,
Sandybridge and Prescott, which reports Katmai).
"""

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "perfbench"), str(HERE.parent / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from orthosym import cli, dynsys, fixtures  # noqa: E402

from helpers import MASTER_SEED, format_matrix, haar_orthogonal, planted_matrix  # noqa: E402

RECORDS = HERE / "byte_records.json"
WORKFLOW = HERE.parent / ".github" / "workflows" / "tests.yml"
RECORD_COMMAND = "python tests/test_byte_oracle.py"
REPLAY_SEED = 1234


def core():
    """The OpenBLAS core numpy's LAPACK runs on, as OpenBLAS reports it."""
    corename = getattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unreported"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def key():
    """The record key of the running kernel."""
    return f"numpy {np.__version__}, OpenBLAS core {core()}"


def record(name=None):
    """The digests recorded for ``name`` (default: the running kernel)."""
    name = name or key()
    records = json.loads(RECORDS.read_text())
    if name not in records:
        pytest.fail(f"no byte record for {name}; run `{RECORD_COMMAND}` on that kernel to record one", pytrace=False)
    return records[name]


def planted(seed, reps):
    return planted_matrix(np.random.default_rng(MASTER_SEED + seed), reps)[0]


def isospectral(seed, a):
    # the spectrum of a in another random basis
    lam = np.linalg.eigvalsh(a)
    q = haar_orthogonal(np.random.default_rng(MASTER_SEED + seed), len(lam))
    b = (q * lam) @ q.T
    return (b + b.T) / 2.0


def edges(adj, seed=None):
    """An edge-list file, the vertices relabelled by a seeded permutation."""
    if seed is not None:
        adj = workloads.relabel(adj, np.random.default_rng(MASTER_SEED + seed).permutation(len(adj)))
    return "".join(f"{u} {v}\n" for u, v in zip(*np.nonzero(np.triu(adj))))


# 16 triples, and blocks of 1-4 mixed with negative eigenvalues
_REPS48 = np.repeat(np.arange(-7.5, 8.5), 3)
_REPS64 = np.repeat(np.linspace(-3.0, 4.0, 25), [1, 2, 3, 4, 2] * 5)[:64]
_M321 = [1.0, 1.0, 1.0, 3.0, 3.0, 5.0]
_M22211 = [-2.0, -2.0, 0.5, 0.5, 1.0, 1.0, 4.0, 7.0]

MATRICES = {
    "p48_a": planted(71, _REPS48),
    "p48_b": planted(72, _REPS48[::-1] * 0.5 + 1.0),
    "p64_a": planted(73, _REPS64),
    "p64_b": planted(74, _REPS64 * 2.0 - 1.0),
    "guiding": dynsys.guiding_matrix(0.0),  # multiplicities (1, 2)
    "m321_a": planted(61, _M321),
    "m321_b": planted(62, _M321),
    "m22211_a": planted(63, _M22211),
    "m22211_b": planted(64, _M22211),
    "simple4_a": planted(65, [1.0, 2.0, 3.0, 4.0]),  # no repeated eigenvalue
    "simple4_b": planted(66, [1.0, 2.0, 3.0, 4.0]),
}
MATRICES["p48_iso"] = isospectral(75, MATRICES["p48_a"])
MATRICES["p64_iso"] = isospectral(76, MATRICES["p64_a"])

INPUTS = {name: format_matrix(a) for name, a in MATRICES.items()} | {
    "q4": edges(workloads.hypercube(4), 51),
    "petersen": edges(workloads.petersen()),
    "petersen_relabelled": edges(workloads.petersen(), 52),
    "path1200": "".join(f"{i} {i + 1}\n" for i in range(1199)),
    "asymmetric": edges(fixtures.asymmetric_graph().adjacency),
    "asymmetric_relabelled": edges(fixtures.asymmetric_graph().adjacency, 53),
    # K(1,4) and C4 + K1: cospectral, so the exact search runs and fails
    "star": "0 1\n0 2\n0 3\n0 4\n",
    "square": "1 2\n2 3\n3 4\n4 1\n",  # vertex 0 is isolated
    "edge": "0 1\n",
}

PINNED = {
    # JSON holding large float arrays: n = 48 and 64 matrices with repeated
    # eigenvalues and a 1001-step trajectory, 2304 to 12288 values each
    "large": {
        "eig p48": "eig --input p48_a",
        "eig p64": "eig --input p64_a",
        "sample p48": "isotropy sample --input p48_a --count 2 --seed 3",
        "sample p64": "isotropy sample --input p64_a --count 2 --seed 4",
        "solve p48": "procrustes solve --input-a p48_a --input-b p48_b",
        "solve p64 descending": "procrustes solve --input-a p64_a --input-b p64_b --order descending",
        "family p48": "procrustes family --input-a p48_a --input-b p48_iso --count 2 --seed 5",
        "family p64": "procrustes family --input-a p64_a --input-b p64_iso --count 3 --seed 6",
        "integrate 1000 steps": "dynsys integrate --x0=0.3,-0.2,0.1 --mu=0.3 --dt 0.01 --steps 1000",
    },
    # Haar samples of the block group, as drawn, multiplied and expanded
    "sample": {
        "sample guiding": "isotropy sample --input guiding --count 3 --seed 7",
        "sample m321": "isotropy sample --input m321_a --count 2 --seed 11",
        "sample m22211": "isotropy sample --input m22211_a --count 2",
        "family m321": "procrustes family --input-a m321_a --input-b m321_b --count 3",
        "family m22211": "procrustes family --input-a m22211_a --input-b m22211_b --count 2 --seed 5",
        "family m22211 text": "procrustes family --input-a m22211_a --input-b m22211_b --count 4 --seed 5 --format text",
        "family simple4": "procrustes family --input-a simple4_a --input-b simple4_b --count 2",
    },
    # vertex maps as held, ordered and written; graph hidden prints the
    # permutation [1, 0] at seeds 0 and 4-7, [0, 1] at seed 1, and null
    # (minus a permutation matrix) at seeds 2 and 3
    "graph": {
        "aut q4": "graph aut --input q4",  # 384 rows
        "aut petersen": "graph aut --input petersen",
        "aut path1200": "graph aut --input path1200",
        "iso petersen": "graph iso --input-a petersen --input-b petersen_relabelled",
        "iso asymmetric": "graph iso --input-a asymmetric --input-b asymmetric_relabelled",
        "iso cospectral": "graph iso --input-a star --input-b square",
        **{f"hidden edge seed {seed}": f"graph hidden --input edge --seed {seed}" for seed in range(8)},
    },
}


class _Cli:
    """``orthosym.cli`` as ``harness.execute`` runs it, keeping the stderr
    that ``execute`` captures and drops."""

    def run(self, argv):
        self.err = io.StringIO()
        with contextlib.redirect_stderr(self.err):
            return cli.run(argv)


def execute(req):
    """Exit code, stdout and stderr of one request, run as perfbench runs it."""
    captured = _Cli()
    rc, out, _ = harness.execute(captured, req, harness.REQUEST_DEADLINE_S)
    return rc, out, captured.err.getvalue()


def pinned_digest(command, root):
    argv = command.split()
    for name in set(argv) & INPUTS.keys():
        (root / name).write_text(INPUTS[name])
    argv = [str(root / a) if a in INPUTS else a for a in argv]
    rc, out, err = execute(workloads.Request("pinned", argv, 0, None))
    assert (rc, err) == (0, "")
    return hashlib.sha256(out.encode()).hexdigest()


def replay(name, root):
    """Digest per request kind and format of warm-up plus one cycle of
    workload ``name`` at REPLAY_SEED, its input files written under root."""
    (root / name).mkdir()
    workload, inp = workloads.WORKLOADS[name](), workloads.Inputs(REPLAY_SEED, root / name)
    requests = workload.warmup(inp) + workload.cycle(inp)
    digests = {}
    for fmt in ("json", "text", "csv"):
        for req in requests:
            rc, out, err = execute(dataclasses.replace(req, argv=req.argv + ["--format", fmt]))
            assert str(root) not in out + err  # a path would make the bytes differ per run
            h = digests.setdefault(f"{name} {req.kind} {fmt}", hashlib.sha256())
            h.update(f"{rc} {len(out)} {len(err)}\n{out}{err}".encode())
    return {k: h.hexdigest() for k, h in digests.items()}


def pinned_test(group):
    """One test per case of ``PINNED[group]``: its digest is the running
    kernel's record of it."""

    @pytest.mark.parametrize("case", PINNED[group])
    def test(case, tmp_path):
        assert pinned_digest(PINNED[group][case], tmp_path) == record()[case]

    return test


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_replay_matches_the_record(name, tmp_path):
    recorded = {k: v for k, v in record().items() if k.startswith(f"{name} ")}
    assert replay(name, tmp_path) == recorded


def test_every_kernel_the_workflow_forces_has_a_record():
    forced = re.findall(r"OPENBLAS_CORETYPE: (\w+)", WORKFLOW.read_text())
    assert forced
    code = "import sys; sys.path.insert(0, sys.argv[1]); import test_byte_oracle as o; print(o.key())"
    for coretype in forced:
        done = subprocess.run(
            [sys.executable, "-c", code, str(HERE)], env=dict(os.environ, OPENBLAS_CORETYPE=coretype),
            capture_output=True, text=True, timeout=120, check=True,
        )
        record(done.stdout.strip())


def test_a_kernel_without_a_record_fails_naming_it_and_the_record_command(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "core", lambda: "Nehalem")
    with pytest.raises(pytest.fail.Exception) as failure:
        record()
    message = str(failure.value)
    assert "Nehalem" in message and np.__version__ in message and RECORD_COMMAND in message


if __name__ == "__main__":
    records = json.loads(RECORDS.read_text()) if RECORDS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        digests = {case: pinned_digest(c, root) for cases in PINNED.values() for case, c in cases.items()}
        for name in workloads.WORKLOADS:
            digests |= replay(name, root)
    records[key()] = digests
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {key()}")
