import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthosym
from orthosym import cli, dynsys, fixtures, isotropy, spectral, stencil, verify
from orthosym.cli import EXIT_VERIFY, run
from orthosym.errors import InputFormatError, StructureError
from orthosym.isotropy import commutator_residual, gamma2_elements
from orthosym.matio import parse_graph, parse_matrix

from helpers import MASTER_SEED, format_matrix, random_symmetric, symmetric_matrices


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------- matio

def test_parse_identity():
    np.testing.assert_array_equal(parse_matrix(io.StringIO("1 0\n0 1")), np.eye(2))


def test_parse_commas_and_comments():
    text = "# a comment\n1, 0\n0, 1\n"
    np.testing.assert_array_equal(parse_matrix(io.StringIO(text)), np.eye(2))


def test_parse_ragged_row_names_line():
    with pytest.raises(InputFormatError) as err:
        parse_matrix(io.StringIO("1 2 3\n4 5 6\n7 8"))
    assert "row 3" in str(err.value)


def test_parse_non_numeric_reports_line():
    with pytest.raises(InputFormatError) as err:
        parse_matrix(io.StringIO("1 2\n3 four"))
    assert err.value.line == 2


def test_parse_empty():
    with pytest.raises(InputFormatError):
        parse_matrix(io.StringIO("# only a comment\n"))


def test_roundtrip_exact():
    rng = np.random.default_rng(MASTER_SEED + 60)
    a = random_symmetric(rng, 5)
    b = parse_matrix(io.StringIO(format_matrix(a)))
    assert a.tobytes() == b.tobytes()


def test_parse_graph_adjacency():
    g = parse_graph(io.StringIO("0 1 0\n1 0 1\n0 1 0"))
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_graph_edge_list():
    g = parse_graph(io.StringIO("0 1\n1 2\n"))
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_graph_bad_edge():
    with pytest.raises(InputFormatError):
        parse_graph(io.StringIO("0 1 2\n"))


@pytest.mark.parametrize(
    "text, error, line",
    [
        ("0 1\n1 x\n", "line 2: non-integer vertex in edge '1 x'", 2),
        ("0 1\n# c\n\n1\n", "line 4: expected an edge 'u v', got 1 tokens", 4),
        ("0 0.5\n0.5 0\n", "line 1: non-integer vertex in edge '0 0.5'", 1),
        ("1e0 0\n", "line 1: non-integer vertex in edge '1e0 0'", 1),
        ("0 1 0\n1 0 1\n", "line 1: expected an edge 'u v', got 3 tokens", 1),
        (",\n", "line 1: expected an edge 'u v', got 0 tokens", 1),
        ("# only a comment\n", "no graph data found (file empty?)", None),
    ],
)
def test_parse_graph_errors_name_the_line(text, error, line):
    with pytest.raises(InputFormatError) as err:
        parse_graph(io.StringIO(text))
    assert (str(err.value), err.value.line) == (error, line)


@pytest.mark.parametrize(
    "text, edges",
    [
        ("0 1\n1 0\n", [(0, 1)]),  # a 2x2 adjacency matrix
        ("1 0\n0 0\n", None),  # not an adjacency matrix: edges 1-0 and 0-0
        ("0 1 0\n1 0 1\n0 1 0", [(0, 1), (1, 2)]),
        ("0,1\n1,2\n", [(0, 1), (1, 2)]),
        ("0 1 1\n1 0 1\n1 1 0\n", [(0, 1), (0, 2), (1, 2)]),
        ("0 1\n0 0\n", None),  # asymmetric: edges 0-1 and 0-0
    ],
)
def test_parse_graph_chooses_the_format(text, edges):
    if edges is None:
        with pytest.raises(StructureError, match="self-loop 0-0"):
            parse_graph(io.StringIO(text))
    else:
        assert parse_graph(io.StringIO(text)).edges() == edges


def test_bundled_16x16_fixture_parses_and_commutes(tmp_path):
    family = np.asarray(fixtures.dihedral_family(0.0))
    path = tmp_path / "family.txt"
    path.write_text(format_matrix(family))
    a = parse_matrix(str(path))
    assert a.tobytes() == family.tobytes()
    for g in (fixtures.dihedral_rotation(), fixtures.dihedral_reflection()):
        assert commutator_residual(a, g) <= 1e-10


def test_bundled_graph_fixture(tmp_path):
    graph = fixtures.asymmetric_graph().adjacency
    path = tmp_path / "graph.txt"
    path.write_text(format_matrix(graph))
    assert parse_graph(str(path)).adjacency.tobytes() == graph.tobytes()


# --------------------------------------------------------------------- cli

@pytest.fixture()
def a0_file(tmp_path):
    path = tmp_path / "a0.txt"
    path.write_text(format_matrix(np.asarray(dynsys.guiding_matrix(0.0))))
    return str(path)


def test_cli_eig_guiding(capsys, a0_file):
    code, out, _ = run_capture(capsys, ["eig", "--input", a0_file])
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["lambdas"], [0.0, 4.0, 4.0], atol=1e-8)
    assert payload["multiplicities"] == [1, 2]


def test_cli_equilibria_sphere(capsys):
    code, out, _ = run_capture(capsys, ["dynsys", "equilibria", "--mu", "0.5"])
    assert code == 0
    payload = json.loads(out)
    kinds = sorted(c["kind"] for c in payload["components"])
    assert kinds == ["origin", "sphere"]
    sphere = [c for c in payload["components"] if c["kind"] == "sphere"][0]
    assert abs(sphere["radius"] - np.sqrt(2.0)) <= 1e-10


_PROBE = ["--function", "trig-quartic", "--x", "1,1,1", "--h", "0.2,0.05,0.1"]


@pytest.mark.parametrize(
    "argv,decompositions",
    [
        (["dynsys", "equilibria", "--mu", "0.25"], 1),
        (["dynsys", "sweep", "--samples", "5"], 5),
        (["stencil", "probe"] + _PROBE, 1),
        (["stencil", "order"] + _PROBE, 1),
    ],
)
def test_cli_decomposes_each_matrix_once(monkeypatch, capsys, argv, decompositions):
    # every decomposition, by eig_sym or eig_stack, is solved in
    # spectral._solve, one matrix of a stack each; no matrix is solved twice
    decomposed = []
    solve = spectral._solve

    def counted(stack, *args):
        decomposed.extend(stack)
        return solve(stack, *args)

    monkeypatch.setattr(spectral, "_solve", counted)
    code, _, _ = run_capture(capsys, argv)
    assert code == 0
    assert len(decomposed) == decompositions
    assert len({m.tobytes() for m in decomposed}) == decompositions


@pytest.mark.parametrize("action", ["probe", "order"])
def test_cli_stencil_tests_each_symmetry_once(monkeypatch, capsys, action):
    members, evals = [], []
    is_member = stencil.is_member
    field = stencil.BUILTIN_FIELDS["trig-quartic"]

    def counted(*args, **kwargs):
        members.append(args)
        return is_member(*args, **kwargs)

    def evaluated(x):
        evals.append(x)
        return field.fn(x)

    monkeypatch.setattr(stencil, "is_member", counted)
    monkeypatch.setitem(
        stencil.BUILTIN_FIELDS, "trig-quartic", stencil.ScalarField(evaluated, 3)
    )
    code, _, _ = run_capture(capsys, ["stencil", action, "--levels", "4"] + _PROBE)
    assert code == 0
    assert len(members) == 2  # gamma1 and gamma2, once each
    assert len(evals) == 4 * 9 + 4 * 4  # the Hessian, then four points per level


def test_cli_no_arguments(capsys):
    code, out, err = run_capture(capsys, [])
    assert code == 1
    assert "usage" in err


def test_cli_unknown_subcommand(capsys):
    code, _, err = run_capture(capsys, ["frobnicate"])
    assert code == 1
    assert err


def test_cli_missing_file(capsys):
    code, _, err = run_capture(capsys, ["eig", "--input", "/nonexistent/m.txt"])
    assert code == 1
    assert err


def test_cli_asymmetric_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n0 0\n")
    code, _, err = run_capture(capsys, ["eig", "--input", str(path)])
    assert code == 1
    assert "symmetric" in err


def test_cli_isotropy_check_swap(capsys, a0_file, tmp_path):
    cand = tmp_path / "swap.txt"
    cand.write_text("1 0 0\n0 0 1\n0 1 0\n")
    code, out, _ = run_capture(
        capsys, ["isotropy", "check", "--input", a0_file, "--candidate", str(cand)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["commutator_residual"] <= 1e-14


def test_cli_isotropy_gamma2_count(capsys, a0_file):
    code, out, _ = run_capture(capsys, ["isotropy", "gamma2", "--input", a0_file])
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_cli_isotropy_sample_seed_determinism(capsys, a0_file):
    code1, out1, _ = run_capture(
        capsys, ["isotropy", "sample", "--input", a0_file, "--seed", "7", "--count", "3"]
    )
    code2, out2, _ = run_capture(
        capsys, ["isotropy", "sample", "--input", a0_file, "--seed", "7", "--count", "3"]
    )
    code3, out3, _ = run_capture(
        capsys, ["isotropy", "sample", "--input", a0_file, "--seed", "8", "--count", "3"]
    )
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3


@pytest.mark.parametrize(
    "argv",
    [
        ["isotropy", "sample", "--input", "A"],
        ["procrustes", "family", "--input-a", "A", "--input-b", "A"],
        ["graph", "hidden", "--input", "A"],
        ["stencil", "probe"] + _PROBE,
        ["stencil", "order"] + _PROBE,
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_cli_rejects_a_negative_seed_by_its_flag(capsys, a0_file, argv):
    argv = [a0_file if arg == "A" else arg for arg in argv] + ["--seed", "-1"]
    assert run_capture(capsys, argv) == (1, "", "--seed must be nonnegative, got -1\n")


def test_cli_eig_ignores_a_negative_seed(capsys, a0_file):
    want = run_capture(capsys, ["eig", "--input", a0_file])
    assert want[0] == 0
    assert run_capture(capsys, ["eig", "--input", a0_file, "--seed", "-1"]) == want


def test_cli_isotropy_sample_rejects_merged_eigenspaces(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1 0\n0 1.2\n")
    code, out, err = run_capture(
        capsys, ["isotropy", "sample", "--input", str(path), "--cluster-tol", "0.5"]
    )
    assert code == 1
    assert out == ""
    assert "fails to commute" in err


def test_cli_isotropy_sample_of_entries_near_1e300(capsys, tmp_path):
    # ||A||_F overflows; the residuals are still finite and no numpy
    # overflow warning is raised (tier-1 turns one into an error)
    path = tmp_path / "big.txt"
    path.write_text("1e300 0 0\n0 1e300 0\n0 0 3e300\n")
    code, out, err = run_capture(
        capsys, ["isotropy", "sample", "--input", str(path), "--count", "3"]
    )
    assert code == 0 and err == ""
    residuals = [e["commutator_residual"] for e in json.loads(out)["elements"]]
    assert all(r <= 1e-8 * 3.4e300 for r in residuals)


def test_python_m_orthosym_cli_runs_without_a_warning(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 -1 0\n-1 2 -1\n0 -1 2\n")
    src = str(Path(orthosym.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "orthosym.cli", "eig", "--input", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["multiplicities"] == [1, 1, 1]


def test_cli_isotropy_gamma2_refuses_past_the_cap(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(format_matrix(np.diag(np.arange(15.0))))
    code, out, err = run_capture(capsys, ["isotropy", "gamma2", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert "enumeration cap (n <= 14)" in err


def _gamma2_reference(elements, multiplicities):
    # the payload the streamed renderer must reproduce byte for byte
    payload = {
        "count": len(elements),
        "multiplicities": list(multiplicities),
        "elements": [{"index": k, "gamma": g} for k, g in enumerate(elements.tolist())],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _rendered(elements, multiplicities):
    return "".join(cli._gamma2_json(lambda k: elements[k], len(elements), multiplicities))


def _per_element(text):
    # compare gamma2 JSON as a list with one item per element: a failure
    # then names the first element that differs, where pytest's character
    # diff of two long one-line strings takes minutes
    return text.split("}, {")


@settings(max_examples=100, deadline=None)
@given(a=symmetric_matrices(max_n=8))
def test_gamma2_json_matches_json_dumps(a):
    dec = spectral.eig_sym(a)
    els = gamma2_elements(dec)
    want = _gamma2_reference(els, dec.multiplicities)
    assert _per_element(_rendered(els, dec.multiplicities)) == _per_element(want)


@pytest.mark.parametrize("k", [0, 1, 9])
def test_gamma2_json_formats_every_kind_of_float(k):
    # signed zeros, the smallest subnormal, a larger subnormal, the switch to
    # exponent notation at 1e16 and below 1e-4, and 1/3 with 16 digits, each
    # with both signs.  The renderer takes the magnitudes of the second half
    # from the first, so the second half is the first negated in reverse
    # order, as in the sign group, but its own zeros take either sign, as an
    # entry that cancels exactly is +0.0 in both elements; 2^10 elements
    # span four pieces
    pool = [0.0, 5e-324, 2.5e-310, 1e16, 1e-5, 1 / 3, 0.1, 1.0, 123.0]
    pool = np.array(pool + [-x for x in pool])
    rng = np.random.default_rng(MASTER_SEED + 70 + k)
    first = rng.choice(pool, size=(2**k, 3, 3))
    second = -first[::-1]
    zeros = second == 0.0
    second[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
    els = np.concatenate([first, second])
    assert np.signbit(els).any() and (els == 0.0).any()
    want = _gamma2_reference(els, (1, 2))
    assert _per_element(_rendered(els, (1, 2))) == _per_element(want)


@pytest.mark.parametrize(
    "values",
    [[0.0], [5e-324, 0.0, 5e-324], [1.0, 1 / 3, 0.1, 1 / 3, 1e16, 0.0, 1.0], np.arange(12.0)[::-1]],
)
def test_unique_codes_match_np_unique(values):
    values = np.array(values).reshape(1, -1)
    mags, codes = cli._unique_codes(values)
    want_mags, want_codes = np.unique(values, return_inverse=True)
    assert mags.tobytes() == want_mags.tobytes()
    assert codes.dtype == np.int32 and np.array_equal(codes, want_codes.reshape(values.shape))


@pytest.mark.parametrize("block", [1, 3, 5, 256])
def test_gamma2_json_does_not_depend_on_the_piece_size(monkeypatch, block):
    # pieces of 3 or 5 elements span both halves of the group, so their
    # sign bits come partly from the first half's table and partly from a
    # product computed for the piece
    rng = np.random.default_rng(MASTER_SEED + 75)
    a = np.round(random_symmetric(rng, 5), 1)
    a[0, 1:] = a[1:, 0] = 0.0
    dec = spectral.eig_sym(a)
    want = _gamma2_reference(gamma2_elements(dec), dec.multiplicities)
    monkeypatch.setattr(cli, "_GAMMA2_BLOCK", block)
    pieces = cli._gamma2_json(
        lambda k: gamma2_elements(dec, k), 2**dec.n, dec.multiplicities
    )
    assert _per_element("".join(pieces)) == _per_element(want)


_BLOCK_DIAGONAL = np.zeros((6, 6))
_BLOCK_DIAGONAL[:3, :3] = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
_BLOCK_DIAGONAL[3:, 3:] = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.mark.parametrize(
    "a",
    [
        np.eye(4),
        np.diag([1.0, 2.0, 2.0, 3.0, 0.0, -1.0]),
        _BLOCK_DIAGONAL,
        np.zeros((3, 3)),
        np.kron(np.eye(3), _BLOCK_DIAGONAL[:3, :3]),
    ],
    ids=["eye4", "diag-with-zero", "block-diagonal", "zeros3", "block-diagonal-9"],
)
def test_cli_isotropy_gamma2_keeps_the_sign_of_exact_zeros(capsys, tmp_path, a):
    # an entry that cancels exactly is +0.0 in element k and in element
    # 2^n - 1 - k alike, so the second half cannot be written as the first
    # with its signs flipped; at n = 9 the second half is its own piece
    path = tmp_path / "a.txt"
    path.write_text(format_matrix(a))
    dec = spectral.eig_sym(parse_matrix(str(path)))
    els = gamma2_elements(dec)
    assert ((els == 0.0) & ~np.signbit(els) & ~np.signbit(els[::-1])).any()
    code, out, err = run_capture(capsys, ["isotropy", "gamma2", "--input", str(path)])
    assert (code, err) == (0, "")
    assert _per_element(out) == _per_element(_gamma2_reference(els, dec.multiplicities))


@pytest.fixture(scope="module")
def n12_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("n12") / "a12.txt"
    path.write_text(format_matrix(random_symmetric(np.random.default_rng(MASTER_SEED + 85), 12)))
    return str(path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_isotropy_gamma2_bytes_at_one_and_two_blas_threads(n12_file, threads):
    # the environment is read when numpy loads, so each count runs in its
    # own interpreter; the reference comes from this one
    dec = spectral.eig_sym(parse_matrix(n12_file))
    want = _gamma2_reference(gamma2_elements(dec), dec.multiplicities).encode()
    src = str(Path(orthosym.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
        OPENBLAS_NUM_THREADS=threads,
    )
    done = subprocess.run(
        [sys.executable, "-m", "orthosym.cli", "isotropy", "gamma2", "--input", n12_file],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == hashlib.sha256(want).hexdigest()


def test_cli_isotropy_gamma2_peak_memory_at_n12(n12_file, tmp_path):
    # numpy reports its buffers to tracemalloc, so the peak is a property of
    # the code, not of the host; the bound sits between tabulating half the
    # group (about 19 MiB) and all of it (about 33 MiB)
    argv = ["isotropy", "gamma2", "--input", n12_file, "--output", str(tmp_path / "out.json")]
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 24 * 2**20


def test_cli_isotropy_gamma2_of_a_scalar(capsys, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("-3.5\n")
    code, out, err = run_capture(capsys, ["isotropy", "gamma2", "--input", str(path)])
    assert code == 0
    assert err == ""
    assert out == (
        '{"count": 2, "elements": [{"gamma": [[1.0]], "index": 0}, '
        '{"gamma": [[-1.0]], "index": 1}], "multiplicities": [1]}\n'
    )


def test_cli_isotropy_gamma2_output_file_matches_stdout(capsys, tmp_path):
    # n = 9: 512 elements, written in more than one piece
    rng = np.random.default_rng(MASTER_SEED + 80)
    path = tmp_path / "a.txt"
    path.write_text(format_matrix(random_symmetric(rng, 9)))
    code, out, _ = run_capture(capsys, ["isotropy", "gamma2", "--input", str(path)])
    assert code == 0
    dest = tmp_path / "out.json"
    argv = ["isotropy", "gamma2", "--input", str(path), "--output", str(dest)]
    code, to_stdout, _ = run_capture(capsys, argv)
    assert code == 0
    assert to_stdout == ""
    assert _per_element(dest.read_bytes().decode()) == _per_element(out)
    assert json.loads(out)["count"] == 512


_CAP_ERROR = (
    "error: 2^15 sign elements exceed the enumeration cap (n <= 14); "
    "use sample_gamma instead\n"
)


@pytest.mark.parametrize(
    "n, fmt, code, out, err",
    [
        (3, "text", 0, "8 sign-group elements\n", ""),
        (3, "csv", 1, "", "subcommand 'isotropy' has no csv form\n"),
        (15, "text", 1, "", _CAP_ERROR),
        (15, "csv", 1, "", _CAP_ERROR),
    ],
)
def test_cli_isotropy_gamma2_text_and_csv_format_no_element(
    monkeypatch, capsys, tmp_path, n, fmt, code, out, err
):
    def refuse(*args):
        raise AssertionError("the elements were formatted")

    monkeypatch.setattr(cli, "_gamma2_json", refuse)
    monkeypatch.setattr("orthosym.isotropy.gamma2_elements", refuse)
    path = tmp_path / "d.txt"
    path.write_text(format_matrix(np.diag(np.arange(float(n)))))
    argv = ["isotropy", "gamma2", "--input", str(path), "--format", fmt]
    assert run_capture(capsys, argv) == (code, out, err)


def test_cli_eig_rejects_an_eigenvalue_that_overflows(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("1.7e308 1.7e308\n1.7e308 1.7e308\n")
    code, out, err = run_capture(capsys, ["eig", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert "eigenvalue overflows" in err


def test_cli_procrustes_solve(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 0\n0 2\n")
    b.write_text("2 0\n0 1\n")
    code, out, _ = run_capture(
        capsys, ["procrustes", "solve", "--input-a", str(a), "--input-b", str(b)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] <= 1e-12
    assert payload["lower_bound"] <= 1e-12


def test_cli_procrustes_solve_of_entries_near_1e300(capsys, tmp_path):
    # the squares in both norms overflow; the norms themselves do not
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1e300 0\n0 2e300\n")
    b.write_text("1 0\n0 2\n")
    code, out, err = run_capture(
        capsys, ["procrustes", "solve", "--input-a", str(a), "--input-b", str(b)]
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["cost"] == pytest.approx(math.sqrt(5.0) * 1e300, rel=1e-12)
    assert payload["lower_bound"] == pytest.approx(math.sqrt(5.0) * 1e300, rel=1e-12)


def test_cli_isotropy_check_of_a_huge_candidate(capsys, a0_file, tmp_path):
    # ||G G^T - I||_F is past the float range, so the strict JSON refuses
    # the result: exit 1, nothing written, and no numpy overflow warning
    g = tmp_path / "g.txt"
    g.write_text("1e300 -1e300 1e300\n1e300 1e300 -1e300\n-1e300 1e300 1e300\n")
    argv = ["isotropy", "check", "--input", a0_file, "--candidate", str(g)]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: Out of range float values are not JSON compliant")
    assert run_capture(capsys, argv + ["--format", "text"]) == (0, "member: False\n", "")


def test_cli_isotropy_check_of_a_tiny_matrix(capsys, tmp_path):
    # the squares of 1e-170 underflow: the residual was printed as 0.0
    a, g = tmp_path / "tiny.txt", tmp_path / "swap.txt"
    a.write_text("1e-170 2e-170\n2e-170 0\n")
    g.write_text("0 1\n1 0\n")
    code, out, _ = run_capture(capsys, ["isotropy", "check", "--input", str(a), "--candidate", str(g)])
    assert code == 0
    assert json.loads(out)["commutator_residual"] == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-12, abs=0.0)


def test_cli_eig_of_a_repeated_eigenvalue_near_the_float_maximum(capsys, tmp_path):
    # the cluster mean overflowed: a warning, then exit 1 for a JSON inf
    path = tmp_path / "big.txt"
    path.write_text("1.7e308 0\n0 1.7e308\n")
    code, out, err = run_capture(capsys, ["eig", "--input", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["clusters"] == [[1.7e308, 2]]


@pytest.mark.parametrize(
    "argv",
    [
        ["--x=0,0,0", "--h=0,0,1.7e308"],
        ["--x=0,0,1.7e308", "--h=0.1,0.1,0.1"],
        ["--x=0,0,0", "--h=0.1,0.1,0.1", "--step=1.7e308"],
    ],
    ids=["h", "x", "step"],
)
def test_cli_stencil_field_overflow_is_a_numerical_failure(argv):
    # the field is not finite at these points: exit 2 naming the point, with
    # no numpy warning.  Before, ||h|| overflowed and warned that h is
    # mapped to the same points by both symmetries, and ||x|| overflowed
    # into an infinite default step, reported as a bad --step (exit 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_quiet(["stencil", "probe", "--function", "quadratic", "--levels", "3", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: non-finite value")


def test_cli_procrustes_family(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("2 1 0\n1 3 1\n0 1 4\n")
    code, out, _ = run_capture(
        capsys,
        ["procrustes", "family", "--input-a", str(a), "--input-b", str(a), "--count", "5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert all(s["cost"] <= 1e-7 for s in payload["solutions"])


def test_cli_graph_commands(capsys, tmp_path):
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n1 2\n")
    code, out, _ = run_capture(capsys, ["graph", "spectrum", "--input", str(gfile)])
    assert code == 0
    lam = json.loads(out)["lambdas"]
    np.testing.assert_allclose(lam, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-8)

    code, out, _ = run_capture(capsys, ["graph", "aut", "--input", str(gfile)])
    assert code == 0
    assert json.loads(out)["count"] == 2

    star = tmp_path / "h.txt"
    star.write_text("0 1\n0 2\n")
    code, out, _ = run_capture(
        capsys, ["graph", "iso", "--input-a", str(gfile), "--input-b", str(star)]
    )
    assert code == 0
    assert json.loads(out)["isomorphic"] is True

    code, out, _ = run_capture(
        capsys, ["graph", "hidden", "--input", str(gfile), "--seed", "3"]
    )
    assert code == 0
    assert json.loads(out)["commutator_residual"] <= 1e-8


def test_cli_graph_aut_on_a_long_path(capsys, tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1199)))
    code, out, err = run_capture(capsys, ["graph", "aut", "--input", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "count": 2,
        "automorphisms": [list(range(1200)), list(range(1199, -1, -1))],
    }


def test_cli_graph_refuses_an_edge_list_index_past_the_cap(capsys, tmp_path):
    # before: numpy's uncaught "Unable to allocate 8.88 PiB" and a traceback
    path = tmp_path / "far.txt"
    path.write_text("0 1\n1 100000000\n")
    code, out, err = run_capture(capsys, ["graph", "aut", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: vertex index 100000000 needs 100000001 vertices; edge lists are capped at 8192\n"


def test_parse_graph_holds_no_token_per_entry():
    # an adjacency file is converted row by row: at n = 1500 the peak is
    # the text, the lines and the adjacency, not 2.25 million token strings
    n = 1500
    i = np.arange(n - 1)
    a = np.zeros((n, n), dtype=np.int8)
    a[i, i + 1] = a[i + 1, i] = 1
    text = "".join(" ".join(map(str, row)) + "\n" for row in a.tolist())
    del a
    tracemalloc.start()
    try:
        g = parse_graph(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges() == [(k, k + 1) for k in range(n - 1)]
    assert peak < 3 * 8 * n * n


def test_cli_graph_requires_input(capsys):
    code, _, err = run_capture(capsys, ["graph", "spectrum"])
    assert code == 1
    assert "--input" in err


def test_cli_stencil_probe(capsys):
    code, out, _ = run_capture(
        capsys,
        ["stencil", "probe", "--function", "trig-quartic", "--x", "1,1,1", "--h", "0.2,0.05,0.1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"value", "slope", "gammas"}
    assert 3.0 <= payload["slope"] <= 5.0


def test_cli_stencil_unknown_function(capsys):
    code, _, err = run_capture(
        capsys, ["stencil", "probe", "--function", "nope", "--x", "1,1,1", "--h", "0.1,0,0"]
    )
    assert code == 1
    assert "built-ins" in err


def test_cli_stencil_degenerate_is_numerical_failure(capsys):
    # a quadratic field has no fourth-order content: deep enough halving
    # drives the probe below the underflow floor
    code, _, err = run_capture(
        capsys,
        [
            "stencil", "order", "--function", "quadratic",
            "--x", "0.4,0.1,0.2", "--h", "0.05,0.04,0.03", "--levels", "7",
        ],
    )
    assert code == 2
    assert "numerical failure" in err


def test_cli_sweep_csv(capsys):
    code, out, _ = run_capture(
        capsys,
        ["dynsys", "sweep", "--from", "-0.5", "--to", "1.5", "--samples", "21", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,lambda1,lambda2,lambda3,components,transition"
    assert len(lines) == 22


def test_cli_integrate(capsys):
    code, out, _ = run_capture(
        capsys,
        ["dynsys", "integrate", "--x0", "0.1,0.1,0.1", "--mu", "-0.25", "--dt", "0.01", "--steps", "200"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["trajectory"]) == 201
    assert payload["terminal_residual"] < 1.0


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emit_renders_only_the_requested_format(capsys, fmt):
    called = []

    def form(name, value):
        def render():
            called.append(name)
            return value

        return render

    args = argparse.Namespace(format=fmt, output=None, command="eig")
    cli._emit(args, form("json", {"a": 1}), form("text", "t"), form("csv", (("a",), [(1,)])))
    assert called == [fmt]
    assert capsys.readouterr().out == {"json": '{"a": 1}\n', "csv": "a\n1\n", "text": "t\n"}[fmt]


def test_cli_csv_unsupported(capsys, a0_file):
    code, _, err = run_capture(
        capsys, ["isotropy", "gamma2", "--input", a0_file, "--format", "csv"]
    )
    assert code == 1
    assert "csv" in err


def test_cli_output_file(tmp_path, capsys, a0_file):
    dest = tmp_path / "out.json"
    code, out, _ = run_capture(
        capsys, ["eig", "--input", a0_file, "--output", str(dest)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(dest.read_text())
    np.testing.assert_allclose(payload["lambdas"], [0.0, 4.0, 4.0], atol=1e-8)


def test_cli_text_format(capsys, a0_file):
    code, out, _ = run_capture(capsys, ["eig", "--input", a0_file, "--format", "text"])
    assert code == 0
    assert "eigenvalues" in out


def test_cli_fixtures_verify(capsys):
    code, out, _ = run_capture(capsys, ["fixtures", "verify", "--format", "text"])
    assert code == 0
    assert "FAIL" not in out
    # one line per check plus the summary
    lines = out.strip().splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_cli_fixtures_verify_fails_on_a_wrong_reference(monkeypatch, capsys):
    monkeypatch.setattr(fixtures, "KERNEL_VECTOR_3", np.array([1.0, 0.0, 0.0]))
    code, out, _ = run_capture(capsys, ["fixtures", "verify", "--format", "text"])
    assert code == EXIT_VERIFY
    failed = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(failed) == 1
    assert "kernel direction at mu=0, swap-symmetric" in failed[0]


def test_kernel_flip_row_does_not_count_minus_identity(monkeypatch):
    # -I flips every vector; the sum of the three eigenvectors is flipped by
    # no other sign element, so the row must fail on it
    v = spectral.eig_sym(dynsys.guiding_matrix(0.0)).v.sum(axis=0)
    monkeypatch.setattr(fixtures, "KERNEL_VECTOR_3", v)
    rows = {r.name: r for r in verify.run_all()}
    row = rows["a sign element flips the kernel vector"]
    assert not row.passed
    assert row.measure == pytest.approx(2.0)


def test_cli_fixtures_verify_reports_a_crashing_check(monkeypatch, capsys):
    rows = len(verify.run_all())

    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(fixtures, "dihedral_hidden_gamma", broken)
    code, out, _ = run_capture(capsys, ["fixtures", "verify", "--format", "text"])
    assert code == EXIT_VERIFY
    lines = out.strip().splitlines()
    # the crash fails its own row and the rows after it still run
    assert lines[-1] == f"{rows - 1}/{rows} checks passed"
    failed = [l for l in lines if l.startswith("FAIL")]
    assert len(failed) == 1
    assert "16x16 hidden symmetry is a member" in failed[0]
    assert failed[0].endswith("(error: boom))")


def test_cli_reuses_one_parser_with_unchanged_results(monkeypatch, capsys, a0_file, tmp_path):
    def sequence(tag):
        out_file = tmp_path / f"eig-{tag}.csv"
        argvs = [
            ["eig", "--input", a0_file],
            ["eig", "--input", a0_file, "--format", "yaml"],
            ["dynsys", "equilibria", "--mu", "0.25", "--format", "text"],
            ["eig", "--input", a0_file, "--format", "csv", "--output", str(out_file)],
            ["graph", "aut"],
            ["isotropy", "sample", "--input", a0_file, "--seed", "3", "--count", "2"],
            [],
            ["eig", "--input", a0_file],
        ]
        results = [run_capture(capsys, argv) for argv in argvs]
        return results, out_file.read_text()

    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()
    shared = sequence("shared")
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = sequence("fresh")
    assert shared == fresh
    codes = [code for code, _, _ in shared[0]]
    assert codes == [0, 1, 0, 0, 1, 0, 1, 0]
    assert shared[0][7] == shared[0][0]  # nothing carries over between calls
    assert shared[0][3][1] == ""  # --output leaves stdout empty


# ------------------------------------------------ option values out of range

def run_quiet(argv):
    """``run(argv)`` with stdout and stderr captured, for tests that draw
    many examples in one test function."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def diag21_files(tmp_path_factory):
    """diag(2, 1); the swap of its two coordinates, which does not commute
    with it; a candidate with an infinite entry; and a one-edge graph."""
    root = tmp_path_factory.mktemp("diag21")
    (root / "a.txt").write_text("2 0\n0 1\n")
    (root / "swap.txt").write_text("0 1\n1 0\n")
    (root / "edge.txt").write_text("0 1\n")
    (root / "inf.txt").write_text("0 1\n1 inf\n")
    return root


bad_cluster_tols = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    max_value=0.0, exclude_max=True, allow_infinity=False
)


@settings(max_examples=30, deadline=None)
@given(tol=bad_cluster_tols)
def test_non_finite_or_negative_cluster_tol_is_an_input_error(diag21_files, tol):
    # NaN passed the old ``< 0`` test and merged every eigenvalue: diag(2, 1)
    # came out with multiplicities (2,), a claimed O(2) symmetry
    with pytest.raises(ValueError, match="cluster_tol must be finite and nonnegative"):
        spectral.eig_sym(np.diag([2.0, 1.0]), cluster_tol=tol)
    a, edge = str(diag21_files / "a.txt"), str(diag21_files / "edge.txt")
    for argv in (
        ["eig", "--input", a],
        ["isotropy", "sample", "--input", a],
        ["graph", "spectrum", "--input", edge],
    ):
        code, out, err = run_quiet(argv + [f"--cluster-tol={tol!r}"])
        assert (code, out) == (1, ""), argv
        assert f"got {tol:g}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["isotropy", "check", "--input", "A", "--candidate", "SWAP", "--tol=inf"], "tol must be finite and nonnegative, got inf"),
        (["isotropy", "check", "--input", "A", "--candidate", "SWAP", "--tol=nan"], "tol must be finite and nonnegative, got nan"),
        (["isotropy", "check", "--input", "A", "--candidate", "SWAP", "--tol=-1e-8"], "tol must be finite and nonnegative, got -1e-08"),
        (["dynsys", "integrate", "--steps", "5", "--dt=nan"], "dt must be positive and finite, got nan"),
        (["dynsys", "integrate", "--steps", "5", "--dt=inf"], "dt must be positive and finite, got inf"),
        (["stencil", "probe", *_PROBE, "--step=inf"], "step must be positive and finite, with a nonzero square, got inf"),
        (["stencil", "probe", *_PROBE, "--step=nan"], "step must be positive and finite, with a nonzero square, got nan"),
        (["isotropy", "sample", "--input", "A", "--count=-1"], "count must be nonnegative, got -1"),
        # found by test_cli_fuzz_exits_cleanly_with_strict_json
        (["stencil", "order", *_PROBE, "--step=5e-324"], "with a nonzero square, got 4.94066e-324"),
        (["stencil", "probe", *_PROBE[:4], "--h=0,0,inf"], "h must be finite, got [0.0, 0.0, inf]"),
        (["stencil", "probe", "--function", "quadratic", "--x=inf,1,1", *_PROBE[4:]], "x must be finite, got [inf, 1.0, 1.0]"),
        (["dynsys", "integrate", "--steps", "5", "--x0=nan,0,0"], "x0 must be finite, got [nan, 0.0, 0.0]"),
        (["dynsys", "sweep", "--samples", "3", "--from=-inf"], "the mu range must be finite, got -inf to 1.5"),
        (["dynsys", "sweep", "--samples", "3", "--from=-1e308", "--to=1e308"], "the mu range is wider than the float range, got -1e+308 to 1e+308"),
        (["isotropy", "check", "--input", "A", "--candidate", "INF"], "candidate entries must be finite"),
    ],
    ids=[
        "tol-inf", "tol-nan", "tol-negative", "dt-nan", "dt-inf", "step-inf", "step-nan",
        "count-negative", "step-underflow", "h-inf", "x-inf", "x0-nan", "from-inf", "range-overflow",
        "candidate-inf",
    ],
)
def test_option_out_of_range_is_an_input_error(diag21_files, argv, message):
    # before: --tol inf called the non-commuting swap a member and --tol nan
    # rejected it, both with exit 0; a NaN or infinite dt "diverged at
    # step 1" (exit 2); an infinite step hit a math domain error; and
    # count -1 printed an empty sample.  The rest raised an uncaught
    # ZeroDivisionError or a numpy RuntimeWarning, or, for x0, reported a
    # divergence (exit 2)
    files = {k: str(diag21_files / f) for k, f in (("A", "a.txt"), ("SWAP", "swap.txt"), ("INF", "inf.txt"))}
    code, out, err = run_quiet([files.get(arg, arg) for arg in argv])
    assert (code, out) == (1, "")
    assert message in err


def test_cli_graph_aut_rejects_a_negative_limit(diag21_files):
    edge = str(diag21_files / "edge.txt")
    code, out, err = run_quiet(["graph", "aut", "--input", edge, "--limit", "-1"])
    assert (code, out, err) == (1, "", "error: limit must be nonnegative, got -1\n")
    assert run_quiet(["graph", "aut", "--input", edge, "--limit", "0"])[0] == 1
    assert run_quiet(["graph", "aut", "--input", edge, "--limit", "2"])[:2] == (
        0,
        '{"automorphisms": [[0, 1], [1, 0]], "count": 2}\n',
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["stencil", "probe", "--function", "quadratic", "--x=0.1,0.2,0.3,0.4", "--h=0.1,0.1,0.1"], "--x must have 3 values, got 4"),
        (["stencil", "probe", "--function", "quadratic", "--x=0.1,0.2,0.3", "--h=0.1,0.1"], "--h must have 3 values, got 2"),
        (["stencil", "order", "--function", "trig-quartic", "--x=", "--h="], "--x must have 3 values, got 0"),
        (["dynsys", "integrate", "--steps", "5", "--x0=0.1,0.2"], "--x0 must have 3 values, got 2"),
    ],
    ids=["x-long", "h-short", "x-empty", "x0-short"],
)
def test_a_vector_of_the_wrong_length_is_an_input_error(argv, message):
    # before: a long --x was a numerical failure (exit 2) about a "point of
    # shape (4,)", and the others printed numpy's matmul, argmax or
    # broadcast errors, none of which named the flag
    assert run_quiet(argv) == (1, "", message + "\n")


def test_library_rules_reject_non_finite_values():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for tol in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            isotropy.is_member(np.diag([2.0, 1.0]), swap, tol=tol)
    for dt in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            dynsys.integrate([0.1, 0.1, 0.1], 0.0, dt=dt, steps=2)
    field = stencil.BUILTIN_FIELDS["quadratic"]
    for step in (math.inf, math.nan, -1e-3):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            stencil.hessian_fd(field, np.ones(3), step=step)


def test_json_output_refuses_non_finite_numbers(monkeypatch, capsys, a0_file):
    # RFC 8259 has no NaN or Infinity token: such a result is exit 1 with
    # nothing written, never a file that strict JSON parsers reject
    monkeypatch.setattr(isotropy, "commutator_residual", lambda a, g: math.inf)
    argv = ["isotropy", "sample", "--input", a0_file]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert "not JSON compliant" in err
    assert run_capture(capsys, argv + ["--format", "text"])[:2] == (0, "1 sampled symmetries\n")


# ------------------------------------------------------------------ fuzzing

_NUMBERS = ["0", "1", "-1", "2.5", "0.5", "3", "1e-3"]
_ODD = ["inf", "-inf", "nan", "1e400", "5e-324", "-0.0", "junk", "1,", "1.7e308", "-1.7e308", "1e300", "1e-170"]
_tokens = st.sampled_from(_NUMBERS + _ODD)


@st.composite
def _matrix_text(draw, bits=False):
    """n lines of n tokens; half the files hold plain numbers only (0/1
    with a zero diagonal for a graph), so that requests also get past
    validation.  Sometimes one line is too short."""
    n = draw(st.integers(1, 4))
    pool = ["0", "1"] if bits else _NUMBERS
    if draw(st.booleans()):
        pool = pool + _ODD
    rows = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):  # symmetric
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if bits:
            for i in range(n):
                rows[i][i] = "0"
    if n > 1 and draw(st.integers(0, 9)) == 0:
        rows[-1] = rows[-1][:-1]
    return "\n".join(" ".join(r) for r in rows) + "\n"


def _vector(draw):
    pool = st.sampled_from(_NUMBERS) if draw(st.booleans()) else _tokens
    return ",".join(draw(pool) for _ in range(3))


@st.composite
def _argv(draw):
    """One argv for each subcommand and action, with option values drawn
    from numbers, non-finite tokens and junk; file arguments name M, M2, G
    and G2, written by the test."""
    value = _tokens
    count = st.sampled_from(["-1", "0", "2", "junk"])
    fmt = ["--format", draw(st.sampled_from(["json", "text", "csv"]))]
    shape = draw(st.sampled_from([
        "eig", "isotropy gamma2", "isotropy sample", "isotropy check", "procrustes solve",
        "procrustes family", "graph spectrum", "graph aut", "graph iso", "graph hidden",
        "stencil probe", "stencil order", "dynsys equilibria", "dynsys sweep", "dynsys integrate",
    ]))
    argv = shape.split()
    command = argv[0]
    opt = lambda name, strategy: [f"--{name}={draw(strategy)}"] if draw(st.booleans()) else []  # noqa: E731
    if command in ("eig", "isotropy"):
        argv += ["--input", "M"] + opt("cluster-tol", value)
        if shape == "isotropy check":
            argv += ["--candidate", "M2"] + opt("tol", value)
        argv += opt("count", count)
    elif command == "procrustes":
        argv += ["--input-a", "M", "--input-b", "M2"] + opt("count", count)
    elif command == "graph":
        argv += ["--input-a", "G", "--input-b", "G2"] if shape == "graph iso" else ["--input", "G"]
        argv += opt("cluster-tol", value) + opt("limit", count)
    elif command == "stencil":
        argv += ["--function", draw(st.sampled_from(["quadratic", "trig-quartic", "nope"]))]
        argv += [f"--x={_vector(draw)}", f"--h={_vector(draw)}", "--levels", "3"] + opt("step", value)
    else:
        argv += opt("mu", value) + opt("from", value) + ["--samples", "3", "--steps", "5"]
        argv += opt("dt", value) + [f"--x0={_vector(draw)}"]
    return argv + fmt


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(argv=_argv(), m=_matrix_text(), m2=_matrix_text(), g=_matrix_text(bits=True), g2=_matrix_text(bits=True))
def test_cli_fuzz_exits_cleanly_with_strict_json(fuzz_dir, argv, m, m2, g, g2):
    files = {"M": m, "M2": m2, "G": g, "G2": g2}
    for name, text in files.items():
        (fuzz_dir / name).write_text(text)
    argv = [str(fuzz_dir / arg) if arg in files else arg for arg in argv]
    code, out, err = run_quiet(argv)
    assert code in (0, 1, 2, 3), err
    if code != 0:
        assert out == ""
    elif argv[-1] == "json":
        json.loads(out, parse_constant=_no_constant)
