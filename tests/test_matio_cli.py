import io
import json

import numpy as np
import pytest

from orthosym import cli, dynsys, fixtures, spectral, stencil, verify
from orthosym.cli import EXIT_VERIFY, run
from orthosym.errors import InputFormatError
from orthosym.isotropy import commutator_residual
from orthosym.matio import (
    format_matrix,
    parse_graph,
    parse_matrix,
    parse_matrix_text,
)

from helpers import MASTER_SEED, random_symmetric


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------- matio

def test_parse_identity():
    np.testing.assert_array_equal(parse_matrix_text("1 0\n0 1"), np.eye(2))


def test_parse_commas_and_comments():
    text = "# a comment\n1, 0\n0, 1\n"
    np.testing.assert_array_equal(parse_matrix_text(text), np.eye(2))


def test_parse_ragged_row_names_line():
    with pytest.raises(InputFormatError) as err:
        parse_matrix_text("1 2 3\n4 5 6\n7 8")
    assert "row 3" in str(err.value)


def test_parse_non_numeric_reports_line():
    with pytest.raises(InputFormatError) as err:
        parse_matrix_text("1 2\n3 four")
    assert err.value.line == 2


def test_parse_empty():
    with pytest.raises(InputFormatError):
        parse_matrix_text("# only a comment\n")


def test_roundtrip_exact():
    rng = np.random.default_rng(MASTER_SEED + 60)
    a = random_symmetric(rng, 5)
    b = parse_matrix_text(format_matrix(a))
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
    calls = []
    eig_sym = spectral.eig_sym

    def counted(*args, **kwargs):
        calls.append(args)
        return eig_sym(*args, **kwargs)

    for module in (spectral, dynsys, stencil):
        monkeypatch.setattr(module, "eig_sym", counted)
    code, _, _ = run_capture(capsys, argv)
    assert code == 0
    assert len(calls) == decompositions


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


def test_cli_isotropy_sample_rejects_merged_eigenspaces(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1 0\n0 1.2\n")
    code, out, err = run_capture(
        capsys, ["isotropy", "sample", "--input", str(path), "--cluster-tol", "0.5"]
    )
    assert code == 1
    assert out == ""
    assert "fails to commute" in err


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
