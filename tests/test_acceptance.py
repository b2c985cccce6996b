"""Acceptance suite: one test per row of the ``fixtures verify`` check
table, then one test per acceptance criterion, each printing a pass/fail
line with the criterion number so the run log doubles as a checklist.

A criterion that a row already states asserts that row; the criteria
test here only what no row covers.  Tolerances are pinned in the rows
(``orthosym.verify``) or here, not configurable."""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from orthosym import dynsys, fixtures, verify
from orthosym.cli import run
from orthosym.graphsym import adjacency_decomposition
from orthosym.isotropy import (
    commutator_residual,
    gamma2_elements,
    is_member,
    sample_block_orthogonal,
    sample_gamma,
)
from orthosym.matio import parse_matrix
from orthosym.procrustes import cost, family_sample, solve
from orthosym.spectral import align_basis, eig_sym
from orthosym.stencil import BUILTIN_FIELDS, fourth_order_probe, hessian_fd

from helpers import (
    MASTER_SEED,
    brute_force_isomorphisms,
    format_matrix,
    haar_orthogonal,
    newton_equilibrium,
    random_symmetric,
    set_distance,
)


RESULTS = verify.run_all()
ROWS = {r.name: r for r in RESULTS}


def report(num, name, passed):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def rows_pass(*names):
    return all(ROWS[name].passed for name in names)


def test_verify_row_names_are_unique():
    assert len(ROWS) == len(RESULTS)


@pytest.mark.parametrize("name", list(ROWS))
def test_verify_row(name):
    r = ROWS[name]
    assert r.passed, f"{r.name}: {r.measure:.3e} > {r.limit:.3e} ({r.note})"


def test_criterion_01_guiding_spectrum():
    report(1, "guiding-example spectrum over 100 mu values",
           rows_pass("eigenvalue formulas over 100 mu values"))


def test_criterion_02_sign_group_matches_reference_set():
    # the aligned set against all eight references is a row; the
    # gauge-free match and the aligned elements' residuals are not
    a = np.asarray(dynsys.guiding_matrix(0.0))
    dec = eig_sym(a)
    refs = fixtures.reference_gamma_set_3()
    # gauge-independent elements must match from the raw decomposition
    raw = gamma2_elements(dec)
    gauge_free = [refs[0], refs[2], refs[4], refs[6]]  # +/-I, +/-the exact one
    ok = rows_pass("sign group matches the four-decimal reference set")
    ok = ok and all(set_distance(r, raw) <= 1e-3 for r in gauge_free)
    aligned = gamma2_elements(align_basis(dec, fixtures.REFERENCE_BASIS_3))
    for g in aligned:
        ok = ok and commutator_residual(a, g) <= 1e-8
        ok = ok and float(np.linalg.norm(g @ g - np.eye(3))) <= 1e-8
    report(2, "sign group reproduces all eight reference elements", ok)


def test_criterion_03_kernel_flip():
    report(3, "some sign element maps the kernel vector to its negative",
           rows_pass("a sign element flips the kernel vector"))


def test_criterion_04_double_eigenvalue_sampling():
    a = np.asarray(dynsys.guiding_matrix(-0.25))
    dec = eig_sym(a)
    ok = float(np.max(np.abs(dec.lambdas - np.array([-1.0, 5.0, 5.0])))) <= 1e-8
    ok = ok and dec.multiplicities == (1, 2)
    for seed in range(50):
        g = sample_gamma(dec, seed)
        ok = ok and commutator_residual(a, g) <= 1e-8
    report(4, "spectrum (-1,5,5) and 50 sampled symmetries commute", ok)


def test_criterion_05_sixteen_dimensional_family():
    # the rows cluster at the default tolerance; this criterion also holds
    # at the absolute cluster_tol=1e-8
    dec = eig_sym(fixtures.dihedral_family(0.0), cluster_tol=1e-8)
    ok = rows_pass(
        "16x16 family symmetric, generators commute",
        "16x16 multiplicities: 8 simple, 4 double",
        "16x16 hidden symmetry is a member",
    )
    ok = ok and sorted(dec.multiplicities) == [1] * 8 + [2] * 4
    report(5, "16x16 family: generators commute, 8+4 spectrum, hidden member", ok)


def test_criterion_06_procrustes_optimality_family():
    ok = True
    for pair_index in range(20):
        rng = np.random.default_rng(MASTER_SEED + 100 + pair_index)
        a = random_symmetric(rng, 6)
        q = haar_orthogonal(rng, 6)
        b = q @ a @ q.T
        sol = solve(a, b)
        ok = ok and sol.cost <= 1e-8
        sols = family_sample(a, b, seed=MASTER_SEED + pair_index, count=25)
        family_worst = max(x.cost for x in sols)
        ok = ok and all(abs(x.cost - x.lower_bound) <= 1e-7 for x in sols)
        ok = ok and family_worst <= 1e-7
        rng2 = np.random.default_rng(MASTER_SEED + 200 + pair_index)
        best_random = min(
            cost(a, b, haar_orthogonal(rng2, 6)) for _ in range(100)
        )
        ok = ok and best_random >= family_worst - 1e-7
    report(6, "procrustes family optimal on 20 similar pairs", ok)


def test_criterion_07_asymmetric_graph():
    # the row's spectrum bound is <= 0.01; this one is strict
    g = fixtures.asymmetric_graph()
    reps = np.array([rep for rep, _ in adjacency_decomposition(g).clusters])
    ok = rows_pass(
        "graph spectrum to two decimals, m=(1,1,1,2,1,1,1)",
        "graph automorphism group is trivial",
    )
    ok = ok and float(np.max(np.abs(reps - np.array(fixtures.GRAPH_EIGENVALUES_2DP)))) < 0.01
    # cross-validate against exhaustive enumeration of all 8! permutations
    ok = ok and brute_force_isomorphisms(g.adjacency, g.adjacency) == [tuple(range(8))]
    report(7, "graph spectrum, multiplicities, trivial automorphisms", ok)


def test_criterion_08_taylor_probe():
    report(8, "probe reproduces 6.40e-5 and 6.38e-9, slope near 4",
           rows_pass("probe values match the two reference magnitudes",
                     "probe decays at fourth order"))


def test_criterion_09_equilibrium_manifolds():
    expected = {
        -0.25: ("circle", "origin"),
        0.0: ("circle", "origin"),
        0.25: ("circle", "origin", "point-pair"),
        0.5: ("origin", "sphere"),
        0.75: ("circle", "origin", "point-pair"),
        1.0: ("origin", "point-pair"),
        1.25: ("origin", "point-pair"),
    }
    # the row covers four of these mu values and the sampled residuals
    ok = rows_pass("equilibrium inventories and residuals across mu")
    rng = np.random.default_rng(MASTER_SEED + 300)
    for mu, kinds in expected.items():
        eq = dynsys.equilibria(mu)
        ok = ok and eq.inventory() == kinds
        lam = eig_sym(dynsys.guiding_matrix(mu)).lambdas
        for comp in eq.components:
            if comp.kind != "origin":
                ok = ok and min(abs(comp.radius**2 - l) for l in lam) <= 1e-8
        a = np.asarray(dynsys.guiding_matrix(mu))
        for _ in range(50):
            x = newton_equilibrium(a, rng.standard_normal(3) * 1.5)
            if x is None:
                continue
            if float(np.linalg.norm(dynsys.rhs(x, mu))) <= 1e-8:
                ok = ok and min(c.distance(x) for c in eq.components) <= 1e-6
    report(9, "equilibrium inventories, radii, Newton finds nothing new", ok)


def test_criterion_10_basis_independent_membership():
    ok = True
    disagreements = 0
    for case in range(10):
        rng = np.random.default_rng(MASTER_SEED + 400 + case)
        reps = np.cumsum(0.5 + rng.random(4))
        lam = np.sort(np.concatenate([reps, reps[:2]]))  # two double eigenvalues
        q = haar_orthogonal(rng, 6)
        a = q @ np.diag(lam) @ q.T
        dec1 = eig_sym(a)
        ok = ok and sorted(dec1.multiplicities) == [1, 1, 2, 2]
        sigma = sample_block_orthogonal(dec1.multiplicities, rng)
        dec2 = dataclasses.replace(dec1, v=sigma.full() @ dec1.v)
        for k in range(100):
            source = dec1 if k % 2 == 0 else dec2
            g = sample_gamma(source, MASTER_SEED + 1000 * case + k)
            v1 = is_member(dec1, g)
            v2 = is_member(dec2, g)
            if v1 != v2:
                disagreements += 1
            ok = ok and v1 and v2
    report(10, "membership verdicts agree across rotated bases", ok and disagreements == 0)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, buf.getvalue()


def test_criterion_11_property_suite(tmp_path):
    rng = np.random.default_rng(MASTER_SEED)
    ok = True

    # closure and involution of the sign group, 500 random matrices
    for _ in range(500):
        n = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            lam = np.sort(rng.standard_normal(n) * 2.0)
        else:  # plant a degeneracy
            lam = np.sort(rng.standard_normal(n) * 2.0)
            lam[-1] = lam[0]
            lam = np.sort(lam)
        a = haar_orthogonal(rng, n) @ np.diag(lam) @ haar_orthogonal(rng, n).T
        a = (a + a.T) / 2
        els = gamma2_elements(eig_sym(a))
        k = els.shape[0]
        prods = np.einsum("aij,bjk->abik", els, els).reshape(k * k, n, n)
        dist = np.abs(prods[:, None, :, :] - els[None, :, :, :]).max(axis=(2, 3))
        ok = ok and float(dist.min(axis=1).max()) <= 1e-8
        sq = np.einsum("aij,ajk->aik", els, els) - np.eye(n)
        ok = ok and float(np.abs(sq).max()) <= 1e-8
    assert ok, "closure/involution failed"

    # determinism and trace preservation, 500 matrices
    for _ in range(500):
        n = int(rng.integers(2, 11))
        a = random_symmetric(rng, n)
        d1, d2 = eig_sym(a), eig_sym(a.copy())
        ok = ok and d1.lambdas.tobytes() == d2.lambdas.tobytes()
        ok = ok and d1.v.tobytes() == d2.v.tobytes()
        ok = ok and abs(d1.lambdas.sum() - np.trace(a)) <= 1e-9 * max(1.0, np.linalg.norm(a))
    assert ok, "determinism/trace failed"

    # probe antisymmetry, 500 random probes (exact sign flip)
    f = BUILTIN_FIELDS["trig-quartic"]
    for _ in range(500):
        x = np.array([1.0, 1.0, 1.0]) + 0.3 * rng.standard_normal(3)
        h = 0.2 * rng.standard_normal(3)
        hess = hessian_fd(f, x)
        dec = eig_sym(hess)
        u = dec.v[int(rng.integers(0, 3))]
        g2 = np.eye(3) - 2.0 * np.outer(u, u)
        va = fourth_order_probe(f, x, np.eye(3), g2, h, hessian=hess)
        vb = fourth_order_probe(f, x, g2, np.eye(3), h, hessian=hess)
        ok = ok and va == -vb
    assert ok, "probe antisymmetry failed"

    # matrix text round-trip, 500 matrices
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = random_symmetric(rng, n)
        ok = ok and parse_matrix(io.StringIO(format_matrix(a))).tobytes() == a.tobytes()
    assert ok, "round-trip failed"

    # CLI seed determinism, 500 paired runs
    mat_file = tmp_path / "m.txt"
    mat_file.write_text(format_matrix(np.asarray(dynsys.guiding_matrix(-0.25))))
    for case in range(250):
        argv = [
            "isotropy", "sample", "--input", str(mat_file),
            "--seed", str(case), "--count", "2",
        ]
        c1, o1 = _cli(argv)
        c2, o2 = _cli(argv)
        ok = ok and c1 == 0 and c2 == 0 and o1 == o2
        payload = json.loads(o1)
        ok = ok and all(
            e["commutator_residual"] <= 1e-8 for e in payload["elements"]
        )
    report(11, "property suite (closure, involution, determinism, trace, "
               "antisymmetry, round-trip, CLI seed stability)", ok)
