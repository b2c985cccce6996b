"""Self-check suite for the bundled reference data.

Every reference value shipped with the package (guiding-system spectra and
symmetries, the 16x16 dihedral family, the asymmetric graph, the probe
field) is recomputed and compared at its stated tolerance.  The CLI exposes
this as ``orthosym fixtures verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynsys, fixtures, graphsym, isotropy, spectral, stencil


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measure: float
    limit: float
    note: str = ""


def _set_distance(target: np.ndarray, elements) -> float:
    return min(float(np.max(np.abs(g - target))) for g in elements)


PROBE_POINT = np.array([1.0, 1.0, 1.0])
PROBE_POINT.setflags(write=False)


def matched_reflection(hess) -> np.ndarray:
    """The reflection across the Hessian eigenvector singled out by the
    four-decimal reference matrix: exactly one of the reflections
    I - 2 u u^T of the eigenvectors u of ``hess`` must lie within 1e-3
    (max entry) of it.
    """
    dec = spectral.eig_sym(hess)
    matches = [
        g
        for g in (np.eye(3) - 2.0 * np.outer(u, u) for u in dec.v)
        if float(np.max(np.abs(g - fixtures.REFERENCE_PROBE_REFLECTION))) <= 1e-3
    ]
    if len(matches) != 1:
        raise ValueError(f"{len(matches)} reflections match the reference")
    return matches[0]


def _checks():
    sq2 = math.sqrt(2.0)

    def guiding_entries_mu0():
        a = dynsys.guiding_matrix(0.0)
        expected = np.array([[2, -sq2, -sq2], [-sq2, 3, -1], [-sq2, -1, 3]])
        return float(np.max(np.abs(a - expected))), 0.0

    yield "guiding matrix entries at mu=0", guiding_entries_mu0, "max entry diff"

    def guiding_entries_mu_neg():
        a = dynsys.guiding_matrix(-0.25)
        c = -3.0 / sq2  # equals sqrt(2)*(2 mu - 1) up to one rounding step
        expected = np.array([[2, c, c], [c, 3.5, -1.5], [c, -1.5, 3.5]])
        return float(np.max(np.abs(a - expected))), 1e-12

    yield "guiding matrix entries at mu=-0.25", guiding_entries_mu_neg, "max entry diff"

    def spectrum_mu0():
        lam = spectral.eig_sym(dynsys.guiding_matrix(0.0)).lambdas
        return float(np.max(np.abs(lam - np.array([0.0, 4.0, 4.0])))), 1e-8

    yield "spectrum (0, 4, 4) at mu=0", spectrum_mu0, "max eigenvalue diff"

    def spectrum_mu_neg():
        dec = spectral.eig_sym(dynsys.guiding_matrix(-0.25))
        diff = float(np.max(np.abs(dec.lambdas - np.array([-1.0, 5.0, 5.0]))))
        if dec.multiplicities != (1, 2):
            return math.inf, 1e-8
        return diff, 1e-8

    yield "spectrum (-1, 5, 5) with m=(1,2) at mu=-0.25", spectrum_mu_neg, "max eigenvalue diff"

    def spectrum_mu_half():
        lam = spectral.eig_sym(dynsys.guiding_matrix(0.5)).lambdas
        return float(np.max(np.abs(lam - 2.0))), 1e-8

    yield "threefold eigenvalue 2 at mu=0.5", spectrum_mu_half, "max eigenvalue diff"

    def formula_grid():
        grid = np.linspace(-1.0, 2.0, 100).tolist()
        decs = spectral.eig_stack([dynsys.guiding_matrix(mu) for mu in grid])
        worst = 0.0
        for mu, dec in zip(grid, decs):
            l1, l2 = dynsys.spectrum_formula(mu)
            expected = np.sort(np.array([l1, l2, l2]))
            worst = max(worst, float(np.max(np.abs(dec.lambdas - expected))))
        return worst, 1e-8

    yield "eigenvalue formulas over 100 mu values", formula_grid, "max eigenvalue diff"

    def swap_commutes():
        worst = 0.0
        for mu in np.linspace(-1.0, 2.0, 25):
            a = dynsys.guiding_matrix(float(mu))
            worst = max(worst, isotropy.commutator_residual(a, dynsys.SWAP_23))
        dec0 = spectral.eig_sym(dynsys.guiding_matrix(0.0))
        if not isotropy.is_member(dec0, dynsys.SWAP_23, tol=1e-8):
            return math.inf, 1e-14
        return worst, 1e-14

    yield "coordinate swap commutes for all mu", swap_commutes, "max commutator norm"

    def kernel_direction():
        dec = spectral.eig_sym(dynsys.guiding_matrix(0.0))
        v = dec.v[0]
        ref = fixtures.KERNEL_VECTOR_3
        aligned = min(
            float(np.linalg.norm(v - ref)), float(np.linalg.norm(v + ref))
        )
        sv = float(np.linalg.norm(dynsys.SWAP_23 @ ref - ref))
        return max(aligned, sv), 1e-6

    yield "kernel direction at mu=0, swap-symmetric", kernel_direction, "max vector diff"

    def gamma_set_matches():
        dec = spectral.eig_sym(dynsys.guiding_matrix(0.0))
        dec = spectral.align_basis(dec, fixtures.REFERENCE_BASIS_3)
        ours = isotropy.gamma2_elements(dec)
        worst = max(
            _set_distance(ref, ours) for ref in fixtures.reference_gamma_set_3()
        )
        return worst, 1e-3

    yield "sign group matches the four-decimal reference set", gamma_set_matches, "worst set distance"

    def gamma_set_residuals():
        a = dynsys.guiding_matrix(0.0)
        dec = spectral.eig_sym(a)
        worst = 0.0
        for g in isotropy.gamma2_elements(dec):
            worst = max(worst, isotropy.commutator_residual(a, g))
            worst = max(worst, float(np.linalg.norm(g @ g - np.eye(3))))
        return worst, 1e-8

    yield "sign group commutes and squares to identity", gamma_set_residuals, "worst residual"

    def kernel_flip():
        dec = spectral.eig_sym(dynsys.guiding_matrix(0.0))
        v = fixtures.KERNEL_VECTOR_3
        # the first and last elements are +I and -I; -I flips every vector
        best = min(
            float(np.linalg.norm(g @ v + v))
            for g in isotropy.gamma2_elements(dec)[1:-1]
        )
        return best, 1e-6

    yield "a sign element flips the kernel vector", kernel_flip, "min ||gamma v + v||"

    def one_dimensional():
        dec = spectral.eig_sym(np.array([[7.0]]))
        got = sorted(float(g[0, 0]) for g in isotropy.gamma2_elements(dec))
        return float(np.max(np.abs(np.array(got) - np.array([-1.0, 1.0])))), 0.0

    yield "one-dimensional sign group is {+1, -1}", one_dimensional, "max diff"

    def rotation_member():
        a = dynsys.guiding_matrix(-0.25)
        dec = spectral.eig_sym(a)
        r = fixtures.REFERENCE_ROTATION_3
        if not isotropy.is_member(dec, r, tol=1e-3):
            return math.inf, 1e-3
        return isotropy.commutator_residual(a, r), 1e-3

    yield "reference rotation commutes at mu=-0.25", rotation_member, "commutator norm"

    def family16():
        a = fixtures.dihedral_family(0.0)
        r = fixtures.dihedral_rotation()
        s = fixtures.dihedral_reflection()
        worst = float(np.linalg.norm(a - a.T))
        worst = max(worst, isotropy.commutator_residual(a, r))
        worst = max(worst, isotropy.commutator_residual(a, s))
        return worst, 1e-10

    yield "16x16 family symmetric, generators commute", family16, "worst residual"

    def family16_multiplicities():
        dec = spectral.eig_sym(fixtures.dihedral_family(0.0))
        m = dec.multiplicities
        ok = (
            m == fixtures.DIHEDRAL_MULTIPLICITIES
            and sorted(m).count(1) == 8
            and sorted(m).count(2) == 4
        )
        return (0.0 if ok else math.inf), 0.0

    yield "16x16 multiplicities: 8 simple, 4 double", family16_multiplicities, "structure match"

    def family16_hidden():
        a = fixtures.dihedral_family(0.0)
        g = fixtures.dihedral_hidden_gamma()
        if not isotropy.is_member(spectral.eig_sym(a), g, tol=1e-8):
            return math.inf, 1e-8
        return isotropy.commutator_residual(a, g), 1e-8

    yield "16x16 hidden symmetry is a member", family16_hidden, "commutator norm"

    def sigma_fixtures():
        # off-block entries must vanish; blocks must be orthogonal within the
        # precision each matrix is stated to (exact vs four decimals)
        m = fixtures.DIHEDRAL_MULTIPLICITIES
        worst_ratio = 0.0
        for mat, tol in (
            (fixtures.dihedral_sigma_rotation(), 1e-12),
            (fixtures.dihedral_hidden_sigma(), 1e-12),
            (np.asarray(fixtures.SIGMA_REFLECTION_16), 1e-3),
        ):
            mask = np.ones_like(mat, dtype=bool)
            start = 0
            for size in m:
                blk = mat[start : start + size, start : start + size]
                err = isotropy.orthogonality_residual(blk)
                worst_ratio = max(worst_ratio, err / tol)
                mask[start : start + size, start : start + size] = False
                start += size
            off_block = float(np.max(np.abs(mat[mask])))
            worst_ratio = max(worst_ratio, math.inf if off_block > 0.0 else 0.0)
        return worst_ratio, 1.0

    yield "block coordinates have the right block structure", sigma_fixtures, "worst error ratio"

    def graph_spectrum():
        dec = graphsym.adjacency_decomposition(fixtures.asymmetric_graph())
        reps = [rep for rep, _ in dec.clusters]
        ref = fixtures.GRAPH_EIGENVALUES_2DP
        if dec.multiplicities != (1, 1, 1, 2, 1, 1, 1):
            return math.inf, 0.01
        return float(np.max(np.abs(np.array(reps) - np.array(ref)))), 0.01

    yield "graph spectrum to two decimals, m=(1,1,1,2,1,1,1)", graph_spectrum, "max eigenvalue diff"

    def graph_asymmetric():
        auts = graphsym.automorphisms(fixtures.asymmetric_graph())
        ok = np.array_equal(auts, [np.arange(8)])
        return (0.0 if ok else math.inf), 0.0

    yield "graph automorphism group is trivial", graph_asymmetric, "identity only"

    def graph_hidden():
        g = np.asarray(fixtures.GRAPH_HIDDEN_GAMMA)
        a = fixtures.asymmetric_graph().adjacency.astype(float)
        worst = isotropy.commutator_residual(a, g)
        worst = max(worst, isotropy.orthogonality_residual(g))
        if graphsym.is_permutation(g) is not None:
            return math.inf, 1e-8
        return worst, 1e-8

    yield "graph hidden symmetry commutes, not a permutation", graph_hidden, "worst residual"

    def graph_isospectral_pair():
        p3 = graphsym.Graph.from_edges([(0, 1), (1, 2)])
        star = graphsym.Graph.from_edges([(0, 1), (0, 2)])
        if not spectral.isospectral(
            p3.adjacency.astype(float), star.adjacency.astype(float), tol=1e-8
        ):
            return math.inf, 1e-8
        lam = spectral.eig_sym(p3.adjacency.astype(float)).lambdas
        expected = np.array([-sq2, 0.0, sq2])
        return float(np.max(np.abs(lam - expected))), 1e-8

    yield "path and star graphs are isospectral", graph_isospectral_pair, "max eigenvalue diff"

    def probe_hessian():
        f = stencil.BUILTIN_FIELDS["trig-quartic"]
        h = stencil.hessian_fd(f, PROBE_POINT)
        return float(np.max(np.abs(h - fixtures.probe_hessian_analytic()))), 1e-5

    yield "finite-difference Hessian matches closed form", probe_hessian, "max entry diff"

    def probe_reflection():
        g = matched_reflection(fixtures.probe_hessian_analytic())
        return float(np.max(np.abs(g - fixtures.REFERENCE_PROBE_REFLECTION))), 1e-3

    yield "exactly one eigenvector reflection matches the reference", probe_reflection, "matched distance"

    def _probe_inputs():
        f = stencil.BUILTIN_FIELDS["trig-quartic"]
        hess = stencil.hessian_fd(f, PROBE_POINT)
        return f, PROBE_POINT, hess, matched_reflection(hess)

    def probe_values():
        f, x, hess, g2 = _probe_inputs()
        worst = 0.0
        for h, expected in (
            (fixtures.REFERENCE_PROBE_H, fixtures.REFERENCE_PROBE_VALUES[0]),
            (fixtures.REFERENCE_PROBE_H / 10.0, fixtures.REFERENCE_PROBE_VALUES[1]),
        ):
            value = stencil.fourth_order_probe(f, x, np.eye(3), g2, h, hessian=hess)
            worst = max(worst, abs(value - expected) / expected)
        return worst, 0.02

    yield "probe values match the two reference magnitudes", probe_values, "relative error"

    def probe_slope():
        f, x, hess, g2 = _probe_inputs()
        _, slope = stencil.probe_ladder(
            f, x, np.eye(3), g2, fixtures.REFERENCE_PROBE_H, hessian=hess, levels=5
        )
        return abs(slope - 4.0), 0.2

    yield "probe decays at fourth order", probe_slope, "|slope - 4|"

    def equilibrium_inventories():
        expected = {
            -0.25: ("circle", "origin"),
            0.25: ("circle", "origin", "point-pair"),
            0.5: ("origin", "sphere"),
            1.25: ("origin", "point-pair"),
        }
        for mu, kinds in expected.items():
            eq = dynsys.equilibria(mu)
            if eq.inventory() != kinds:
                return math.inf, 1e-8
        worst = 0.0
        for mu in expected:
            eq = dynsys.equilibria(mu)
            for pt in eq.sample_points(8):
                worst = max(worst, float(np.linalg.norm(dynsys.rhs(pt, mu))))
        return worst, 1e-8

    yield "equilibrium inventories and residuals across mu", equilibrium_inventories, "worst residual"


def run_all() -> list[CheckResult]:
    results = []
    for name, fn, note in _checks():
        try:
            measure, limit = fn()
            passed = measure <= limit
        except Exception as exc:  # a crash in a check is a failure, not an abort
            measure, limit, passed = math.inf, 0.0, False
            note = f"{note} (error: {exc})"
        results.append(
            CheckResult(name=name, passed=passed, measure=measure, limit=limit, note=note)
        )
    return results


def render_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<{width}}  {r.measure:.3e} <= {r.limit:.3e}  ({r.note})"
        )
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines)
