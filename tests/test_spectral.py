import dataclasses
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthosym import dynsys, fixtures, graphsym, procrustes, spectral, stencil
from orthosym.cli import EXIT_NUMERICAL, run
from orthosym.errors import ConvergenceError, DimensionError, SymmetryError
from orthosym.spectral import (
    SymMatrix,
    _fix_signs,
    align_basis,
    as_sym,
    check_symmetric,
    eig_stack,
    eig_sym,
    isospectral,
)

from helpers import (
    MASTER_SEED,
    haar_orthogonal,
    planted_matrix,
    random_symmetric,
    subprocess_env,
    symmetric_matrices,
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymMatrix(np.eye(3)),
        lambda: eig_sym(np.diag([1.0, 1.0, 2.0])),
        lambda: procrustes.solve(np.diag([1.0, 2.0]), np.diag([2.0, 1.0])),
        lambda: graphsym.Graph(np.array([[0, 1], [1, 0]])),
        lambda: dynsys.equilibria(0.25),
        lambda: dynsys.equilibria(0.25).components[-1],
    ],
    ids=["SymMatrix", "SpectralDecomposition", "ProcrustesSolution", "Graph", "EquilibriumSet", "Component"],
)
def test_results_holding_arrays_compare_and_hash_by_identity(make):
    # before: == raised "The truth value of an array ... is ambiguous"
    x = make()
    y = dataclasses.replace(x)
    assert x is not y and (x == y) is False and (x != y) is True
    assert x == x and hash(x) == hash(x) and len({x, y}) == 2


def test_check_symmetric_identity():
    assert check_symmetric(np.eye(3))


def test_check_symmetric_strictly_triangular():
    assert not check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_check_symmetric_guiding_matrix():
    assert check_symmetric(dynsys.guiding_matrix(0.0))


def test_check_symmetric_rejects_nonsquare():
    with pytest.raises(DimensionError):
        check_symmetric(np.zeros((2, 3)))


def test_sym_matrix_rejects_asymmetry():
    with pytest.raises(SymmetryError):
        SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_matrix_is_readonly():
    m = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_sym_matrix_array_is_a_writable_copy():
    m = SymMatrix(np.eye(2))
    copy = np.array(m)
    assert copy.flags.writeable and not np.shares_memory(copy, m.entries)
    copy[0, 0] = 5.0
    assert m.entries[0, 0] == 1.0


def test_sym_matrix_asarray_shares_the_entries():
    m = SymMatrix(np.eye(2))
    assert np.asarray(m, dtype=float) is m.entries
    assert np.asarray(m) is m.entries
    single = np.asarray(m, dtype=np.float32)
    assert single.dtype == np.float32 and not np.shares_memory(single, m.entries)
    with pytest.raises(ValueError):
        np.asarray(m, dtype=np.float32, copy=False)


def _stored(m):
    return isinstance(m, np.ndarray) and m.dtype == np.float64 and not m.flags.writeable


def test_as_sym_and_the_producers_return_stored_matrices():
    field = stencil.BUILTIN_FIELDS["trig-quartic"]
    for m in (
        as_sym([[1, 2], [2, 1]]),
        dynsys.guiding_matrix(0.3),
        fixtures.dihedral_family(0.2),
        stencil.hessian_fd(field, np.ones(3)),
    ):
        assert _stored(m)
    a = np.eye(2)
    m = as_sym(a)
    # the caller's array is copied, never frozen; a stored matrix is kept
    assert a.flags.writeable and not np.shares_memory(a, m)
    assert as_sym(m) is m and SymMatrix(m).entries is m
    wrapped = SymMatrix(a)
    assert as_sym(wrapped) is wrapped.entries


def test_as_sym_raises_what_sym_matrix_raises():
    eig_sym(np.eye(2))
    stored = spectral._decompose.cache_info().currsize
    for bad, error in (
        (np.zeros((2, 3)), DimensionError),
        ([[np.nan, 0.0], [0.0, 1.0]], ValueError),
        ([[np.inf, 0.0], [0.0, 1.0]], ValueError),
        ([[1.0, 2.0], [0.0, 1.0]], SymmetryError),
    ):
        for make in (as_sym, SymMatrix):
            with pytest.raises(error) as want:
                make(bad)
        # eig_sym checks a matrix its memo has not seen, and never stores
        # an error: a second call raises the same again
        for _ in range(2):
            with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
                eig_sym(bad)
        assert spectral._decompose.cache_info().currsize == stored
    near = [[1.0, 1e-12], [0.0, 1.0]]  # symmetric within symtol
    np.testing.assert_allclose(eig_sym(near).lambdas, [1.0 - 5e-13, 1.0 + 5e-13], rtol=0, atol=1e-15)
    assert spectral._decompose.cache_info().currsize == stored + 1


def test_decomposition_id_does_not_depend_on_the_input_type():
    # a decomposition is identified by the bytes of V and lambdas
    a = random_symmetric(np.random.default_rng(MASTER_SEED + 71), 6)
    ids = set()
    for x in (a, a.tolist(), SymMatrix(a), as_sym(a)):
        # a remembered decomposition would be the first call's object
        spectral._decompose.cache_clear()
        dec = eig_sym(x)
        ids.add((dec.v.tobytes(), dec.lambdas.tobytes()))
    assert len(ids) == 1


def test_eig_guiding_mu0():
    dec = eig_sym(dynsys.guiding_matrix(0.0))
    np.testing.assert_allclose(dec.lambdas, [0.0, 4.0, 4.0], atol=1e-8)
    assert dec.multiplicities == (1, 2)


def test_eig_guiding_mu_neg025():
    dec = eig_sym(dynsys.guiding_matrix(-0.25))
    np.testing.assert_allclose(dec.lambdas, [-1.0, 5.0, 5.0], atol=1e-8)
    assert dec.multiplicities == (1, 2)


def test_eig_scalar():
    dec = eig_sym(np.array([[7.0]]))
    assert dec.lambdas.tolist() == [7.0]
    assert dec.v.tolist() == [[1.0]]
    assert dec.multiplicities == (1,)


def test_eig_empty_matrix():
    # before: numpy's "attempt to get argmax of an empty sequence"
    dec = eig_sym(np.zeros((0, 0)))
    assert dec.n == 0 and dec.clusters == () and dec.borderline == ()
    assert dec.lambdas.shape == (0,) and dec.v.shape == (0, 0)
    assert dec.reconstruct().shape == (0, 0)
    assert isospectral(np.zeros((0, 0)), np.zeros((0, 0)), 0.0)


def test_eig_reconstruction_random_8x8():
    rng = np.random.default_rng(MASTER_SEED)
    a = random_symmetric(rng, 8)
    dec = eig_sym(a)
    residual = np.linalg.norm(dec.v @ a @ dec.v.T - np.diag(dec.lambdas))
    assert residual <= 1e-9 * np.linalg.norm(a)


@pytest.mark.parametrize(
    "lambdas,tol,expected",
    [
        ((0.0, 4.0, 4.0), 1e-8, (1, 2)),
        ((1.0, 2.0, 3.0), 1e-8, (1, 1, 1)),
        ((5.0, 5.0 + 1e-12, 5.0 + 2e-12), 1e-8, (3,)),
    ],
)
def test_cluster_examples(lambdas, tol, expected):
    assert eig_sym(np.diag(lambdas), cluster_tol=tol).multiplicities == expected


def test_cluster_rejects_negative_tol():
    with pytest.raises(ValueError):
        eig_sym(np.diag([1.0, 2.0]), cluster_tol=-1e-8)


def test_residuals_on_random_matrices():
    # type invariants over a large randomized sample, sizes 2..16
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        a = random_symmetric(rng, n)
        dec = eig_sym(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(dec.v @ dec.v.T - np.eye(n)) <= 1e-10 * n
        assert (
            np.linalg.norm(dec.v @ a @ dec.v.T - np.diag(dec.lambdas))
            <= 1e-9 * scale
        )
        assert np.all(np.diff(dec.lambdas) >= 0)
        assert sum(dec.multiplicities) == n


def test_determinism_bit_identical():
    rng = np.random.default_rng(MASTER_SEED + 2)
    a = random_symmetric(rng, 7)
    d1 = eig_sym(a)
    # solved again by LAPACK, not returned from the memo
    spectral._decompose.cache_clear()
    d2 = eig_sym(a.copy())
    assert d2 is not d1
    assert d1.lambdas.tobytes() == d2.lambdas.tobytes()
    assert d1.v.tobytes() == d2.v.tobytes()


def test_trace_preservation():
    rng = np.random.default_rng(MASTER_SEED + 3)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = random_symmetric(rng, n)
        lam = eig_sym(a).lambdas
        assert abs(lam.sum() - np.trace(a)) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_planted_multiplicities_recovered():
    rng = np.random.default_rng(MASTER_SEED + 4)
    reps = [1.0, 1.0, 2.5, 4.0, 4.0, 4.0, 9.0]
    a, _ = planted_matrix(rng, reps)
    assert eig_sym(a).multiplicities == (2, 1, 3, 1)


def test_borderline_gap_is_flagged():
    # gap of 3*tol sits in the ambiguous band (tol, 10*tol]
    tol = 1e-8
    a = np.diag([1.0, 1.0 + 3e-8, 2.0])
    dec = eig_sym(a, cluster_tol=tol)
    assert dec.multiplicities == (1, 1, 1)
    assert 0 in dec.borderline


def test_split_below_the_solver_resolution_is_flagged():
    # three eigenvalues near 1 and two near 3, planted a few ulps apart
    # (gaps of 2, 2 and 4 eps) in a permuted diagonal, whose eigenvalues
    # the solver returns exactly under the SkylakeX, Haswell, Zen,
    # Sandybridge and Prescott OpenBLAS kernels; at cluster_tol 0 each of those
    # splits is below the resolution and must be reported, not taken as
    # six simple eigenvalues
    eps = np.finfo(float).eps
    p = np.eye(6)[[3, 0, 5, 1, 4, 2]]
    a = p @ np.diag([1.0, 1.0 + 2 * eps, 1.0 + 4 * eps, 2.0, 3.0, 3.0 + 4 * eps]) @ p.T
    dec = eig_sym(a, 0.0)
    assert dec.multiplicities == (1, 1, 1, 1, 1, 1)
    assert dec.borderline == (0, 1, 4)
    # the default tolerance merges them, and nothing is borderline
    assert eig_sym(a).multiplicities == (3, 1, 2) and eig_sym(a).borderline == ()


@settings(max_examples=300, deadline=None)
@given(
    reps=st.lists(st.sampled_from([-2.0, -0.5, 1.0, 3.0]), min_size=2, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.integers(-60, 60),
    frac=st.floats(0.0, 1.0),
)
def test_rotated_repeats_are_merged_or_flagged_at_any_tol_up_to_the_resolution(
    reps, seed, scale, frac
):
    # eigenvalues planted with repeats in a Haar basis, at a scale of 2^scale,
    # and a cluster_tol anywhere in [0, r]: every gap inside a planted
    # cluster is merged or listed as borderline, never split silently
    a, lam = planted_matrix(np.random.default_rng(seed), reps)
    a = np.ldexp((a + a.T) / 2.0, scale)
    n = len(lam)
    res = spectral.RESOLUTION * n * np.finfo(float).eps * float(np.ldexp(np.abs(lam).max(), scale))
    dec = eig_sym(a, frac * res)
    starts = {sl.start for sl in dec.cluster_slices()}
    for i in range(n - 1):
        if lam[i] == lam[i + 1]:
            assert i + 1 not in starts or i in dec.borderline


def test_sign_convention():
    rng = np.random.default_rng(MASTER_SEED + 5)
    a = random_symmetric(rng, 6)
    dec = eig_sym(a)
    for row in dec.v:
        k = int(np.argmax(np.abs(row)))
        assert row[k] > 0


def test_align_basis_reproduces_reference():
    dec = eig_sym(dynsys.guiding_matrix(0.0))
    aligned = align_basis(dec, fixtures.REFERENCE_BASIS_3)
    assert np.max(np.abs(aligned.v - fixtures.REFERENCE_BASIS_3)) <= 1e-3
    # still an exact decomposition of the same matrix
    a = np.asarray(dynsys.guiding_matrix(0.0))
    assert (
        np.linalg.norm(aligned.v @ a @ aligned.v.T - np.diag(aligned.lambdas))
        <= 1e-9
    )


def test_align_basis_shape_mismatch():
    dec = eig_sym(np.eye(2))
    with pytest.raises(DimensionError):
        align_basis(dec, np.eye(3))


def test_eig_on_rotated_degenerate_basis_same_spectrum():
    rng = np.random.default_rng(MASTER_SEED + 6)
    a, lam = planted_matrix(rng, [2.0, 2.0, 5.0])
    dec = eig_sym(a)
    np.testing.assert_allclose(dec.lambdas, lam, atol=1e-9)
    q = haar_orthogonal(rng, 3)
    dec2 = eig_sym(q @ a @ q.T)
    np.testing.assert_allclose(dec2.lambdas, lam, atol=1e-9)


# ---------------------------------------------------- scale and the solver

def test_check_symmetric_sees_asymmetry_past_norm_overflow():
    a = np.array([[0.0, 1e200], [0.0, 0.0]])
    assert not check_symmetric(a)
    with pytest.raises(SymmetryError):
        SymMatrix(a)


def test_check_symmetric_extreme_scales_without_warnings(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_symmetric(1e200 * np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert check_symmetric(np.zeros((3, 3)))
        # at a zero tolerance a subnormal asymmetry must still be seen
        monkeypatch.setattr(spectral, "DEFAULT_SYMTOL", 0.0)
        assert check_symmetric(np.array([[5e-324]]))
        assert not check_symmetric(np.array([[0.0, 5e-324], [0.0, 0.0]]))


@pytest.mark.parametrize("s", [1e-200, 1e160, 1e200])
def test_eig_at_extreme_scales(s):
    dec = eig_sym(s * np.array([[1.0, 2.0], [2.0, 1.0]]))
    np.testing.assert_allclose(dec.lambdas / s, [-1.0, 3.0], rtol=1e-12)


def test_eig_of_entries_near_the_float_maximum():
    dec = eig_sym(np.diag([1.7e308, 1.0]))
    assert dec.lambdas.tolist() == [1.0, 1.7e308]
    assert dec.multiplicities == (1, 1)
    # a repeated eigenvalue's mean is taken of the scaled eigenvalues; the
    # sum of the unscaled ones overflowed
    assert eig_sym(np.diag([1.7e308, 1.7e308])).clusters == ((1.7e308, 2),)


def test_eig_symmetrises_entries_near_the_float_maximum():
    # within the symmetry tolerance; A + A^T is not finite, but the mean,
    # taken after the scaling, is 1.7e308
    a = np.array([[0.0, 1.7e308], [np.nextafter(1.7e308, 0.0), 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = eig_sym(a)
    assert dec.lambdas.tolist() == [-1.7e308, 1.7e308]
    assert dec.multiplicities == (1, 1)


def test_eig_rejects_an_eigenvalue_that_overflows():
    # every entry is finite, but the eigenvalue 3.4e308 is not
    with pytest.raises(ValueError, match="eigenvalue overflows"):
        eig_sym(np.full((2, 2), 1.7e308))


def test_eig_splits_at_a_gap_that_overflows():
    # the gap between -1.7e308 and 1.7e308 is inf, a correct split, and
    # must not warn
    dec = eig_sym(np.diag([1.7e308, -1.7e308]))
    assert dec.lambdas.tolist() == [-1.7e308, 1.7e308]
    assert dec.multiplicities == (1, 1)


def test_skipped_symmetrisation_keeps_every_bit():
    # an exactly symmetric matrix is decomposed as it is; a copy whose upper
    # and lower entries differ by one ulp each way is symmetrised first, to
    # the same matrix, and must give the same decomposition
    rng = np.random.default_rng(MASTER_SEED + 70)
    for k in (-1070, -1000, -30, 0, 30, 1000):
        for n in (2, 3, 5, 8):
            a = np.ldexp(random_symmetric(rng, n), k)
            b = a.copy()
            i, j = 0, n - 1
            b[i, j] = np.nextafter(a[i, j], np.inf)
            b[j, i] = 2.0 * a[i, j] - b[i, j]
            assert ((b + b.T) / 2.0).tobytes() == a.tobytes()
            da, db = eig_sym(a), eig_sym(b)
            assert da.v.tobytes() == db.v.tobytes()
            assert da.lambdas.tobytes() == db.lambdas.tobytes()


@settings(max_examples=200, deadline=None)
@given(a=symmetric_matrices(), k=st.integers(-600, 600))
@example(a=np.diag([1.0, 2.0]), k=-30)
def test_eig_commutes_with_power_of_two_scaling(a, k):
    n = a.shape[0]
    base = eig_sym(a)
    dec = eig_sym(np.ldexp(a, k))
    # dividing by 2^k is exact, so residual and orthogonality are measured
    # at the scale of ``a`` itself
    lam = np.ldexp(dec.lambdas, -k)
    tol = 1e-12 * n * max(1.0, float(np.max(np.abs(a))))
    np.testing.assert_allclose(lam, base.lambdas, rtol=0.0, atol=tol)
    assert np.linalg.norm(dec.v @ a @ dec.v.T - np.diag(lam)) <= tol
    assert np.linalg.norm(dec.v @ dec.v.T - np.eye(n)) <= 1e-12 * n
    # the default cluster tolerance is relative, so the clusters must not
    # depend on k, except where a gap is near the tolerance or scaling by
    # 2^k pushes a nonzero entry or eigenvalue out of the normal range
    # (there it is no longer exact)
    def denormalised(x):
        x = np.abs(x[x != 0])
        return bool(np.any(np.ldexp(x, k) < np.finfo(float).tiny))

    if not (
        base.borderline
        or dec.borderline
        or denormalised(a)
        or denormalised(base.lambdas)
    ):
        assert dec.multiplicities == base.multiplicities


def test_solver_failure_is_a_convergence_error(monkeypatch, tmp_path, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        eig_sym(np.eye(2))
    path = tmp_path / "m.txt"
    path.write_text("1 0\n0 1\n")
    assert run(["eig", "--input", str(path)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


_DECOMPOSE_128 = f"""
import numpy as np
from orthosym.spectral import eig_sym
m = np.random.default_rng({MASTER_SEED}).standard_normal((128, 128))
dec = eig_sym((m + m.T) / 2.0)
print(dec.v.tobytes().hex(), dec.lambdas.tobytes().hex())
"""


def test_decomposition_id_does_not_depend_on_blas_threads():
    ids = []
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-c", _DECOMPOSE_128],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        ids.append(out.stdout.strip())
    assert len(ids[0]) == 2 * 8 * (128 * 128 + 128) + 1 and ids[0] == ids[1]


@st.composite
def clustered_matrices(draw):
    # eigenvalues whose gaps sit on both sides of 1e-8 and inside the
    # borderline band around it, in a random orthogonal basis
    n = draw(st.integers(1, 7))
    steps = st.sampled_from([0.0, 1e-10, 5e-10, 2e-9, 5e-9, 3e-8, 9e-8, 2e-7, 0.5, 3.0])
    lam = np.cumsum([draw(st.floats(-5.0, 5.0))] + draw(st.lists(steps, min_size=n - 1, max_size=n - 1)))
    q = haar_orthogonal(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    a = q @ np.diag(lam) @ q.T
    return (a + a.T) / 2.0


_T = 2.0**-30
_TINY, _SUB = np.finfo(float).tiny, 5e-324


@settings(max_examples=300, deadline=None)
@given(a=clustered_matrices(), tol=st.sampled_from([None, 0.0, 1e-8, 1e-9]))
# gaps of exactly 0.1, 10 and 1 times the tolerance: the ends of the
# borderline band and the clustering threshold itself
@example(a=np.diag([0.0, 0.1 * _T, 1.0, 1.0 + 10 * _T, 3.0, 3.0 + _T]), tol=_T)
# subnormal eigenvalues: a cluster mean taken at the solver's scale and
# scaled back was rounded twice, one subnormal step off np.mean
@example(a=np.array([[_TINY - 8 * _SUB, -_SUB], [-_SUB, _TINY - 7 * _SUB]]), tol=None)
def test_eig_sym_signs_clusters_and_borderline(a, tol):
    dec = eig_sym(a, cluster_tol=tol)
    for row in dec.v:
        assert row[int(np.argmax(np.abs(row)))] > 0
    tol = dec.cluster_tol
    gaps = np.diff(dec.lambdas)
    starts = [sl.start for sl in dec.cluster_slices()]
    assert starts == [0] + [i + 1 for i, g in enumerate(gaps) if g > tol]
    res = spectral.RESOLUTION * dec.n * np.finfo(float).eps * float(np.abs(dec.lambdas).max())
    assert dec.borderline == tuple(
        i for i, g in enumerate(gaps) if 0.1 * tol < g <= 10.0 * tol or tol < g <= res
    )
    for (rep, _), sl in zip(dec.clusters, dec.cluster_slices()):
        assert rep == float(np.mean(dec.lambdas[sl]))
    a_rebuilt = dec.reconstruct()
    assert not a_rebuilt.flags.writeable
    assert dec.reconstruct() is a_rebuilt


@settings(max_examples=300, deadline=None)
@given(
    u=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 4), st.integers(1, 6), st.integers(0, 6)),
        elements=st.sampled_from([-1.0, -0.5, 0.5, 1.0, -0.25]),
    )
)
def test_fix_signs_matches_the_column_loop(u):
    # the loop it replaced, run on each matrix of the stack, as the
    # reference; entries drawn from a few values so that ties for the
    # largest magnitude are common
    expected = u.copy()
    for i in range(u.shape[0]):
        for j in range(u.shape[2]):
            k = int(np.argmax(np.abs(u[i, :, j])))
            if u[i, k, j] < 0:
                expected[i, :, j] = -expected[i, :, j]
    assert _fix_signs(u).tobytes() == expected.tobytes()


@st.composite
def stacks(draw):
    # k matrices of one size n, each random or with planted repeated
    # eigenvalues, symmetric or only within symtol, at a scale of 2^j
    k, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = np.empty((k, n, n))
    for i in range(k):
        if draw(st.booleans()):
            m, _ = planted_matrix(rng, rng.choice([-1.0, 0.5, 2.0], n))
        else:
            m = random_symmetric(rng, n)
        if draw(st.booleans()):
            m = m + 1e-13 * rng.standard_normal((n, n))
        out[i] = np.ldexp(m, draw(st.integers(-1000, 1000)))
    return out


def outcome(call):
    """(type, message) of what ``call`` raises, or None."""
    try:
        call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(s=stacks())
def test_eig_stack_matches_eig_sym_on_each_matrix(s):
    errors = [outcome(lambda: eig_sym(m)) for m in s]
    first = next((e for e in errors if e is not None), None)
    if first is not None:
        assert outcome(lambda: eig_stack(s)) == first
        return
    decs = eig_stack(s)
    assert len(decs) == len(s)
    for m, got in zip(s, decs):
        want = eig_sym(m)
        assert got.v.tobytes() == want.v.tobytes()
        assert got.lambdas.tobytes() == want.lambdas.tobytes()
        assert repr((got.clusters, got.cluster_tol, got.borderline)) == repr(
            (want.clusters, want.cluster_tol, want.borderline)
        )


def _stack_entry(kind):
    m = np.diag([1.0, 2.0, 3.0])
    if kind == "asymmetric":
        m[0, 1] = 1.0
    elif kind == "nan":
        m[2, 2] = np.nan
    elif kind == "inf":
        m[0, 1] = m[1, 0] = np.inf
    elif kind == "near":  # asymmetric within symtol: accepted
        m[0, 1] = 1e-12
    return m


@pytest.mark.parametrize(
    "kinds",
    [
        ("ok", "asymmetric", "nan"),
        ("near", "nan", "asymmetric"),
        ("inf", "asymmetric"),
        ("ok", "near", "ok", "asymmetric"),
    ],
)
def test_eig_stack_raises_what_as_sym_raises_for_the_first_bad_matrix(kinds):
    s = np.stack([_stack_entry(kind) for kind in kinds])
    j = next(i for i, kind in enumerate(kinds) if kind not in ("ok", "near"))
    with pytest.raises((ValueError, SymmetryError)) as want:
        as_sym(s[j])
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        eig_stack(s)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (1, 2, 2, 2)])
def test_eig_stack_rejects_what_is_not_a_stack_of_square_matrices(shape):
    with pytest.raises(DimensionError):
        eig_stack(np.zeros(shape))
