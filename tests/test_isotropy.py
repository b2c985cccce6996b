import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthosym import dynsys, fixtures
from orthosym.errors import DimensionError, SizeCapError, StructureError, SymmetryError
from orthosym.isotropy import (
    BlockOrthogonal,
    commutator_residual,
    conjugate,
    gamma2_elements,
    is_member,
    orthogonality_residual,
    sample_block_orthogonal,
    sample_gamma,
)
from orthosym.spectral import align_basis, eig_sym

from helpers import (
    MASTER_SEED,
    block_sizes,
    haar_orthogonal,
    planted_matrix,
    set_distance,
    symmetric_matrices,
)


@pytest.fixture(scope="module")
def dec_mu0():
    return eig_sym(dynsys.guiding_matrix(0.0))


@pytest.fixture(scope="module")
def dec_mu0_aligned(dec_mu0):
    return align_basis(dec_mu0, fixtures.REFERENCE_BASIS_3)


@pytest.fixture(scope="module")
def dec_16():
    return eig_sym(fixtures.dihedral_family(0.0))


def signs_of(k, n):
    # bit n-1-i of k set means sign i is -1
    return np.array([-1.0 if (k >> (n - 1 - i)) & 1 else 1.0 for i in range(n)])


def test_block_orthogonal_validation():
    with pytest.raises(StructureError):
        BlockOrthogonal((2,), (np.array([[1.0, 1.0], [0.0, 1.0]]),))
    with pytest.raises(StructureError):
        BlockOrthogonal((2,), (np.eye(3),))


def test_block_orthogonal_reports_an_earlier_non_orthogonal_block_first():
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(StructureError, match=r"^block of size 2 is not orthogonal$"):
        BlockOrthogonal((1, 2, 3), (np.eye(1), skew, np.eye(2)))


def test_block_orthogonal_reports_an_earlier_misshapen_block_first():
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(
        StructureError, match=r"^block of shape \(2, 2\) does not match multiplicity 3$"
    ):
        BlockOrthogonal((1, 3, 2), (np.eye(1), np.eye(2), skew))


def test_block_orthogonal_names_the_first_of_two_non_orthogonal_blocks():
    # the size-3 block fails first in m order although its size group comes
    # second in the order sizes first appear
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(StructureError, match=r"^block of size 3 is not orthogonal$"):
        BlockOrthogonal((2, 3, 2), (np.eye(2), 2.0 * np.eye(3), skew))
    with pytest.raises(StructureError, match=r"^block of size 2 is not orthogonal$"):
        BlockOrthogonal((3, 2, 3), (np.eye(3), skew, 2.0 * np.eye(3)))


def test_block_orthogonal_rejects_a_block_whose_residual_is_not_finite():
    # Q Q^T of 1e200 I overflows to an infinite residual (which warned
    # before the error); a NaN entry gives a NaN residual, which passed the
    # old ``residual > tol`` test as orthogonal
    for block in (1e200 * np.eye(2), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])):
        with pytest.raises(StructureError, match=r"^block of size 2 is not orthogonal$"):
            BlockOrthogonal((2,), (block,))


def test_block_orthogonal_compose_full():
    m = (1, 2)
    rng = np.random.default_rng(MASTER_SEED)
    b1 = sample_block_orthogonal(m, rng)
    b2 = sample_block_orthogonal(m, rng)
    np.testing.assert_allclose(
        b1.compose(b2).full(), b1.full() @ b2.full(), atol=1e-12
    )
    np.testing.assert_allclose(b1.transposed().full(), b1.full().T, atol=0)
    ident = BlockOrthogonal(m, tuple(np.eye(s) for s in m))
    np.testing.assert_allclose(ident.full(), np.eye(3), atol=0)


def test_conjugate_identity_and_center(dec_mu0):
    ident = BlockOrthogonal(
        dec_mu0.multiplicities, tuple(np.eye(m) for m in dec_mu0.multiplicities)
    )
    g = conjugate(dec_mu0, ident)
    assert g.shape == (3, 3) and not g.flags.writeable
    np.testing.assert_allclose(g, np.eye(3), atol=1e-12)
    minus = BlockOrthogonal(
        dec_mu0.multiplicities,
        tuple(-np.eye(m) for m in dec_mu0.multiplicities),
    )
    np.testing.assert_allclose(conjugate(dec_mu0, minus), -np.eye(3), atol=1e-12)


def test_conjugate_structure_mismatch(dec_mu0):
    wrong = BlockOrthogonal((1, 1, 1), (np.eye(1),) * 3)  # dec has m = (1, 2)
    with pytest.raises(StructureError):
        conjugate(dec_mu0, wrong)


def test_conjugate_rejects_a_basis_that_is_not_orthogonal():
    # a scaled basis still commutes with the matrix it rebuilds; only the
    # orthogonality check can catch it
    dec = eig_sym(dynsys.guiding_matrix(-0.25))
    scaled = replace(dec, v=1.01 * dec.v)
    assert dec.multiplicities == (1, 2)
    sigma = BlockOrthogonal((1, 2), (np.eye(1), np.diag([1.0, -1.0])))
    with pytest.raises(StructureError, match="lost orthogonality"):
        conjugate(scaled, sigma)


def test_conjugate_rejects_a_block_across_distinct_eigenvalues():
    # a cluster tolerance wide enough to merge 1 and 1.2 makes the sampled
    # block mix two eigenspaces: orthogonal, but not a symmetry
    dec = eig_sym(np.diag([1.0, 1.2]), cluster_tol=0.5)
    assert dec.multiplicities == (2,)
    with pytest.raises(StructureError, match="fails to commute"):
        sample_gamma(dec, 0)


def test_conjugate_checks_commutation_past_norm_overflow():
    # ||A||_F of this matrix overflows; the check must still see the mixing
    big = 2.0**1000
    dec = eig_sym(big * np.diag([1.0, 1.2]), cluster_tol=0.5 * big)
    assert dec.multiplicities == (2,)
    with pytest.raises(StructureError, match="fails to commute"):
        sample_gamma(dec, 0)
    # and a true symmetry of a huge matrix passes, with a finite residual
    a = big * np.diag([1.0, 1.0, 3.0])
    g = sample_gamma(eig_sym(a), 0)
    assert is_member(a, g)
    assert math.isfinite(commutator_residual(a, g))


@pytest.mark.parametrize("n", range(1, 13))
def test_gamma2_matches_conjugate_bit_for_bit(n):
    # the per-element product V^T diag(s_k) V is the reference for the
    # stacked one
    rng = np.random.default_rng(MASTER_SEED + 20 + n)
    reps = rng.standard_normal(n)
    if n >= 3:
        reps[1] = reps[0]
        reps[-1] = reps[-2]
    for a in (planted_matrix(rng, reps)[0], planted_matrix(rng, rng.standard_normal(n))[0]):
        dec = eig_sym(a)
        els = gamma2_elements(dec)
        assert len(els) == 2**n
        for k, g in enumerate(els):
            ref = (dec.v.T * signs_of(k, n)) @ dec.v
            assert g.tobytes() == ref.tobytes()


@settings(max_examples=50, deadline=None)
@given(a=symmetric_matrices(max_n=8))
def test_gamma2_is_a_read_only_stack_closed_under_negation(a):
    n = a.shape[0]
    els = gamma2_elements(eig_sym(a))
    assert els.shape == (2**n, n, n)
    assert not els.flags.writeable
    # element 2^n - 1 - k has the signs of element k negated, and -I is in
    # the group: negation is exact, so the two are equal (values, not bytes,
    # since an exactly cancelled entry is +0.0 on both sides)
    assert np.array_equal(els[::-1], -els)


@settings(max_examples=200, deadline=None)
@given(a=symmetric_matrices(), data=st.data())
def test_relabelling_conjugates_spectrum_clusters_and_sign_group(a, data):
    # P A P^T has the eigenvalues of A and eigenvectors P v, so its sign
    # group is {P g P^T}: the equivariance the whole library rests on
    n = a.shape[0]
    perm = np.eye(n)[data.draw(st.permutations(range(n)))]
    d1 = eig_sym(a)
    d2 = eig_sym(perm @ a @ perm.T)
    assert float(np.max(np.abs(d2.lambdas - d1.lambdas))) <= d1.cluster_tol
    if not (d1.borderline or d2.borderline):
        assert d2.multiplicities == d1.multiplicities
    # a simple eigenvalue fixes its eigenvector up to sign, and a sign group
    # element does not see that sign; the eigenvectors of both runs agree to
    # about eps ||A|| / gap, so the set comparison needs a clear gap
    scale = max(1.0, float(np.max(np.abs(d1.lambdas))))
    if np.all(np.diff(d1.lambdas) > 1e-4 * scale):
        want = perm @ gamma2_elements(d1) @ perm.T
        got = gamma2_elements(d2)
        dist = np.max(np.abs(got[:, None] - want[None]), axis=(2, 3))
        assert float(np.max(np.min(dist, axis=1))) <= 1e-10
        assert float(np.max(np.min(dist, axis=0))) <= 1e-10


def test_enumeration_finds_reference_element(dec_mu0_aligned):
    # one of the eight sign patterns produces the listed exact matrix
    target = fixtures.reference_gamma_set_3()[2]
    dists = [float(np.max(np.abs(g - target))) for g in gamma2_elements(dec_mu0_aligned)]
    assert min(dists) <= 1e-3


def test_gamma2_ordering(dec_mu0):
    els = gamma2_elements(dec_mu0)
    assert len(els) == 8
    np.testing.assert_allclose(els[0], np.eye(3), atol=1e-12)
    np.testing.assert_allclose(els[-1], -np.eye(3), atol=1e-12)
    # V g V^T is diag(s) for the signs s that element k encodes
    for k, g in enumerate(els):
        signs = np.rint(np.diag(dec_mu0.v @ g @ dec_mu0.v.T))
        assert signs.tolist() == signs_of(k, 3).tolist()


def test_gamma2_residuals(dec_mu0):
    a = np.asarray(dynsys.guiding_matrix(0.0))
    for g in gamma2_elements(dec_mu0):
        assert commutator_residual(a, g) <= 1e-8
        assert np.linalg.norm(g @ g - np.eye(3)) <= 1e-8


def test_gamma2_scalar_case():
    dec = eig_sym(np.array([[7.0]]))
    got = sorted(float(g[0, 0]) for g in gamma2_elements(dec))
    assert got == [-1.0, 1.0]


def test_gamma2_size_cap():
    dec = eig_sym(np.diag(np.arange(21, dtype=float)))
    with pytest.raises(SizeCapError):
        gamma2_elements(dec)


def test_gamma2_cap_boundary():
    assert len(gamma2_elements(eig_sym(np.diag(np.arange(14.0))))) == 2**14
    with pytest.raises(SizeCapError, match="n <= 14"):
        gamma2_elements(eig_sym(np.diag(np.arange(15.0))))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 12])
def test_gamma2_elements_at_indices_are_rows_of_the_full_stack(n):
    rng = np.random.default_rng(MASTER_SEED + 25 + n)
    dec = eig_sym(planted_matrix(rng, rng.standard_normal(n))[0])
    full = gamma2_elements(dec)
    count, half = 2**n, 2 ** (n - 1)
    picks = [
        np.arange(half),
        np.arange(half, count),
        np.arange(max(0, half - 3), min(count, half + 3)),  # spans both halves
        rng.permutation(count)[: min(count, 40)],
        [count - 1, 0, count - 1],
        np.array([], dtype=int),
    ]
    for k in picks:
        got = gamma2_elements(dec, k)
        assert got.shape == (len(k), n, n) and not got.flags.writeable
        assert got.tobytes() == full[k].tobytes()


def test_gamma2_elements_refuse_indices_outside_the_group(dec_mu0):
    for bad in ([8], [-1], [0, 9], [[0, 1]]):
        with pytest.raises(ValueError, match=r"integers in \[0, 8\)"):
            gamma2_elements(dec_mu0, bad)
    with pytest.raises(TypeError):
        gamma2_elements(dec_mu0, [0.0, 1.5])


def test_gamma2_closure_and_involution(dec_mu0):
    els = gamma2_elements(dec_mu0)
    for gi in els:
        assert np.linalg.norm(gi @ gi - np.eye(3)) <= 1e-8
        for gj in els:
            assert set_distance(gi @ gj, els) <= 1e-8


def test_sample_simple_spectrum_lands_in_sign_group():
    rng = np.random.default_rng(MASTER_SEED + 10)
    a, _ = planted_matrix(rng, [1.0, 3.0, 7.0, 11.0])
    dec = eig_sym(a)
    assert dec.multiplicities == (1, 1, 1, 1)
    els = gamma2_elements(dec)
    for seed in range(5):
        g = sample_gamma(dec, seed)
        assert set_distance(g, els) <= 1e-10


def test_sample_commutes_any_seed():
    a = np.asarray(dynsys.guiding_matrix(-0.25))
    dec = eig_sym(a)
    for seed in range(10):
        g = sample_gamma(dec, seed)
        assert commutator_residual(a, g) <= 1e-8


def test_sample_deterministic(dec_mu0):
    g1 = sample_gamma(dec_mu0, 31415)
    g2 = sample_gamma(dec_mu0, 31415)
    assert g1.shape == (3, 3) and not g1.flags.writeable
    assert g1.tobytes() == g2.tobytes()


def test_commutator_trivial_cases(dec_mu0):
    a = np.asarray(dynsys.guiding_matrix(0.0))
    assert commutator_residual(a, np.eye(3)) == 0.0
    assert commutator_residual(a, a) <= 1e-12
    assert commutator_residual(a, dynsys.SWAP_23) <= 1e-14


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionError):
        commutator_residual(np.eye(3), np.eye(2))


def test_is_member_swap_and_identity(dec_mu0):
    assert is_member(dec_mu0, dynsys.SWAP_23)
    assert is_member(dec_mu0, np.eye(3))


def test_is_member_rejects_generic_rotation(dec_mu0):
    rng = np.random.default_rng(MASTER_SEED + 11)
    q = haar_orthogonal(rng, 3)
    a = np.asarray(dynsys.guiding_matrix(0.0))
    # evidence that the chosen rotation genuinely fails to commute
    assert commutator_residual(a, q) > 1e-8 * max(1.0, np.linalg.norm(a))
    assert not is_member(dec_mu0, q)


def test_is_member_rejects_nonorthogonal(dec_mu0):
    assert not is_member(dec_mu0, 2.0 * np.eye(3))


def test_multiplicities_of_finite_and_continuous_groups(dec_16):
    # the group is finite iff every eigenvalue is simple
    rng = np.random.default_rng(MASTER_SEED + 12)
    a, _ = planted_matrix(rng, [1.0, 2.0, 3.0])
    assert eig_sym(a).multiplicities == (1, 1, 1)
    assert eig_sym(dynsys.guiding_matrix(-0.25)).multiplicities == (1, 2)
    m = dec_16.multiplicities
    assert sorted(m).count(1) == 8 and sorted(m).count(2) == 4


@settings(max_examples=200, deadline=None)
@example(a=np.diag([1.0, 2.0, 3.0, 4.0]), k=900, kind="swap", seed=0)
@given(
    a=symmetric_matrices(),
    k=st.integers(0, 1100),
    kind=st.sampled_from(["swap", "sign", "haar"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_membership_is_the_same_at_every_power_of_two_scale(a, k, kind, seed):
    # the bound tol * max(1, ||A||_F) is homogeneous once ||A||_F >= 1, so
    # scaling A by 2^k changes no verdict, also where ||2^k A||_F overflows
    assume(np.linalg.norm(a) >= 1.0)
    n = len(a)
    k = min(k, 1024 - math.frexp(np.abs(a).max())[1])  # 2^k A stays finite
    if kind == "swap":
        g = np.eye(n)
        g[[0, -1]] = g[[-1, 0]]
    elif kind == "sign":
        dec = eig_sym(a)
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], n)
        g = (dec.v.T * signs) @ dec.v
    else:
        g = haar_orthogonal(np.random.default_rng(seed), n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_member(np.ldexp(a, k), g) == is_member(a, g)


def test_dihedral_generators_are_members(dec_16):
    assert is_member(dec_16, fixtures.dihedral_rotation(), tol=1e-8)
    assert is_member(dec_16, fixtures.dihedral_reflection(), tol=1e-8)
    assert is_member(dec_16, fixtures.dihedral_hidden_gamma(), tol=1e-8)


def test_basis_independence_of_membership():
    # rotating the basis inside each degenerate cluster changes the
    # decomposition but not the group: verdicts agree for sampled elements
    rng = np.random.default_rng(MASTER_SEED + 13)
    a, _ = planted_matrix(rng, [1.0, 4.0, 4.0, 6.0, 6.0, 9.0])
    dec1 = eig_sym(a)
    sigma = sample_block_orthogonal(dec1.multiplicities, rng)
    dec2 = replace(dec1, v=sigma.full() @ dec1.v)
    assert np.linalg.norm(dec2.v @ a @ dec2.v.T - np.diag(dec2.lambdas)) <= 1e-9
    for seed in range(20):
        g1 = sample_gamma(dec1, seed)
        g2 = sample_gamma(dec2, seed + 1000)
        for g in (g1, g2):
            assert is_member(dec1, g) and is_member(dec2, g)


def test_haar_block_determinism():
    m = (2, 3)
    b1 = sample_block_orthogonal(m, np.random.default_rng(99))
    b2 = sample_block_orthogonal(m, np.random.default_rng(99))
    for x, y in zip(b1.blocks, b2.blocks):
        assert x.tobytes() == y.tobytes()


def test_haar_covers_both_components():
    # determinants +1 and -1 must both occur across seeds
    dets = set()
    for seed in range(24):
        b = sample_block_orthogonal((2,), np.random.default_rng(seed))
        dets.add(int(round(np.linalg.det(b.blocks[0]))))
    assert dets == {-1, 1}


def loop_sample_block_orthogonal(m, rng):
    """The per-block sampler the stacked one must reproduce bit for bit:
    one normal draw, QR, sign fix and uniform draw per block, in m order."""
    blocks = []
    for size in m:
        g = rng.standard_normal((size, size))
        q, r = np.linalg.qr(g)
        q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        if rng.random() < 0.5:
            q = q.copy()
            q[:, 0] = -q[:, 0]
        blocks.append(q)
    return blocks


@settings(max_examples=300, deadline=None)
@given(m=block_sizes(), seed=st.integers(0, 2**32 - 1))
def test_stacked_sampler_matches_the_loop_bit_for_bit(m, seed):
    # procrustes family draws sigma_A and then sigma_B from one generator,
    # so the generator must also be left where the loop leaves it
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sigma = sample_block_orthogonal(m, rng)
    ref = loop_sample_block_orthogonal(m, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert sigma.m == m
    assert [b.tobytes() for b in sigma.blocks] == [b.tobytes() for b in ref]
    assert all(b.shape == (s, s) and not b.flags.writeable for s, b in zip(m, sigma.blocks))
    other = loop_sample_block_orthogonal(m, rng)
    product = sigma.transposed().compose(BlockOrthogonal(m, tuple(other)))
    assert [b.tobytes() for b in product.blocks] == [
        (np.array(a.T) @ b).tobytes() for a, b in zip(ref, other)
    ]


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_stacked_qr_equals_one_qr_per_matrix(size):
    # the stacked sampler is byte-stable only while LAPACK treats each matrix
    # of a stack as it treats the matrix alone
    g = np.random.default_rng(MASTER_SEED + size).standard_normal((9, size, size))
    q, r = np.linalg.qr(g)
    for k in range(len(g)):
        qk, rk = np.linalg.qr(g[k])
        assert q[k].tobytes() == qk.tobytes() and r[k].tobytes() == rk.tobytes()


def test_is_member_validates_a_matrix_as_as_sym_does():
    # a matrix is checked as as_sym checks it, never answered silently
    with pytest.raises(ValueError, match="finite"):
        is_member([[math.nan, 0.0], [0.0, 1.0]], np.eye(2))
    with pytest.raises(SymmetryError):
        is_member([[1.0, 2.0], [0.0, 1.0]], np.eye(2))
    with pytest.raises(DimensionError):
        is_member(np.ones((2, 3)), np.eye(2))
    assert is_member([[1.0, 2.0], [2.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])


def test_residuals_of_a_huge_candidate_without_a_warning():
    # tier-1 turns numpy's overflow RuntimeWarning into an error; G G^T is
    # past the float range, G A - A G is not: its entries are
    # 1e300 * (a_j - a_i), so its norm is sqrt(12) * 1e300
    a = np.diag([1.0, 2.0, 3.0])
    g = np.full((3, 3), 1e300)
    assert not is_member(a, g)
    assert commutator_residual(a, g) == pytest.approx(math.sqrt(12.0) * 1e300, rel=1e-12)
    assert commutator_residual(np.diag([1e308, -1e308]), [[0.0, 1e300], [1e300, 0.0]]) == math.inf


def test_residuals_of_a_tiny_matrix_are_scaled_up():
    # the squares of entries near 1e-170 underflow unless the matrix is
    # scaled up first: the commutator residual read 0.0
    a = np.array([[1e-170, 2e-170], [2e-170, 0.0]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert commutator_residual(a, swap) == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-12, abs=0.0)
    # the I of G G^T - I and the tol of tol * max(1, ||A||_F) are scaled
    # with G and A, so 2^-s cannot overflow for a tiny G or A
    assert orthogonality_residual(1e-200 * np.eye(2)) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert is_member(np.diag([5e-324, 1e-320]), swap)
