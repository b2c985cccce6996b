from dataclasses import replace

import numpy as np
import pytest

from orthosym import dynsys, fixtures
from orthosym.errors import DimensionError, SizeCapError, StructureError
from orthosym.isotropy import (
    BlockOrthogonal,
    SignPattern,
    commutator_residual,
    conjugate,
    gamma2_elements,
    is_finite,
    is_member,
    rotate_basis,
    sample_block_orthogonal,
    sample_gamma,
)
from orthosym.spectral import align_basis, eig_sym

from helpers import MASTER_SEED, haar_orthogonal, planted_matrix, set_distance


@pytest.fixture(scope="module")
def dec_mu0():
    return eig_sym(dynsys.guiding_matrix(0.0))


@pytest.fixture(scope="module")
def dec_mu0_aligned(dec_mu0):
    return align_basis(dec_mu0, fixtures.REFERENCE_BASIS_3)


@pytest.fixture(scope="module")
def dec_16():
    return eig_sym(fixtures.dihedral_family(0.0))


def test_sign_pattern_roundtrip():
    for k in range(8):
        assert SignPattern.from_index(k, 3).index == k
    assert SignPattern.from_index(0, 3).signs == (1, 1, 1)
    assert SignPattern.from_index(7, 3).signs == (-1, -1, -1)


def test_sign_pattern_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignPattern((1, 0, -1))


def test_block_orthogonal_validation():
    with pytest.raises(StructureError):
        BlockOrthogonal((2,), (np.array([[1.0, 1.0], [0.0, 1.0]]),))
    with pytest.raises(StructureError):
        BlockOrthogonal((2,), (np.eye(3),))


def test_block_orthogonal_compose_full():
    m = (1, 2)
    rng = np.random.default_rng(MASTER_SEED)
    b1 = sample_block_orthogonal(m, rng)
    b2 = sample_block_orthogonal(m, rng)
    np.testing.assert_allclose(
        b1.compose(b2).full(), b1.full() @ b2.full(), atol=1e-12
    )
    np.testing.assert_allclose(b1.transposed().full(), b1.full().T, atol=0)
    np.testing.assert_allclose(BlockOrthogonal.identity(m).full(), np.eye(3), atol=0)


def test_conjugate_identity_and_center(dec_mu0):
    ident = BlockOrthogonal.identity(dec_mu0.multiplicities)
    np.testing.assert_allclose(conjugate(dec_mu0, ident).gamma, np.eye(3), atol=1e-12)
    minus = BlockOrthogonal(
        dec_mu0.multiplicities,
        tuple(-np.eye(m) for m in dec_mu0.multiplicities),
    )
    np.testing.assert_allclose(conjugate(dec_mu0, minus).gamma, -np.eye(3), atol=1e-12)


def test_conjugate_structure_mismatch(dec_mu0):
    wrong = BlockOrthogonal.identity((1, 1, 1))  # dec has m = (1, 2)
    with pytest.raises(StructureError):
        conjugate(dec_mu0, wrong)


def test_conjugate_rejects_a_basis_that_is_not_orthogonal():
    # a scaled basis still commutes with the matrix it rebuilds; only the
    # orthogonality check can catch it
    dec = eig_sym(dynsys.guiding_matrix(-0.25))
    scaled = replace(dec, v=1.01 * dec.v)
    with pytest.raises(StructureError, match="lost orthogonality"):
        conjugate(scaled, SignPattern.from_index(1, 3))


def test_conjugate_rejects_a_block_across_distinct_eigenvalues():
    # a cluster tolerance wide enough to merge 1 and 1.2 makes the sampled
    # block mix two eigenspaces: orthogonal, but not a symmetry
    dec = eig_sym(np.diag([1.0, 1.2]), cluster_tol=0.5)
    assert dec.multiplicities == (2,)
    with pytest.raises(StructureError, match="fails to commute"):
        sample_gamma(dec, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_gamma2_matches_conjugate_bit_for_bit(n):
    # the per-element conjugation is the reference for the stacked product
    rng = np.random.default_rng(MASTER_SEED + 20 + n)
    reps = rng.standard_normal(n)
    if n >= 3:
        reps[1] = reps[0]
        reps[-1] = reps[-2]
    for a in (planted_matrix(rng, reps)[0], planted_matrix(rng, rng.standard_normal(n))[0]):
        dec = eig_sym(a)
        els = gamma2_elements(dec)
        assert len(els) == 2**n
        for k, e in enumerate(els):
            ref = conjugate(dec, SignPattern.from_index(k, n))
            assert e.gamma.tobytes() == ref.gamma.tobytes()
            assert e.source == ref.source
            assert e.decomposition_id == ref.decomposition_id


def test_enumeration_finds_reference_element(dec_mu0_aligned):
    # one of the eight sign patterns produces the listed exact matrix
    target = fixtures.reference_gamma_set_3()[2]
    dists = [
        float(np.max(np.abs(conjugate(dec_mu0_aligned, SignPattern.from_index(k, 3)).gamma - target)))
        for k in range(8)
    ]
    assert min(dists) <= 1e-3


def test_gamma2_ordering(dec_mu0):
    els = gamma2_elements(dec_mu0)
    assert len(els) == 8
    np.testing.assert_allclose(els[0].gamma, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(els[-1].gamma, -np.eye(3), atol=1e-12)
    assert [e.source.index for e in els] == list(range(8))


def test_gamma2_residuals(dec_mu0):
    a = np.asarray(dynsys.guiding_matrix(0.0))
    for e in gamma2_elements(dec_mu0):
        assert commutator_residual(a, e.gamma) <= 1e-8
        assert np.linalg.norm(e.gamma @ e.gamma - np.eye(3)) <= 1e-8


def test_gamma2_scalar_case():
    dec = eig_sym(np.array([[7.0]]))
    got = sorted(float(e.gamma[0, 0]) for e in gamma2_elements(dec))
    assert got == [-1.0, 1.0]


def test_gamma2_size_cap():
    dec = eig_sym(np.diag(np.arange(21, dtype=float)))
    with pytest.raises(SizeCapError):
        gamma2_elements(dec)


def test_gamma2_closure_and_involution(dec_mu0):
    els = [e.gamma for e in gamma2_elements(dec_mu0)]
    for gi in els:
        assert np.linalg.norm(gi @ gi - np.eye(3)) <= 1e-8
        for gj in els:
            assert set_distance(gi @ gj, els) <= 1e-8


def test_sample_simple_spectrum_lands_in_sign_group():
    rng = np.random.default_rng(MASTER_SEED + 10)
    a, _ = planted_matrix(rng, [1.0, 3.0, 7.0, 11.0])
    dec = eig_sym(a)
    assert dec.multiplicities == (1, 1, 1, 1)
    els = [e.gamma for e in gamma2_elements(dec)]
    for seed in range(5):
        g = sample_gamma(dec, seed).gamma
        assert set_distance(g, els) <= 1e-10


def test_sample_commutes_any_seed():
    a = np.asarray(dynsys.guiding_matrix(-0.25))
    dec = eig_sym(a)
    for seed in range(10):
        g = sample_gamma(dec, seed).gamma
        assert commutator_residual(a, g) <= 1e-8


def test_sample_deterministic(dec_mu0):
    g1 = sample_gamma(dec_mu0, 31415)
    g2 = sample_gamma(dec_mu0, 31415)
    assert g1.gamma.tobytes() == g2.gamma.tobytes()


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


def test_is_finite_cases(dec_16):
    rng = np.random.default_rng(MASTER_SEED + 12)
    a, _ = planted_matrix(rng, [1.0, 2.0, 3.0])
    assert is_finite(eig_sym(a))
    assert not is_finite(eig_sym(dynsys.guiding_matrix(-0.25)))
    m = dec_16.multiplicities
    assert not is_finite(dec_16)
    assert sorted(m).count(1) == 8 and sorted(m).count(2) == 4


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
    dec2 = rotate_basis(dec1, sigma)
    assert np.linalg.norm(dec2.v @ a @ dec2.v.T - np.diag(dec2.lambdas)) <= 1e-9
    for seed in range(20):
        g1 = sample_gamma(dec1, seed).gamma
        g2 = sample_gamma(dec2, seed + 1000).gamma
        for g in (g1, g2):
            assert is_member(dec1, g) and is_member(dec2, g)


def test_rotate_basis_structure_mismatch(dec_mu0):
    with pytest.raises(StructureError):
        rotate_basis(dec_mu0, BlockOrthogonal.identity((1, 1, 1)))


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
