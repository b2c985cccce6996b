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
    _commutator_residuals,
    _residual_with,
    commutator_residual,
    conjugate,
    gamma2_elements,
    is_member,
    orthogonality_residual,
    sample_block_stack,
    sample_gamma,
    sample_gammas,
)
from orthosym.procrustes import family_sample
from orthosym.spectral import _scaled, _unscaled, align_basis, eig_sym

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


def block_diag(*blocks):
    """The (n, n) block element with these diagonal blocks, in order."""
    n = sum(len(b) for b in blocks)
    out, start = np.zeros((n, n)), 0
    for b in blocks:
        out[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    return out


@pytest.fixture(scope="module")
def dec_123():
    # multiplicities (1, 2, 3)
    return eig_sym(np.diag([1.0, 2.0, 2.0, 3.0, 3.0, 3.0]))


def test_block_orthogonal_validation(dec_mu0, dec_123):
    # conjugate checks its block element: a non-orthogonal block, a
    # misshapen element and an entry off the blocks each raise
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(StructureError, match="lost orthogonality"):
        conjugate(dec_mu0, block_diag(np.eye(1), skew))
    with pytest.raises(StructureError, match="lost orthogonality"):
        conjugate(dec_123, block_diag(np.eye(1), skew, np.eye(3)))
    with pytest.raises(StructureError, match="lost orthogonality"):
        conjugate(dec_123, block_diag(np.eye(1), np.eye(2), 2.0 * np.eye(3)))
    for sigma in (np.eye(2), np.eye(4), np.ones(3), block_diag(np.eye(1), skew, np.eye(2))):
        with pytest.raises(StructureError, match="does not match"):
            conjugate(dec_mu0, sigma)
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(StructureError, match=r"nonzero off the blocks of multiplicities \(1, 2\)"):
        conjugate(dec_mu0, swap)
    tiny = block_diag(np.eye(1), np.eye(2), np.eye(3))
    tiny[5, 0] = 5e-324
    with pytest.raises(StructureError, match="nonzero off the blocks"):
        conjugate(dec_123, tiny)


def test_block_orthogonal_reports_an_earlier_non_orthogonal_block_first(dec_123):
    # a skew size-2 block before a size-3 block holding only I_2: the element
    # has the right shape and no entry off the blocks, so orthogonality is
    # what conjugate reports
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    padded = np.zeros((3, 3))
    padded[:2, :2] = np.eye(2)
    with pytest.raises(StructureError, match=r"^conjugated element lost orthogonality \("):
        conjugate(dec_123, block_diag(np.eye(1), skew, padded))


def test_block_orthogonal_reports_an_earlier_misshapen_block_first():
    # I_2 where m = (1, 3, 2) asks for a size-3 block makes the element 5 x 5:
    # the shape is reported before the later skew block's orthogonality
    dec_132 = eig_sym(np.diag([1.0, 2.0, 2.0, 2.0, 3.0, 3.0]))
    assert dec_132.multiplicities == (1, 3, 2)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(
        StructureError,
        match=r"^block element of shape \(5, 5\) does not match a 6 x 6 decomposition$",
    ):
        conjugate(dec_132, block_diag(np.eye(1), np.eye(2), skew))


def test_block_orthogonal_names_the_first_of_two_non_orthogonal_blocks():
    # two non-orthogonal blocks, 2 I_3 and a skew block, in either order:
    # the element is refused, and so is each bad block alone
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    cases = (
        ((2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0), (np.eye(2), 2.0 * np.eye(3), skew)),
        ((2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0), (np.eye(3), skew, 2.0 * np.eye(3))),
    )
    for lambdas, blocks in cases:
        dec = eig_sym(np.diag(lambdas))
        assert dec.multiplicities == tuple(len(b) for b in blocks)
        with pytest.raises(StructureError, match="lost orthogonality"):
            conjugate(dec, block_diag(*blocks))
        for bad in (i for i, b in enumerate(blocks) if np.any(b @ b.T != np.eye(len(b)))):
            alone = [np.eye(len(b)) for b in blocks]
            alone[bad] = blocks[bad]
            with pytest.raises(StructureError, match="lost orthogonality"):
                conjugate(dec, block_diag(*alone))


def test_block_orthogonal_compose_full(dec_mu0):
    # products and transposes of block elements are block elements, and
    # conjugation carries them to the products and transposes of the gammas
    m = (1, 2)
    rng = np.random.default_rng(MASTER_SEED)
    b1 = sample_block_stack(m, [rng])[0]
    b2 = sample_block_stack(m, [rng])[0]
    g1, g2 = conjugate(dec_mu0, b1), conjugate(dec_mu0, b2)
    np.testing.assert_allclose(conjugate(dec_mu0, b1 @ b2), g1 @ g2, atol=1e-12)
    np.testing.assert_allclose(conjugate(dec_mu0, b1.T), g1.T, atol=1e-12)
    np.testing.assert_allclose(b1 @ b1.T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(conjugate(dec_mu0, np.eye(3)), np.eye(3), atol=1e-12)


def test_block_orthogonal_rejects_a_block_whose_residual_is_not_finite(dec_mu0):
    # gamma's residual overflows for a 1e200 I block; a NaN or infinite
    # entry gives a NaN residual, which a ``residual > tol`` test passes as
    # orthogonal
    for block in (1e200 * np.eye(2), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])):
        with pytest.raises(StructureError, match="lost orthogonality"):
            conjugate(dec_mu0, block_diag(np.eye(1), block))
    nan_off = block_diag(np.eye(1), np.eye(2))
    nan_off[0, 2] = np.nan
    with pytest.raises(StructureError, match="nonzero off the blocks"):
        conjugate(dec_mu0, nan_off)


def test_conjugate_identity_and_center(dec_mu0):
    g = conjugate(dec_mu0, np.eye(3))
    assert g.shape == (3, 3) and not g.flags.writeable
    np.testing.assert_allclose(g, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(conjugate(dec_mu0, -np.eye(3)), -np.eye(3), atol=1e-12)


def test_conjugate_structure_mismatch(dec_mu0):
    # a block element for m = (2, 1) on a decomposition with m = (1, 2)
    wrong = block_diag(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(1))
    with pytest.raises(StructureError):
        conjugate(dec_mu0, wrong)


def test_conjugate_rejects_a_basis_that_is_not_orthogonal():
    # a scaled basis still commutes with the matrix it rebuilds; only the
    # orthogonality check can catch it
    dec = eig_sym(dynsys.guiding_matrix(-0.25))
    scaled = replace(dec, v=1.01 * dec.v)
    assert dec.multiplicities == (1, 2)
    sigma = np.diag([1.0, 1.0, -1.0])
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
    sigma = sample_block_stack(dec1.multiplicities, [rng])[0]
    dec2 = replace(dec1, v=sigma @ dec1.v)
    assert np.linalg.norm(dec2.v @ a @ dec2.v.T - np.diag(dec2.lambdas)) <= 1e-9
    for seed in range(20):
        g1 = sample_gamma(dec1, seed)
        g2 = sample_gamma(dec2, seed + 1000)
        for g in (g1, g2):
            assert is_member(dec1, g) and is_member(dec2, g)


def test_haar_block_determinism():
    m = (2, 3)
    b1 = sample_block_stack(m, [np.random.default_rng(99)])[0]
    b2 = sample_block_stack(m, [np.random.default_rng(99)])[0]
    assert b1.tobytes() == b2.tobytes()


def test_haar_covers_both_components():
    # determinants +1 and -1 must both occur across seeds
    dets = set()
    for seed in range(24):
        b = sample_block_stack((2,), [np.random.default_rng(seed)])[0]
        dets.add(int(round(np.linalg.det(b))))
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
    sigma = sample_block_stack(m, [rng])[0]
    ref = loop_sample_block_orthogonal(m, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    n = sum(m)
    assert sigma.shape == (n, n) and sigma.dtype == np.float64 and not sigma.flags.writeable
    blocks = [slice(start - size, start) for size, start in zip(m, np.cumsum(m))]
    assert [sigma[b, b].tobytes() for b in blocks] == [b.tobytes() for b in ref]
    off = np.ones((n, n), dtype=bool)
    for b in blocks:
        off[b, b] = False
    assert sigma[off].tobytes() == np.zeros(off.sum()).tobytes()  # +0.0 only
    # procrustes family multiplies the full n x n elements, so its product
    # is that of the loop's blocks padded with zeros, bit for bit; whether
    # it also equals each block's own product depends on the BLAS kernel
    other = sample_block_stack(m, [rng])[0]
    full, full_other = np.zeros((n, n)), np.zeros((n, n))
    for b, q, q_other in zip(blocks, ref, loop_sample_block_orthogonal(m, ref_rng)):
        full[b, b], full_other[b, b] = q, q_other
    product = other.T @ sigma
    assert product.tobytes() == (full_other.T @ full).tobytes()
    assert product[off].tobytes() == np.zeros(off.sum()).tobytes()


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


def _residual_per_call(a, b, p, tol=0.0):
    # the residual as each printed value once took it: P, A and B, and tol
    # scaled afresh on every call
    t, p = _scaled(np.asarray(p, dtype=float))
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    s, a, b, c = _scaled(a, b, tol)
    bound = _unscaled(max(c, tol * float(np.linalg.norm(a))), -t) if tol else 0.0
    return float(np.linalg.norm(p @ a - b @ p)), bound, s + t


@pytest.mark.parametrize("k", [-900, -40, 0, 40, 900])
@pytest.mark.parametrize("seed", range(3))
def test_operands_scaled_once_give_the_per_call_residuals_bit_for_bit(seed, k):
    # procrustes family and isotropy sample scale A (and B) once per
    # request and each P on its own: every cost, commutator residual and
    # bound keeps the bits of a residual taken per value, at 2^k A and
    # 2^-k B as well
    rng = np.random.default_rng(MASTER_SEED + 140 + seed)
    a, _ = planted_matrix(rng, [-1.0, 0.5, 0.5, 2.0, 2.0, 3.0])
    b, _ = planted_matrix(rng, [-1.0, 0.5, 0.5, 2.0, 2.0, 3.0])
    a, b = np.ldexp(a, k), np.ldexp(b, -k)
    sols = family_sample(a, b, seed, 7)
    assert len(sols) == 7
    for sol in sols:
        r, _, shift = _residual_per_call(a, b, sol.p)
        assert sol.cost.hex() == _unscaled(r, shift).hex()
    gammas = sample_gammas(eig_sym(a), range(seed, seed + 5))
    want = [_unscaled(r, shift) for r, _, shift in (_residual_per_call(a, a, g) for g in gammas)]
    assert [x.hex() for x in _commutator_residuals(a, gammas)] == [x.hex() for x in want]
    residual = _residual_with(a, b, 1e-8)
    for p in [sol.p for sol in sols] + list(gammas):
        got, want = residual(p), _residual_per_call(a, b, p, 1e-8)
        assert (got[0].hex(), got[1].hex(), got[2]) == (want[0].hex(), want[1].hex(), want[2])
