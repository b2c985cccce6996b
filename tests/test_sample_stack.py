"""One stacked Haar draw per request: the (k, n, n) stacks of the sampler,
of ``conjugate`` and of the Procrustes family equal the per-sample 2-D
results bit for bit, and a request for many samples holds one chunk of
temporaries at a time.

Every comparison is made within one process, so these tests hold on every
BLAS kernel."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosym import isotropy, procrustes
from orthosym.cli import run
from orthosym.errors import StructureError
from orthosym.isotropy import (
    _BLOCK_ORTH_TOL,
    _haar_blocks,
    conjugate,
    sample_block_stack,
    sample_gamma,
    sample_gammas,
)
from orthosym.spectral import eig_sym

from helpers import MASTER_SEED, block_sizes, format_matrix, planted_matrix


def reference_sample(m, rng):
    """A Haar block element drawn and factored one block at a time, each
    block by its own ``np.linalg.qr``, 1 x 1 blocks included: the draw
    order of ``sample_block_stack`` without its stacking."""
    n = sum(m)
    sigma, start = np.zeros((n, n)), 0
    for s in m:
        z, u = rng.standard_normal((s, s)), rng.random()
        q, r = np.linalg.qr(z)
        q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        if u < 0.5:
            q[:, 0] = -q[:, 0]
        sigma[start : start + s, start : start + s] = q
        start += s
    return sigma


@st.composite
def generator_lists(draw):
    """Seeds of a few generators and which of them each sample draws from:
    all distinct, or with repeats in any order."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(seeds) - 1), max_size=7))
    return seeds, picks


@settings(max_examples=150, deadline=None)
@given(m=block_sizes(max_n=24), gens=generator_lists())
def test_stack_equals_single_draws_and_leaves_the_same_generator_states(m, gens):
    seeds, picks = gens
    rngs = [np.random.default_rng(s) for s in seeds]
    stack = sample_block_stack(m, [rngs[i] for i in picks])
    assert stack.shape == (len(picks), sum(m), sum(m)) and not stack.flags.writeable
    singles = [np.random.default_rng(s) for s in seeds]
    reference = [np.random.default_rng(s) for s in seeds]
    for i, got in zip(picks, stack):
        assert got.tobytes() == sample_block_stack(m, [singles[i]])[0].tobytes()
        assert got.tobytes() == reference_sample(m, reference[i]).tobytes()
    for a, b, c in zip(rngs, singles, reference):
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state


@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
     1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308],
)
@pytest.mark.parametrize("u", [0.0, 0.4999999999999999, 0.5, 0.9])
def test_one_by_one_closed_form_equals_the_sign_fixed_qr(x, u):
    q, r = np.linalg.qr(np.array([[x]]))
    want = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    if u < 0.5:
        want = -want
    got = _haar_blocks(np.array([[[x]]]), np.array([u]))
    assert got.shape == (1, 1, 1) and got[0].tobytes() == want.tobytes()
    assert abs(got[0, 0, 0]) == 1.0


def test_haar_blocks_refuse_a_non_orthogonal_factor(monkeypatch):
    # the QR post-condition is checked for every block of the stack
    real = np.linalg.qr

    def skewed(z):
        q, r = real(z)
        q[1, 0, 0] += 10 * _BLOCK_ORTH_TOL
        return q, r

    monkeypatch.setattr(np.linalg, "qr", skewed)
    z = np.random.default_rng(0).standard_normal((3, 2, 2))
    with pytest.raises(StructureError, match="block of size 2 is not orthogonal"):
        _haar_blocks(z, np.full(3, 0.7))


def test_an_empty_request_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert sample_block_stack((2, 1), []).shape == (0, 3, 3)
    assert rng.bit_generator.state == state
    dec = eig_sym(np.diag([1.0, 2.0, 2.0]))
    assert sample_gammas(dec, []).shape == (0, 3, 3)
    assert conjugate(dec, np.zeros((0, 3, 3))).shape == (0, 3, 3)


@pytest.fixture(scope="module")
def planted_dec():
    rng = np.random.default_rng(MASTER_SEED + 71)
    a, _ = planted_matrix(rng, [-1.0, -1.0, 0.5, 2.0, 2.0, 2.0, 3.0, 5.0, 5.0])
    return eig_sym((a + a.T) / 2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 9))
def test_stacked_conjugate_equals_each_element_alone(planted_dec, seed, k):
    dec = planted_dec
    sigma = sample_block_stack(dec.multiplicities, [np.random.default_rng(seed)] * k)
    gammas = conjugate(dec, sigma)
    assert gammas.shape == sigma.shape and not gammas.flags.writeable
    for i, g in enumerate(gammas):
        assert g.tobytes() == (dec.v.T @ sigma[i] @ dec.v).tobytes()
        assert g.tobytes() == conjugate(dec, sigma[i]).tobytes()
    want = [sample_gamma(dec, s) for s in range(seed % 1000, seed % 1000 + k)]
    got = sample_gammas(dec, range(seed % 1000, seed % 1000 + k))
    assert got.tobytes() == np.array(want).tobytes()


def test_an_off_block_entry_in_one_element_is_refused(planted_dec):
    dec = planted_dec
    sigma = np.array(sample_block_stack(dec.multiplicities, [np.random.default_rng(5)] * 4))
    conjugate(dec, sigma)
    for value in (1e-300, -0.5, np.nan):
        bad = sigma.copy()
        bad[2, 0, 8] = value
        with pytest.raises(StructureError, match="nonzero off the blocks") as err:
            conjugate(dec, bad)
        assert err.value.details == {"dec_m": dec.multiplicities}


def test_each_check_of_conjugate_holds_for_every_element_of_a_stack(planted_dec):
    dec = planted_dec
    sigma = np.array(sample_block_stack(dec.multiplicities, [np.random.default_rng(6)] * 3))
    with pytest.raises(StructureError, match="does not match a 9 x 9"):
        conjugate(dec, sigma[:, :8, :8])
    with pytest.raises(StructureError, match="does not match a 9 x 9"):
        conjugate(dec, sigma[None])
    # a block scaled off the orthogonal group in the last element only
    scaled = sigma.copy()
    scaled[2, :2, :2] *= 1.5
    with pytest.raises(StructureError, match="lost orthogonality") as stacked:
        conjugate(dec, scaled)
    with pytest.raises(StructureError, match="lost orthogonality") as alone:
        conjugate(dec, scaled[2])
    assert str(stacked.value) == str(alone.value)
    # with eigenvalues 2 and 3 taken as one cluster, a block that mixes
    # their eigenvectors respects the blocks but not the eigenspaces
    merged = eig_sym(dec.reconstruct(), cluster_tol=1.5)
    mixing = np.array(sample_block_stack(merged.multiplicities, [np.random.default_rng(7)] * 3))
    with pytest.raises(StructureError, match="fails to commute") as stacked:
        conjugate(merged, mixing)
    with pytest.raises(StructureError, match="fails to commute") as alone:
        conjugate(merged, mixing[0])
    assert str(stacked.value) == str(alone.value)


def reference_family(a, b, seed, count):
    """Each solution's P from its own pair of 2-D draws and 2-D products,
    sigma_A then sigma_B from one generator."""
    da, db = eig_sym(a), eig_sym(b)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        sigma_a = sample_block_stack(da.multiplicities, [rng])[0]
        sigma_b = sample_block_stack(db.multiplicities, [rng])[0]
        out.append(db.v.T @ (sigma_b.T @ sigma_a) @ da.v)
    return out


@pytest.mark.parametrize("count", [0, 1, 3, 11])
def test_stacked_family_equals_the_per_solution_products(count):
    rng = np.random.default_rng(MASTER_SEED + 73)
    reps = [-2.0, -2.0, 0.5, 1.0, 1.0, 1.0, 4.0, 6.0, 6.0]
    a, _ = planted_matrix(rng, reps)
    b, _ = planted_matrix(rng, reps)
    a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
    sols = procrustes.family_sample(a, b, 41, count)
    want = reference_family(a, b, 41, count)
    assert len(sols) == count
    for sol, p in zip(sols, want):
        assert sol.p.tobytes() == p.tobytes()
        assert sol.cost == procrustes.cost(a, b, p)


def test_family_draws_in_chunks_as_one_stack(monkeypatch):
    # with two solutions per chunk, 5 solutions take 3 stacked draws and
    # the same bytes as one draw of all of them
    rng = np.random.default_rng(MASTER_SEED + 74)
    a, _ = planted_matrix(rng, [1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    b, _ = planted_matrix(rng, [1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
    whole = procrustes.family_sample(a, b, 9, 5)
    calls = []

    def counted(m, rngs):
        calls.append(len(rngs))
        return sample_block_stack(m, rngs)

    monkeypatch.setattr(isotropy, "_STACK_VALUES", 4 * 36)
    monkeypatch.setattr(procrustes, "sample_block_stack", counted)
    cut = procrustes.family_sample(a, b, 9, 5)
    assert calls == [4, 4, 2]
    assert [s.p.tobytes() for s in cut] == [s.p.tobytes() for s in whole]


def test_sample_gammas_draws_in_chunks(monkeypatch):
    dec = eig_sym(np.diag([1.0, 2.0, 2.0, 3.0]))
    whole = sample_gammas(dec, range(7))
    monkeypatch.setattr(isotropy, "_STACK_VALUES", 3 * 16)
    assert isotropy._chunk(4) == 3
    assert sample_gammas(dec, range(7)).tobytes() == whole.tobytes()


def test_many_samples_hold_one_chunk_of_temporaries(tmp_path):
    # n = 64 and 4 chunks of samples: the request keeps its k gammas plus
    # the temporaries of one chunk, about 3 chunk-sized stacks whatever k
    # is.  Drawn and conjugated all at once, the same request's temporaries
    # come to about 12 (3 times the gammas themselves)
    rng = np.random.default_rng(MASTER_SEED + 75)
    a, _ = planted_matrix(rng, np.repeat(np.arange(1.0, 25.0), [3, 2, 3] * 8))
    path = tmp_path / "a.txt"
    path.write_text(format_matrix((a + a.T) / 2.0))
    n, chunk, k = 64, 64, 256
    assert isotropy._chunk(n) == chunk
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["isotropy", "sample", "--input", str(path), "--count", str(k), "--format", "text"]
            assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = chunk * n * n * 8
    assert peak <= k * n * n * 8 + 6 * stack
