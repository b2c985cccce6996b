"""Every value that is scaled to dodge overflow scales exactly with its input.

The residuals, the Procrustes cost, the cluster representatives and the
isospectrality verdict are computed from operands divided by a power of two,
so multiplying an input by 2^k must multiply the value by exactly 2^k (or
keep the verdict) wherever 2^k keeps every input entry and the value normal
floats, far past where a square of an entry overflows or underflows.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthosym.isotropy import commutator_residual
from orthosym.procrustes import cost
from orthosym.spectral import eig_sym, isospectral

_ENTRIES = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def operands(draw):
    """Symmetric A and B, a general P and a tolerance, all n x n; B is
    sometimes a relabelling of A, so that both verdicts occur."""
    n = draw(st.integers(1, 6))
    square = hnp.arrays(np.float64, (n, n), elements=_ENTRIES)
    a = draw(square)
    a = (a + a.T) / 2.0
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        b = a[perm][:, perm]
    else:
        b = draw(square)
        b = (b + b.T) / 2.0
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3, 1.0]))
    return a, b, draw(square), tol


def normal(k, inputs, results) -> bool:
    """True iff x and 2^k x are normal floats for every nonzero entry x of
    the inputs and for every result x; a result of 0 may have underflowed,
    so it does not count as normal."""
    x = np.abs(np.concatenate([np.ravel(v) for v in inputs]))
    x = np.concatenate([x[x != 0], np.abs(np.ravel(results))])
    e = np.frexp(x)[1]
    return bool(np.all((x != 0) & (e >= -1021) & (e <= 1024) & (e + k >= -1021) & (e + k <= 1024)))


@settings(max_examples=200, deadline=None)
@example(
    ops=(np.array([[1.0, 2.0], [2.0, 0.0]]), np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-8),
    k=-1000,
)
@example(ops=(np.eye(2), 2.0 * np.eye(2), np.eye(2), 1.0), k=1000)
@example(ops=(np.diag([3.0, 3.0]), np.diag([-3.0, -3.0]), np.eye(2), 1e-3), k=1022)
@given(ops=operands(), k=st.integers(-1000, 1000))
def test_values_scale_exactly_with_a_power_of_two(ops, k):
    a, b, p, tol = ops
    up = lambda x: np.ldexp(x, k)  # noqa: E731

    r = commutator_residual(a, p)
    if normal(k, [a], [r]):
        assert commutator_residual(up(a), p) == math.ldexp(r, k)

    c = cost(a, b, p)
    if normal(k, [a, b], [c]):
        assert cost(up(a), up(b), p) == math.ldexp(c, k)
    if normal(k, [p], [c]):
        assert cost(a, b, up(p)) == math.ldexp(c, k)

    dec = eig_sym(a)
    if normal(k, [a], [rep for rep, _ in dec.clusters]):
        assert eig_sym(up(a)).clusters == tuple((math.ldexp(rep, k), m) for rep, m in dec.clusters)

    if normal(k, [a, b, tol], np.concatenate([dec.lambdas, eig_sym(b).lambdas])):
        assert isospectral(up(a), up(b), math.ldexp(tol, k)) == isospectral(a, b, tol)
