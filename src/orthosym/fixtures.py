"""Bundled reference data: the guiding matrices, a 16-dimensional
dihedral-symmetric matrix family with its symmetry generators, an
asymmetric 8-vertex graph, and reference matrices stated to four decimal
places that pin down expected outputs in tests and the verification suite.
"""

from __future__ import annotations

import math

import numpy as np

from .graphsym import Graph
from .spectral import as_sym

_SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# 16x16 dihedral-symmetric family: a 4x4 block-circulant arrangement of two
# symmetric 4x4 blocks, invariant under the block rotation and reflection
# below for every mu.

def dihedral_d_block(mu: float) -> np.ndarray:
    return np.array(
        [
            [-2.0 + math.sin(mu), 0.2 + mu**2, 0.4 * mu, 0.9 * mu**2],
            [0.2 + mu**2, -0.4, -0.8 + mu * (1.0 - mu), mu * math.sin(mu)],
            [0.4 * mu, -0.8 + mu * (1.0 - mu), -1.4 + math.cos(mu), 0.0],
            [0.9 * mu**2, mu * math.sin(mu), 0.0, mu],
        ]
    )


def dihedral_b_block(mu: float) -> np.ndarray:
    return np.array(
        [
            [1.0 + mu * math.cos(mu), -3.5 * math.cos(mu), -0.5 * mu, -1.0],
            [-3.5 * math.cos(mu), -1.0 + mu, 0.5 * mu**2, 2.0 + 0.5 * math.cos(mu)],
            [-0.5 * mu, 0.5 * mu**2, 1.0 + mu, 0.0],
            [-1.0, 2.0 + 0.5 * math.cos(mu), 0.0, math.sin(mu)],
        ]
    )


def dihedral_family(mu: float) -> np.ndarray:
    d = dihedral_d_block(mu)
    b = dihedral_b_block(mu)
    z = np.zeros((4, 4))
    return as_sym(np.block([[d, b, z, b], [b, d, b, z], [z, b, d, b], [b, z, b, d]]))


def dihedral_rotation() -> np.ndarray:
    """Block permutation cycling the four 4x4 blocks."""
    i4, z4 = np.eye(4), np.zeros((4, 4))
    return np.block([[z4, i4, z4, z4], [z4, z4, i4, z4], [z4, z4, z4, i4], [i4, z4, z4, z4]])


def dihedral_reflection() -> np.ndarray:
    """Block permutation swapping the second and fourth 4x4 blocks."""
    i4, z4 = np.eye(4), np.zeros((4, 4))
    return np.block([[i4, z4, z4, z4], [z4, z4, z4, i4], [z4, z4, i4, z4], [z4, i4, z4, z4]])


def dihedral_hidden_gamma() -> np.ndarray:
    """An exact 0/1 symmetry of the mu = 0 family that is not one of the
    block permutations: it swaps coordinates 3 <-> 11 and 7 <-> 15."""
    g = np.eye(16)
    for a, b in ((3, 11), (7, 15)):
        g[a, a] = g[b, b] = 0.0
        g[a, b] = g[b, a] = 1.0
    return g


def dihedral_hidden_sigma() -> np.ndarray:
    """The block coordinates of the hidden symmetry: identity except for a
    negated 2x2 block at positions 8..9."""
    s = np.eye(16)
    s[8, 8] = s[9, 9] = -1.0
    return s


def dihedral_sigma_rotation() -> np.ndarray:
    """Block coordinates of the rotation generator at mu = 0 (exact)."""
    s = np.zeros((16, 16))
    for i, v in ((0, -1), (1, 1), (2, -1), (5, 1), (12, -1), (13, 1), (14, -1), (15, 1)):
        s[i, i] = v
    for start, sign in ((3, 1), (6, -1), (8, 1), (10, -1)):
        s[start, start + 1] = sign
        s[start + 1, start] = -sign
    return s


#: Block coordinates of the reflection generator at mu = 0, exact to four
#: decimal places.
SIGMA_REFLECTION_16 = np.eye(16)
for _start, _blk in (
    (3, [[-0.6065, -0.7951], [-0.7951, 0.6065]]),
    (6, [[-0.8442, 0.5361], [0.5361, 0.8442]]),
    (8, [[0.9699, -0.2434], [-0.2434, -0.9699]]),
    (10, [[-0.8607, 0.5091], [0.5091, 0.8607]]),
):
    SIGMA_REFLECTION_16[_start : _start + 2, _start : _start + 2] = _blk
SIGMA_REFLECTION_16.setflags(write=False)

#: The multiplicity vector of the mu = 0 family (8 simple, 4 double).
DIHEDRAL_MULTIPLICITIES = (1, 1, 1, 2, 1, 2, 2, 2, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Asymmetric 8-vertex graph (trivial automorphism group, degenerate
# spectrum).  Encoded from its adjacency matrix, which is authoritative.

def asymmetric_graph() -> Graph:
    return Graph(
        np.array(
            [
                [0, 1, 0, 0, 0, 0, 0, 0],
                [1, 0, 1, 0, 0, 1, 0, 0],
                [0, 1, 0, 0, 1, 1, 0, 0],
                [0, 0, 0, 0, 1, 0, 0, 0],
                [0, 0, 1, 1, 0, 0, 0, 1],
                [0, 1, 1, 0, 0, 0, 1, 1],
                [0, 0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 1, 0, 0],
            ]
        )
    )


#: Eigenvalues of the asymmetric graph to within 0.01 (stated to two
#: decimals but not rounded: the largest, 2.7077, is listed as 2.70), with
#: multiplicities (1, 1, 1, 2, 1, 1, 1).
GRAPH_EIGENVALUES_2DP = (-2.24, -1.66, -0.83, 0.0, 0.74, 1.29, 2.70)

#: An exact-rational hidden symmetry of the asymmetric graph: orthogonal,
#: commutes with the adjacency matrix, and is not a permutation.
GRAPH_HIDDEN_GAMMA = np.array(
    [
        [0.25, 0, 0.75, -0.25, 0, 0, -0.25, -0.5],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0.75, 0, 0.25, 0.25, 0, 0, 0.25, 0.5],
        [-0.25, 0, 0.25, 0.25, 0, 0, -0.75, 0.5],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [-0.25, 0, 0.25, -0.75, 0, 0, 0.25, 0.5],
        [-0.5, 0, 0.5, 0.5, 0, 0, 0.5, 0],
    ]
)
GRAPH_HIDDEN_GAMMA.setflags(write=False)


# ---------------------------------------------------------------------------
# Reference values for the 3-dimensional guiding system, exact to four
# decimal places unless noted.

#: A diagonalizing basis (rows are eigenvectors) of the mu = 0 guiding
#: matrix; fixes the gauge inside the double eigenspace.
REFERENCE_BASIS_3 = np.array(
    [
        [-0.7071, -0.5, -0.5],
        [0.6969, -0.3732, -0.6124],
        [0.1196, -0.7815, 0.6124],
    ]
)
REFERENCE_BASIS_3.setflags(write=False)

#: The kernel direction of the mu = 0 guiding matrix (exact).
KERNEL_VECTOR_3 = np.array([1.0 / _SQ2, 0.5, 0.5])
KERNEL_VECTOR_3.setflags(write=False)


def reference_gamma_set_3() -> list[np.ndarray]:
    """The eight diagonal-sign symmetries of the mu = 0 guiding matrix in
    the gauge of REFERENCE_BASIS_3: four listed plus their negatives."""
    g1 = np.eye(3)
    g2 = np.array(
        [
            [-0.9714, -0.1869, 0.1464],
            [-0.1869, 0.2214, -0.9571],
            [0.1464, -0.9571, -0.25],
        ]
    )
    g3 = np.array(
        [
            [0.0, 1.0 / _SQ2, 1.0 / _SQ2],
            [1.0 / _SQ2, -0.5, 0.5],
            [1.0 / _SQ2, 0.5, -0.5],
        ]
    )
    g4 = np.array(
        [
            [0.0286, 0.5202, 0.8536],
            [0.5202, 0.7214, -0.4571],
            [0.8536, -0.4571, 0.25],
        ]
    )
    firsts = [g1, g2, g3, g4]
    return firsts + [-g for g in firsts]


#: A rotation by pi/2 inside the double eigenspace of the mu = -0.25 guiding
#: matrix (exact to four decimal places); commutes with it.
REFERENCE_ROTATION_3 = np.array(
    [
        [0.5, 0.8536, -0.1464],
        [-0.1464, 0.25, 0.9571],
        [0.8536, -0.4571, 0.25],
    ]
)
REFERENCE_ROTATION_3.setflags(write=False)


# ---------------------------------------------------------------------------
# Reference values for the trig-quartic probe field at base point (1, 1, 1).

def probe_hessian_analytic() -> np.ndarray:
    """Closed-form Hessian of the trig-quartic field at (1, 1, 1)."""
    return np.array(
        [
            [2.0 - math.sin(1.0), 1.0 + math.cos(1.0), 2.0],
            [1.0 + math.cos(1.0), -8.0, -2.0],
            [2.0, -2.0, 0.0],
        ]
    )


#: The reflection across the Hessian eigenvector of the smallest eigenvalue,
#: exact to four decimal places; the second symmetry of the reference probe.
REFERENCE_PROBE_REFLECTION = np.array(
    [
        [0.9225, 0.3723, 0.1015],
        [0.3723, -0.7896, -0.4877],
        [0.1015, -0.4877, 0.8671],
    ]
)
REFERENCE_PROBE_REFLECTION.setflags(write=False)

#: Expected probe values for h = (0.2, 0.05, 0.1) and h/10 with gamma1 = I
#: and the reflection above.
REFERENCE_PROBE_VALUES = (6.40e-5, 6.38e-9)
REFERENCE_PROBE_H = np.array([0.2, 0.05, 0.1])
REFERENCE_PROBE_H.setflags(write=False)
