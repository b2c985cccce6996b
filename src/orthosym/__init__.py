"""Orthogonal symmetry groups of real symmetric matrices.

A symmetric matrix commutes with a whole group of orthogonal matrices
determined by its spectrum: a finite diagonal-sign group in any case, and
continuous block-orthogonal factors wherever eigenvalues repeat.  This
package computes those groups and applies them to the two-sided orthogonal
Procrustes problem, graph symmetry detection, fourth-order Taylor probes,
and the equilibrium structure of an equivariant model ODE.
"""

from . import cli, dynsys, fixtures, graphsym, isotropy, matio, procrustes, spectral, stencil, verify
from .errors import OrthosymError
from .graphsym import Graph, Permutation
from .isotropy import BlockOrthogonal
from .procrustes import ProcrustesSolution
from .spectral import SpectralDecomposition, SymMatrix, eig_sym
from .stencil import ScalarField

__version__ = "0.1.0"

__all__ = [
    "BlockOrthogonal",
    "Graph",
    "OrthosymError",
    "Permutation",
    "ProcrustesSolution",
    "ScalarField",
    "SpectralDecomposition",
    "SymMatrix",
    "__version__",
    "cli",
    "dynsys",
    "eig_sym",
    "fixtures",
    "graphsym",
    "isotropy",
    "matio",
    "procrustes",
    "spectral",
    "stencil",
    "verify",
]
