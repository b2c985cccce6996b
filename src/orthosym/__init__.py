"""Orthogonal symmetry groups of real symmetric matrices.

A symmetric matrix commutes with a whole group of orthogonal matrices
determined by its spectrum: a finite diagonal-sign group in any case, and
continuous block-orthogonal factors wherever eigenvalues repeat.  This
package computes those groups and applies them to the two-sided orthogonal
Procrustes problem, graph symmetry detection, fourth-order Taylor probes,
and the equilibrium structure of an equivariant model ODE.
"""

# Only the errors and the spectral primitive load with the package.  Every
# other name in ``__all__`` loads on first access (PEP 562), so a one-shot
# ``orthosym <subcommand>`` compiles only the modules it runs.  ``cli`` must
# stay lazy in any case: imported here, it would already be in sys.modules
# when ``python -m orthosym.cli`` runs it, and runpy warns.
from importlib import import_module

from .errors import OrthosymError
from .spectral import SpectralDecomposition, SymMatrix, eig_sym

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "OrthosymError",
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

# the module that defines each lazily loaded class
_CLASS_HOME = {
    "Graph": "graphsym",
    "ProcrustesSolution": "procrustes",
    "ScalarField": "stencil",
}


def __getattr__(name):
    if name in _CLASS_HOME:
        value = getattr(import_module(f".{_CLASS_HOME[name]}", __name__), name)
    elif name in __all__:
        # importing a submodule binds it in this namespace as well
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
