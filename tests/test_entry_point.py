"""The real entry point, ``python -m orthosym.cli``, in a fresh interpreter.

The package loads a module only when a name in it is first used, and each
subcommand imports the modules it runs inside its handler.  In-process
tests see every module already loaded, so they cannot catch an import
that is missing, circular or in the wrong order; these tests start a new
interpreter for each run.
"""

import contextlib
import io
import subprocess
import sys

import numpy as np
import pytest

import orthosym
from orthosym import cli, dynsys

from helpers import format_matrix, subprocess_env

ENV = subprocess_env()

# what ``import orthosym`` loads: the errors and the spectral primitive
BASE = {"orthosym", "orthosym.errors", "orthosym.spectral"}


def python(*args):
    return subprocess.run(
        [sys.executable, "-W", "error", *args], env=ENV, capture_output=True, text=True, timeout=120
    )


def ours(modules):
    return {m for m in modules if m == "orthosym" or m.startswith("orthosym.")}


def loaded_by(code):
    """The modules loaded once ``code`` has run in a new interpreter."""
    done = python("-c", code + "\nimport sys; print(' '.join(sys.modules))")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    big = np.random.default_rng(64).standard_normal((64, 64))
    contents = {
        "A": format_matrix(np.asarray(dynsys.guiding_matrix(0.0))),
        "ID": format_matrix(np.eye(3)),
        "P4": "0 1\n1 2\n2 3\n",
        "P4R": "2 0\n0 3\n3 1\n",
        "B64": format_matrix(big + big.T),
    }
    for name, text in contents.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in contents}


_PROBE = ["--function", "trig-quartic", "--x", "1,1,1", "--h", "0.2,0.05,0.1"]

# one run of each subcommand, in all three formats between them, and the
# orthosym modules besides BASE that it loads (``orthosym.cli`` runs as
# ``__main__``, so it is not among them)
RUNS = [
    (["eig", "--input", "A", "--format", "csv"], {"matio"}),
    (["isotropy", "gamma2", "--input", "A"], {"matio", "isotropy", "floatrepr"}),
    (["isotropy", "sample", "--input", "A", "--count", "2", "--seed", "5"], {"matio", "isotropy"}),
    (["isotropy", "check", "--input", "A", "--candidate", "ID", "--format", "text"], {"matio", "isotropy"}),
    (["procrustes", "solve", "--input-a", "A", "--input-b", "A"], {"matio", "isotropy", "procrustes"}),
    (["procrustes", "family", "--input-a", "A", "--input-b", "A", "--count", "2"], {"matio", "isotropy", "procrustes"}),
    (["graph", "spectrum", "--input", "P4", "--format", "text"], {"matio", "graphsym", "isotropy"}),
    (["graph", "aut", "--input", "P4"], {"matio", "graphsym", "isotropy"}),
    (["graph", "iso", "--input-a", "P4", "--input-b", "P4R"], {"matio", "graphsym", "isotropy"}),
    (["graph", "hidden", "--input", "P4", "--seed", "3"], {"matio", "graphsym", "isotropy"}),
    (["stencil", "probe", *_PROBE], {"stencil", "isotropy"}),
    (["dynsys", "integrate", "--steps", "20", "--format", "csv"], {"dynsys"}),
    (["fixtures", "verify", "--format", "text"], {"verify", "fixtures", "dynsys", "graphsym", "isotropy", "stencil"}),
    (["eig"], set()),  # usage error: the parser exits before any handler runs
    # 4096 eigenvector entries are written from floatrepr's token table
    (["eig", "--input", "B64"], {"matio", "floatrepr"}),
    # a payload of small arrays stays on json.dumps, without floatrepr
    (["eig", "--input", "A"], {"matio"}),
]


@pytest.mark.parametrize(
    "argv,modules", RUNS, ids=[" ".join(w for w in a[:2] if not w.startswith("-")) for a, _ in RUNS]
)
def test_python_m_matches_in_process_run(files, argv, modules):
    argv = [files.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    # -v writes a line "import 'name' # ..." for each module loaded, and
    # its other messages either before the package loads (the banner and
    # site's messages) or as lines starting with "# "; the rest of stderr
    # is the program's
    done = python("-v", "-m", "orthosym.cli", *argv)
    lines = done.stderr.splitlines(keepends=True)
    start = lines.index(next(line for line in lines if line.startswith("import 'orthosym")))
    loaded = {line.split("'")[1] for line in lines if line.startswith("import '")}
    stderr = "".join(line for line in lines[start:] if not line.startswith(("import ", "# ")))
    assert (done.returncode, done.stdout, stderr) == (code, out.getvalue(), err.getvalue())
    assert code == (1 if argv == ["eig"] else 0)
    assert ours(loaded) == BASE | {f"orthosym.{m}" for m in modules}


def test_import_loads_only_the_primitive():
    assert ours(loaded_by("import orthosym")) == BASE
    # the window the benchmark's setup_s times
    setup = loaded_by("import orthosym.cli as c; c.build_parser()")
    assert ours(setup) == BASE | {"orthosym.cli"}
    assert "hashlib" not in setup


def test_lazy_names_load_on_first_use():
    assert ours(loaded_by("import orthosym; orthosym.Graph")) == BASE | {"orthosym.graphsym", "orthosym.isotropy"}
    assert ours(loaded_by("import orthosym; orthosym.dynsys")) == BASE | {"orthosym.dynsys"}
    assert ours(loaded_by("from orthosym import ScalarField")) == BASE | {"orthosym.stencil", "orthosym.isotropy"}


def test_public_names_resolve():
    from orthosym import graphsym, procrustes, stencil

    assert orthosym.Graph is graphsym.Graph
    assert orthosym.ProcrustesSolution is procrustes.ProcrustesSolution
    assert orthosym.ScalarField is stencil.ScalarField
    assert orthosym.dynsys is dynsys and orthosym.cli is cli
    assert set(orthosym.__all__) <= set(dir(orthosym))
    namespace = {}
    exec("from orthosym import *", namespace)
    assert set(orthosym.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        orthosym.nope
    # retired: a vertex map is a read-only int array
    with pytest.raises(AttributeError, match="has no attribute 'Permutation'"):
        orthosym.Permutation
    assert "Permutation" not in dir(orthosym) and "Permutation" not in orthosym.__all__
    # retired: a block element is a read-only (n, n) array
    with pytest.raises(AttributeError, match="has no attribute 'BlockOrthogonal'"):
        orthosym.BlockOrthogonal
    assert "BlockOrthogonal" not in dir(orthosym) and "BlockOrthogonal" not in orthosym.__all__
