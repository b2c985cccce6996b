"""Command-line interface.

One executable exposes every subsystem with uniform flags: ``--input`` /
``--output`` paths, ``--format {json,csv,text}``, a root ``--seed`` from
which all per-task randomness is derived by counter expansion, and
tolerance overrides.  JSON output is byte-stable for fixed flags and seed.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import warnings

import numpy as np

from . import spectral
from .errors import (
    ConvergenceError,
    DegenerateProbeError,
    DivergenceError,
    EvaluationError,
    OrthosymError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

_NUMERICAL_ERRORS = (ConvergenceError, EvaluationError, DegenerateProbeError, DivergenceError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def derive_seed(root: int, counter: int) -> int:
    """Expand the root seed into an independent per-task seed."""
    return int(np.random.SeedSequence([root, counter]).generate_state(1, np.uint64)[0])


def _parse_vector(text: str, flag: str, length: int) -> np.ndarray:
    try:
        v = np.array([float(t) for t in text.replace(",", " ").split()])
    except ValueError:
        raise _UsageError(f"could not parse vector from {text!r}") from None
    if len(v) != length:
        raise _UsageError(f"{flag} must have {length} values, got {len(v)}")
    return v


def _write(args, pieces):
    """Write the text pieces, in order, to ``--output`` or to stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(args, payload, text, table=None):
    """Render one result in the requested format.  Each form is a function
    of no arguments, and only the requested one is called: ``payload()``
    gives the json value, ``text()`` a human-readable string and
    ``table()`` (header, rows) for csv; a None table means no csv form.
    The json value may hold ndarrays: the bytes are those of its
    ``.tolist()``, and a large finite float64 array is written from
    ``floatrepr``'s token table (see ``_json_pieces``)."""
    fmt = args.format
    if fmt == "json":
        pieces = _json_pieces(payload())
    elif fmt == "csv":
        if table is None:
            raise _UsageError(f"subcommand {args.command!r} has no csv form")
        header, rows = table()
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        pieces = ("\n".join(lines) + "\n",)
    else:
        pieces = (text() + "\n",)
    _write(args, pieces)


# From this many values on, an array's JSON is written by _array_json, below
# it by json.dumps.  In whole requests, timed in-process in alternation, the
# array writer cost 2-12% more at 529-729 values and less from 784 on, so
# its crossover sits above floatrepr.MIN_VECTOR, that of the token table
# alone
_ARRAY_FROM = 768
# what json.dumps writes for the string an array's text replaces: no string
# in a payload holds a NUL
_PLACEHOLDER = "\0"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)


def _json_pieces(value):
    """The text of ``json.dumps(value, sort_keys=True, allow_nan=False)``
    plus a newline, as a list of pieces, every ndarray in ``value`` taken as
    its ``.tolist()``.  A 1-D or 2-D float64 array of at least
    ``_ARRAY_FROM`` values, all finite, is written by ``_array_json``:
    ``json.dumps`` leaves a placeholder in its place, and the text around
    the placeholders becomes the pieces between the arrays' texts.  Any
    other array goes through ``.tolist()``, so a non-finite one raises
    json's ``ValueError``."""
    arrays = []

    def hook(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if o.dtype == np.float64 and o.ndim in (1, 2) and o.size >= _ARRAY_FROM and np.isfinite(o).all():
            arrays.append(o)
            return _PLACEHOLDER
        return o.tolist()

    parts = json.dumps(value, sort_keys=True, allow_nan=False, default=hook).split(_PLACEHOLDER_JSON)
    pieces = [parts[0]]
    for a, part in zip(arrays, parts[1:]):
        pieces += (_array_json(a), part)
    pieces.append("\n")
    return pieces


def _array_json(a):
    """json's text of a finite float64 array, 1-D or 2-D: the tokens of its
    magnitudes come from ``floatrepr.table`` (``float.__repr__`` byte for
    byte), and ``_slot_text`` lays them out in row-major order with "-"
    wherever a sign bit is set."""
    from . import floatrepr

    flat = a.reshape(1, -1)
    table = floatrepr.table(np.abs(flat[0]))
    tokens = table.view(f"V{table.shape[1]}")[:, 0]
    rows, cols = a.shape if a.ndim == 2 else (1, a.size)
    before = _separators(rows, cols, "[" * a.ndim)
    after = np.frombuffer(b"]" * a.ndim, dtype=np.uint8).reshape(1, -1)
    codes = np.arange(a.size).reshape(1, -1)
    return _slot_text(before, np.signbit(flat), tokens, codes, after)


# rows of slots per token gather in _slot_text
_GATHER_ROWS = 32


# the separators json writes between two entries of a row and between rows,
# as little-endian words of 4 bytes padded with NULs
_COMMA, _NEXT_ROW = np.frombuffer(b", \0\0], [", dtype="<u4")


def _separators(rows, cols, opener):
    """What json writes before each entry of a rows x cols matrix in
    row-major order, as rows of 4 bytes padded with NULs: ``opener`` before
    the first, "], [" before the first of every later row, ", " before the
    rest.  Not cached: a cached array made in the middle of a request would
    stay in the heap for good wherever it landed, and keep the heap from
    shrinking below it."""
    before = np.full(rows * cols, _COMMA)
    before[::cols] = _NEXT_ROW
    before[:1] = np.frombuffer(opener.encode().ljust(4, b"\0"), dtype="<u4")
    return before.view(np.uint8).reshape(-1, 4)


def _slot_text(before, negative, tokens, codes, after):
    """Text assembled from fixed-width slots, with every NUL byte deleted.
    Row i of the text is a slot per column of the boolean array
    ``negative``, then ``after[i]``: slot j holds ``before[j]`` (bytes
    padded with NULs), "-" if ``negative[i, j]`` else a NUL, and the token
    ``tokens[codes[i, j]]`` (a void array of NUL-padded bytes).  One
    bytearray holds every slot, and one ``translate`` and one ASCII decode
    give the text."""
    rows, cols = negative.shape
    w = before.shape[1]
    slot = w + 1 + tokens.itemsize
    width = cols * slot + after.shape[1]
    text = bytearray(rows * width)
    buf = np.frombuffer(text, dtype=np.uint8).reshape(rows, width)
    entries = buf[:, : cols * slot].reshape(rows, cols, slot)
    entries[:, :, :w].view(f"V{w}")[:, :, 0] = before.view(f"V{w}")[:, 0]
    np.multiply(negative, np.uint8(ord("-")), out=entries[:, :, w])
    # gathered a few rows at a time: a gather's temporary the size of the
    # piece would be fresh memory, and cost page faults, in every call
    slots = entries[:, :, w + 1 :].view(tokens.dtype)[:, :, 0]
    for lo in range(0, rows, _GATHER_ROWS):
        slots[lo : lo + _GATHER_ROWS] = tokens[codes[lo : lo + _GATHER_ROWS]]
    buf[:, cols * slot :] = after
    return text.translate(None, b"\0").decode("ascii")


def _load_sym(path) -> np.ndarray:
    from . import matio

    return spectral.as_sym(matio.parse_matrix(path))


# --------------------------------------------------------------------- eig

def _cmd_eig(args):
    dec = spectral.eig_sym(_load_sym(args.input), cluster_tol=args.cluster_tol)

    def payload():
        return {
            "lambdas": dec.lambdas,
            "clusters": [[rep, m] for rep, m in dec.clusters],
            "multiplicities": list(dec.multiplicities),
            "borderline_gaps": list(dec.borderline),
            "v": dec.v,
        }

    def table():
        labels = np.repeat(np.arange(len(dec.clusters)), dec.multiplicities)
        return (
            ("index", "lambda", "cluster"),
            [(i, repr(float(l)), int(c)) for i, (l, c) in enumerate(zip(dec.lambdas, labels))],
        )

    def text():
        return "eigenvalues: " + " ".join(repr(float(x)) for x in dec.lambdas) + (
            f"\nmultiplicities: {list(dec.multiplicities)}"
        )

    _emit(args, payload, text, table)
    return EXIT_OK


# ---------------------------------------------------------------- isotropy

# elements per piece of streamed gamma2 JSON: about 0.8 MB of text at n = 12,
# from a slot buffer of about 1.1 MB
_GAMMA2_BLOCK = 256
# 10^18, ..., 10, 1: the place values of an int64's decimal digits
_POWERS_OF_TEN = 10 ** np.arange(18, -1, -1)


@functools.cache
def _triangle(n):
    """The flat indices of the upper triangle of an n x n matrix, i <= j in
    row-major order, those of its mirror image (j, i), and the map from each
    of the n^2 flat indices to its entry's place in the upper triangle."""
    i, j = np.triu_indices(n)
    up, down = i * n + j, j * n + i
    place = np.empty(n * n, dtype=np.intp)
    place[up] = place[down] = np.arange(len(up))
    for a in (up, down, place):
        a.setflags(write=False)
    return up, down, place


def _gamma2_json(elements, count, multiplicities):
    """The bytes of ``json.dumps({"count": count, "elements": [{"index": k,
    "gamma": elements([k])[0]}, ...], "multiplicities": [...]},
    sort_keys=True)`` plus a newline, as an iterator of pieces of
    ``_GAMMA2_BLOCK`` elements.  ``elements(indices)`` gives the elements at
    those indices as one stacked array.  Element count - 1 - k must be
    element k negated bit for bit, except for exact zeros, as in the sign
    group, which holds -I, under sign-symmetric IEEE rounding: an entry
    that cancels exactly is +0.0 in both elements, and a nonzero sum of
    negated terms is the negated sum.

    So a group of more than one piece is computed for its first half
    alone; one of one piece comes from one product, which at such sizes
    costs no more than its first half's.  Each element of the group is
    self-adjoint, so the upper triangle of each element of the first half
    is formatted, in (k, i <= j) order, into the tokens json would write,
    and element k, like element count - 1 - k, is written with codes
    k T + ``place`` into that table, T = n (n + 1) / 2.  A product need not
    come out symmetric bit for bit, so each lower entry whose magnitude
    differs from its mirror's gets a row of its own after the triangles.
    The tokens come from ``floatrepr.table``, ``float.__repr__`` (json's
    form of a finite float) byte for byte, and each piece is laid out by
    ``_slot_text``.  "-" goes in front wherever an element's own sign bit is
    set: ``repr(-x) == "-" + repr(x)`` for every finite x, -0.0 included.
    Element count - 1 - k, where not computed, takes element k's sign bits
    flipped, unless element k holds an exact zero: then it is computed, in
    its piece, for its own sign bits.  The first half's table is built
    before this returns, so a failure there writes nothing."""
    from . import floatrepr

    half = count // 2
    computed = count if count <= _GAMMA2_BLOCK else half
    first = elements(np.arange(computed))
    n = first.shape[1]
    negative = np.signbit(first).reshape(computed, n * n)
    if computed < count:
        # the elements not computed whose mirror holds an exact zero
        exact = count - 1 - np.flatnonzero((first == 0.0).any(axis=(1, 2)))
    up, down, place = _triangle(n)
    flat = first[:half].reshape(half, n * n)
    mags, mirror = np.take(flat, up, axis=1), np.take(flat, down, axis=1)
    np.abs(mags, out=mags)
    np.abs(mirror, out=mirror)
    del first, flat  # not kept while the token table is built
    # the lower entries, (element, place), that need a row of their own
    differs = mags.view(np.uint64) != mirror.view(np.uint64)
    values = mags.reshape(-1)
    # nonzero scans every entry even where none is set
    own = differs.any()
    if own:
        own_k, own_t = np.nonzero(differs)
        values = np.concatenate([values, mirror[own_k, own_t]])
        # each such row for both elements written with it
        own_at = np.concatenate([own_k, count - 1 - own_k])
        own_entry = np.tile(down[own_t], 2)
        own_code = np.tile(np.arange(mags.size, len(values)), 2)
    del mags, mirror, differs
    table = floatrepr.table(values)
    del values
    tokens = table.view(f"V{table.shape[1]}")[:, 0]
    # element k's first code: the row of codes it is written with, times T
    base = np.arange(count)
    base = np.minimum(base, base[::-1]) * len(up)
    before = _separators(n, n, "[[")
    # each element's slots open its "[[", and what follows them closes it:
    # its index in a field as wide as count - 1's, NUL-padded in front
    close, digits = b']], "index": ', len(str(count - 1))
    ends = np.frombuffer(close + b"\0" * digits + b'}, {"gamma": ', dtype=np.uint8)
    field = slice(len(close), len(close) + digits)
    powers = _POWERS_OF_TEN[-digits:]
    tail = f'], "multiplicities": {json.dumps(list(multiplicities))}}}\n'

    def block(lo):
        hi = min(lo + _GAMMA2_BLOCK, count)
        codes = base[lo:hi, None] + place
        if own:
            hit = (lo <= own_at) & (own_at < hi)
            codes[own_at[hit] - lo, own_entry[hit]] = own_code[hit]
        # elements lo to mid - 1 are computed, the rest written from their
        # mirrors' sign bits flipped, or computed where those hold a zero
        mid = min(max(lo, computed), hi)
        signs = negative[lo:mid]
        if mid < hi:
            signs = np.concatenate([signs, ~negative[count - hi : count - mid][::-1]])
            need = exact[(mid <= exact) & (exact < hi)]
            if len(need):
                signs[need - lo] = np.signbit(elements(need)).reshape(len(need), n * n)
        rows = np.empty((hi - lo, len(ends)), dtype=np.uint8)
        rows[:] = ends
        # each index's digits from its first nonzero one on, and the 0 of
        # element 0
        q = np.arange(lo, hi)[:, None] // powers
        rows[:, field] = (q % 10 + ord("0")) * (q > 0)
        if lo == 0:
            rows[0, field.stop - 1] = ord("0")
        if hi == count:
            rows[-1, field.stop :] = 0
            rows[-1, field.stop] = ord("}")
        text = _slot_text(before, signs, tokens, codes, rows)
        return text + tail if hi == count else text

    head = f'{{"count": {count}, "elements": [{{"gamma": '
    return itertools.chain((head,), map(block, range(0, count, _GAMMA2_BLOCK)))


def _cmd_isotropy(args):
    from . import isotropy

    a = _load_sym(args.input)
    dec = spectral.eig_sym(a, cluster_tol=args.cluster_tol)
    if args.action == "gamma2":
        count = isotropy.gamma2_order(dec.n)
        if args.format == "json":
            pieces = _gamma2_json(
                lambda k: isotropy.gamma2_elements(dec, k), count, dec.multiplicities
            )
            _write(args, pieces)
        else:
            _emit(args, None, lambda: f"{count} sign-group elements")
    elif args.action == "sample":
        if args.count < 0:
            raise _UsageError(f"count must be nonnegative, got {args.count}")
        seeds = [derive_seed(args.seed, k) for k in range(args.count)]
        gammas = isotropy.sample_gammas(dec, seeds)
        samples = [
            {"seed": seed, "gamma": g, "commutator_residual": comm}
            for seed, g, comm in zip(seeds, gammas, isotropy._commutator_residuals(a, gammas))
        ]
        _emit(
            args,
            lambda: {"count": len(samples), "elements": samples},
            lambda: f"{len(samples)} sampled symmetries",
        )
    else:  # check
        from . import matio

        g = matio.parse_matrix(args.candidate)
        tol = isotropy.MEMBER_TOL if args.tol is None else args.tol
        member = isotropy.is_member(dec, g, tol=tol)
        # taken in every format, so that an error they raise does not depend
        # on the format
        orth = isotropy.orthogonality_residual(g)
        comm = isotropy.commutator_residual(a, g)
        _emit(
            args,
            lambda: {
                "member": member,
                "tol": tol,
                "orthogonality_residual": orth,
                "commutator_residual": comm,
            },
            lambda: f"member: {member}",
        )
    return EXIT_OK


# --------------------------------------------------------------- procrustes

def _cmd_procrustes(args):
    from . import procrustes

    a = _load_sym(args.input_a)
    b = _load_sym(args.input_b)
    if args.action == "solve":
        sol = procrustes.solve(a, b, order=args.order)
        _emit(
            args,
            lambda: {
                "p": sol.p,
                "cost": sol.cost,
                "lower_bound": sol.lower_bound,
                "order": args.order,
            },
            lambda: f"cost: {sol.cost!r}\nlower bound: {sol.lower_bound!r}",
        )
    else:  # family
        sols = procrustes.family_sample(a, b, derive_seed(args.seed, 0), args.count)
        _emit(
            args,
            lambda: {
                "count": len(sols),
                "lower_bound": sols[0].lower_bound if sols else None,
                "solutions": [{"p": s.p, "cost": s.cost} for s in sols],
            },
            lambda: f"{len(sols)} solutions, costs {[s.cost for s in sols]}",
        )
    return EXIT_OK


# -------------------------------------------------------------------- graph

def _cmd_graph(args):
    from . import graphsym, matio

    if args.action == "iso":
        ga = matio.parse_graph(args.input_a)
        gb = matio.parse_graph(args.input_b)
        perm = graphsym.find_isomorphism(ga, gb)
        _emit(
            args,
            lambda: {
                "isomorphic": perm is not None,
                "mapping": perm.tolist() if perm is not None else None,
            },
            lambda: f"isomorphic: {perm is not None}",
        )
        return EXIT_OK
    graph = matio.parse_graph(args.input)
    if args.action == "spectrum":
        dec = graphsym.adjacency_decomposition(graph, cluster_tol=args.cluster_tol)
        _emit(
            args,
            lambda: {
                "n": graph.n,
                "edges": graph.edges(),
                "lambdas": dec.lambdas,
                "multiplicities": list(dec.multiplicities),
            },
            lambda: f"lambdas: {dec.lambdas.tolist()}\nm: {list(dec.multiplicities)}",
        )
    elif args.action == "aut":
        limit = graphsym.DEFAULT_AUT_LIMIT if args.limit is None else args.limit
        perms = graphsym.automorphisms(graph, limit=limit)
        _emit(
            args,
            lambda: {"count": len(perms), "automorphisms": perms.tolist()},
            lambda: f"{len(perms)} automorphisms",
        )
    else:  # hidden
        from . import isotropy

        g = graphsym.hidden_symmetry_sample(graph, derive_seed(args.seed, 0))
        perm = graphsym.is_permutation(g)
        residual = isotropy.commutator_residual(graph.adjacency, g)
        _emit(
            args,
            lambda: {
                "gamma": g,
                "commutator_residual": residual,
                "permutation": perm.tolist() if perm is not None else None,
            },
            lambda: "sampled hidden symmetry",
        )
    return EXIT_OK


# ------------------------------------------------------------------ stencil

def _pick_field(name: str):
    from . import stencil

    try:
        return stencil.BUILTIN_FIELDS[name]
    except KeyError:
        known = ", ".join(sorted(stencil.BUILTIN_FIELDS))
        raise _UsageError(f"unknown function {name!r}; built-ins: {known}") from None


def _sample_nontrivial_gamma(dec, root_seed):
    from . import isotropy

    # skip +/-identity draws: the probe cancels identically on them
    n = dec.n
    for k in range(64):
        g = isotropy.sample_gamma(dec, derive_seed(root_seed, k))
        if not (
            np.allclose(g, np.eye(n), atol=1e-10)
            or np.allclose(g, -np.eye(n), atol=1e-10)
        ):
            return g
    raise DegenerateProbeError("could not sample a nontrivial symmetry")


def _cmd_stencil(args):
    from . import stencil

    f = _pick_field(args.function)
    x = _parse_vector(args.x, "--x", f.dim)
    h = _parse_vector(args.h, "--h", f.dim)
    hess = stencil.hessian_fd(f, x, step=args.step)
    dec = spectral.eig_sym(hess)
    g1 = np.eye(f.dim)
    g2 = _sample_nontrivial_gamma(dec, args.seed)
    with warnings.catch_warnings():
        # each UserWarning of the probe as one line, on every run; others as before
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, category, *rest, show=warnings.showwarning: (
            print(f"warning: {message}", file=sys.stderr)
            if issubclass(category, UserWarning)
            else show(message, category, *rest)
        )
        values, slope = stencil.probe_ladder(f, x, g1, g2, h, levels=args.levels, hessian=hess)
    if args.action == "probe":
        _emit(
            args,
            lambda: {
                "function": args.function,
                "x": x,
                "h": h,
                "value": values[0],
                "slope": slope,
                "gammas": [g1, g2],
            },
            lambda: f"value: {values[0]!r}\nslope: {slope!r}",
        )
    else:  # order
        _emit(
            args,
            lambda: {
                "function": args.function,
                "levels": args.levels,
                "slope": slope,
                "values": values,
                "gammas": [g1, g2],
            },
            lambda: f"slope: {slope!r}",
        )
    return EXIT_OK


# ------------------------------------------------------------------- dynsys

def _component_payload(c) -> dict:
    out = {"kind": c.kind, "radius": float(c.radius)}
    if len(c.basis) == 1:
        out["direction"] = c.basis[0]
    elif len(c.basis) > 1:
        out["basis"] = c.basis
    return out


def _cmd_dynsys(args):
    from . import dynsys

    if args.action == "equilibria":
        eq = dynsys.equilibria(args.mu)
        _emit(
            args,
            lambda: {
                "mu": args.mu,
                "lambdas": eq.lambdas,
                "components": [_component_payload(c) for c in eq.components],
            },
            lambda: "\n".join(f"{c.kind}: radius {c.radius!r}" for c in eq.components),
            lambda: (("kind", "radius"), [(c.kind, repr(float(c.radius))) for c in eq.components]),
        )
    elif args.action == "sweep":
        rows = dynsys.sweep(args.mu_from, args.mu_to, args.samples)

        def payload():
            return {
                "rows": [
                    {
                        "mu": eq.mu,
                        "lambdas": list(eq.lambdas),
                        "components": [{"kind": c.kind, "radius": c.radius} for c in eq.components],
                        "transition": transition,
                    }
                    for eq, transition in rows
                ]
            }

        def table():
            return (
                ("mu", "lambda1", "lambda2", "lambda3", "components", "transition"),
                [
                    (
                        repr(eq.mu),
                        *map(repr, eq.lambdas),
                        "|".join(f"{c.kind}:{c.radius!r}" for c in eq.components),
                        int(transition),
                    )
                    for eq, transition in rows
                ],
            )

        transitions = ", ".join(repr(eq.mu) for eq, transition in rows if transition)
        _emit(args, payload, lambda: f"{len(rows)} rows; transitions near mu = {transitions}", table)
    else:  # integrate
        x0 = _parse_vector(args.x0, "--x0", 3)
        traj = dynsys.integrate(x0, args.mu, dt=args.dt, steps=args.steps)
        terminal = traj[-1]
        residual = float(np.linalg.norm(dynsys.rhs(terminal, args.mu)))

        def payload():
            return {
                "mu": args.mu,
                "dt": args.dt,
                "steps": args.steps,
                "terminal": terminal,
                "terminal_residual": residual,
                "trajectory": traj,
            }

        def table():
            return (
                ("step", "t", "x1", "x2", "x3"),
                [(k, repr(k * args.dt), *map(repr, p)) for k, p in enumerate(traj.tolist())],
            )

        _emit(args, payload, lambda: f"terminal: {terminal.tolist()}\nresidual: {residual!r}", table)
    return EXIT_OK


# ----------------------------------------------------------------- fixtures

def _cmd_fixtures(args):
    from . import verify

    results = verify.run_all()
    _emit(
        args,
        lambda: {
            "passed": sum(r.passed for r in results),
            "total": len(results),
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    # a crashing or structurally failing row measures
                    # inf, which strict JSON has no token for
                    "measure": r.measure if math.isfinite(r.measure) else None,
                    "limit": r.limit,
                }
                for r in results
            ],
        },
        lambda: verify.render_table(results),
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="orthosym", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    common.add_argument("--output", default=None, help="write result to a file")
    common.add_argument("--seed", type=int, default=0, help="root random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", parents=[common], help="symmetric eigendecomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--cluster-tol", type=float, default=None)
    p.set_defaults(handler=_cmd_eig)

    p = sub.add_parser("isotropy", parents=[common], help="symmetry group of a matrix")
    p.add_argument("action", choices=("gamma2", "sample", "check"))
    p.add_argument("--input", required=True)
    p.add_argument("--candidate", help="matrix to test for membership (check)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--tol", type=float, default=None)  # None: isotropy.MEMBER_TOL
    p.add_argument("--cluster-tol", type=float, default=None)
    p.set_defaults(handler=_cmd_isotropy)

    p = sub.add_parser("procrustes", parents=[common], help="two-sided Procrustes")
    p.add_argument("action", choices=("solve", "family"))
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--order", choices=("ascending", "descending"), default="ascending")
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(handler=_cmd_procrustes)

    p = sub.add_parser("graph", parents=[common], help="graph symmetry analysis")
    p.add_argument("action", choices=("spectrum", "aut", "iso", "hidden"))
    p.add_argument("--input")
    p.add_argument("--input-a")
    p.add_argument("--input-b")
    p.add_argument("--limit", type=int, default=None)  # None: graphsym.DEFAULT_AUT_LIMIT
    p.add_argument("--cluster-tol", type=float, default=None)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("stencil", parents=[common], help="fourth-order Taylor probes")
    p.add_argument("action", choices=("probe", "order"))
    p.add_argument("--function", required=True)
    p.add_argument("--x", required=True, help="base point, comma-separated")
    p.add_argument("--h", required=True, help="displacement, comma-separated")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--step", type=float, default=None, help="Hessian FD step")
    p.set_defaults(handler=_cmd_stencil)

    p = sub.add_parser("dynsys", parents=[common], help="guiding-system tools")
    p.add_argument("action", choices=("equilibria", "sweep", "integrate"))
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--from", dest="mu_from", type=float, default=-0.5)
    p.add_argument("--to", dest="mu_to", type=float, default=1.5)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--x0", default="0.1,0.1,0.1")
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--steps", type=int, default=10000)
    p.set_defaults(handler=_cmd_dynsys)

    p = sub.add_parser("fixtures", parents=[common], help="verify bundled reference data")
    p.add_argument("action", choices=("verify",))
    p.set_defaults(handler=_cmd_fixtures)

    return parser


# the subcommands whose randomness derive_seed expands from --seed
_SEEDED = {
    ("isotropy", "sample"),
    ("procrustes", "family"),
    ("graph", "hidden"),
    ("stencil", "probe"),
    ("stencil", "order"),
}


def _validate(args):
    if args.seed < 0 and (args.command, getattr(args, "action", None)) in _SEEDED:
        raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
    if args.command == "isotropy" and args.action == "check" and not args.candidate:
        raise _UsageError("isotropy check requires --candidate")
    if args.command == "graph":
        if args.action == "iso" and not (args.input_a and args.input_b):
            raise _UsageError("graph iso requires --input-a and --input-b")
        if args.action != "iso" and not args.input:
            raise _UsageError(f"graph {args.action} requires --input")


@functools.cache
def _shared_parser() -> _Parser:
    # a parser keeps no state between parse_args calls, so the one built on
    # the first request serves every later one in the process
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        _validate(args)
        return args.handler(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # a MemoryError is a request too large for the host (--steps 1e12);
    # numpy's names the size it could not allocate
    except (OrthosymError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
