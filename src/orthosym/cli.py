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
import json
import sys

import numpy as np

from . import dynsys, graphsym, isotropy, matio, procrustes, spectral, stencil, verify
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


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.replace(",", " ").split()])
    except ValueError:
        raise _UsageError(f"could not parse vector from {text!r}") from None


def _emit(args, payload, table=None, text=None):
    """Render one result.  ``table`` is (header, rows) for csv, ``text`` a
    human-readable string; json is always available."""
    fmt = args.format
    if fmt == "json":
        out = json.dumps(payload, sort_keys=True) + "\n"
    elif fmt == "csv":
        if table is None:
            raise _UsageError(f"subcommand {args.command!r} has no csv form")
        header, rows = table
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        out = "\n".join(lines) + "\n"
    else:
        out = (text if text is not None else json.dumps(payload, sort_keys=True, indent=2)) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _load_sym(path) -> spectral.SymMatrix:
    return spectral.SymMatrix(matio.parse_matrix(path))


def _mat(a) -> list:
    return np.asarray(a).tolist()


# --------------------------------------------------------------------- eig

def _cmd_eig(args):
    dec = spectral.eig_sym(_load_sym(args.input), cluster_tol=args.cluster_tol)
    payload = {
        "lambdas": _mat(dec.lambdas),
        "clusters": [[rep, m] for rep, m in dec.clusters],
        "multiplicities": list(dec.multiplicities),
        "borderline_gaps": list(dec.borderline),
        "v": _mat(dec.v),
    }
    labels = np.repeat(np.arange(len(dec.clusters)), dec.multiplicities)
    table = (
        ("index", "lambda", "cluster"),
        [(i, repr(float(l)), int(c)) for i, (l, c) in enumerate(zip(dec.lambdas, labels))],
    )
    text = "eigenvalues: " + " ".join(repr(float(x)) for x in dec.lambdas) + (
        f"\nmultiplicities: {list(dec.multiplicities)}"
    )
    _emit(args, payload, table, text)
    return EXIT_OK


# ---------------------------------------------------------------- isotropy

def _cmd_isotropy(args):
    sym = _load_sym(args.input)
    dec = spectral.eig_sym(sym, cluster_tol=args.cluster_tol)
    a = np.asarray(sym)
    if args.action == "gamma2":
        elements = isotropy.gamma2_elements(dec)
        payload = {
            "count": len(elements),
            "multiplicities": list(dec.multiplicities),
            "elements": [
                {"index": k, "gamma": _mat(e.gamma)} for k, e in enumerate(elements)
            ],
        }
        _emit(args, payload, text=f"{len(elements)} sign-group elements")
    elif args.action == "sample":
        samples = []
        for k in range(args.count):
            seed = derive_seed(args.seed, k)
            e = isotropy.sample_gamma(dec, seed)
            samples.append(
                {
                    "seed": seed,
                    "gamma": _mat(e.gamma),
                    "commutator_residual": isotropy.commutator_residual(a, e.gamma),
                }
            )
        payload = {"count": len(samples), "elements": samples}
        _emit(args, payload, text=f"{len(samples)} sampled symmetries")
    else:  # check
        g = matio.parse_matrix(args.candidate)
        member = isotropy.is_member(dec, g, tol=args.tol)
        payload = {
            "member": member,
            "tol": args.tol,
            "orthogonality_residual": float(np.linalg.norm(g @ g.T - np.eye(dec.n))),
            "commutator_residual": isotropy.commutator_residual(a, g),
        }
        _emit(args, payload, text=f"member: {member}")
    return EXIT_OK


# --------------------------------------------------------------- procrustes

def _cmd_procrustes(args):
    a = _load_sym(args.input_a)
    b = _load_sym(args.input_b)
    if args.action == "solve":
        sol = procrustes.solve(a, b, order=args.order)
        payload = {
            "p": _mat(sol.p),
            "cost": sol.cost,
            "lower_bound": sol.lower_bound,
            "order": args.order,
        }
        _emit(args, payload, text=f"cost: {sol.cost!r}\nlower bound: {sol.lower_bound!r}")
    else:  # family
        sols = procrustes.family_sample(a, b, derive_seed(args.seed, 0), args.count)
        payload = {
            "count": len(sols),
            "lower_bound": sols[0].lower_bound if sols else None,
            "solutions": [{"p": _mat(s.p), "cost": s.cost} for s in sols],
        }
        costs = [s.cost for s in sols]
        _emit(args, payload, text=f"{len(sols)} solutions, costs {costs}")
    return EXIT_OK


# -------------------------------------------------------------------- graph

def _cmd_graph(args):
    if args.action == "iso":
        ga = matio.parse_graph(args.input_a)
        gb = matio.parse_graph(args.input_b)
        perm = graphsym.find_isomorphism(ga, gb)
        payload = {
            "isomorphic": perm is not None,
            "mapping": list(perm.mapping) if perm is not None else None,
        }
        _emit(args, payload, text=f"isomorphic: {perm is not None}")
        return EXIT_OK
    graph = matio.parse_graph(args.input)
    if args.action == "spectrum":
        dec = graphsym.adjacency_decomposition(graph, cluster_tol=args.cluster_tol)
        payload = {
            "n": graph.n,
            "edges": graph.edges(),
            "lambdas": _mat(dec.lambdas),
            "multiplicities": list(dec.multiplicities),
        }
        _emit(args, payload, text=f"lambdas: {_mat(dec.lambdas)}\nm: {list(dec.multiplicities)}")
    elif args.action == "aut":
        perms = graphsym.automorphisms(graph, limit=args.limit)
        payload = {
            "count": len(perms),
            "automorphisms": [list(p.mapping) for p in perms],
        }
        _emit(args, payload, text=f"{len(perms)} automorphisms")
    else:  # hidden
        e = graphsym.hidden_symmetry_sample(graph, derive_seed(args.seed, 0))
        perm = graphsym.is_permutation(e.gamma)
        payload = {
            "gamma": _mat(e.gamma),
            "commutator_residual": isotropy.commutator_residual(
                graph.adjacency.astype(float), e.gamma
            ),
            "permutation": list(perm.mapping) if perm is not None else None,
        }
        _emit(args, payload, text="sampled hidden symmetry")
    return EXIT_OK


# ------------------------------------------------------------------ stencil

def _pick_field(name: str) -> stencil.ScalarField:
    try:
        return stencil.BUILTIN_FIELDS[name]
    except KeyError:
        known = ", ".join(sorted(stencil.BUILTIN_FIELDS))
        raise _UsageError(f"unknown function {name!r}; built-ins: {known}") from None


def _sample_nontrivial_gamma(dec, root_seed):
    # skip +/-identity draws: the probe cancels identically on them
    n = dec.n
    for k in range(64):
        e = isotropy.sample_gamma(dec, derive_seed(root_seed, k))
        if not (
            np.allclose(e.gamma, np.eye(n), atol=1e-10)
            or np.allclose(e.gamma, -np.eye(n), atol=1e-10)
        ):
            return e.gamma
    raise DegenerateProbeError("could not sample a nontrivial symmetry")


def _cmd_stencil(args):
    f = _pick_field(args.function)
    x = _parse_vector(args.x)
    h = _parse_vector(args.h)
    hess = stencil.hessian_fd(f, x, step=args.step)
    dec = spectral.eig_sym(hess)
    g1 = np.eye(f.dim)
    g2 = _sample_nontrivial_gamma(dec, args.seed)
    values, slope = stencil.probe_ladder(
        f, x, g1, g2, h, levels=args.levels, hessian=hess
    )
    if args.action == "probe":
        payload = {
            "function": args.function,
            "x": _mat(x),
            "h": _mat(h),
            "value": values[0],
            "slope": slope,
            "gammas": [_mat(g1), _mat(g2)],
        }
        _emit(args, payload, text=f"value: {values[0]!r}\nslope: {slope!r}")
    else:  # order
        payload = {
            "function": args.function,
            "levels": args.levels,
            "slope": slope,
            "values": values,
            "gammas": [_mat(g1), _mat(g2)],
        }
        _emit(args, payload, text=f"slope: {slope!r}")
    return EXIT_OK


# ------------------------------------------------------------------- dynsys

def _component_payload(c) -> dict:
    out = {"kind": c.kind, "radius": float(c.radius)}
    if isinstance(c, dynsys.PointPair):
        out["direction"] = _mat(c.direction)
    elif isinstance(c, (dynsys.Circle, dynsys.Sphere)):
        out["basis"] = _mat(c.basis)
    return out


def _cmd_dynsys(args):
    if args.action == "equilibria":
        eq = dynsys.equilibria(args.mu)
        payload = {
            "mu": args.mu,
            "lambdas": _mat(eq.lambdas),
            "components": [_component_payload(c) for c in eq.components],
        }
        table = (
            ("kind", "radius"),
            [(c.kind, repr(float(c.radius))) for c in eq.components],
        )
        text = "\n".join(f"{c.kind}: radius {c.radius!r}" for c in eq.components)
        _emit(args, payload, table, text)
    elif args.action == "sweep":
        rows = dynsys.sweep(args.mu_from, args.mu_to, args.samples)
        payload = {
            "rows": [
                {
                    "mu": r.mu,
                    "lambdas": list(r.lambdas),
                    "components": [{"kind": k, "radius": rad} for k, rad in r.components],
                    "transition": r.transition,
                }
                for r in rows
            ]
        }
        table = (
            ("mu", "lambda1", "lambda2", "lambda3", "components", "transition"),
            [
                (
                    repr(r.mu),
                    repr(r.lambdas[0]),
                    repr(r.lambdas[1]),
                    repr(r.lambdas[2]),
                    "|".join(f"{k}:{rad!r}" for k, rad in r.components),
                    int(r.transition),
                )
                for r in rows
            ],
        )
        transitions = [repr(r.mu) for r in rows if r.transition]
        text = f"{len(rows)} rows; transitions near mu = {', '.join(transitions)}"
        _emit(args, payload, table, text)
    else:  # integrate
        x0 = _parse_vector(args.x0)
        traj = dynsys.integrate(x0, args.mu, dt=args.dt, steps=args.steps)
        terminal = traj[-1]
        residual = float(np.linalg.norm(dynsys.rhs(terminal, args.mu)))
        payload = {
            "mu": args.mu,
            "dt": args.dt,
            "steps": args.steps,
            "terminal": _mat(terminal),
            "terminal_residual": residual,
            "trajectory": _mat(traj),
        }
        table = (
            ("step", "t", "x1", "x2", "x3"),
            [
                (k, repr(k * args.dt), repr(p[0]), repr(p[1]), repr(p[2]))
                for k, p in enumerate(traj)
            ],
        )
        text = f"terminal: {_mat(terminal)}\nresidual: {residual!r}"
        _emit(args, payload, table, text)
    return EXIT_OK


# ----------------------------------------------------------------- fixtures

def _cmd_fixtures(args):
    results = verify.run_all()
    payload = {
        "passed": sum(r.passed for r in results),
        "total": len(results),
        "results": [
            {
                "name": r.name,
                "passed": r.passed,
                "measure": r.measure,
                "limit": r.limit,
            }
            for r in results
        ],
    }
    _emit(args, payload, text=verify.render_table(results))
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
    p.add_argument("--tol", type=float, default=isotropy.MEMBER_TOL)
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
    p.add_argument("--limit", type=int, default=graphsym.DEFAULT_AUT_LIMIT)
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


def _validate(args):
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
    except (OrthosymError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
