"""Per-request output checks.

Each checker reads one JSON response and validates it against the inputs
the benchmark generated, using numpy and closed-form facts only; nothing
here calls orthosym.  A checker raises CheckError on a wrong answer.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckError(Exception):
    """The response is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def _orth_err(g: np.ndarray) -> float:
    return _fro(g @ g.T - np.eye(g.shape[0]))


def _close(got, want, tol) -> bool:
    return abs(float(got) - float(want)) <= tol


def _scale(a) -> float:
    return max(1.0, _fro(a))


def no_output(out: str):
    """Expected-error requests write nothing to stdout."""
    _require(out == "", f"expected no output, got {len(out)} characters")


# ------------------------------------------------------------------ matrices


def eig(out, a, multiplicities):
    d = json.loads(out)
    lam = np.array(d["lambdas"], dtype=float)
    ref = np.linalg.eigvalsh(a)
    s = _scale(a)
    _require(lam.shape == ref.shape, "wrong number of eigenvalues")
    _require(float(np.max(np.abs(lam - ref))) <= 1e-9 * s, "eigenvalues differ from eigvalsh")
    _require(tuple(d["multiplicities"]) == tuple(multiplicities), f"multiplicities {d['multiplicities']} != planted {multiplicities}")
    _require([m for _, m in d["clusters"]] == list(multiplicities), "clusters disagree with multiplicities")
    v = np.array(d["v"], dtype=float)
    _require(_orth_err(v) <= 1e-9 * len(lam), "eigenvectors are not orthonormal")
    _require(_fro(v @ a @ v.T - np.diag(lam)) <= 1e-9 * s, "V A V^T is not diag(lambdas)")


def isotropy_sample(out, a, count):
    d = json.loads(out)
    _require(d["count"] == count == len(d["elements"]), "wrong sample count")
    s = _scale(a)
    for e in d["elements"]:
        g = np.array(e["gamma"], dtype=float)
        _require(_orth_err(g) <= 1e-9 * len(a), "sample is not orthogonal")
        comm = _fro(g @ a - a @ g)
        _require(comm <= 1e-8 * s, f"sample does not commute ({comm:.2e})")
        _require(_close(e["commutator_residual"], comm, 1e-9 * s), "reported commutator residual is wrong")


def isotropy_check(out, a, g, member):
    d = json.loads(out)
    _require(d["member"] is member, f"membership verdict {d['member']} != expected {member}")
    _require(_close(d["orthogonality_residual"], _orth_err(g), 1e-9), "reported orthogonality residual is wrong")
    comm = _fro(g @ a - a @ g)
    _require(_close(d["commutator_residual"], comm, 1e-9 * _scale(a)), "reported commutator residual is wrong")


def _gamma2_parts(out):
    """Split an ``isotropy gamma2`` response into its header fields and an
    iterator over its elements, so a large response is never decoded into
    one object."""
    key = '"elements": ['
    start = out.index(key)
    head = json.loads(out[:start].rstrip(", ") + "}")
    decoder = json.JSONDecoder()

    def elements():
        pos = start + len(key)
        while out[pos] != "]":
            element, pos = decoder.raw_decode(out, pos)
            yield element
            if out.startswith(", ", pos):
                pos += 2
        tail.update(json.loads("{" + out[pos + 1 :].lstrip(", ")))

    tail: dict = {}
    return head, elements(), tail


def isotropy_gamma2(out, a, multiplicities):
    """All 2^n sign elements: each an involution commuting with A, with
    trace n - 2 * (number of minus signs encoded by its index)."""
    n = a.shape[0]
    head, elements, tail = _gamma2_parts(out)
    _require(head["count"] == 2**n, f"count {head['count']} != 2^{n}")
    s = _scale(a)
    eye = np.eye(n)
    seen = 0
    batch, indices = [], []

    def flush():
        g = np.array(batch, dtype=float)
        _require(float(np.max(np.abs(g - g.transpose(0, 2, 1)))) <= 1e-9, "sign element is not symmetric")
        _require(float(np.max(np.linalg.norm(g @ g - eye, axis=(1, 2)))) <= 1e-9 * n, "sign element is not an involution")
        comm = np.linalg.norm(g @ a - a @ g, axis=(1, 2))
        _require(float(np.max(comm)) <= 1e-8 * s, "sign element does not commute")
        want = np.array([n - 2 * bin(k).count("1") for k in indices], dtype=float)
        _require(float(np.max(np.abs(np.trace(g, axis1=1, axis2=2) - want))) <= 1e-8 * n, "trace disagrees with sign index")
        batch.clear()
        indices.clear()

    for element in elements:
        _require(element["index"] == seen, "sign elements out of order")
        batch.append(element["gamma"])
        indices.append(element["index"])
        seen += 1
        if len(batch) == 256:
            flush()
    if batch:
        flush()
    _require(seen == head["count"], "element list length differs from count")
    _require(tuple(tail["multiplicities"]) == tuple(multiplicities), f"multiplicities {tail['multiplicities']} != planted {multiplicities}")


def procrustes_solve(out, a, b):
    d = json.loads(out)
    p = np.array(d["p"], dtype=float)
    s = _scale(a) + _scale(b)
    _require(_orth_err(p) <= 1e-9 * len(a), "P is not orthogonal")
    cost = _fro(p @ a - b @ p)
    bound = _fro(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b))
    _require(_close(d["cost"], cost, 1e-9 * s), "reported cost is wrong")
    _require(_close(d["lower_bound"], bound, 1e-9 * s), "reported lower bound is wrong")
    _require(cost <= bound + 1e-8 * s, f"cost {cost:.6g} exceeds the lower bound {bound:.6g}")


def procrustes_family(out, a, b, count):
    d = json.loads(out)
    s = _scale(a) + _scale(b)
    bound = _fro(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b))
    _require(d["count"] == count == len(d["solutions"]), "wrong solution count")
    _require(_close(d["lower_bound"], bound, 1e-9 * s), "reported lower bound is wrong")
    for sol in d["solutions"]:
        p = np.array(sol["p"], dtype=float)
        _require(_orth_err(p) <= 1e-9 * len(a), "P is not orthogonal")
        cost = _fro(p @ a - b @ p)
        _require(_close(sol["cost"], cost, 1e-9 * s), "reported cost is wrong")
        _require(cost <= bound + 1e-8 * s, "family member is not optimal")


# -------------------------------------------------------------------- graphs


def _automorphism_rows(adj, maps) -> np.ndarray:
    m = np.array(maps, dtype=np.int64).reshape(len(maps), adj.shape[0])
    _require(bool(np.all(np.sort(m, axis=1) == np.arange(adj.shape[0]))), "a mapping is not a bijection")
    _require(bool(np.all(adj[m[:, :, None], m[:, None, :]] == adj)), "a mapping does not preserve every edge")
    return m


class GraphAut:
    """Checks ``graph aut``.  Every mapping must preserve every edge and be
    listed once; ``order`` is the known group order, if any.  A response
    checked with ``remember=key`` is kept until its relabelled copy is
    checked with ``original=key`` and the relabelling ``perm``: the copy
    must have exactly the conjugated automorphism set."""

    def __init__(self):
        self.groups: dict[str, set] = {}

    def __call__(self, out, adj, order=None, remember=None, original=None, perm=None):
        d = json.loads(out)
        maps = d["automorphisms"]
        _require(d["count"] == len(maps) >= 1, "count disagrees with the list")
        m = _automorphism_rows(adj, maps)
        found = {tuple(r) for r in m.tolist()}
        _require(len(found) == len(maps), "an automorphism is listed twice")
        _require(tuple(range(adj.shape[0])) in found, "identity missing")
        if order is not None:
            _require(len(found) == order, f"found {len(found)} automorphisms, the group has {order}")
        if remember is not None:
            self.groups[remember] = found
        if original is not None:
            # a failed original was already counted; its copy is checked alone
            group = self.groups.pop(original, None)
            if group is not None:
                inv = np.argsort(perm)
                want = {tuple(int(perm[g[inv[i]]]) for i in range(len(perm))) for g in group}
                _require(found == want, "relabelled copy has a different automorphism group")


def graph_iso(out, a, b, isomorphic):
    d = json.loads(out)
    _require(d["isomorphic"] is isomorphic, f"isomorphic={d['isomorphic']}, expected {isomorphic}")
    if isomorphic:
        m = np.array(d["mapping"], dtype=np.int64)
        _require(sorted(m.tolist()) == list(range(len(a))), "mapping is not a bijection")
        _require(bool(np.all(b[m[:, None], m[None, :]] == a)), "mapping does not carry A onto B")
    else:
        _require(d["mapping"] is None, "non-isomorphic pair returned a mapping")


def graph_hidden(out, adj):
    d = json.loads(out)
    a = adj.astype(float)
    g = np.array(d["gamma"], dtype=float)
    _require(_orth_err(g) <= 1e-9 * len(a), "gamma is not orthogonal")
    comm = _fro(g @ a - a @ g)
    _require(comm <= 1e-8 * _scale(a), "gamma does not commute with the adjacency matrix")
    _require(_close(d["commutator_residual"], comm, 1e-9 * _scale(a)), "reported commutator residual is wrong")
    if d["permutation"] is not None:
        _automorphism_rows(adj, [d["permutation"]])


def graph_spectrum(out, adj):
    d = json.loads(out)
    ref = np.linalg.eigvalsh(adj.astype(float))
    lam = np.array(d["lambdas"], dtype=float)
    _require(d["n"] == len(adj), "wrong n")
    iu, ju = np.nonzero(np.triu(adj))
    _require([tuple(e) for e in d["edges"]] == list(zip(iu.tolist(), ju.tolist())), "edge list differs from the input")
    _require(lam.shape == ref.shape and float(np.max(np.abs(lam - ref))) <= 1e-9 * _scale(adj), "eigenvalues differ")
    _require(sum(d["multiplicities"]) == len(adj), "multiplicities do not sum to n")
    tol = 1e-8 * max(1.0, float(np.max(np.abs(ref))))
    gaps = np.diff(ref)
    if not np.any((gaps > tol / 100) & (gaps < tol * 100)):
        want = np.diff(np.flatnonzero(np.concatenate(([True], gaps > tol, [True])))).tolist()
        _require(d["multiplicities"] == want, f"multiplicities {d['multiplicities']} != {want}")


# -------------------------------------------------------- guiding system


def guiding(mu: float) -> np.ndarray:
    """The guiding system's coefficient matrix, from its definition."""
    c = 2.0 * mu - 1.0
    r = math.sqrt(2.0) * c
    return np.array([[2.0, r, r], [r, 3.0 - 2.0 * mu, c], [r, c, 3.0 - 2.0 * mu]])


def _inventory(mu):
    """Expected component kinds at mu from the closed-form spectrum
    (4 mu simple, 4 (1 - mu) double), or None when mu sits so close to a
    clustering threshold that either answer is acceptable."""
    l1, l2 = 4.0 * mu, 4.0 * (1.0 - mu)
    cut = 1e-8 * max(1.0, abs(l1), abs(l2))
    if any(cut / 100 < abs(x) < cut * 100 for x in (l1, l2, l1 - l2)):
        return None
    if abs(l1 - l2) <= cut:
        return ("origin", "sphere") if l1 > cut else ("origin",)
    kinds = ["origin"]
    if l1 > cut:
        kinds.append("point-pair")
    if l2 > cut:
        kinds.append("circle")
    return tuple(sorted(kinds))


def _spectrum(mu):
    return np.sort([4.0 * mu, 4.0 * (1.0 - mu), 4.0 * (1.0 - mu)])


def _equilibrium_residual(mu, x) -> float:
    a = guiding(mu)
    return _fro(a @ x - float(x @ x) * x)


def dynsys_equilibria(out, mu):
    d = json.loads(out)
    lam = np.array(d["lambdas"], dtype=float)
    _require(float(np.max(np.abs(lam - _spectrum(mu)))) <= 1e-8 * 4 * max(1, abs(mu)), "spectrum differs from 4mu, 4(1-mu)")
    kinds = tuple(sorted(c["kind"] for c in d["components"]))
    want = _inventory(mu)
    _require(want is None or kinds == want, f"components {kinds} != expected {want}")
    for c in d["components"]:
        r = c["radius"]
        if c["kind"] == "origin":
            continue
        basis = np.atleast_2d(np.array(c.get("direction", c.get("basis")), dtype=float))
        _require(_fro(basis @ basis.T - np.eye(len(basis))) <= 1e-9, "basis is not orthonormal")
        for row in basis:
            _require(_equilibrium_residual(mu, r * row) <= 1e-7 * max(1.0, r**3), f"{c['kind']} point is not an equilibrium")


def dynsys_sweep(out, mu_from, mu_to, samples):
    d = json.loads(out)
    rows = d["rows"]
    grid = np.linspace(mu_from, mu_to, samples)
    _require(len(rows) == samples, "wrong number of rows")
    previous = None
    for row, mu in zip(rows, grid):
        _require(row["mu"] == float(mu), "row mu is off the grid")
        lam = np.array(row["lambdas"], dtype=float)
        _require(float(np.max(np.abs(lam - _spectrum(mu)))) <= 1e-8 * 4 * max(1, abs(mu)), "spectrum differs")
        inv = _inventory(float(mu))
        kinds = tuple(sorted(c["kind"] for c in row["components"]))
        _require(inv is None or kinds == inv, f"components at mu={mu} are {kinds}, expected {inv}")
        if inv is not None and previous is not None:
            _require(row["transition"] == (inv != previous), f"transition flag wrong at mu={mu}")
        previous = inv
    # every transition sits at the first grid point past 0, 0.5 or 1
    for i, row in enumerate(rows):
        if row["transition"]:
            lo, mu = grid[i - 1], grid[i]
            _require(any(lo - 1e-9 <= t <= mu + 1e-9 for t in (0.0, 0.5, 1.0)), f"transition at mu={mu} is not at 0, 0.5 or 1")


def _rk4_step(mu, x, dt):
    a = guiding(mu)

    def f(y):
        return a @ y - (y @ y) * y

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def dynsys_integrate(out, x0, mu, dt, steps):
    d = json.loads(out)
    traj = np.array(d["trajectory"], dtype=float)
    _require(traj.shape == (steps + 1, 3), "wrong trajectory shape")
    _require(np.array_equal(traj[0], np.asarray(x0, dtype=float)), "trajectory does not start at x0")
    _require(np.array_equal(np.array(d["terminal"]), traj[-1]), "terminal is not the last state")
    for k in np.linspace(0, steps - 1, 8).astype(int):
        step = _rk4_step(mu, traj[k], dt)
        _require(float(np.max(np.abs(step - traj[k + 1]))) <= 1e-12 * max(1.0, _fro(step)), f"RK4 step {k} is wrong")
    res = _equilibrium_residual(mu, traj[-1])
    _require(_close(d["terminal_residual"], res, 1e-12 * max(1.0, res)), "reported terminal residual is wrong")


# ------------------------------------------------------------------ stencil


def trig_quartic(x) -> float:
    x1, x2, x3 = (float(t) for t in x)
    return x1 * x2 * x3**2 + x1**2 - 3.0 * x2**2 + x2 * math.sin(x1) - x2**2 * x3**2


def probe(x, g1, g2, h) -> float:
    f = trig_quartic
    return (f(x + g1 @ h) + f(x - g1 @ h)) - (f(x + g2 @ h) + f(x - g2 @ h))


def _stencil_common(d, x, h, levels):
    g1, g2 = (np.array(g, dtype=float) for g in d["gammas"])
    _require(np.array_equal(g1, np.eye(3)), "gamma1 is not the identity")
    _require(_orth_err(g2) <= 1e-9, "gamma2 is not orthogonal")
    _require(not (np.allclose(g2, np.eye(3)) or np.allclose(g2, -np.eye(3))), "gamma2 is +/- identity")
    values = [probe(x, g1, g2, h / 2.0**k) for k in range(levels)]
    logs_h = [math.log(_fro(h / 2.0**k)) for k in range(levels)]
    slope = float(np.polyfit(logs_h, [math.log(abs(v)) for v in values], 1)[0])
    _require(abs(d["slope"] - slope) <= 1e-6, f"reported slope {d['slope']} != recomputed {slope}")
    # fourth order up to the higher-order terms a finite h leaves (the CLI's
    # own tests allow 3-5); the workloads draw only points where every
    # possible gamma2 gives a slope within 0.2 of 4
    _require(abs(slope - 4.0) <= 0.5, f"probe slope {slope} is not near 4")
    return values


def stencil_probe(out, x, h, levels):
    d = json.loads(out)
    values = _stencil_common(d, x, h, levels)
    _require(_close(d["value"], values[0], 1e-13 + 1e-9 * abs(values[0])), "probe value is wrong")


def stencil_order(out, x, h, levels):
    d = json.loads(out)
    values = _stencil_common(d, x, h, levels)
    _require(d["levels"] == levels == len(d["values"]), "wrong number of levels")
    for got, want in zip(d["values"], values):
        _require(_close(got, want, 1e-13 + 1e-9 * abs(want)), "probe value is wrong")


def fixtures_verify(out):
    d = json.loads(out)
    _require(d["total"] == len(d["results"]) >= 1, "no results")
    _require(d["passed"] == d["total"] and all(r["passed"] for r in d["results"]), "a reference check failed")
