"""Seeded request generators for the benchmark workloads.

All randomness comes from one ``numpy`` generator seeded by ``--seed``, so
the same seed gives the same files and argv.  Inputs are written as matrix
or graph files and the CLI only ever sees those files and argv.  Sizes come
from fixed schedules and only the contents are drawn at random, so every
cycle of a workload has the same request and size mix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checkers


@dataclass
class Request:
    kind: str
    argv: list[str]
    size: int
    check: Callable[[str], None]
    expect: int = 0  # expected exit code
    inputs: tuple[str, ...] = ()


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class Inputs:
    """Draws inputs from the seeded generator and writes them as files."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = Path(workdir)
        self._count = 0

    def write(self, stem: str, text: str) -> str:
        self._count += 1
        path = self.dir / f"{self._count:06d}-{stem}.txt"
        path.write_text(text)
        return str(path)

    def matrix(self, a, stem="matrix") -> str:
        return self.write(stem, "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in a))

    def graph(self, adj) -> str:
        """Every other graph is written as an edge list, the rest (and any
        graph with an isolated vertex, which an edge list cannot carry) as
        an adjacency matrix, so both parse paths run."""
        if self._count % 2 or adj.sum(axis=1).min() == 0:
            return self.write("graph", "".join(" ".join(str(int(x)) for x in row) + "\n" for row in adj))
        iu, ju = np.nonzero(np.triu(adj))
        return self.write("edges", "".join(f"{u} {v}\n" for u, v in zip(iu, ju)))

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def orthogonal(self, n: int) -> np.ndarray:
        q, r = np.linalg.qr(self.rng.standard_normal((n, n)))
        return q * np.where(np.diag(r) < 0, -1.0, 1.0)

    def planted(self, n: int):
        """A = Q diag(lam) Q^T with repeated eigenvalues.  Returns A, the
        multiplicities in ascending eigenvalue order, Q and lam."""
        m, left = [], n
        while left:
            m.append(int(self.rng.integers(1, min(3, left) + 1)))
            left -= m[-1]
        values = np.sort(self.rng.choice(np.arange(-20, 21) * 0.5, size=len(m), replace=False))
        lam = np.repeat(values, m)
        q = self.orthogonal(n)
        a = (q * lam) @ q.T
        return (a + a.T) / 2.0, tuple(m), q, lam

    def commuting(self, q, m) -> np.ndarray:
        """An orthogonal matrix commuting with Q diag(lam) Q^T: a random
        orthogonal block per multiplicity, conjugated back by Q."""
        blocks = np.zeros((len(q), len(q)))
        start = 0
        for size in m:
            blocks[start : start + size, start : start + size] = self.orthogonal(size)
            start += size
        return q @ blocks @ q.T


# ------------------------------------------------------------------ stencil

# The probe's gamma2 is a sign flip in the eigenbasis of a finite-difference
# Hessian, which is off from the true eigenbasis by about 1e-8 / eigengap.
# That error leaves a quadratic term of order 1e-8 ||h||^2 in the probe; where
# the quartic term is small (it vanishes on some planes, such as x3 = 0 for a
# flip of the x3 direction), that term wins at small h and the fitted slope
# falls towards 2.  Such points are drawn again, so every request is one on
# which the probe is informative.
SLOPE_MARGIN = 0.2
MIN_REL_GAP = 1e-2
MIN_PROBE = 1e-12


def informative_probe(x, h, levels) -> bool:
    """True if, for every nontrivial sign flip in the Hessian's eigenbasis
    the program may draw, the probe stays well above rounding level and its
    slope over ``levels`` halvings of ``h`` is within SLOPE_MARGIN of 4."""
    f, n = checkers.trig_quartic, len(x)
    step = 1e-4 * max(1.0, float(np.linalg.norm(x)))
    e = step * np.eye(n)
    hess = np.array(
        [[(f(x + e[i] + e[k]) - f(x + e[i] - e[k]) - f(x - e[i] + e[k]) + f(x - e[i] - e[k])) / (4 * step * step)
          for k in range(n)] for i in range(n)]
    )
    lam, q = np.linalg.eigh((hess + hess.T) / 2.0)
    if np.diff(lam).min() < MIN_REL_GAP * max(1.0, np.abs(lam).max()):
        return False
    hs = [h / 2.0**k for k in range(levels)]
    logs_h = [math.log(float(np.linalg.norm(hk))) for hk in hs]
    for signs in itertools.product((1.0, -1.0), repeat=n):
        if abs(sum(signs)) == n:
            continue  # +/- identity, which the program never draws
        g2 = (q * signs) @ q.T
        values = [checkers.probe(x, np.eye(n), g2, hk) for hk in hs]
        if min(abs(v) for v in values) < MIN_PROBE:
            return False
        slope = float(np.polyfit(logs_h, [math.log(abs(v)) for v in values], 1)[0])
        if abs(slope - 4.0) > SLOPE_MARGIN:
            return False
    return True


# ------------------------------------------------------------------ graphs


def _from_edges(n, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def petersen() -> np.ndarray:
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _from_edges(10, edges + [(i, i + 5) for i in range(5)])


def hypercube(d: int) -> np.ndarray:
    n = 2**d
    return _from_edges(n, [(u, u ^ (1 << k)) for u in range(n) for k in range(d)])


def circulant(n: int, jumps) -> np.ndarray:
    return _from_edges(n, [(u, (u + s) % n) for u in range(n) for s in jumps])


def relabel(adj, perm) -> np.ndarray:
    """The graph with vertex u renamed perm[u]."""
    inv = np.argsort(perm)
    return adj[np.ix_(inv, inv)]


def depth_first_labels(adj, rng) -> np.ndarray:
    """A relabelling that numbers the vertices in the order of a randomised
    depth-first traversal (for connected graphs)."""
    order, seen, stack = [], set(), [int(rng.integers(len(adj)))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        stack += [int(u) for u in rng.permutation(np.flatnonzero(adj[v])) if int(u) not in seen]
    perm = np.empty(len(adj), dtype=np.int64)
    perm[order] = np.arange(len(adj))
    return perm


def random_cubic(n: int, rng) -> np.ndarray:
    """Uniform 3-regular simple graph by the configuration model with rejection."""
    while True:
        points = rng.permutation(np.repeat(np.arange(n), 3))
        pairs = {(int(min(u, v)), int(max(u, v))) for u, v in zip(points[::2], points[1::2])}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return _from_edges(n, pairs)


def gnp(n: int, p: float, rng) -> np.ndarray:
    a = np.triu((rng.random((n, n)) < p).astype(np.int64), 1)
    return a + a.T


# --------------------------------------------------------------- workloads


class DenseEig:
    name = "dense-eig"
    why = (
        "planted-multiplicity matrices n=16/24/32/48/64 (3:2:1:1:1); eig, isotropy sample/check, "
        "procrustes solve/family; each matrix feeds 6 requests, so the Jacobi solver dominates"
    )
    sizes = (16, 16, 16, 24, 24, 32, 48, 64)
    trace_cycles = 1

    def group(self, inp: Inputs, n: int) -> list[Request]:
        a, m, q, lam = inp.planted(n)
        b = inp.planted(n)[0]
        r = inp.orthogonal(n)
        b_iso = (r * lam) @ r.T
        b_iso = (b_iso + b_iso.T) / 2.0
        member, other = inp.commuting(q, m), inp.orthogonal(n)
        pa, pb, pi = inp.matrix(a), inp.matrix(b), inp.matrix(b_iso)
        pm, po = inp.matrix(member, "candidate"), inp.matrix(other, "candidate")
        return [
            Request("eig", ["eig", "--input", pa], n, partial(checkers.eig, a=a, multiplicities=m), inputs=(pa,)),
            Request(
                "isotropy sample",
                ["isotropy", "sample", "--input", pa, "--count", "2", "--seed", str(inp.seed())],
                n, partial(checkers.isotropy_sample, a=a, count=2), inputs=(pa,),
            ),
            Request(
                "isotropy check", ["isotropy", "check", "--input", pa, "--candidate", pm],
                n, partial(checkers.isotropy_check, a=a, g=member, member=True), inputs=(pa, pm),
            ),
            Request(
                "isotropy check", ["isotropy", "check", "--input", pa, "--candidate", po],
                n, partial(checkers.isotropy_check, a=a, g=other, member=False), inputs=(pa, po),
            ),
            Request(
                "procrustes solve", ["procrustes", "solve", "--input-a", pa, "--input-b", pb],
                n, partial(checkers.procrustes_solve, a=a, b=b), inputs=(pa, pb),
            ),
            Request(
                "procrustes family",
                ["procrustes", "family", "--input-a", pa, "--input-b", pi, "--count", "3", "--seed", str(inp.seed())],
                n, partial(checkers.procrustes_family, a=a, b=b_iso, count=3), inputs=(pa, pi),
            ),
        ]

    def warmup(self, inp: Inputs) -> list[Request]:
        return self.group(inp, 16)

    def cycle(self, inp: Inputs) -> list[Request]:
        return [r for n in self.sizes for r in self.group(inp, n)]


class SmallMixed:
    name = "small-mixed"
    why = (
        "n=3-8 requests, each input distinct: dynsys, stencil, isotropy, eig, graph spectrum, fixtures "
        "verify, exit-1 files, plus bulk gamma2 n=10-12; per-call overhead and output size dominate"
    )
    trace_cycles = 4
    bulk_sizes = (10, 11, 12)

    def _mu(self, inp: Inputs) -> float:
        # away from mu = 0.5, where the guiding spectrum is threefold
        while True:
            mu = float(inp.rng.uniform(-0.5, 1.5))
            if abs(mu - 0.5) > 0.01:
                return mu

    def _guiding(self, inp: Inputs):
        mu = self._mu(inp)
        a = checkers.guiding(mu)
        return a, ((1, 2) if mu < 0.5 else (2, 1)), inp.matrix(a)

    def _planted(self, inp: Inputs, n: int):
        a, m, q, _ = inp.planted(n)
        return a, m, q, inp.matrix(a)

    def dynsys(self, inp: Inputs, j: int) -> list[Request]:
        mu = self._mu(inp)
        if j % 2:
            w = float(inp.rng.uniform(0.55, 1.0))  # grid centred on mu = 0.5
            lo, hi = 0.5 - w, 0.5 + w
        else:
            lo, hi = -float(inp.rng.uniform(0.1, 0.6)), 1.0 + float(inp.rng.uniform(0.1, 0.6))
        samples = (41, 61, 81)[j]
        x0 = inp.rng.uniform(-0.5, 0.5, 3)
        mu_x = self._mu(inp)
        steps = (200, 300, 400)[j]
        return [
            Request("dynsys equilibria", ["dynsys", "equilibria", f"--mu={mu!r}"], 3, partial(checkers.dynsys_equilibria, mu=mu)),
            Request(
                "dynsys sweep", ["dynsys", "sweep", f"--from={lo!r}", f"--to={hi!r}", "--samples", str(samples)],
                3, partial(checkers.dynsys_sweep, mu_from=lo, mu_to=hi, samples=samples),
            ),
            Request(
                "dynsys integrate",
                ["dynsys", "integrate", f"--x0={_fmt(x0)}", f"--mu={mu_x!r}", "--dt", "0.01", "--steps", str(steps)],
                3, partial(checkers.dynsys_integrate, x0=x0, mu=mu_x, dt=0.01, steps=steps),
            ),
        ]

    def stencil(self, inp: Inputs, j: int) -> list[Request]:
        out = []
        for action, check in (("probe", checkers.stencil_probe), ("order", checkers.stencil_order)):
            levels = (4, 5, 6)[j]
            while True:
                x = inp.rng.uniform(-1.5, 1.5, 3)
                h = inp.rng.uniform(0.05, 0.2, 3) * inp.rng.choice([-1.0, 1.0], 3)
                if informative_probe(x, h, levels):
                    break
            argv = [
                "stencil", action, "--function", "trig-quartic", f"--x={_fmt(x)}", f"--h={_fmt(h)}",
                "--levels", str(levels), "--seed", str(inp.seed()),
            ]
            out.append(Request(f"stencil {action}", argv, 3, partial(check, x=x, h=h, levels=levels)))
        return out

    def isotropy(self, inp: Inputs, j: int) -> list[Request]:
        ga, gm, gp = self._guiding(inp)
        pa, pm, _, pp = self._planted(inp, (4, 6, 8)[j])
        sa, _, sp = self._guiding(inp)
        ca, cm, cq, cp = self._planted(inp, (3, 5, 7)[j])
        member = j != 1
        cand = inp.commuting(cq, cm) if member else inp.orthogonal(len(ca))
        pc = inp.matrix(cand, "candidate")
        return [
            Request("isotropy gamma2", ["isotropy", "gamma2", "--input", gp], 3, partial(checkers.isotropy_gamma2, a=ga, multiplicities=gm), inputs=(gp,)),
            Request("isotropy gamma2", ["isotropy", "gamma2", "--input", pp], len(pa), partial(checkers.isotropy_gamma2, a=pa, multiplicities=pm), inputs=(pp,)),
            Request(
                "isotropy sample", ["isotropy", "sample", "--input", sp, "--count", "2", "--seed", str(inp.seed())],
                3, partial(checkers.isotropy_sample, a=sa, count=2), inputs=(sp,),
            ),
            Request(
                "isotropy check", ["isotropy", "check", "--input", cp, "--candidate", pc],
                len(ca), partial(checkers.isotropy_check, a=ca, g=cand, member=member), inputs=(cp, pc),
            ),
        ]

    def spectra(self, inp: Inputs, j: int) -> list[Request]:
        a, m, _, pa = self._planted(inp, (3, 6, 8)[j])
        g = gnp((6, 7, 8)[j], 0.5, inp.rng)
        pg = inp.graph(g)
        return [
            Request("eig", ["eig", "--input", pa], len(a), partial(checkers.eig, a=a, multiplicities=m), inputs=(pa,)),
            Request("graph spectrum", ["graph", "spectrum", "--input", pg], len(g), partial(checkers.graph_spectrum, adj=g), inputs=(pg,)),
        ]

    def bad_input(self, inp: Inputs, j: int) -> Request:
        """Files that must be rejected with exit 1."""
        n = 4 + j
        a = inp.rng.standard_normal((n, n))
        if j == 0:
            path, kind = inp.matrix(a + np.triu(np.ones((n, n)), 1), "asymmetric"), "eig asymmetric"
        elif j == 1:
            path, kind = inp.matrix(inp.rng.standard_normal((n, n + 1)), "nonsquare"), "eig nonsquare"
        else:
            rows = [" ".join(repr(float(x)) for x in row) for row in a + a.T]
            rows[int(inp.rng.integers(n))] += "e"
            path, kind = inp.write("malformed", "\n".join(rows) + "\n"), "eig malformed"
        return Request(kind, ["eig", "--input", path], n, checkers.no_output, expect=1, inputs=(path,))

    def fixtures(self) -> Request:
        return Request("fixtures verify", ["fixtures", "verify"], 16, checkers.fixtures_verify)

    def bulk(self, inp: Inputs, n: int) -> Request:
        a, m, _, pa = self._planted(inp, n)
        return Request(
            "isotropy gamma2 bulk", ["isotropy", "gamma2", "--input", pa], n,
            partial(checkers.isotropy_gamma2, a=a, multiplicities=m), inputs=(pa,),
        )

    def warmup(self, inp: Inputs) -> list[Request]:
        return (
            self.dynsys(inp, 0) + self.stencil(inp, 0) + self.isotropy(inp, 0) + self.spectra(inp, 0)
            + [self.bad_input(inp, j) for j in range(3)] + [self.fixtures(), self.bulk(inp, self.bulk_sizes[-1])]
        )

    def cycle(self, inp: Inputs) -> list[Request]:
        out = []
        for j in (0, 1, 2, 0, 1, 2):
            out += self.dynsys(inp, j) + self.stencil(inp, j) + self.isotropy(inp, j) + self.spectra(inp, j)
            out.append(self.bad_input(inp, j))
        out.append(self.fixtures())
        return out + [self.bulk(inp, n) for n in self.bulk_sizes]


class GraphSearch:
    name = "graph-search"
    why = (
        "graph aut on relabelled Petersen, Q3, Q4, C10, C12(1,2), cubic n=12/14 and G(n,p) n=20-40 "
        "with relabelled copies; graph iso n=10-12; graph hidden; all inputs distinct; search dominates"
    )
    trace_cycles = 6
    # Random cubic graphs at n=16 and above vary too much in search time
    # (0.02-1 s at n=16) for a steady run; they are left out.
    cubic_sizes = (12,) * 8 + (14,)
    gnp_sizes = (20, 30, 40)
    iso_cubic = 8

    def __init__(self):
        self.aut = checkers.GraphAut()
        self._key = 0

    def _aut(self, inp: Inputs, adj, kind, order=None, depth_first=False) -> Request:
        perm = depth_first_labels(adj, inp.rng) if depth_first else inp.rng.permutation(len(adj))
        g = relabel(adj, perm)
        path = inp.graph(g)
        return Request(kind, ["graph", "aut", "--input", path], len(g), partial(self.aut, adj=g, order=order), inputs=(path,))

    def _aut_pair(self, inp: Inputs, adj, kind) -> list[Request]:
        """The graph and a relabelled copy; the copy's group must be the
        conjugate of the original's."""
        self._key += 1
        key = f"{kind}-{self._key}"
        perm = inp.rng.permutation(len(adj))
        copy = relabel(adj, perm)
        pa, pc = inp.graph(adj), inp.graph(copy)
        return [
            Request(kind, ["graph", "aut", "--input", pa], len(adj), partial(self.aut, adj=adj, remember=key), inputs=(pa,)),
            Request(kind, ["graph", "aut", "--input", pc], len(adj), partial(self.aut, adj=copy, original=key, perm=perm), inputs=(pc,)),
        ]

    def _iso(self, inp: Inputs, a, b, isomorphic, kind) -> Request:
        a = relabel(a, inp.rng.permutation(len(a)))
        b = relabel(b, inp.rng.permutation(len(b)))
        pa, pb = inp.graph(a), inp.graph(b)
        return Request(
            kind, ["graph", "iso", "--input-a", pa, "--input-b", pb], len(a),
            partial(checkers.graph_iso, a=a, b=b, isomorphic=isomorphic), inputs=(pa, pb),
        )

    def iso_requests(self, inp: Inputs, cubic: int) -> list[Request]:
        same = [random_cubic(12, inp.rng) for _ in range(cubic)]
        g = gnp(10, 0.4, inp.rng)
        iu, ju = np.nonzero(np.triu(g))
        k = int(inp.rng.integers(len(iu)))
        h = g.copy()
        h[iu[k], ju[k]] = h[ju[k], iu[k]] = 0  # one edge fewer: never isomorphic
        # K(1,4) and C4 + K1 are cospectral; adding the same random graph to
        # both keeps them cospectral and non-isomorphic
        x = gnp(6, 0.5, inp.rng)
        star = np.zeros((11, 11), dtype=np.int64)
        star[:6, :6] = x
        square = star.copy()
        star[6:, 6:] = _from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        square[6:, 6:] = _from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        return [
            *(self._iso(inp, a, a, True, "graph iso") for a in same),
            self._iso(inp, g, h, False, "graph iso"),
            self._iso(inp, star, square, False, "graph iso cospectral"),
        ]

    def hidden(self, inp: Inputs, n: int) -> Request:
        g = gnp(n, 0.5, inp.rng)
        path = inp.graph(g)
        return Request(
            "graph hidden", ["graph", "hidden", "--input", path, "--seed", str(inp.seed())], len(g),
            partial(checkers.graph_hidden, adj=g), inputs=(path,),
        )

    def warmup(self, inp: Inputs) -> list[Request]:
        return (
            [self._aut(inp, petersen(), "graph aut petersen", 120)]
            + self._aut_pair(inp, random_cubic(12, inp.rng), "graph aut cubic")
            + self.iso_requests(inp, 1) + [self.hidden(inp, 7)]
        )

    def cycle(self, inp: Inputs) -> list[Request]:
        # The counts put the median inside the band of mid-cost requests
        # (cubic n=12 searches, circulants) rather than on a class boundary.
        out = [
            self._aut(inp, petersen(), "graph aut petersen", 120),
            self._aut(inp, hypercube(3), "graph aut hypercube", 48),
            # Under a uniformly random labelling the search on Q4 takes
            # 0.1-1.5 s; depth-first labellings keep it near 0.1 s and still
            # give a new file every time.
            self._aut(inp, hypercube(4), "graph aut hypercube", 384, depth_first=True),
            # dihedral groups: the 10-cycle, and the square of the 12-cycle
            self._aut(inp, circulant(10, (1,)), "graph aut circulant", 20),
            self._aut(inp, circulant(12, (1, 2)), "graph aut circulant", 24),
        ]
        for n in self.cubic_sizes:
            out += self._aut_pair(inp, random_cubic(n, inp.rng), "graph aut cubic")
        for n in self.gnp_sizes:
            out += self._aut_pair(inp, gnp(n, 0.3, inp.rng), "graph aut gnp")
        return out + self.iso_requests(inp, self.iso_cubic) + [self.hidden(inp, 7), self.hidden(inp, 10)]


WORKLOADS = {w.name: w for w in (DenseEig, SmallMixed, GraphSearch)}
