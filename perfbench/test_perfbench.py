"""Self-tests of the benchmark harness: output checks, span recorder and
per-request deadline.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from orthosym import cli, dynsys, graphsym, procrustes, spectral, stencil  # noqa: E402


@pytest.fixture
def inp(tmp_path):
    return workloads.Inputs(7, tmp_path)


class Damaging:
    """A CLI whose responses are damaged after the real CLI produced them."""

    def __init__(self, damage):
        self.damage = damage

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        text, rc = self.damage(buf.getvalue(), rc)
        sys.stdout.write(text)
        return rc


def _edit(fn):
    def damage(text, rc):
        d = json.loads(text)
        fn(d)
        return json.dumps(d, sort_keys=True) + "\n", rc

    return damage


def _drop_automorphism(d):
    d["automorphisms"].pop()
    d["count"] -= 1


DAMAGES = {
    "eig": _edit(lambda d: d["lambdas"].__setitem__(0, d["lambdas"][0] + 1e-6)),
    "isotropy check": _edit(lambda d: d.__setitem__("member", not d["member"])),
    "procrustes solve": _edit(lambda d: d.__setitem__("cost", d["cost"] * 1.001 + 1e-6)),
    "graph aut petersen": _edit(_drop_automorphism),
    "fixtures verify": _edit(lambda d: d["results"][0].__setitem__("passed", False)),
    "eig asymmetric": lambda text, rc: (text, 0),
    "truncated": lambda text, rc: (text[: len(text) // 2], rc),
}


def _requests(inp):
    dense = workloads.DenseEig().group(inp, 6)
    small = workloads.SmallMixed()
    return {
        "eig": dense[0],
        "isotropy check": dense[2],
        "procrustes solve": dense[4],
        "graph aut petersen": workloads.GraphSearch()._aut(inp, workloads.petersen(), "graph aut petersen", 120),
        "fixtures verify": small.fixtures(),
        "eig asymmetric": small.bad_input(inp, 0),
        "truncated": dense[5],
    }


def test_honest_responses_pass(inp):
    client = harness.Client(cli)
    outcomes = [client.send(r) for r in _requests(inp).values()]
    assert [o.failure for o in outcomes] == [None] * len(outcomes)
    assert harness.failed_ratio(outcomes) == 0.0


@pytest.mark.parametrize("kind", sorted(DAMAGES))
def test_damaged_response_counts_as_failed(inp, kind):
    req = _requests(inp)[kind]
    honest = harness.Client(cli).send(req)
    damaged = harness.Client(Damaging(DAMAGES[kind])).send(req)
    assert honest.failure is None
    assert damaged.failure is not None and not damaged.cut
    assert harness.failed_ratio([honest, damaged]) == 0.5


def test_same_seed_same_inputs(tmp_path):
    argvs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        inp = workloads.Inputs(3, tmp_path / sub)
        reqs = workloads.SmallMixed().cycle(inp) + workloads.GraphSearch().cycle(inp)
        argvs.append([[Path(a).read_text() if a.startswith(str(tmp_path)) else a for a in r.argv] for r in reqs])
    assert argvs[0] == argvs[1]


def test_uninformative_probe_points_are_drawn_again():
    # near x3 = 0 the quartic term of an x3 flip almost vanishes, and the
    # program's answer (correct for this input) has slope 2.99
    x = np.array([-0.19010644017479983, 0.8967295427364776, -0.01623571537420765])
    h = np.array([-0.06239349269158589, -0.13230635426831308, -0.11602617005879609])
    assert not workloads.informative_probe(x, h, 6)
    assert workloads.informative_probe(np.array([0.7, -0.4, 1.1]), h, 6)


# ------------------------------------------------------------------ spans


@pytest.fixture
def recorder():
    rec = spans.Recorder()
    rec.install()
    yield rec
    rec.uninstall()


def test_every_binding_site_is_wrapped(recorder):
    sites = {}
    for owner, attr, original in recorder._patched:
        sites.setdefault(getattr(original, "__qualname__", attr), set()).add(getattr(owner, "__name__", owner))
        assert getattr(owner, attr).__wrapped__ is original
    assert {"orthosym", "orthosym.spectral", "orthosym.procrustes", "orthosym.graphsym", "orthosym.stencil", "orthosym.dynsys"} <= sites["eig_sym"]
    assert {"orthosym.isotropy", "orthosym.graphsym"} <= sites["sample_gamma"]
    assert {"orthosym.isotropy", "orthosym.stencil"} <= sites["is_member"]


def test_call_through_each_binding_site_makes_a_span(recorder):
    a = np.diag([1.0, 2.0, 2.0])
    eig_sites = [owner for owner, attr, _ in recorder._patched if attr == "eig_sym"]
    for owner in eig_sites:
        before = len(recorder.name)
        owner.eig_sym(a)
        assert recorder.name[before] == "spectral.eig_sym"
    dec = spectral.eig_sym(a)
    calls = [
        (lambda: graphsym.sample_gamma(dec, 1), "isotropy.sample_gamma"),
        (lambda: stencil.is_member(dec, np.eye(3)), "isotropy.is_member"),
        (lambda: procrustes.as_sym(a), "spectral.as_sym"),
        (lambda: dynsys.guiding_matrix(0.3), "dynsys.guiding_matrix"),
        (lambda: dec.reconstruct(), "spectral.SpectralDecomposition.reconstruct"),
        (lambda: stencil.BUILTIN_FIELDS["trig-quartic"](np.ones(3)), "stencil.ScalarField.__call__"),
        (lambda: spectral.SymMatrix(a), "spectral.SymMatrix.__post_init__"),
    ]
    for call, name in calls:
        before = len(recorder.name)
        call()
        assert name in recorder.name[before:], name


def test_uninstall_restores_the_program():
    rec = spans.Recorder()
    original = procrustes.eig_sym
    rec.install()
    assert procrustes.eig_sym is not original
    rec.uninstall()
    assert procrustes.eig_sym is original and spectral.eig_sym is original
    assert not hasattr(stencil.ScalarField.__call__, "__wrapped__")


def test_self_times_sum_to_request_wall_time(inp, recorder):
    client = harness.Client(cli, recorder=recorder)
    reqs = workloads.SmallMixed().warmup(inp) + workloads.DenseEig().group(inp, 6)
    outcomes = [client.send(r) for r in reqs]
    assert all(o.failure is None for o in outcomes)
    own = recorder.self_times()
    total = {}
    for i, r in enumerate(recorder.request):
        total[r] = total.get(r, 0.0) + own[i]
    walls = recorder.request_walls()
    assert sorted(walls) == list(range(len(reqs)))
    for r, wall in walls.items():
        assert total[r] == pytest.approx(wall, rel=1e-9, abs=1e-12)
    assert all(t >= -1e-9 for t in own)


def test_metrics_match_the_declared_per_layer_list(inp, recorder):
    client = harness.Client(cli, recorder=recorder)
    for r in workloads.DenseEig().group(inp, 6):
        client.send(r)
    metrics = recorder.metrics(1.0)
    assert list(metrics) == [m for m, _, _ in spans.PER_LAYER]
    assert metrics["procrustes.eig_per_call"] == 2.0
    assert metrics["spectral.eig_sym.calls"] == 8


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(harness.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {k: w.why for k, w in workloads.WORKLOADS.items()}


# --------------------------------------------------------------- deadline


def _stalling_graph(inp):
    # random cubic graphs this large take minutes in the exact search
    return inp.graph(workloads.random_cubic(30, np.random.default_rng(0)))


def test_deadline_cuts_a_stalled_request(inp):
    marker = []
    previous = signal.signal(signal.SIGALRM, lambda *a: marker.append(1))
    try:
        path = _stalling_graph(inp)
        req = workloads.Request("graph aut cubic", ["graph", "aut", "--input", path], 30, lambda out: None)
        outcome = harness.Client(cli, deadline_s=0.5).send(req)
        assert outcome.cut and outcome.failure == "deadline exceeded"
        assert 0.5 <= outcome.seconds < 2.0
        assert harness.failed_ratio([outcome]) == 1.0
        handler = signal.getsignal(signal.SIGALRM)
        assert handler is not previous and handler.__name__ == "<lambda>"
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_deadline_is_counted_in_the_trace(inp, recorder):
    path = _stalling_graph(inp)
    req = workloads.Request("graph aut cubic", ["graph", "aut", "--input", path], 30, lambda out: None)
    outcome = harness.Client(cli, deadline_s=0.3, recorder=recorder).send(req)
    assert outcome.cut
    metrics = recorder.metrics(1.0)
    assert metrics["graphsym.deadline_exceeded"] == 1
    assert metrics["graphsym.automorphisms.found"] == 0
    own = recorder.self_times()
    assert sum(own) == pytest.approx(recorder.request_walls()[0], rel=1e-9)
