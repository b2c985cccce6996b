"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: every public function of each
layer module is replaced by a timing wrapper, both in its defining module
and in every ``orthosym`` module that bound it with ``from ... import``, and
a few methods are wrapped on their class.  Spans stay in memory as flat
lists and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Every request has a root span (layer ``bench``) opened by the
harness, so the self times of one request sum to its wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

from deadline import DeadlineExceeded

LAYERS = ("cli", "matio", "spectral", "isotropy", "procrustes", "graphsym", "stencil", "dynsys", "verify")

# (layer, class, method) wrapped on the class itself
METHODS = (
    ("spectral", "SymMatrix", "__post_init__"),
    ("spectral", "SpectralDecomposition", "reconstruct"),
    ("stencil", "ScalarField", "__call__"),
)


def _file_bytes(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, os.PathLike)):
        return os.path.getsize(source)
    return 0


# work recorded on a span, computed from the call's arguments and result
WORK = {
    "spectral.eig_sym": lambda a, k, r: r.n,
    "isotropy.gamma2_elements": lambda a, k, r: len(r),
    "procrustes.solve": lambda a, k, r: 1,
    "procrustes.family_sample": lambda a, k, r: len(r),
    "graphsym.automorphisms": lambda a, k, r: len(r),
    "dynsys.integrate": lambda a, k, r: len(r) - 1,
    "dynsys.sweep": lambda a, k, r: len(r),
    "matio.parse_matrix": _file_bytes,
    "matio.parse_graph": _file_bytes,
    "verify.run_all": lambda a, k, r: sum(not c.passed for c in r),
}

# Per-layer metric definitions: (name, unit, better).  The order is the
# order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("spectral.self_s", "s", "lower"),
    ("spectral.eig_sym.self_s", "s", "lower"),
    ("spectral.work_n3", "n3", "lower"),
    ("spectral.ns_per_n3", "ns/n3", "lower"),
    ("spectral.eig_sym.small_mean_us", "us", "lower"),
    ("spectral.eig_sym.large_mean_us", "us", "lower"),
    ("spectral.eig_sym.calls", "count", "lower"),
    ("spectral.eig_sym.per_request", "calls/request", "lower"),
    ("spectral.check_symmetric.calls", "count", "lower"),
    ("spectral.reconstruct.calls", "count", "lower"),
    ("spectral.errors", "count", "lower"),
    ("isotropy.self_s", "s", "lower"),
    ("isotropy.conjugate.calls", "count", "lower"),
    ("isotropy.is_member.calls", "count", "lower"),
    ("isotropy.gamma2.elements", "count", "lower"),
    ("isotropy.errors", "count", "lower"),
    ("procrustes.self_s", "s", "lower"),
    ("procrustes.eig_per_call", "eig/call", "lower"),
    ("procrustes.solutions", "count", "higher"),
    ("graphsym.self_s", "s", "lower"),
    ("graphsym.automorphisms.self_s", "s", "lower"),
    ("graphsym.automorphisms.found", "count", "higher"),
    ("graphsym.automorphisms.found_per_s", "1/s", "higher"),
    ("graphsym.find_isomorphism.calls", "count", "lower"),
    ("graphsym.find_isomorphism.self_s", "s", "lower"),
    ("graphsym.deadline_exceeded", "count", "lower"),
    ("stencil.self_s", "s", "lower"),
    ("stencil.field_evals", "count", "lower"),
    ("stencil.eig_per_request", "eig/request", "lower"),
    ("dynsys.self_s", "s", "lower"),
    ("dynsys.integrate.self_s", "s", "lower"),
    ("dynsys.integrate.us_per_step", "us/step", "lower"),
    ("dynsys.sweep.self_s", "s", "lower"),
    ("dynsys.eig_per_sweep_row", "eig/row", "lower"),
    ("matio.self_s", "s", "lower"),
    ("matio.bytes_read", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.run_all.self_s", "s", "lower"),
    ("verify.checks_failed", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Recorder:
    """Collects spans of the wrapped orthosym functions.

    Fields of span i are kept in parallel lists (name, layer, parent, start,
    end, work, error, request) to keep the cost of one span small.
    """

    def __init__(self):
        self.name, self.layer, self.parent = [], [], []
        self.start, self.end, self.work, self.error, self.request = [], [], [], [], []
        self.request_kind: list[str] = []
        self.deadline_cut = defaultdict(set)  # layer -> requests cut inside it
        self._stack: list[int] = []
        self._request = -1
        self._last_exc = None
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name, layer) -> int:
        i = len(self.name)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0)
        self.error.append(False)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _raised(self, i, exc):
        if isinstance(exc, DeadlineExceeded):
            self.deadline_cut[self.layer[i]].add(self._request)
        elif exc is not self._last_exc:
            # counted once, at the innermost span the exception leaves
            self.error[i] = True
            self._last_exc = exc

    def begin_request(self, kind: str) -> int:
        self._request = len(self.request_kind)
        self.request_kind.append(kind)
        self._last_exc = None
        return self._open("request", "bench")

    def end_request(self, root: int, output_bytes: int):
        self.work[root] = output_bytes
        # a deadline cut can leave spans open; they end with the request
        now = time.perf_counter()
        for i in self._stack:
            if i == root or not self.end[i]:
                self.end[i] = now
        self._stack.clear()
        self._last_exc = None
        self._request = -1

    def wrap(self, layer: str, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._raised(i, exc)
                raise
            finally:
                self._close(i)
            if work is not None:
                self.work[i] = work(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------- patching

    def install(self):
        """Wrap every public function of each layer at every binding site,
        and the methods in METHODS on their classes."""
        import importlib

        modules = {layer: importlib.import_module(f"orthosym.{layer}") for layer in LAYERS}
        sites = [m for n, m in sorted(sys.modules.items()) if n == "orthosym" or n.startswith("orthosym.")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(layer, f"{layer}.{attr}", fn)
                for site in sites:
                    for bound, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, bound, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[method]
            self._patch(cls, method, self.wrap(layer, f"{layer}.{cls_name}.{method}", fn))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def request_walls(self) -> dict[int, float]:
        return {
            self.request[i]: self.end[i] - self.start[i]
            for i, layer in enumerate(self.layer)
            if layer == "bench"
        }

    def _outermost(self, i, pred):
        """Index of the outermost ancestor of span i (i included) for which
        pred holds, or -1."""
        found = -1
        while i >= 0:
            if pred(i):
                found = i
            i = self.parent[i]
        return found

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        own = self.self_times()
        dur = [e - s for s, e in zip(self.start, self.end)]
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        errors = defaultdict(int)
        for i, (name, layer) in enumerate(zip(self.name, self.layer)):
            layer_self[layer] += own[i]
            name_self[name] += own[i]
            calls[name] += 1
            work[name] += self.work[i]
            errors[layer] += self.error[i]

        eig = [i for i, n in enumerate(self.name) if n == "spectral.eig_sym"]
        small = [dur[i] for i in eig if self.work[i] <= 8]
        large = [dur[i] for i in eig if self.work[i] >= 32]
        n3 = sum(self.work[i] ** 3 for i in eig)
        requests = len(self.request_kind)

        def is_proc(j):
            return self.layer[j] == "procrustes"

        proc_calls = sum(1 for i in range(len(self.name)) if is_proc(i) and self._outermost(self.parent[i], is_proc) < 0)
        proc_eig = sum(1 for i in eig if self._outermost(i, is_proc) >= 0)
        stencil_requests = {r for r, kind in enumerate(self.request_kind) if kind.startswith("stencil")}
        stencil_eig = sum(1 for i in eig if self.request[i] in stencil_requests)
        sweep_eig = sum(1 for i in eig if self._outermost(i, lambda j: self.name[j] == "dynsys.sweep") >= 0)
        aut_time = sum(dur[i] for i, n in enumerate(self.name) if n == "graphsym.automorphisms")
        steps = work["dynsys.integrate"]

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        return {
            "spectral.self_s": layer_self["spectral"],
            "spectral.eig_sym.self_s": name_self["spectral.eig_sym"],
            "spectral.work_n3": n3,
            "spectral.ns_per_n3": ratio(name_self["spectral.eig_sym"], n3, 1e9),
            "spectral.eig_sym.small_mean_us": ratio(sum(small), len(small), 1e6),
            "spectral.eig_sym.large_mean_us": ratio(sum(large), len(large), 1e6),
            "spectral.eig_sym.calls": calls["spectral.eig_sym"],
            "spectral.eig_sym.per_request": ratio(calls["spectral.eig_sym"], requests),
            "spectral.check_symmetric.calls": calls["spectral.check_symmetric"],
            "spectral.reconstruct.calls": calls["spectral.SpectralDecomposition.reconstruct"],
            "spectral.errors": errors["spectral"],
            "isotropy.self_s": layer_self["isotropy"],
            "isotropy.conjugate.calls": calls["isotropy.conjugate"],
            "isotropy.is_member.calls": calls["isotropy.is_member"],
            "isotropy.gamma2.elements": work["isotropy.gamma2_elements"],
            "isotropy.errors": errors["isotropy"],
            "procrustes.self_s": layer_self["procrustes"],
            "procrustes.eig_per_call": ratio(proc_eig, proc_calls),
            "procrustes.solutions": work["procrustes.solve"] + work["procrustes.family_sample"],
            "graphsym.self_s": layer_self["graphsym"],
            "graphsym.automorphisms.self_s": name_self["graphsym.automorphisms"],
            "graphsym.automorphisms.found": work["graphsym.automorphisms"],
            "graphsym.automorphisms.found_per_s": ratio(work["graphsym.automorphisms"], aut_time),
            "graphsym.find_isomorphism.calls": calls["graphsym.find_isomorphism"],
            "graphsym.find_isomorphism.self_s": name_self["graphsym.find_isomorphism"],
            "graphsym.deadline_exceeded": len(self.deadline_cut["graphsym"]),
            "stencil.self_s": layer_self["stencil"],
            "stencil.field_evals": calls["stencil.ScalarField.__call__"],
            "stencil.eig_per_request": ratio(stencil_eig, len(stencil_requests)),
            "dynsys.self_s": layer_self["dynsys"],
            "dynsys.integrate.self_s": name_self["dynsys.integrate"],
            "dynsys.integrate.us_per_step": ratio(name_self["dynsys.integrate"], steps, 1e6),
            "dynsys.sweep.self_s": name_self["dynsys.sweep"],
            "dynsys.eig_per_sweep_row": ratio(sweep_eig, work["dynsys.sweep"]),
            "matio.self_s": layer_self["matio"],
            "matio.bytes_read": work["matio.parse_matrix"] + work["matio.parse_graph"],
            "cli.self_s": layer_self["cli"],
            "cli.output_bytes": work["request"],
            "verify.self_s": layer_self["verify"],
            "verify.run_all.self_s": name_self["verify.run_all"],
            "verify.checks_failed": work["verify.run_all"],
            "trace.overhead_ratio": overhead_ratio,
        }

    def dump(self, path):
        """Write every span as one JSON document."""
        own = self.self_times()
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "parent", "request", "start", "end", "self", "work", "error"],
                    "requests": self.request_kind,
                    "spans": [
                        [self.name[i], self.layer[i], self.parent[i], self.request[i], self.start[i], self.end[i], own[i], self.work[i], self.error[i]]
                        for i in range(len(self.name))
                    ],
                },
                fh,
            )
