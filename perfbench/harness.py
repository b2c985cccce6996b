"""Closed-loop request execution and the end-to-end metrics.

One client, one thread: the next request is sent when the previous one has
returned and its output has been checked.  Each request calls the real CLI
entry point ``orthosym.cli.run(argv)`` in this process with stdout and
stderr captured, under a per-request deadline.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from checkers import CheckError
from deadline import DeadlineExceeded, deadline
from workloads import Request

# Far above the slowest request of any workload at the seed commit (about
# 2 s), so only a stalled request is cut.
REQUEST_DEADLINE_S = 30.0
SETUP_REPEATS = 7
# at least ten latencies beyond the 90th percentile, and enough requests
# for a steady median under a noisy host
MIN_REQUESTS = 150
# Hosts shared with other tenants change speed by up to 1.5x within and
# between runs.  A host probe (a fixed pure-Python loop) runs before every
# request and after the last one; every timing metric is reported in
# host-corrected time: wall time x REFERENCE_PROBE_S / (mean of the probes
# before and after).  Raw wall times are printed alongside.
PROBE_LOOP = 20000
REFERENCE_PROBE_S = 1e-3

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Outcome:
    kind: str
    size: int
    seconds: float
    cut: bool
    failure: str | None  # None when the response was right
    repeat: bool
    probe: float = 0.0  # host probe taken just before the request


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python loop (about 1 ms): how fast the
    shared host runs right now, independent of the program."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i
    return time.perf_counter() - t0


def execute(cli, req: Request, deadline_s: float, recorder=None):
    """Run one request; returns (exit code or None if cut, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    root = recorder.begin_request(req.kind) if recorder is not None else None
    rc = None
    t0 = time.perf_counter()
    try:
        with deadline(deadline_s), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(req.argv)
    except DeadlineExceeded:
        pass
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    if recorder is not None:
        recorder.end_request(root, len(text))
    return rc, text, seconds


def judge(req: Request, rc, text: str) -> str | None:
    """None if the response is right, else the reason it failed."""
    if rc is None:
        return "deadline exceeded"
    if rc != req.expect:
        return f"exit code {rc}, expected {req.expect}"
    try:
        req.check(text)
    except CheckError as exc:
        return str(exc)
    except Exception as exc:  # a malformed response is a wrong response
        return f"unreadable response: {type(exc).__name__}: {exc}"
    return None


class Client:
    """The single closed-loop client.  Remembers which inputs it has sent,
    to measure how many requests repeat an earlier input."""

    def __init__(self, cli, deadline_s: float = REQUEST_DEADLINE_S, recorder=None):
        self.cli = cli
        self.deadline_s = deadline_s
        self.recorder = recorder
        self._seen: set[str] = set()

    def _repeats(self, req: Request) -> bool:
        keys = []
        for path in req.inputs:
            with open(path, "rb") as fh:
                keys.append(hashlib.sha1(fh.read()).hexdigest())
        if not keys:
            keys.append(" ".join(req.argv))
        repeat = any(k in self._seen for k in keys)
        self._seen.update(keys)
        return repeat

    def send(self, req: Request) -> Outcome:
        repeat = self._repeats(req)
        probe = host_probe()
        rc, text, seconds = execute(self.cli, req, self.deadline_s, self.recorder)
        return Outcome(req.kind, req.size, seconds, rc is None, judge(req, rc, text), repeat, probe)


def run_for(client: Client, next_cycle, seconds: float) -> tuple[list[Outcome], float]:
    """Send whole cycles until ``seconds`` of wall time have passed and at
    least MIN_REQUESTS requests were sent.  Returns the outcomes and a host
    probe taken after the last request."""
    outcomes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(outcomes) < MIN_REQUESTS:
        outcomes += [client.send(r) for r in next_cycle()]
    return outcomes, host_probe()


def corrected(outcomes: list[Outcome], final_probe: float) -> list[float]:
    """Each request's wall time in host-corrected seconds."""
    after = [o.probe for o in outcomes[1:]] + [final_probe]
    return [o.seconds * REFERENCE_PROBE_S * 2 / (o.probe + a) for o, a in zip(outcomes, after)]


def end_to_end(outcomes: list[Outcome], seconds: list[float], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics from per-request times ``seconds`` (raw or
    host-corrected, in the order of ``outcomes``)."""
    lat = np.array(seconds) * 1e3
    completed = sum(not o.cut for o in outcomes)
    return {
        "setup_s": setup_s,
        "requests_per_s": completed / (lat.sum() / 1e3),
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_p90_ms": float(np.percentile(lat, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def failed_ratio(outcomes: list[Outcome]) -> float:
    """Requests cut by the deadline, with a wrong exit code or a wrong
    response, over requests attempted."""
    return sum(o.failure is not None for o in outcomes) / len(outcomes)


def mix(outcomes: list[Outcome]) -> dict:
    n = len(outcomes)
    return {
        "kinds": dict(sorted(Counter(o.kind for o in outcomes).items())),
        "sizes": dict(sorted(Counter(o.size for o in outcomes).items())),
        "repeat_share": sum(o.repeat for o in outcomes) / n if n else 0.0,
    }


SETUP_CODE = "import time, orthosym.cli as c; c.build_parser(); print(time.monotonic())"


def measure_setup(src: str, repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until ``orthosym.cli`` is
    imported and ``build_parser()`` has returned (CLOCK_MONOTONIC is shared
    by all processes, so the child's timestamp ends the interval).  Returns
    the raw and the host-corrected times."""
    env = dict(os.environ, PYTHONPATH=src)
    raw, fixed = [], []
    for _ in range(repeats):
        before = host_probe()
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        raw.append(float(done.stdout.split()[-1]) - t0)
        fixed.append(raw[-1] * REFERENCE_PROBE_S * 2 / (before + host_probe()))
    return raw, fixed


def environment(root, seed: int) -> dict:
    import orthosym

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orthosym": orthosym.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "seed": seed,
    }


def _commit(root) -> str | None:
    """The checked-out commit, read from .git without running git (a
    checkout without .git gives None)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None

