"""Per-request deadline inside the single benchmark process.

The deadline is a SIGALRM timer whose handler raises ``DeadlineExceeded``.
It derives from BaseException, so the ``except`` clauses of ``cli.run``
(which map library errors to exit codes) cannot turn a cut request into an
ordinary exit 1.  The previous handler and timer are restored on exit.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager


class DeadlineExceeded(BaseException):
    """Raised inside a request that ran past its deadline."""


@contextmanager
def deadline(seconds: float):
    armed = [True]

    def _raise(signum, frame):
        if armed[0]:
            raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, _raise)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        try:
            armed[0] = False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
