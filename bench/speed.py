"""The host's current speed, sampled all through a run.

On a host shared with other tenants the CPU time of the same call drifts by
up to 2x, over seconds and over minutes: the tenants share the cores' caches,
memory bandwidth and hyperthread siblings.  The reference slice below is the
benchmark's own code, a mix like the library's: small-array numpy kernels on
a polyline, a sweep over arrays larger than a core's cache, and plain Python.
A ``Sampler`` runs one slice every ``INTERVAL_S`` of the process's CPU time,
from a profiling timer, so the slices fall inside the library's calls too and
slow down with them.  A library time divided by the mean slice time of the
same stretch (over ``NOMINAL_S``, the slice's time on the host of the
README's reference figures) is a time at that nominal speed, and much
steadier than the raw time.  The slices' own time is kept out of every
library time by ``work_clock``.

Times are CPU seconds of the main thread, which runs the library and the
slices: while a profiling timer is armed, Linux counts the process's CPU time
only to the scheduler tick (4 ms on the reference host), the thread's still
to the nanosecond.
"""

from __future__ import annotations

import signal
from time import thread_time

import numpy as np

INTERVAL_S = 0.4
NOMINAL_S = 0.025

_rng = np.random.default_rng(0)
_POLYLINE = _rng.normal(size=(400, 2))
_GRID = _rng.normal(size=(400, 400))
_BUF = np.empty_like(_GRID)


def _slice() -> float:
    total = 0.0
    p = _POLYLINE
    for _ in range(180):
        d = np.diff(p, axis=0)
        a = np.hypot(d[:, 0], d[:, 1])
        psi = np.arctan2(d[1:, 1] * d[:-1, 0] - d[1:, 0] * d[:-1, 1], (d[1:] * d[:-1]).sum(axis=1))
        total += float((psi * psi / (a[1:] + a[:-1])).sum() + a.sum())
    for _ in range(30):
        np.multiply(_GRID, _GRID, out=_BUF)
        total += float(_BUF.sum())
    values = {}
    for i in range(15000):
        values[i % 997] = values.get(i % 997, 0) + i * 0.5
    return total + sum(values.values())


class Sampler:
    """Runs a reference slice every ``INTERVAL_S`` of CPU time while started."""

    def __init__(self):
        self.spent = 0.0  # CPU seconds of every slice so far
        self.samples: list[float] = []  # each slice's CPU seconds

    def _tick(self, signum, frame):
        start = thread_time()
        _slice()
        took = thread_time() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def work_clock(self) -> float:
        """The main thread's CPU seconds outside the reference slices."""
        while True:
            spent = self.spent
            now = thread_time()
            if spent == self.spent:  # no slice ran in between
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int, until: int | None = None) -> float:
        """Mean slice time between two marks over its nominal time; the
        whole run's when no slice fell between them."""
        window = self.samples[since:until] or self.samples
        return sum(window) / len(window) / NOMINAL_S
