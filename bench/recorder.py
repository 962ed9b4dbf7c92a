"""Runs a workload's operations, times its library calls and keeps spans.

An operation is attempted once per round and fails when one of its checks
fails.  Only the time spent inside library calls counts towards an
operation's time; the benchmark's own checking is left out.  With tracing on,
every operation and every library call inside it leaves a span (name, start,
end, parent) in memory; they are summarised when the run ends.

Times are CPU seconds of the main thread, read from the clock the recorder
is given (by default ``thread_time``).  The library runs in that one thread,
so on an idle core that is its run time; on a shared host it leaves out the
stretches in which the host gives the core to another tenant, which can
double the wall-clock time of a call.
"""

from __future__ import annotations

import sys
import traceback
from collections import defaultdict
from time import thread_time

from checks import KnownFault


class Recorder:
    def __init__(self, tracing: bool, clock=thread_time):
        self.tracing = tracing
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.op_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # failures other than the known fault
        self._library_s = 0.0
        self._parent = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Call into the library; ``name`` starts with the layer it enters."""
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._library_s += end - start
            if self.tracing:
                self.spans.append((name, start, end, self._parent))

    def op(self, name: str, body) -> None:
        """Attempt one operation: ``body(recorder)`` calls the library and checks."""
        self.attempted += 1
        self._library_s = 0.0
        if self.tracing:
            self._parent = len(self.spans)
            self.spans.append(("op", self.clock(), 0.0, -1))
        try:
            body(self)
        except KnownFault:
            self.failed += 1
        except Exception as exc:  # any other failure is reported and makes the run incorrect
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            self.op_seconds.append(self._library_s)
            if self.tracing:
                _, start, _, _ = self.spans[self._parent]
                self.spans[self._parent] = ("op", start, self.clock(), -1)
                self._parent = -1


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_summary(spans, rounds: int) -> dict[str, float]:
    """span.<layer>.calls and span.<layer>.self_s per round, for each layer called."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        if name == "op":
            continue
        layer = name.split(".")[0]
        calls[layer] += 1
        seconds[layer] += own
    out = {}
    for layer in sorted(calls):
        out[f"span.{layer}.calls"] = calls[layer] / rounds
        out[f"span.{layer}.self_s"] = seconds[layer] / rounds
    return out

