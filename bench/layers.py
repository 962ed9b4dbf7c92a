"""Per-call timings of single layers on the standard double bubble.

``us.<module>.<call>.n<N>`` is the median CPU microseconds per call over a
few batches, at N points per curve.  A batch repeats the call until it lasts
at least ``BATCH_S``, so a fast call is timed over many repeats; a call that
alone takes longer than ``LONG_CALL_S`` is timed over fewer batches.  Every
workload's traced run reports every call, so that the same figures can be
compared across workloads and runs.
"""

from __future__ import annotations

import statistics

from workloads import json_round_trip

SIZES = (50, 200, 2000)
BATCH_S = 0.05
BATCHES = 5
LONG_CALL_S = 1.0
LONG_BATCHES = 2


def _calls(lib, n: int) -> dict:
    net = lib.networks.make_standard_double_bubble(lib.networks.optimal_bubble_radius(), n)
    dof = lib.minimize.dof_map(net)
    x = dof.pack()
    arc = net.curves[0]
    return {
        # value() is the line-search probe, value_and_grad() a descent step's evaluation
        "us.minimize.dof_value": lambda: dof.value(x),
        "us.minimize.dof_value_and_grad": lambda: dof.value_and_grad(x),
        "us.geometry.resample_uniform": lambda: lib.geometry.resample_uniform(arc, n - 1),
        "us.energy.penalized_energy": lambda: lib.energy.penalized_energy(net),
        "us.networks.validate": lambda: lib.networks.validate(net),
        "us.stationarity.junction_residuals": lambda: lib.stationarity.junction_residuals(net),
        "us.bounds.theta_lower_bound_check": lambda: lib.bounds.theta_lower_bound_check(net),
        "us.networks.json_round_trip": lambda: json_round_trip(lib, net),
        "us.minimize.injectivity_report": lambda: lib.minimize.injectivity_report(net),
    }


def _batch(fn, repeats: int, clock) -> float:
    start = clock()
    for _ in range(repeats):
        fn()
    return clock() - start


def per_call_us(fn, clock) -> float:
    repeats = 1
    elapsed = _batch(fn, repeats, clock)
    while elapsed < BATCH_S:
        repeats = max(2 * repeats, min(100 * repeats, int(repeats * 1.2 * BATCH_S / max(elapsed, 1e-9))))
        elapsed = _batch(fn, repeats, clock)
    samples = [elapsed / repeats]
    batches = LONG_BATCHES if elapsed > LONG_CALL_S else BATCHES
    samples += [_batch(fn, repeats, clock) / repeats for _ in range(batches - 1)]
    return 1e6 * statistics.median(samples)


def layer_timings(lib, clock) -> dict[str, float]:
    """Every call at every size, in CPU microseconds read from ``clock``."""
    out = {}
    for n in SIZES:
        for name, fn in _calls(lib, n).items():
            out[f"{name}.n{n}"] = per_call_us(fn, clock)
    return out
