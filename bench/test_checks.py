"""The benchmark's checks reject corrupted outputs.

Run with ``python -m pytest bench`` from the repository root.  Each test
feeds ``certify`` or a single check an output with one defect: a moved
vertex, an energy off by 1e-6, a curve with one crossing, a false
"converged" label.  The same input without the defect passes.
"""

import dataclasses
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    KnownFault,
    check_descent_trace,
    check_energy,
    check_honest_label,
    count_crossings,
    symmetry_defect,
)
from recorder import Recorder  # noqa: E402
from workloads import Expect, certify  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _patched(lib, module, **functions):
    """The library with some functions of one module replaced."""
    original = getattr(lib, module)
    replaced = types.SimpleNamespace(**{k: getattr(original, k) for k in dir(original) if not k.startswith("__")})
    for name, fn in functions.items():
        setattr(replaced, name, fn)
    return types.SimpleNamespace(**{**vars(lib), module: replaced})


def _moved(network, curve=0, vertex=3, delta=(1e-9, 0.0)):
    from elastinet.geometry import DiscreteCurve
    from elastinet.networks import Network

    curves = list(network.curves)
    pts = curves[curve].points.copy()
    pts[vertex] += delta
    curves[curve] = DiscreteCurve(pts, curves[curve].closed)
    return Network(network.kind, tuple(curves), network.junctions, network.prescribed_angles)


def _with_one_crossing(lib):
    """A 24-gon with two neighbouring vertices swapped: exactly one crossing."""
    pts = lib.networks.make_circle(1.0, 24).curves[0].points.copy()
    pts[[5, 6]] = pts[[6, 5]]
    return lib.networks.Network("closed", (lib.geometry.DiscreteCurve(pts, closed=True),))


def _shapes(lib):
    return [
        (lib.networks.make_circle(1.3, 64), Expect(crossings=0, circle_radius=1.3, exact_arcs=True)),
        (lib.networks.make_standard_double_bubble(0.9, 40), Expect(crossings=0, exact_arcs=True)),
        (lib.networks.make_degenerate_figure_eight(60), Expect(crossings=0)),
    ]


def test_unchanged_outputs_pass(lib):
    for net, expect in _shapes(lib):
        certify(lib, Recorder(False), net, expect, "control")


def test_moved_vertex_is_rejected(lib):
    corrupt = _patched(lib, "networks", deserialize=lambda doc: _moved(lib.networks.deserialize(doc)))
    for net, expect in _shapes(lib):
        with pytest.raises(CheckFailed, match="points of curve 0 differ"):
            certify(corrupt, Recorder(False), net, expect, "moved vertex")
    net = lib.networks.make_standard_double_bubble(0.9, 40)
    true_f = lib.energy.penalized_energy(net).penalized
    with pytest.raises(CheckFailed):
        check_energy(_moved(net, delta=(1e-3, 0.0)), true_f, "moved vertex")


def test_moved_vertex_breaks_figure_eight_symmetry(lib):
    eight = lib.networks.make_symmetric_double_drop(lib.networks.make_teardrop(40))
    c1, c2 = eight.curves
    assert symmetry_defect(c1.points, c2.points) <= 1e-12
    c1, c2 = _moved(eight, curve=1).curves
    assert symmetry_defect(c1.points, c2.points) > 1e-12


def test_energy_off_by_1e6_is_rejected(lib):
    def off(network, alpha=1.0):
        report = lib.energy.penalized_energy(network, alpha)
        return dataclasses.replace(report, penalized=report.penalized + 1e-6)

    corrupt = _patched(lib, "energy", penalized_energy=off)
    for net, expect in _shapes(lib):
        with pytest.raises(CheckFailed):
            certify(corrupt, Recorder(False), net, expect, "energy off")
        f_value = lib.energy.penalized_energy(net).penalized
        check_energy(net, f_value, "exact")
        with pytest.raises(CheckFailed, match="independent evaluation"):
            check_energy(net, f_value + 1e-6, "energy off")


def test_curve_with_one_crossing_is_rejected(lib):
    net = _with_one_crossing(lib)
    assert count_crossings(net) == 1
    assert lib.minimize.injectivity_report(net).total == 1
    certify(lib, Recorder(False), net, Expect(), "counted independently")
    with pytest.raises(CheckFailed, match="counts 1 crossings, expected 0"):
        certify(lib, Recorder(False), net, Expect(crossings=0), "claimed embedded")

    blind = lib.minimize.InjectivityReport((0,), ())
    corrupt = _patched(lib, "minimize", injectivity_report=lambda network: blind)
    with pytest.raises(CheckFailed, match="counts 0 crossings, expected 1"):
        certify(corrupt, Recorder(False), net, Expect(), "crossing missed")


def test_lemniscate_crossing_is_counted(lib):
    from workloads import lemniscate

    net = lemniscate(lib, np.random.default_rng(3), 400)
    assert count_crossings(net) == 1
    certify(lib, Recorder(False), net, Expect(crossings=1), "lemniscate")


def test_false_converged_label_is_a_known_fault():
    check_honest_label("converged", 9e-4, 1e-3, "honest")
    check_honest_label("max_iters", 1.7, 1e-3, "unconverged, labelled so")
    with pytest.raises(KnownFault):
        check_honest_label("converged", 4.2e-3, 1e-3, "stalled")


def test_rising_trace_is_rejected():
    check_descent_trace([3.0, 2.0, 2.5, 1.0], [2], "rise at a resampling")
    with pytest.raises(CheckFailed):
        check_descent_trace([3.0, 2.0, 2.5, 1.0], [], "rise")
    with pytest.raises(CheckFailed):
        check_descent_trace([3.0, math.nan], [], "nan")


def test_operation_failures_are_counted():
    rec = Recorder(False)

    def fault(r):
        raise KnownFault("kept")

    def wrong(r):
        raise CheckFailed("wrong")

    rec.op("passes", lambda r: None)
    rec.op("kept fault", fault)
    rec.op("wrong", wrong)
    assert (rec.attempted, rec.failed) == (3, 2)
    assert len(rec.errors) == 1 and rec.errors[0].startswith("wrong")
