"""Cached geometry is invisible: every certification layer answers bit for bit alike.

A curve computes its free-ended kernel once, and a network its clamp table,
diameter and per-curve energy terms.  Each layer must give the same answer on
a cold network (a fresh ``deserialize`` of its JSON), on a warm one (after
every layer has run, asked again in reverse order), on a copy or pickle of a
warm one, which carries no cache, and as the raw-points functions compute it.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from elastinet import energy
from elastinet.bounds import (
    amgm_energy_bound,
    arc_abs_curvature,
    drop_bound_check,
    gauss_bonnet_check,
    pair_bound_check,
    pair_loop,
    tangent_gap_bound,
    theta_lower_bound_check,
    turning_cauchy_schwarz,
)
from elastinet.energy import equipartition_defect, optimal_rescale, penalized_energy, scaling_identity_check
from elastinet.errors import ElastinetError
from elastinet.geometry import (
    checked_energy,
    endpoint_tangent_array,
    endpoint_tangents,
    points_diameter,
    vertex_curvature,
)
from elastinet.minimize import OptimizationConfig, injectivity_report, minimize, recovery_sequence
from elastinet.networks import (
    Network,
    curve_clamps,
    deserialize,
    make_circle,
    make_degenerate_figure_eight,
    make_ellipse,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_symmetric_double_drop,
    make_teardrop,
    network_diameter,
    optimal_bubble_radius,
    serialize,
    validate,
)
from elastinet.stationarity import criticality_audit, el_residual, junction_residuals
from random_networks import random_drop, random_piecewise_closed_curve, random_theta_network

ALPHAS = (0.5, 1.0, 2.0)


def _networks():
    shapes = {
        "circle": make_circle(1.3, 64),
        "ellipse": make_ellipse(2.0, 1.0, 80),
        "teardrop": make_teardrop(60, 1.5),
        "double_drop": make_symmetric_double_drop(make_teardrop(40)),
        "double_bubble": make_standard_double_bubble(0.9, 40),
        "generalized_bubble": make_generalized_bubble(1.7, 2.5, 50),
        "degenerate_eight": make_degenerate_figure_eight(60),
        "recovery": recovery_sequence(make_degenerate_figure_eight(60), 10),
        "solved_theta": minimize(
            make_standard_double_bubble(optimal_bubble_radius(), 40), OptimizationConfig(n_per_curve=40)
        ).final,
    }
    for seed in range(4):
        rng = np.random.default_rng(seed)
        shapes[f"random_theta{seed}"] = random_theta_network(rng, int(rng.integers(20, 80)))
        shapes[f"random_drop{seed}"] = random_drop(rng, int(rng.integers(20, 80)))
    return shapes


NETWORKS = _networks()


def _bits(value):
    """A comparable image of an answer in which every float is exact."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (np.floating, np.bool_, np.integer)):
        return _bits(value.item())
    if isinstance(value, Network):
        return ("network", value.kind, _bits([c.points for c in value.curves]), _bits(value.junctions))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, _bits([getattr(value, f.name) for f in dataclasses.fields(value)]))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(_bits(v) for v in value))
    return value


def _answer(layer):
    try:
        return _bits(layer())
    except ElastinetError as exc:  # a refusal is an answer too, and must not depend on the cache
        return (type(exc).__name__, str(exc))


def _layers(net):
    """Every certification layer, by name, as a call on ``net``."""
    layers = {
        "validate": lambda: validate(net, tol_ang=5e-2),
        "diameter": lambda: network_diameter(net),
        "injectivity": lambda: injectivity_report(net),
        "round_trip": lambda: deserialize(serialize(net)),
        "optimal_rescale": lambda: optimal_rescale(net),
        "equipartition": lambda: equipartition_defect(net),
        "clamps": lambda: [curve_clamps(net, i) for i in range(len(net.curves))],
        "end_tangents": lambda: endpoint_tangent_array(net.curves),
    }
    for alpha in ALPHAS:
        layers[f"penalized_energy{alpha}"] = lambda alpha=alpha: penalized_energy(net, alpha)
        layers[f"scaling_identity{alpha}"] = lambda alpha=alpha: scaling_identity_check(net, alpha)
    for i, c in enumerate(net.curves):
        layers[f"vertex_curvature{i}"] = lambda c=c: vertex_curvature(c)
        layers[f"el_residual{i}"] = lambda c=c: el_residual(c)
        layers[f"cauchy_schwarz{i}"] = lambda c=c: turning_cauchy_schwarz(c)
        layers[f"amgm{i}"] = lambda c=c: amgm_energy_bound(c, 1.0)
        layers[f"tangent_gap{i}"] = lambda c=c: tangent_gap_bound(c)
        layers[f"arc_abs_curvature{i}"] = lambda c=c: arc_abs_curvature(c)
        layers[f"endpoint_tangents{i}"] = lambda c=c: endpoint_tangents(c)
        layers[f"drop_bound{i}"] = lambda c=c: drop_bound_check(Network("drop", (c,)))
    if net.junctions:
        layers["junction_residuals"] = lambda: junction_residuals(net)
        layers["criticality_audit"] = lambda: criticality_audit(net)
    if net.kind in ("theta", "generalized_theta"):
        layers["theta_bound"] = lambda: theta_lower_bound_check(net)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            loop = lambda i=i, j=j: pair_loop(net, i, j)  # noqa: E731
            layers[f"pair_bound{i}{j}"] = lambda loop=loop: pair_bound_check(loop())
            layers[f"pair_amgm{i}{j}"] = lambda loop=loop: amgm_energy_bound(loop(), 1.0)
            layers[f"pair_gauss_bonnet{i}{j}"] = lambda loop=loop: gauss_bonnet_check(loop())
            layers[f"pair_corners{i}{j}"] = lambda loop=loop: loop().corner_angles()
    return layers


@pytest.mark.parametrize("name", list(NETWORKS))
def test_cold_and_warm_networks_answer_alike(name):
    doc = serialize(NETWORKS[name])
    names = list(_layers(deserialize(doc)))
    cold = {layer: _answer(_layers(deserialize(doc))[layer]) for layer in names}
    warm_net = deserialize(doc)
    warm = _layers(warm_net)
    for layer in names:
        _answer(warm[layer])
    for layer in reversed(names):
        assert _answer(warm[layer]) == cold[layer], f"{name}: {layer}"
    # the warm network did keep its caches
    assert {"diameter", "clamps", "curve_terms"} <= set(vars(warm_net))


@pytest.mark.parametrize("name", list(NETWORKS))
def test_raw_points_route_answers_alike(name):
    net = deserialize(serialize(NETWORKS[name]))
    assert _bits(network_diameter(net)) == _bits(points_diameter([c.points for c in net.curves]))
    for i, c in enumerate(net.curves):
        assert _bits(checked_energy(c.points, c.closed)) == _bits(c.kernel)
        clamped = checked_energy(c.points, c.closed, *curve_clamps(net, i))
        assert _bits(net.curve_terms[i][:2]) == _bits((clamped.elastic, clamped.length))
        if not c.closed:  # the bounds' end tangents are those of the one batched estimator
            tau0, tau1 = endpoint_tangent_array([c.points])[0]
            out = checked_energy(c.points, False, tau0, tau1)
            gap, rhs = float(np.linalg.norm(tau1 - tau0)), math.sqrt((out.elastic + out.length) * out.length)
            check = tangent_gap_bound(c)
            assert _bits((check.lhs, check.rhs)) == _bits((gap, rhs))
            assert _bits(arc_abs_curvature(c)) == _bits(float(np.sum(np.abs(out.psi / out.ell) * out.ell)))
    for alpha in ALPHAS:
        cached = _bits(penalized_energy(net, alpha))
        # the curves' own arrays, and copies of them that no cache knows
        assert _bits(energy._penalized_energy(net, alpha, [c.points for c in net.curves])) == cached
        assert _bits(energy._penalized_energy(net, alpha, [c.points.copy() for c in net.curves])) == cached


def test_piecewise_curves_answer_alike():
    for seed in range(6):
        def loop():
            return random_piecewise_closed_curve(np.random.default_rng(seed))

        checks = (gauss_bonnet_check, lambda pw: pw.corner_angles(), lambda pw: amgm_energy_bound(pw, 1.0))
        warm = loop()
        first = [_answer(lambda: check(warm)) for check in checks]
        assert [_answer(lambda: check(warm)) for check in reversed(checks)] == first[::-1]
        assert [_answer(lambda: check(loop())) for check in checks] == first


def test_cached_arrays_are_read_only():
    net = make_standard_double_bubble(0.9, 40)
    c = net.curves[0]
    for array in (c.points, c.kernel.psi, c.kernel.ell, net.clamps, vertex_curvature(c)[1]):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_network_copies_carry_no_cache(duplicate):
    for name in ("double_bubble", "generalized_bubble", "degenerate_eight", "solved_theta"):
        net = deserialize(serialize(NETWORKS[name]))
        answers = {layer: _answer(call) for layer, call in _layers(net).items()}
        assert {"diameter", "clamps", "curve_terms"} <= set(vars(net))
        twin = duplicate(net)
        assert not {"diameter", "clamps", "curve_terms"} & set(vars(twin)), name
        assert not twin.clamps.flags.writeable
        assert {layer: _answer(call) for layer, call in _layers(twin).items()} == answers, name
