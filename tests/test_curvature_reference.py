"""Every certification layer reads the discrete curvature of the one kernel.

The references below are frozen copies of the formulas the layers used before
they read ``geometry.polyline_energy``: ``turning_angles`` and
``dual_lengths`` for the interior and cyclic cells, one half cell per clamped
end, and the per-kind slot derivation of ``deserialize``; and of the per-end
loops ``validate`` and ``deserialize`` ran before they estimated every end
tangent in one array pass.  The layers must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from elastinet import bounds, geometry, networks, stationarity
from elastinet.bounds import (
    amgm_energy_bound,
    arc_abs_curvature,
    drop_bound_check,
    gauss_bonnet_check,
    pair_bound_check,
    pair_loop,
    tangent_gap_bound,
    theta_lower_bound_check,
    total_abs_curvature,
    turning_cauchy_schwarz,
)
from elastinet.geometry import (
    DiscreteCurve,
    endpoint_tangent_array,
    endpoint_tangents,
    polyline_length,
    signed_angle,
    vertex_curvature,
)
from elastinet.minimize import recovery_sequence
from elastinet.networks import (
    DEGENERATE_OFFSET_VARIANTS,
    THETA_OFFSETS_END,
    THETA_OFFSETS_START,
    Junction,
    Network,
    curve_clamps,
    deserialize,
    end_slots,
    make_circle,
    make_degenerate_figure_eight,
    make_ellipse,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_symmetric_double_drop,
    make_teardrop,
    optimal_bubble_radius,
    rotate_network,
    serialize,
    validate,
)
from elastinet.stationarity import el_residual, junction_residuals
from random_networks import random_drop, random_piecewise_closed_curve, random_theta_network


def frozen_turning_angles(points, closed):
    e = np.roll(points, -1, axis=0) - points if closed else points[1:] - points[:-1]
    if closed:
        return signed_angle(np.roll(e, 1, axis=0), e)
    return signed_angle(e[:-1], e[1:])


def frozen_dual_lengths(points, closed):
    e = np.roll(points, -1, axis=0) - points if closed else points[1:] - points[:-1]
    a = np.linalg.norm(e, axis=1)
    if closed:
        return 0.5 * (np.roll(a, 1) + a)
    return 0.5 * (a[:-1] + a[1:])


def frozen_cells(points, closed=False, clamp_start=None, clamp_end=None):
    """(psi, ell) of every curvature vertex, clamp half cells included."""
    psi = frozen_turning_angles(points, closed)
    ell = frozen_dual_lengths(points, closed)
    if clamp_start is not None:
        psi = np.concatenate([[signed_angle(clamp_start, points[1] - points[0])], psi])
        ell = np.concatenate([[0.5 * np.linalg.norm(points[1] - points[0])], ell])
    if clamp_end is not None:
        psi = np.concatenate([psi, [signed_angle(points[-1] - points[-2], clamp_end)]])
        ell = np.concatenate([ell, [0.5 * np.linalg.norm(points[-1] - points[-2])]])
    return psi, ell


def frozen_vertex_curvature(curve):
    psi, ell = frozen_cells(curve.points, curve.closed)
    return psi / ell, ell


def frozen_abs_turning(psi, ell):
    return float(np.sum(np.abs(psi / ell) * ell))


def frozen_elastic(psi, ell):
    return float(np.sum(psi * psi / ell))


def frozen_arc(arc):
    """(sum |kappa| ell, E, L) of an arc clamped to its estimated end tangents."""
    psi, ell = frozen_cells(arc.points, False, *endpoint_tangents(arc))
    return frozen_abs_turning(psi, ell), frozen_elastic(psi, ell), polyline_length(arc)


def frozen_offsets(kind, curves, frames, angles):
    """Slot offsets as ``deserialize`` derived them kind by kind."""
    if kind == "degenerate_theta":
        dirs = []
        for c in curves:
            tau0, tau1 = endpoint_tangents(c)
            dirs.extend([tau0, -tau1])
        per_junction = [dirs]
        candidates = sorted(set(DEGENERATE_OFFSET_VARIANTS[0]) | set(DEGENERATE_OFFSET_VARIANTS[1]))
    else:
        per_junction = [[endpoint_tangents(c)[0] for c in curves], [-endpoint_tangents(c)[1] for c in curves]]
        if angles is None:
            candidates = list(THETA_OFFSETS_START)
        else:
            a1, a2 = angles[0], angles[1]
            candidates = [0.0, a1, a1 + a2, 2.0 * math.pi - a1, 2.0 * math.pi - a1 - a2]
    out = []
    for frame, dirs in zip(frames, per_junction):
        offsets = []
        for d in dirs:
            est = math.atan2(d[1], d[0])
            errs = [abs(float(networks._wrap_pi(est - (frame + c)))) for c in candidates]
            offsets.append(candidates[int(np.argmin(errs))])
        out.append(tuple(offsets))
    return out


def _networks():
    drop = make_teardrop(40)
    nets = [
        make_circle(1.0, 16),
        make_ellipse(2.0, 1.0, 60),
        drop,
        make_symmetric_double_drop(drop),
        make_standard_double_bubble(optimal_bubble_radius(), 30),
        rotate_network(make_generalized_bubble(1.7, 2.5, 30), 0.4),
        rotate_network(make_degenerate_figure_eight(40), -1.1),
        recovery_sequence(make_degenerate_figure_eight(40), 12),
    ]
    rng = np.random.default_rng(11)
    for k in range(6):
        nets.append(random_theta_network(rng, 30 + 7 * k))
        nets.append(random_drop(rng, 40 + 7 * k))
    return nets


NETWORKS = _networks()
IDS = [f"{i}-{net.kind}" for i, net in enumerate(NETWORKS)]


def _same(got, want):
    np.testing.assert_array_equal(np.asarray(got), np.asarray(want), strict=True)


@pytest.mark.parametrize("net", NETWORKS, ids=IDS)
def test_vertex_curvature_and_residuals(net, monkeypatch):
    for c in net.curves:
        for got, want in zip(vertex_curvature(c), frozen_vertex_curvature(c)):
            _same(got, want)
    # the residual stencils need 8 points (the recovery theta's bridge has 3)
    stencil = [c for c in net.curves if c.n_points >= 8]
    residuals = [el_residual(c) for c in stencil]
    report = junction_residuals(net) if net.junctions and len(stencil) == len(net.curves) else None
    monkeypatch.setattr(stationarity, "vertex_curvature", frozen_vertex_curvature)
    for got, c in zip(residuals, stencil):
        _same(got, el_residual(c))
    if report is not None:
        want = junction_residuals(net)
        for got_r, want_r in zip(report.interior_residuals, want.interior_residuals):
            _same(got_r, want_r)
        assert report.interior_max_abs == want.interior_max_abs
        assert report.junction_scalar == want.junction_scalar
        for got_v, want_v in zip(report.junction_vector, want.junction_vector):
            _same(got_v, want_v)


@pytest.mark.parametrize("net", NETWORKS, ids=IDS)
def test_bound_checks(net):
    for c in net.curves:
        psi, ell = frozen_cells(c.points, c.closed)
        total_k, elastic, length = frozen_abs_turning(psi, ell), frozen_elastic(psi, ell), polyline_length(c)
        cs = turning_cauchy_schwarz(c)
        assert (cs.lhs, cs.rhs) == (total_k, math.sqrt(max(elastic * length, 0.0)))
        if total_k > 0:
            am = amgm_energy_bound(c, 0.5 * total_k)
            assert (am.f_value, am.abs_curvature, am.length) == (elastic + length, total_k, length)
        if not c.closed:
            arc_k, arc_e, arc_l = frozen_arc(c)
            assert arc_abs_curvature(c) == arc_k
            assert tangent_gap_bound(c).rhs == math.sqrt((arc_e + arc_l) * arc_l)

    loops = []
    if net.kind == "drop":
        loops.append(bounds._drop_loop(net))
        assert drop_bound_check(net).lhs == frozen_arc(net.curves[0])[0]
    if net.kind in ("theta", "generalized_theta"):
        loops += [pair_loop(net, i, j) for i, j in ((0, 1), (1, 2), (2, 0))]
        per = []
        e_tot = l_tot = 0.0
        for i, c in enumerate(net.curves):
            psi, ell = frozen_cells(c.points, False, *curve_clamps(net, i))
            elastic, length = frozen_elastic(psi, ell), polyline_length(c)
            per.append(elastic + length)
            e_tot += elastic
            l_tot += length
        tb = theta_lower_bound_check(net)
        assert tb.f_value == e_tot + l_tot
        assert tb.pair_values == (per[0] + per[1], per[1] + per[2], per[2] + per[0])
    for loop in loops:
        arcs = [frozen_arc(a) for a in loop.arcs]
        total_k = float(sum(k for k, _, _ in arcs))
        assert total_abs_curvature(loop) == total_k
        assert gauss_bonnet_check(loop).lhs == total_k
        if len(loop.arcs) == 2:
            assert pair_bound_check(loop, tol_ang=10.0).lhs == total_k
        am = amgm_energy_bound(loop, 0.5 * total_k)
        elastic = sum(e for _, e, _ in arcs)
        length = float(sum(l for _, _, l in arcs))
        assert (am.f_value, am.abs_curvature, am.length) == (elastic + length, total_k, length)


def test_piecewise_curves():
    rng = np.random.default_rng(3)
    for n in range(40, 60):
        loop = random_piecewise_closed_curve(rng, n)
        arcs = [frozen_arc(a) for a in loop.arcs]
        total_k = float(sum(k for k, _, _ in arcs))
        assert gauss_bonnet_check(loop).lhs == total_k
        am = amgm_energy_bound(loop, 0.5 * total_k)
        assert am.f_value == sum(e for _, e, _ in arcs) + float(sum(l for _, _, l in arcs))


@pytest.mark.parametrize("net", NETWORKS, ids=IDS)
def test_deserialize_rebuilds_the_per_kind_slots(net):
    back = deserialize(serialize(net))
    if not net.junctions:
        assert back.junctions == ()
        return
    frames = [j.frame_angle for j in net.junctions]
    want = frozen_offsets(net.kind, back.curves, frames, net.prescribed_angles)
    assert [j.offsets for j in back.junctions] == want
    assert [j.offsets for j in back.junctions] == [j.offsets for j in net.junctions]


# ---------------------------------------------------------------------------
# one end-tangent pass per network: validate and deserialize against frozen
# copies of their per-end loops


def frozen_endpoint_tangents(points):
    """End tangents as ``endpoint_tangents`` took them, one curve at a time."""

    def direction(e):
        return (e / np.linalg.norm(e, axis=1)[:, None])[0]

    def rotated(t, angle):
        c, s = np.cos(angle), np.sin(angle)
        about = np.zeros(2)
        return (about + (t[None, :] - about) @ np.array([[c, s], [-s, c]]))[0]

    t0, t1 = direction(points[1:2] - points[:1]), direction(points[-1:] - points[-2:-1])
    if len(points) == 2:
        return t0, t1
    psi_first = float(signed_angle(points[1] - points[0], points[2] - points[1]))
    psi_last = float(signed_angle(points[-2] - points[-3], points[-1] - points[-2]))
    return rotated(t0, -0.5 * psi_first), rotated(t1, 0.5 * psi_last)


def frozen_validate(net):
    """(junction_gap, angle_defect) of ``validate``, junction ends checked one by one."""
    gap = defect = 0.0
    if net.kind == "drop":
        pts = net.curves[0].points
        gap = float(np.linalg.norm(pts[0] - pts[-1]))
    elif net.kind == "double_drop":
        p = net.curves[0].points[0]
        for c in net.curves:
            gap = max(gap, float(np.linalg.norm(c.points[0] - p)))
            gap = max(gap, float(np.linalg.norm(c.points[-1] - p)))
    for c, ends in zip(net.curves, end_slots(net.kind, len(net.curves))):
        tau0, tau1 = frozen_endpoint_tangents(c.points)
        for point, (j, slot), outgoing in zip((c.points[0], c.points[-1]), ends, (tau0, -tau1)):
            junction = net.junctions[j]
            gap = max(gap, float(np.linalg.norm(point - junction.position)))
            defect = max(defect, abs(float(signed_angle(junction.outgoing_dir(slot), outgoing))))
    if net.kind == "degenerate_theta":
        defect = max(defect, networks._degenerate_pattern_defect(net.junctions[0]))
    elif net.kind in ("theta", "generalized_theta"):
        angles = net.prescribed_angles or (2.0 * math.pi / 3.0,) * 3
        defect = max(defect, *(networks._triple_turn_defect(j.offsets, angles) for j in net.junctions))
    return gap, defect


def frozen_rebuilt_offsets(kind, curves, frames, angles):
    """Slot offsets as ``deserialize`` chose them, curve end by curve end."""
    if kind == "degenerate_theta":
        candidates = sorted(set(DEGENERATE_OFFSET_VARIANTS[0]) | set(DEGENERATE_OFFSET_VARIANTS[1]))
    elif angles is None:
        candidates = list(THETA_OFFSETS_START)
    else:
        a1, a2 = angles[0], angles[1]
        candidates = [0.0, a1, a1 + a2, 2.0 * math.pi - a1, 2.0 * math.pi - a1 - a2]
    offsets = [{} for _ in frames]
    for c, ends in zip(curves, end_slots(kind, len(curves))):
        tau0, tau1 = frozen_endpoint_tangents(c.points)
        for (j, slot), d in zip(ends, (tau0, -tau1)):
            est = math.atan2(d[1], d[0])
            offsets[j][slot] = min(candidates, key=lambda o: abs(float(networks._wrap_pi(est - (frames[j] + o)))))
    return [tuple(fit[slot] for slot in sorted(fit)) for fit in offsets]


def fuzzed_degenerate(rng, n):
    """A rotated degenerate figure eight with jittered interior points."""
    net = rotate_network(make_degenerate_figure_eight(n), float(rng.uniform(0.0, 2.0 * math.pi)))
    curves = []
    for c in net.curves:
        p = c.points.copy()
        p[1:-1] += rng.normal(0.0, 0.01, p[1:-1].shape)
        curves.append(DiscreteCurve(p))
    return Network("degenerate_theta", tuple(curves), net.junctions)


def random_open_curves(rng, count=200):
    """Open curves of 2 to 9 random points, the first a 2-point and the second a 3-point curve."""
    sizes = [2, 3, *rng.integers(2, 10, count - 2)]
    return [DiscreteCurve(rng.normal(size=(int(k), 2))) for k in sizes]


def random_curve_networks(rng, curves):
    """The curves five at a time, as a theta or generalized theta and a
    degenerate theta around random junctions."""
    nets = []
    for k in range(0, len(curves) - 4, 5):
        frames = rng.uniform(-math.pi, math.pi, 3)
        positions = rng.normal(size=(3, 2))
        if k % 2:
            a1, a2 = np.sort(rng.uniform(0.3, 2.8, 2))
            j0 = Junction(positions[0], frames[0], (0.0, a1, a1 + a2))
            j1 = Junction(positions[1], frames[1], (0.0, 2.0 * math.pi - a1, 2.0 * math.pi - a1 - a2))
            angles = (float(a1), float(a2), 2.0 * math.pi - a1 - a2)
            nets.append(Network("generalized_theta", curves[k : k + 3], (j0, j1), angles))
        else:
            j0 = Junction(positions[0], frames[0], THETA_OFFSETS_START)
            j1 = Junction(positions[1], frames[1], THETA_OFFSETS_END)
            nets.append(Network("theta", curves[k : k + 3], (j0, j1)))
        four = Junction(positions[2], frames[2], DEGENERATE_OFFSET_VARIANTS[k % 2])
        nets.append(Network("degenerate_theta", curves[k + 3 : k + 5], (four,)))
    return nets


def _end_pass_networks():
    rng = np.random.default_rng(29)
    drop = make_teardrop(40)
    nets = [make_circle(1.0, 16), make_ellipse(2.0, 1.0, 60), drop, make_symmetric_double_drop(drop)]
    for n in (8, 31, 400):
        nets += [
            make_standard_double_bubble(optimal_bubble_radius(), n),
            rotate_network(make_standard_double_bubble(2.5, n), 1.9),
            make_generalized_bubble(0.9, 1.6, n),
            rotate_network(make_generalized_bubble(1.7, 2.5, n), -2.2),
            make_degenerate_figure_eight(n),
        ]
    nets += [recovery_sequence(make_degenerate_figure_eight(60), k) for k in (1, 12, 2000)]
    for k in range(15):
        n = 12 + 5 * k
        nets += [random_theta_network(rng, n), random_drop(rng, n), fuzzed_degenerate(rng, n + 4)]
    return nets + random_curve_networks(rng, random_open_curves(rng))


END_PASS_NETWORKS = _end_pass_networks()
END_PASS_IDS = [f"{i}-{net.kind}" for i, net in enumerate(END_PASS_NETWORKS)]


def _bits(x):
    return np.float64(x).tobytes()


def test_one_tangent_pass_matches_the_per_curve_estimates():
    curves = random_open_curves(np.random.default_rng(31))
    stacked = endpoint_tangent_array(curves)
    for c, (start, end) in zip(curves, stacked):
        want = frozen_endpoint_tangents(c.points)
        for got in ((start, end), endpoint_tangents(c)):
            _same(got[0], want[0])
            _same(got[1], want[1])


@pytest.mark.parametrize("net", END_PASS_NETWORKS, ids=END_PASS_IDS)
def test_validate_matches_the_per_end_loop(net):
    report = validate(net)
    gap, defect = frozen_validate(net)
    assert (_bits(report.junction_gap), _bits(report.angle_defect)) == (_bits(gap), _bits(defect))


@pytest.mark.parametrize("net", END_PASS_NETWORKS, ids=END_PASS_IDS)
def test_deserialize_matches_the_per_end_choice(net):
    back = deserialize(serialize(net))
    want = frozen_rebuilt_offsets(net.kind, net.curves, [j.frame_angle for j in net.junctions], net.prescribed_angles)
    assert [j.offsets for j in back.junctions] == want


def test_one_kernel_call_per_curve(monkeypatch):
    calls = []
    kernel = geometry.polyline_energy
    monkeypatch.setattr(geometry, "polyline_energy", lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
    net = make_standard_double_bubble(optimal_bubble_radius(), 30)
    for check, n_curves in (
        (lambda: junction_residuals(net), 3),
        (lambda: amgm_energy_bound(pair_loop(net, 0, 1), 1.0), 2),
        (lambda: amgm_energy_bound(net.curves[0], 1.0), 1),
        (lambda: turning_cauchy_schwarz(net.curves[0]), 1),
        (lambda: tangent_gap_bound(net.curves[0]), 1),
        (lambda: arc_abs_curvature(net.curves[0]), 1),
    ):
        calls.clear()
        check()
        assert len(calls) == n_curves
