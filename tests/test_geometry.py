import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elastinet.errors import ContractViolationError, InvalidCurveError
from elastinet.geometry import (
    DiscreteCurve,
    edge_tangents,
    endpoint_tangent_array,
    external_angle,
    polyline_energy,
    polyline_length,
    resample_uniform,
    rotate_points,
    vertex_curvature,
)


def unit_square(closed=True):
    return DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), closed=closed)


def circle_points(n, radius=1.0, clockwise=False):
    ang = 2.0 * np.pi * np.arange(n) / n
    if clockwise:
        ang = -ang
    return radius * np.column_stack([np.cos(ang), np.sin(ang)])


def wobbly_curve(rng, n=60, closed=True):
    th = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.1 * np.cos(3 * th + rng.uniform(0, 2 * np.pi)) + 0.05 * np.sin(5 * th)
    return DiscreteCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]), closed=closed)


class TestReadOnlyPoints:
    def test_writing_into_a_curve_raises(self):
        curve = DiscreteCurve(circle_points(12), closed=True)
        for points in (curve.points, curve.reversed().points, curve.points[2:5]):
            with pytest.raises(ValueError):
                points[0] = (5.0, 5.0)
        with pytest.raises(ValueError):
            curve.points += 1.0

    def test_callers_array_stays_writable_and_unshared(self):
        pts = circle_points(12)
        curve = DiscreteCurve(pts, closed=True)
        assert pts.dtype == np.float64 and pts.flags.writeable
        assert not np.shares_memory(pts, curve.points)
        before = curve.points.copy()
        pts[3] = pts[4]  # would collapse an edge of the curve if it were shared
        assert np.array_equal(curve.points, before)

    def test_copies_and_pickles_stay_read_only(self):
        curve = DiscreteCurve(circle_points(12), closed=True)
        curve.kernel
        for twin in (copy.copy(curve), copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
            assert np.array_equal(twin.points, curve.points) and twin.closed
            assert not twin.points.flags.writeable and "kernel" not in vars(twin)


class TestPolylineLength:
    def test_unit_square_resampled(self):
        sq = resample_uniform(unit_square(), 8)
        assert polyline_length(sq) == pytest.approx(4.0, abs=1e-12)

    def test_regular_360_gon(self):
        curve = DiscreteCurve(circle_points(360), closed=True)
        assert abs(polyline_length(curve) - 2.0 * np.pi) < 1e-4

    def test_single_segment(self):
        seg = DiscreteCurve(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert polyline_length(seg) == pytest.approx(5.0, abs=0.0)

    def test_too_few_points(self):
        with pytest.raises(InvalidCurveError):
            DiscreteCurve(np.array([[0.0, 0.0]]))

    def test_overflowing_edge_length_rejected(self):
        # finite coordinates whose squared edge length overflows, without a RuntimeWarning
        with pytest.raises(InvalidCurveError, match="overflow"):
            DiscreteCurve(np.array([[1e200, 0.0], [-1e200, 0.0]]))

    def test_additive_under_concatenation(self):
        a = DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]))
        b = DiscreteCurve(np.array([[2.0, 1.0], [3.0, 1.0]]))
        joined = DiscreteCurve(np.vstack([a.points, b.points[1:]]))
        assert polyline_length(joined) == pytest.approx(polyline_length(a) + polyline_length(b), rel=1e-15)


class TestResampleUniform:
    def test_segment_quarters(self):
        seg = DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0]]))
        out = resample_uniform(seg, 4)
        assert np.allclose(out.points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
        assert np.allclose(out.points[:, 1], 0.0)

    def test_unit_square_edges(self):
        out = resample_uniform(unit_square(), 8)
        lens = np.linalg.norm(np.roll(out.points, -1, axis=0) - out.points, axis=1)
        assert np.allclose(lens, 0.5, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        curve = wobbly_curve(rng)
        once = resample_uniform(curve, 50)
        twice = resample_uniform(once, 50)
        assert np.max(np.abs(once.points - twice.points)) < 1e-9

    def test_segment_lengths_equal(self):
        rng = np.random.default_rng(3)
        for closed in (False, True):
            curve = wobbly_curve(rng, closed=closed)
            out = resample_uniform(curve, 37)
            total = polyline_length(out)
            lens = np.linalg.norm(
                (np.roll(out.points, -1, axis=0) if closed else out.points[1:])
                - (out.points if closed else out.points[:-1]),
                axis=1,
            )
            assert np.max(lens) - np.min(lens) <= 1e-9 * total
            # samples stay on the input polyline
            assert total <= polyline_length(curve) + 1e-12

    def test_rejects_small_n(self):
        seg = DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InvalidCurveError):
            resample_uniform(seg, 2)

    def test_endpoints_preserved(self):
        curve = DiscreteCurve(np.array([[0.5, -0.25], [1.0, 0.3], [2.0, 0.1]]))
        out = resample_uniform(curve, 9)
        assert np.array_equal(out.points[0], curve.points[0])
        assert np.array_equal(out.points[-1], curve.points[-1])


class TestEdgeTangents:
    def test_horizontal_segment(self):
        seg = DiscreteCurve(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(edge_tangents(seg)[0], [1.0, 0.0])

    def test_circle_tangent_perpendicular_to_radius(self):
        curve = DiscreteCurve(circle_points(720), closed=True)
        t0 = edge_tangents(curve)[0]
        assert np.allclose(t0, [0.0, 1.0], atol=1e-2)

    def test_unit_norm_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            curve = wobbly_curve(rng, closed=bool(rng.integers(2)))
            norms = np.linalg.norm(edge_tangents(curve), axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_repeated_point_rejected(self):
        with pytest.raises(InvalidCurveError):
            DiscreteCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))


class TestEndpointTangents:
    def test_end_turns_are_the_kernels(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = rng.normal(size=(int(rng.integers(3, 12)), 2))
            psi = polyline_energy(pts).psi
            t = edge_tangents(pts)
            tau0, tau1 = endpoint_tangent_array([DiscreteCurve(pts)])[0]
            assert np.array_equal(tau0, rotate_points(t[:1], -0.5 * psi[0])[0])
            assert np.array_equal(tau1, rotate_points(t[-1:], 0.5 * psi[-1])[0])

    def test_exact_on_arcs_and_segments(self):
        arc = circle_points(64)[:9]
        tau0, tau1 = endpoint_tangent_array([DiscreteCurve(arc)])[0]
        assert np.allclose(tau0, [0.0, 1.0], atol=1e-14)
        assert np.allclose(tau1, [-arc[-1, 1], arc[-1, 0]], atol=1e-14)
        segment = DiscreteCurve(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert all(np.array_equal(tau, [0.6, 0.8]) for tau in endpoint_tangent_array([segment])[0])

    def test_closed_curve_rejected(self):
        with pytest.raises(InvalidCurveError):
            endpoint_tangent_array([unit_square()])


class TestVertexCurvature:
    def test_regular_ngon_unit_circle(self):
        curve = DiscreteCurve(circle_points(100), closed=True)
        kappa, _ = vertex_curvature(curve)
        assert np.max(np.abs(kappa - 1.0)) < 1e-3

    def test_straight_segment_zero(self):
        seg = resample_uniform(DiscreteCurve(np.array([[0.0, 0.0], [5.0, 0.0]])), 20)
        kappa, _ = vertex_curvature(seg)
        assert np.max(np.abs(kappa)) < 1e-14

    def test_clockwise_flips_sign(self):
        curve = DiscreteCurve(circle_points(100, clockwise=True), closed=True)
        kappa, _ = vertex_curvature(curve)
        assert np.max(np.abs(kappa + 1.0)) < 1e-3

    def test_convergence_order_two(self):
        errs = []
        for n in (50, 100, 200):
            kappa, _ = vertex_curvature(DiscreteCurve(circle_points(n, radius=2.0), closed=True))
            errs.append(abs(kappa[0] - 0.5))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_dual_lengths_partition_closed_curve(self):
        rng = np.random.default_rng(2)
        curve = wobbly_curve(rng)
        _, ell = vertex_curvature(curve)
        assert ell.sum() == pytest.approx(polyline_length(curve), rel=1e-14)


class TestExternalAngle:
    def test_parallel(self):
        assert external_angle([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert external_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_120_degrees(self):
        assert external_angle([1.0, 0.0], [-0.5, np.sqrt(3) / 2]) == pytest.approx(2 * np.pi / 3, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ContractViolationError):
            external_angle([2.0, 0.0], [1.0, 0.0])

    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    def test_symmetric_and_bounded(self, a, b):
        u = np.array([math.cos(a), math.sin(a)])
        v = np.array([math.cos(b), math.sin(b)])
        th = external_angle(u, v)
        assert 0.0 <= th <= math.pi + 1e-12
        assert th == pytest.approx(external_angle(v, u), abs=1e-12)

    @given(st.floats(0, 2 * math.pi), st.floats(-math.pi, math.pi))
    def test_matches_rotation_angle(self, a, delta):
        u = np.array([math.cos(a), math.sin(a)])
        v = np.array([math.cos(a + delta), math.sin(a + delta)])
        assert external_angle(u, v) == pytest.approx(abs(delta), abs=1e-7)


class TestInvariants:
    def test_convex_polygon_turning_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ang = np.sort(rng.uniform(0, 2 * np.pi, 12))
            if np.min(np.diff(ang)) < 1e-3:
                continue
            pts = np.column_stack([np.cos(ang), np.sin(ang)])
            curve = DiscreteCurve(pts, closed=True)
            assert polyline_energy(curve.points, closed=True).psi.sum() == pytest.approx(2 * np.pi, abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        curve = wobbly_curve(rng)
        moved = DiscreteCurve(rotate_points(curve.points, 0.7, about=(0.3, -0.2)) + [1.5, -2.0], closed=True)
        assert polyline_length(moved) == pytest.approx(polyline_length(curve), abs=1e-12)
        k0, _ = vertex_curvature(curve)
        k1, _ = vertex_curvature(moved)
        assert np.max(np.abs(k0 - k1)) < 1e-12
