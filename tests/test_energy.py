import math

import numpy as np
import pytest

from elastinet.energy import (
    elastic_energy,
    equipartition_defect,
    optimal_rescale,
    penalized_energy,
    polyline_energy,
    scaling_identity_check,
)
from elastinet.errors import InvalidConfigError, InvalidCurveError
from elastinet.geometry import DiscreteCurve, checked_energy, resample_uniform
from elastinet.networks import (
    Network,
    make_circle,
    make_degenerate_figure_eight,
    make_ellipse,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_symmetric_double_drop,
    make_teardrop,
    optimal_bubble_radius,
    rotate_network,
    scale_network,
    translate_network,
)

BUBBLE_F = 18.40589562425381  # (2/3) sqrt(8 pi (8 pi + 3 sqrt 3))


class TestElasticEnergy:
    def test_unit_circle(self):
        curve = make_circle(1.0, 200).curves[0]
        assert elastic_energy(curve) == pytest.approx(2 * np.pi, rel=1e-3)

    def test_radius_two_circle(self):
        curve = make_circle(2.0, 200).curves[0]
        assert elastic_energy(curve) == pytest.approx(np.pi, rel=1e-3)

    def test_straight_segment(self):
        seg = resample_uniform(DiscreteCurve(np.array([[0.0, 0.0], [2.0, 0.5]])), 12)
        assert elastic_energy(seg) == pytest.approx(0.0, abs=1e-20)


def _direction_angle(v):
    return math.atan2(v[1], v[0])


def independent_energy(points, closed, clamp_start=None, clamp_end=None):
    """(sum psi^2 / ell, L) one vertex at a time, with clamp half cells."""
    pts = [tuple(map(float, p)) for p in points]
    if closed:
        pts.append(pts[0])
    edges = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts[:-1], pts[1:])]
    cells = [(_direction_angle(e), math.hypot(*e)) for e in edges]
    if closed:
        cells.insert(0, cells[-1])
    else:
        if clamp_start is not None:
            cells.insert(0, (_direction_angle(clamp_start), 0.0))
        if clamp_end is not None:
            cells.append((_direction_angle(clamp_end), 0.0))
    terms = []
    for (th0, a0), (th1, a1) in zip(cells[:-1], cells[1:]):
        psi = math.remainder(th1 - th0, 2.0 * math.pi)
        terms.append(psi * psi / (0.5 * (a0 + a1)))
    return math.fsum(terms), math.fsum(math.hypot(*e) for e in edges)


class TestPolylineEnergy:
    def _cases(self):
        rng = np.random.default_rng(7)
        yield make_ellipse(2.0, 1.0, 60).curves[0].points, True, None, None
        yield make_circle(0.3, 17).curves[0].points, True, None, None
        for net in (make_generalized_bubble(1.7, 2.5, 30), make_degenerate_figure_eight(40)):
            for i, c in enumerate(net.curves):
                yield c.points, False, *net.clamps[i]
                yield c.points, False, None, None
        for _ in range(20):
            walk = np.cumsum(rng.normal(size=(int(rng.integers(2, 30)), 2)), axis=0)
            clamps = [rng.normal(size=2) if rng.random() < 0.7 else None for _ in range(2)]
            yield walk, False, *clamps

    def test_matches_independent_sum(self):
        for points, closed, cs, ce in self._cases():
            out = polyline_energy(points, closed, cs, ce)
            elastic, length = independent_energy(points, closed, cs, ce)
            # straight segments turn by round-off only
            assert out.elastic == pytest.approx(elastic, rel=1e-14, abs=1e-24)
            assert out.length == pytest.approx(length, rel=1e-14)
            # the dual lengths of every vertex partition the length when no end is free
            if closed or (cs is not None and ce is not None):
                assert out.ell.sum() == pytest.approx(out.length, rel=1e-14)

    def test_gradient_matches_central_differences(self):
        h = 1e-6
        for points, closed, cs, ce in self._cases():
            if len(points) > 12:
                continue
            out = polyline_energy(points, closed, cs, ce, gradient=True)

            def f(p):
                value = polyline_energy(p, closed, cs, ce)
                return value.elastic + value.length

            fd = np.zeros_like(points)
            for idx in np.ndindex(points.shape):
                step = np.zeros_like(points)
                step[idx] = h
                fd[idx] = (f(points + step) - f(points - step)) / (2 * h)
            scale = max(1.0, np.abs(out.grad).max())
            assert np.max(np.abs(fd - out.grad)) < 1e-5 * scale

    def test_collapsed_edge(self):
        points = make_circle(1.0, 12).curves[0].points.copy()
        points[4] = points[3]
        assert polyline_energy(points, True) is None
        assert polyline_energy(points[:6], False, (1.0, 0.0), (0.0, 1.0)) is None
        with pytest.raises(InvalidCurveError):
            checked_energy(points, closed=True)
        # a curve's points are read-only, and a collapsed edge never makes one
        curve = make_circle(1.0, 12).curves[0]
        with pytest.raises(ValueError):
            curve.points[4] = curve.points[3]
        with pytest.raises(InvalidCurveError):
            DiscreteCurve(points, closed=True)


class TestPenalizedEnergy:
    def test_unit_circle_is_four_pi(self):
        report = penalized_energy(make_circle(1.0, 200), 1.0)
        assert report.penalized == pytest.approx(4 * np.pi, rel=1e-6)

    def test_radius_two_alpha_one(self):
        report = penalized_energy(make_circle(2.0, 200), 1.0)
        assert report.penalized == pytest.approx(5 * np.pi, rel=1e-4)

    def test_unit_circle_alpha_four(self):
        report = penalized_energy(make_circle(1.0, 200), 4.0)
        assert report.penalized == pytest.approx(10 * np.pi, rel=1e-4)

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, -1.0, math.inf, math.nan):
            for check in (penalized_energy, scaling_identity_check):
                with pytest.raises(InvalidConfigError, match="alpha must be positive and finite"):
                    check(make_circle(1.0, 32), alpha)

    def test_near_zero_length_curve_contributes_nothing(self):
        base = make_standard_double_bubble(1.0, 60)
        tiny = DiscreteCurve(np.array([[0.0, 0.0], [1e-14, 0.0], [0.0, 1e-14]]))
        net = Network("theta", (base.curves[0], tiny, base.curves[2]), base.junctions)
        report = penalized_energy(net, 1.0)
        assert report.degenerate_curves == (1,)
        assert report.per_curve[1].penalized == 0.0
        expected = penalized_energy(base, 1.0)
        assert report.elastic == pytest.approx(
            expected.elastic - expected.per_curve[1].elastic, rel=1e-12
        )

    def test_report_identity_and_breakdown(self):
        net = make_standard_double_bubble(optimal_bubble_radius(), 120)
        report = penalized_energy(net, 2.5)
        assert report.penalized == pytest.approx(report.elastic + 2.5 * report.length, abs=1e-12)
        assert sum(ce.length for ce in report.per_curve) == pytest.approx(report.length, rel=1e-14)
        assert sum(ce.elastic for ce in report.per_curve) == pytest.approx(report.elastic, rel=1e-14)
        assert len(report.per_curve) == 3


class TestScalingIdentity:
    def test_circle_alpha_four(self):
        assert scaling_identity_check(make_circle(1.0, 200), 4.0) <= 1e-9 * 4 * np.pi

    def test_theta_network(self):
        net = make_standard_double_bubble(1.3, 80)
        f1 = penalized_energy(net, 1.0).penalized
        assert scaling_identity_check(net, 2.0) <= 1e-9 * f1

    def test_alpha_one_trivial(self):
        assert scaling_identity_check(make_circle(1.0, 64), 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "net",
        [
            make_ellipse(2.0, 1.0, 40),
            make_teardrop(40, 1.7),
            make_symmetric_double_drop(make_teardrop(30)),
            rotate_network(make_standard_double_bubble(optimal_bubble_radius(), 40), 0.3),
            translate_network(make_generalized_bubble(1.7, 2.5, 40), [0.4, -1.1]),
            translate_network(make_degenerate_figure_eight(60), [2.0, 1.0]),
        ],
        ids=lambda net: net.kind,
    )
    @pytest.mark.parametrize("alpha", [0.05, 2.0, 30.0])
    def test_matches_the_dilated_network(self, net, alpha):
        """The identity evaluated on dilated points equals it on the network scale_network builds."""
        lam = alpha**-0.5
        f1 = penalized_energy(net, 1.0).penalized
        dilated = penalized_energy(scale_network(net, lam), alpha).penalized
        assert scaling_identity_check(net, alpha) == pytest.approx(abs(f1 - lam * dilated), rel=0.0, abs=1e-14 * f1)

    def test_overflowing_dilation_is_the_curve_error(self):
        with pytest.raises(InvalidCurveError, match="edge lengths overflow"):
            scaling_identity_check(make_circle(1.0, 16), 1e-320)

    @pytest.mark.parametrize(
        "net",
        [make_circle(1e150, 16), make_teardrop(20, 1e150), scale_network(make_standard_double_bubble(0.9, 20), 1e150)],
        ids=lambda net: net.kind,
    )
    def test_infinite_dilation_is_the_curve_error_without_warnings(self, net):
        """Points dilated to infinity raise the curve's error; no RuntimeWarning escapes (warnings are errors here)."""
        with pytest.raises(InvalidCurveError, match="non-finite coordinates"):
            scaling_identity_check(net, 5e-324)


class TestOptimalRescale:
    def test_radius_two_circle(self):
        factor, rescaled = optimal_rescale(make_circle(2.0, 128))
        assert factor == pytest.approx(0.5, rel=1e-3)
        radii = np.linalg.norm(rescaled.curves[0].points, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-3)

    def test_radius_third_circle(self):
        factor, _ = optimal_rescale(make_circle(1.0 / 3.0, 128))
        assert factor == pytest.approx(3.0, rel=1e-3)

    def test_optimal_bubble_is_fixed_point(self):
        factor, _ = optimal_rescale(make_standard_double_bubble(optimal_bubble_radius(), 400))
        assert factor == pytest.approx(1.0, abs=1e-3)


class TestEquipartition:
    def test_rescaled_radius_two_circle(self):
        _, rescaled = optimal_rescale(make_circle(2.0, 128))
        assert equipartition_defect(rescaled) <= 1e-9

    def test_rescaled_bubble(self):
        _, rescaled = optimal_rescale(make_standard_double_bubble(optimal_bubble_radius(), 400))
        assert equipartition_defect(rescaled) <= 1e-6
        report = penalized_energy(rescaled, 1.0)
        assert report.elastic == pytest.approx(BUBBLE_F / 2, rel=1e-3)
        assert report.length == pytest.approx(BUBBLE_F / 2, rel=1e-3)

    def test_rescaled_unit_circle(self):
        _, rescaled = optimal_rescale(make_circle(1.0, 200))
        assert equipartition_defect(rescaled) <= 1e-9


class TestEnergyInvariants:
    def test_scan_confirms_optimal_factor(self):
        net = make_standard_double_bubble(1.4, 100)
        report = penalized_energy(net, 1.0)
        factor = math.sqrt(report.elastic / report.length)
        grid = factor * np.linspace(0.9, 1.1, 81)
        values = [penalized_energy(scale_network(net, float(r)), 1.0).penalized for r in grid]
        assert abs(grid[int(np.argmin(values))] - factor) <= (grid[1] - grid[0]) + 1e-12

    def test_rescaled_value_identity(self):
        net = make_standard_double_bubble(1.4, 100)
        report = penalized_energy(net, 1.0)
        _, rescaled = optimal_rescale(net)
        expected = 2.0 * math.sqrt(report.elastic * report.length)
        assert penalized_energy(rescaled, 1.0).penalized == pytest.approx(expected, rel=1e-9)

    def test_rigid_motion_invariance(self):
        net = make_standard_double_bubble(optimal_bubble_radius(), 90)
        f0 = penalized_energy(net, 1.0).penalized
        moved = translate_network(rotate_network(net, 1.1), (3.0, -0.7))
        assert penalized_energy(moved, 1.0).penalized == pytest.approx(f0, abs=1e-11)

    def test_reversal_invariance(self):
        circle = make_circle(1.5, 90)
        rev = Network("closed", (circle.curves[0].reversed(),))
        assert penalized_energy(rev, 1.0).penalized == pytest.approx(
            penalized_energy(circle, 1.0).penalized, abs=1e-12
        )
        drop = DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.2], [1.5, 1.0], [0.5, 1.4], [0.0, 0.0]]))
        forward = Network("drop", (drop,))
        backward = Network("drop", (drop.reversed(),))
        assert penalized_energy(backward, 1.0).penalized == pytest.approx(
            penalized_energy(forward, 1.0).penalized, abs=1e-12
        )
