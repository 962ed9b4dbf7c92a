import math

import numpy as np
import pytest

from elastinet.bounds import (
    PiecewiseClosedCurve,
    amgm_energy_bound,
    drop_bound_check,
    gauss_bonnet_check,
    pair_bound_check,
    pair_loop,
    tangent_gap_bound,
    theta_lower_bound_check,
    total_abs_curvature,
    turning_cauchy_schwarz,
)
from elastinet.errors import HypothesisNotMetError, InvalidInputError
from random_networks import random_drop, random_piecewise_closed_curve, random_theta_network
from elastinet.geometry import DiscreteCurve, resample_uniform
from elastinet.networks import (
    Network,
    make_circle,
    make_degenerate_figure_eight,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_teardrop,
    optimal_bubble_radius,
)

RBAR = optimal_bubble_radius()


def circle_arc_loop(n=360, radius=1.0):
    ang = 2 * np.pi * np.arange(n + 1) / n
    pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    pts[-1] = pts[0]
    return PiecewiseClosedCurve((DiscreteCurve(pts),))


def square_loop():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    arcs = []
    for a, b in zip(corners[:-1], corners[1:]):
        arcs.append(resample_uniform(DiscreteCurve(np.vstack([a, b])), 10))
    return PiecewiseClosedCurve(tuple(arcs))


def rounded_square_loop(rho=0.2, n_arc=60, n_side=40):
    arcs = []
    side = 1.0
    centers = [(side - rho, side - rho), (rho, side - rho), (rho, rho), (side - rho, rho)]
    start_angles = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]
    pieces = []
    for (cx, cy), a0 in zip(centers, start_angles):
        th = a0 + 0.5 * np.pi * np.linspace(0, 1, n_arc)
        pieces.append(np.column_stack([cx + rho * np.cos(th), cy + rho * np.sin(th)]))
    pts = []
    for i in range(4):
        arc = pieces[i]
        nxt = pieces[(i + 1) % 4]
        pts.append(arc)
        gap = np.linspace(arc[-1], nxt[0], n_side)[1:-1]
        pts.append(gap)
    loop = np.vstack(pts)
    loop = np.vstack([loop, loop[0]])
    return PiecewiseClosedCurve((DiscreteCurve(loop),))


class TestTotalAbsCurvature:
    def test_unit_circle(self):
        assert total_abs_curvature(circle_arc_loop()) == pytest.approx(2 * np.pi, rel=1e-3)

    def test_rounded_square(self):
        assert total_abs_curvature(rounded_square_loop()) == pytest.approx(2 * np.pi, rel=5e-3)

    def test_straight_edged_square(self):
        assert total_abs_curvature(square_loop()) == pytest.approx(0.0, abs=1e-12)

    def test_closure_gap_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            PiecewiseClosedCurve((DiscreteCurve(pts),))


class TestGaussBonnet:
    def test_circle_equality(self):
        check = gauss_bonnet_check(circle_arc_loop())
        assert check.holds
        assert abs(check.lhs - check.rhs) < 1e-3

    def test_square_rhs_zero(self):
        check = gauss_bonnet_check(square_loop())
        assert check.rhs == pytest.approx(0.0, abs=1e-9)
        assert check.lhs == pytest.approx(0.0, abs=1e-9)
        assert check.holds

    def test_fuzz_100_instances(self):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            pw = random_piecewise_closed_curve(rng)
            assert gauss_bonnet_check(pw).holds

    def test_pi_corner_flagged(self):
        # a slit traversed out and back: both corners are exact cusps
        t = np.linspace(0, 1, 40)
        out = np.column_stack([t, np.zeros_like(t)])
        back = out[::-1].copy()
        pw = PiecewiseClosedCurve((DiscreteCurve(out), DiscreteCurve(back)))
        corners = pw.corner_angles()
        assert corners.pi_corners == (0, 1)
        check = gauss_bonnet_check(pw)
        assert check.holds
        assert check.rhs == pytest.approx(0.0, abs=1e-12)


class TestDropBound:
    def test_circle_as_drop(self):
        ang = 2 * np.pi * np.arange(101) / 100
        pts = np.column_stack([np.cos(ang) - 1.0, np.sin(ang)])
        pts[-1] = pts[0]
        check = drop_bound_check(Network("drop", (DiscreteCurve(pts),)))
        assert check.holds
        assert check.lhs == pytest.approx(2 * np.pi, rel=1e-3)

    def test_teardrop(self):
        assert drop_bound_check(make_teardrop(200)).holds

    def test_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            assert drop_bound_check(random_drop(rng)).holds

    def test_wrong_kind(self):
        with pytest.raises(InvalidInputError):
            drop_bound_check(make_circle(1.0, 32))

    @pytest.mark.parametrize("gap", [2e-5, 2e-4])
    def test_open_drop_far_from_the_origin(self, gap):
        # one closure test, relative to the drop's size, whatever its distance from the origin
        pts = make_teardrop(60).curves[0].points + [100.0, 0.0]
        assert drop_bound_check(Network("drop", (DiscreteCurve(pts),))).holds
        pts[-1, 1] += gap
        with pytest.raises(InvalidInputError, match=r"^drop endpoints do not coincide \(gap "):
            drop_bound_check(Network("drop", (DiscreteCurve(pts),)))


class TestPairBound:
    def test_bubble_arc_segment_pair(self):
        net = make_standard_double_bubble(RBAR, 300)
        check = pair_bound_check(pair_loop(net, 0, 1))
        assert check.holds
        assert check.lhs == pytest.approx(4 * np.pi / 3, rel=1e-6)

    def test_bubble_two_arc_pair(self):
        net = make_standard_double_bubble(RBAR, 300)
        check = pair_bound_check(pair_loop(net, 0, 2))
        assert check.holds
        assert check.lhs == pytest.approx(8 * np.pi / 3, rel=1e-6)

    def test_fuzzed_thetas(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            net = random_theta_network(rng)
            for i, j in ((0, 1), (1, 2), (2, 0)):
                assert pair_bound_check(pair_loop(net, i, j), tol_ang=5e-2).holds

    def test_corner_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            pair_bound_check(square_loop())


class TestAmGm:
    def test_unit_circle_sharp(self):
        check = amgm_energy_bound(make_circle(1.0, 200).curves[0], 2 * np.pi)
        assert check.holds
        assert check.f_value == pytest.approx(check.bound, rel=1e-6)

    def test_radius_two_circle(self):
        check = amgm_energy_bound(make_circle(2.0, 200).curves[0], 2 * np.pi)
        assert check.holds
        assert check.f_value == pytest.approx(5 * np.pi, rel=1e-4)

    def test_fuzz_with_measured_curvature(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            pw = random_piecewise_closed_curve(rng)
            c = total_abs_curvature(pw)
            if c <= 0:
                continue
            assert amgm_energy_bound(pw, c).holds

    def test_hypothesis_signal(self):
        circle = make_circle(1.0, 64).curves[0]  # total |k| is 2*pi, short of c
        with pytest.raises(HypothesisNotMetError):
            amgm_energy_bound(circle, 10 * np.pi)

    def test_c_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            amgm_energy_bound(make_circle(1.0, 32).curves[0], 0.0)


class TestThetaLowerBound:
    def test_bubble(self):
        check = theta_lower_bound_check(make_standard_double_bubble(RBAR, 300))
        assert check.holds
        assert check.f_value == pytest.approx(18.4059, rel=1e-3)
        assert check.f_value >= 4 * np.pi
        assert check.pair_holds == (True, True, True) and check.pairs_hold
        assert check.identity_defect <= 1e-12

    def test_pair_verdicts_of_a_generalized_theta(self):
        # only F_01 of this generalized theta falls below the 120 degree pair bound 8 pi / 3
        check = theta_lower_bound_check(make_generalized_bubble(0.5, 3.0, 60))
        assert check.pair_values[0] < check.pair_bound < min(check.pair_values[1:])
        assert check.pair_holds == (False, True, True)
        assert not check.pairs_hold

    def test_fuzzed_thetas(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            check = theta_lower_bound_check(random_theta_network(rng))
            assert check.holds
            assert check.pairs_hold
            assert check.identity_defect <= 1e-12 * max(1.0, check.f_value)


class TestCauchySchwarz:
    def test_circle_equality(self):
        check = turning_cauchy_schwarz(make_circle(1.0, 128).curves[0])
        assert check.holds
        assert check.lhs == pytest.approx(check.rhs, rel=1e-9)

    def test_random_curves(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert turning_cauchy_schwarz(random_drop(rng).curves[0]).holds

    def test_straight_segment(self):
        seg = resample_uniform(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0]])), 8)
        check = turning_cauchy_schwarz(seg)
        assert check.lhs == pytest.approx(0.0, abs=1e-15)
        assert check.holds


class TestTangentGap:
    def test_segment(self):
        seg = resample_uniform(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0]])), 8)
        check = tangent_gap_bound(seg)
        assert check.lhs == pytest.approx(0.0, abs=1e-15)
        assert check.holds

    def test_half_circle(self):
        ang = np.pi * np.arange(181) / 180
        half = DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]))
        check = tangent_gap_bound(half)
        assert check.lhs == pytest.approx(2.0, rel=1e-4)
        assert check.rhs == pytest.approx(math.sqrt(2 * np.pi * np.pi), rel=1e-3)
        assert check.holds

    def test_shrinking_arcs_force_blowup(self):
        # half circles of shrinking radius keep the gap but F must blow up
        ang = np.pi * np.arange(61) / 60
        base = np.column_stack([np.cos(ang), np.sin(ang)])
        f_values = []
        for scale in (1.0, 0.3, 0.1, 0.03):
            arc = DiscreteCurve(scale * base)
            check = tangent_gap_bound(arc)
            assert check.holds
            f_values.append(check.rhs**2 / (scale * np.pi))  # F = rhs^2 / L
        assert all(b > a for a, b in zip(f_values, f_values[1:]))

    def test_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            net = random_theta_network(rng)
            for c in net.curves:
                assert tangent_gap_bound(c).holds


class TestFigureEightAdditivity:
    def test_split_at_crossing(self):
        net = make_degenerate_figure_eight(160)
        lobe1, lobe2 = net.curves
        whole = PiecewiseClosedCurve((lobe1, lobe2), closure_tol=1e-9)
        split_sum = total_abs_curvature(PiecewiseClosedCurve((lobe1,))) + total_abs_curvature(
            PiecewiseClosedCurve((lobe2,))
        )
        assert total_abs_curvature(whole) == pytest.approx(split_sum, abs=1e-12)
