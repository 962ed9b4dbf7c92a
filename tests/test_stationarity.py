import numpy as np
import pytest

from elastinet.errors import InvalidInputError
from elastinet.geometry import DiscreteCurve, vertex_arclengths, vertex_curvature
from elastinet.minimize import OptimizationConfig, minimize_multilevel
from elastinet.networks import (
    curve_clamps,
    make_circle,
    make_degenerate_figure_eight,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_teardrop,
    optimal_bubble_radius,
    rotate_network,
    translate_network,
)
from elastinet.energy import optimal_rescale
from elastinet.stationarity import criticality_audit, el_residual, junction_residuals

RBAR = optimal_bubble_radius()
RBAR_INV_SQ = 1.206748335783172


class TestElResidual:
    def test_unit_circle_critical(self):
        res = el_residual(make_circle(1.0, 400).curves[0])
        assert np.max(np.abs(res)) < 1e-3

    def test_radius_two_constant_residual(self):
        res = el_residual(make_circle(2.0, 400).curves[0])
        assert np.allclose(res, -0.375, atol=1e-3)

    def test_convergence_order_two(self):
        errs = []
        for n in (100, 200, 400):
            res = el_residual(make_circle(2.0, n).curves[0])
            errs.append(np.max(np.abs(res + 0.375)))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_too_few_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [2.0, 0.0], [3.0, 0.2]])
        with pytest.raises(InvalidInputError):
            el_residual(DiscreteCurve(pts))


def quadratic_at(s3, k3, s0):
    """Value and slope at s0 of the quadratic through three (s, k) samples, one term at a time."""
    val = der = 0.0
    for i in range(3):
        others = [j for j in range(3) if j != i]
        denom = (s3[i] - s3[others[0]]) * (s3[i] - s3[others[1]])
        val += k3[i] * (s0 - s3[others[0]]) * (s0 - s3[others[1]]) / denom
        der += k3[i] * ((s0 - s3[others[0]]) + (s0 - s3[others[1]])) / denom
    return float(val), float(der)


def endpoint_curvature(kappa, s):
    """(k, k') at both ends of an open curve, from the three interior vertices nearest to each."""
    s_in = s[1:-1]
    return (*quadratic_at(s_in[:3], kappa[:3], 0.0), *quadratic_at(s_in[-3:], kappa[-3:], s[-1]))


def per_kind_junction_sums(network):
    """The junction sums with the ends of each junction listed kind by kind."""
    if network.kind == "degenerate_theta":
        ends_per_junction = [[(i, e) for i in range(len(network.curves)) for e in (0, 1)]]
    else:
        ends_per_junction = [[(i, 0) for i in range(3)], [(i, 1) for i in range(3)]]
    scalars, vectors = [], []
    for ends in ends_per_junction:
        scalar, vector = 0.0, np.zeros(2)
        for i, end in ends:
            curve = network.curves[i]
            k0, d0, k1, d1 = endpoint_curvature(vertex_curvature(curve)[0], vertex_arclengths(curve))
            k, dk = (k0, d0) if end == 0 else (k1, d1)
            tau = np.asarray(curve_clamps(network, i)[end], float)
            scalar += k
            vector = vector + 2.0 * dk * np.array([-tau[1], tau[0]]) + k * k * tau
        scalars.append(scalar)
        vectors.append(vector)
    return scalars, vectors


class TestJunctionResiduals:
    @pytest.mark.parametrize(
        "net",
        [
            make_standard_double_bubble(RBAR, 60),
            rotate_network(make_generalized_bubble(1.7, 2.5, 60), 0.4),
            make_degenerate_figure_eight(80),
        ],
        ids=lambda net: net.kind,
    )
    def test_match_per_kind_sums(self, net):
        report = junction_residuals(net)
        scalars, vectors = per_kind_junction_sums(net)
        assert report.junction_scalar == tuple(scalars)
        for got, want in zip(report.junction_vector, vectors, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_bubble_scalar_vanishes(self):
        report = junction_residuals(make_standard_double_bubble(RBAR, 400))
        for s in report.junction_scalar:
            assert abs(s) < 1e-6

    def test_bubble_vector_reference_value(self):
        report = junction_residuals(make_standard_double_bubble(RBAR, 400))
        for v in report.junction_vector:
            assert np.allclose(v, [RBAR_INV_SQ, 0.0], atol=1e-3)
        assert np.linalg.norm(report.junction_vector[0]) == pytest.approx(1.2068, abs=1e-3)

    def test_general_radius_vector(self):
        r = 1.5
        report = junction_residuals(make_standard_double_bubble(r, 400))
        assert np.allclose(report.junction_vector[0], [r**-2, 0.0], atol=1e-3)

    def test_rotation_equivariance(self):
        net = make_standard_double_bubble(RBAR, 200)
        base = junction_residuals(net).junction_vector[0]
        phi = 0.83
        rot = rotate_network(net, phi)
        c, s = np.cos(phi), np.sin(phi)
        expected = np.array([c * base[0] - s * base[1], s * base[0] + c * base[1]])
        assert np.allclose(junction_residuals(rot).junction_vector[0], expected, atol=1e-9)

    def test_translation_invariance(self):
        net = make_standard_double_bubble(RBAR, 200)
        base = junction_residuals(net)
        moved = junction_residuals(translate_network(net, (2.3, -1.1)))
        assert np.allclose(base.junction_vector[0], moved.junction_vector[0], atol=1e-9)
        assert base.junction_scalar[0] == pytest.approx(moved.junction_scalar[0], abs=1e-9)

    def test_wrong_kind(self):
        with pytest.raises(InvalidInputError):
            junction_residuals(make_circle(1.0, 64))


class TestCriticalityAudit:
    def test_unit_circle_passes(self):
        audit = criticality_audit(make_circle(1.0, 400), 1e-2, 1e-2)
        assert audit.passed

    def test_bubble_fails_on_junction_vector(self):
        audit = criticality_audit(make_standard_double_bubble(RBAR, 400), 1e-2, 1e-2)
        assert not audit.passed
        assert np.linalg.norm(audit.report.junction_vector[0]) == pytest.approx(RBAR_INV_SQ, abs=1e-3)
        # the interior equation alone is satisfied nowhere near as badly
        for s in audit.report.junction_scalar:
            assert abs(s) < 1e-6

    def test_minimized_drop_interior_residual(self):
        drop = optimal_rescale(make_teardrop(200))[1]
        config = OptimizationConfig(n_per_curve=200, max_iters=40000, grad_tol=1e-3, energy_rel_tol=1e-8)
        result, _ = minimize_multilevel(drop, config)
        audit = criticality_audit(result.final, interior_tol=5e-2)
        assert audit.passed
