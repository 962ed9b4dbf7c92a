import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tracemalloc

from elastinet.energy import optimal_rescale, penalized_energy
from elastinet.errors import ConstructionFailedError, InvalidConfigError, InvalidInputError, OptimizationError
from elastinet.geometry import DiscreteCurve, edge_lengths, polyline_length
from elastinet.minimize import (
    DEGENERATION_FACTOR,
    ROUND_OFF,
    OptimizationConfig,
    discrete_gradient,
    dof_map,
    injectivity_report,
    minimize,
    minimize_multilevel,
    minimize_symmetric_double_drop,
    recovery_sequence,
)
from elastinet.minimize import _AngleForm, _tridiagonal_solve
from elastinet.networks import (
    Network,
    end_slots,
    make_circle,
    make_ellipse,
    make_degenerate_figure_eight,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_symmetric_double_drop,
    make_teardrop,
    optimal_bubble_radius,
    translate_network,
    validate,
)
from random_networks import random_degenerate_theta, random_drop, random_generalized_theta, random_theta_network

RBAR = optimal_bubble_radius()


def fd_gradient(dof, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (dof.value(xp)[0] - dof.value(xm)[0]) / (2 * h)
    return out


def perturbed(network, rng, scale=0.01):
    curves = []
    for c in network.curves:
        pts = c.points + rng.normal(0.0, scale, c.points.shape)
        if not c.closed:
            pts[0] = c.points[0]
            pts[-1] = c.points[-1]
        curves.append(DiscreteCurve(pts, c.closed))
    return Network(network.kind, tuple(curves), network.junctions, network.prescribed_angles)


class TestDiscreteGradient:
    def test_matches_fd_on_perturbed_circle(self):
        rng = np.random.default_rng(0)
        net = perturbed(make_circle(1.0, 24), rng)
        dof = dof_map(net)
        x = dof.pack()
        g = dof.value_and_grad(x)[3]
        fd = fd_gradient(dof, x)
        denom = np.maximum(np.abs(g), 1e-3 * max(np.abs(g).max(), 1.0))
        assert np.max(np.abs(fd - g) / denom) < 1e-5

    def test_matches_fd_on_theta(self):
        rng = np.random.default_rng(1)
        dof = dof_map(make_standard_double_bubble(1.0, 14))
        x = dof.pack() + rng.normal(0, 3e-3, dof.pack().shape)
        g = dof.value_and_grad(x)[3]
        fd = fd_gradient(dof, x)
        denom = np.maximum(np.abs(g), 1e-3 * max(np.abs(g).max(), 1.0))
        assert np.max(np.abs(fd - g) / denom) < 1e-5

    def test_matches_fd_on_drop_and_degenerate(self):
        rng = np.random.default_rng(2)
        for net in (make_teardrop(16), make_degenerate_figure_eight(28)):
            dof = dof_map(net)
            x = dof.pack() + rng.normal(0, 2e-3, dof.pack().shape)
            g = dof.value_and_grad(x)[3]
            fd = fd_gradient(dof, x)
            denom = np.maximum(np.abs(g), 1e-3 * max(np.abs(g).max(), 1.0))
            assert np.max(np.abs(fd - g) / denom) < 1e-5

    def test_matches_fd_on_generalized_theta(self):
        # frames that are not 120 degrees apart, and slots that differ per junction
        rng = np.random.default_rng(4)
        dof = dof_map(make_generalized_bubble(1.7, 2.5, 14))
        x = dof.pack() + rng.normal(0, 3e-3, dof.pack().shape)
        g = dof.value_and_grad(x)[3]
        fd = fd_gradient(dof, x)
        denom = np.maximum(np.abs(g), 1e-3 * max(np.abs(g).max(), 1.0))
        assert np.max(np.abs(fd - g) / denom) < 1e-5

    def test_unit_circle_near_critical(self):
        net = make_circle(1.0, 200)
        g = discrete_gradient(net)
        f = penalized_energy(net).penalized
        assert np.max(np.abs(g)) <= 1e-6 * f

    def test_translation_zero_mode(self):
        rng = np.random.default_rng(3)
        net = perturbed(make_circle(1.0, 48), rng)
        g = discrete_gradient(net).reshape(-1, 2)
        # directional derivative along a rigid translation
        assert np.linalg.norm(g.sum(axis=0)) < 1e-10


class TestDofMap:
    @pytest.mark.parametrize(
        "net",
        [
            make_circle(1.3, 24),
            make_teardrop(20),
            make_standard_double_bubble(RBAR, 16),
            make_generalized_bubble(1.7, 2.5, 16),
            make_degenerate_figure_eight(28),
        ],
        ids=lambda net: net.kind,
    )
    def test_value_of_pack_is_the_network_energy(self, net):
        dof = dof_map(net)
        assert dof.value(dof.pack())[0] == pytest.approx(penalized_energy(net).penalized, rel=1e-14)

    def test_collapsed_edge_has_infinite_value(self):
        dof = dof_map(make_standard_double_bubble(RBAR, 16))
        x = dof.pack()
        x[-2:] = x[-4:-2]  # the last two interior vertices of curve 2 coincide
        assert dof.value(x) == (math.inf, math.inf, math.inf)


class TestMinimize:
    def test_max_iters_zero_returns_input(self):
        net = make_circle(1.0, 64)
        res = minimize(net, OptimizationConfig(n_per_curve=64, max_iters=0))
        assert res.termination == "max_iters"
        assert res.iterations == 0
        assert np.array_equal(res.final.curves[0].points, net.curves[0].points)

    def test_trace_nonincreasing_between_resamples(self):
        drop = make_teardrop(80)
        cfg = OptimizationConfig(n_per_curve=80, max_iters=400, grad_tol=1e-9, energy_rel_tol=1e-13)
        res = minimize(drop, cfg)
        tr = res.energy_trace
        event_iters = {e.iteration for e in res.resample_events}
        for i in range(1, len(tr)):
            if i not in event_iters:
                assert tr[i] <= tr[i - 1] + 1e-12 * max(1.0, abs(tr[i - 1]))

    def test_equal_edges_instead_of_resampling(self):
        # the solver's mesh is equal-edge by construction, so it never resamples
        drop = make_teardrop(80)
        cfg = OptimizationConfig(n_per_curve=80, max_iters=400, grad_tol=1e-9, energy_rel_tol=1e-13)
        res = minimize(drop, cfg)
        assert res.resample_events == ()
        edges = np.linalg.norm(np.diff(res.final.curves[0].points, axis=0), axis=1)
        assert len(edges) == 79
        assert np.ptp(edges) <= 1e-13 * edges.mean()

    def test_line_search_failure_reported(self):
        # a gradient tolerance below round-off: at the optimum no step lowers F
        net = make_circle(1.0, 64)
        cfg = OptimizationConfig(n_per_curve=64, max_iters=50, grad_tol=1e-30, energy_rel_tol=1e-30)
        res = minimize(net, cfg)
        assert res.termination == "line_search_failed"
        assert res.iterations < cfg.max_iters
        assert res.grad_norm_trace[-1] < 1e-9

    def test_converged_means_a_negative_count_of_zero(self):
        # the start already has |g| below grad_tol, at a point with one negative reduced eigenvalue
        net, cfg = random_theta_network(np.random.default_rng(16)), OptimizationConfig(n_per_curve=60, grad_tol=31.0)
        form = _AngleForm(net, cfg.n_per_curve)
        start = form.restore(form.z0)
        assert start.grad_norm <= cfg.grad_tol and form.step(start, 0.0)[1] == 1
        res = minimize(net, cfg)
        assert res.termination == "converged" and res.iterations > 0
        assert res.grad_norm_trace[-1] <= cfg.grad_tol and _negative_count(res) == 0

    def _fail_at_the_third_iterate(self, monkeypatch, name, broken):
        """Solve an ellipse with ``_AngleForm.<name>`` replaced by ``broken(original, form, ...)`` from the third
        line search on, and check that the run ends ``line_search_failed`` at its second accepted iterate."""
        net = make_ellipse(2.0, 1.0, 60)
        cfg = OptimizationConfig(n_per_curve=60, max_iters=2, grad_tol=1e-12)
        want = minimize(net, cfg)
        searches, line_search, original = [], _AngleForm.line_search, getattr(_AngleForm, name)
        monkeypatch.setattr(_AngleForm, "line_search", lambda form, p: searches.append(p) or line_search(form, p))
        monkeypatch.setattr(
            _AngleForm, name, lambda form, *a: broken(original, form, *a) if len(searches) > 2 else original(form, *a)
        )
        got = minimize(net, dataclasses.replace(cfg, max_iters=100))
        assert got.termination == "line_search_failed" and got.iterations == 2 and len(searches) == 3
        assert np.array_equal(got.energy_trace, want.energy_trace)
        assert np.array_equal(got.final.curves[0].points, want.final.curves[0].points)

    def test_line_search_fails_when_no_shift_leaves_count_zero(self, monkeypatch):
        shifts = []

        def step(original, form, p, shift):
            shifts.append(shift)
            dz, negative = original(form, p, shift)
            return dz, negative + 1

        self._fail_at_the_third_iterate(monkeypatch, "step", step)
        assert len(shifts) == 18 and shifts[0] == 0.0  # no shift, then the 17 Levenberg shifts

    def test_line_search_fails_when_backtracking_reaches_step_min(self, monkeypatch):
        trials = []
        self._fail_at_the_third_iterate(monkeypatch, "restore", lambda original, form, z: trials.append(z))
        assert len(trials) == 40  # steps 1, 1/2, ..., 2^-39: the last not below STEP_MIN, so in the Armijo regime

    def test_singular_closure_jacobian_leaves_no_closed_form(self, monkeypatch):
        # with J J^T singular restore takes no Gauss-Newton step, and a start off the closure equations is refused
        net, jacobian = make_teardrop(20), _AngleForm.jacobian
        monkeypatch.setattr(_AngleForm, "jacobian", lambda form, *a: np.zeros_like(jacobian(form, *a)))
        form = _AngleForm(net, 20)
        assert form.restore(form.z0) is None
        with pytest.raises(OptimizationError, match="no closed equal-edge form"):
            minimize(net, OptimizationConfig(n_per_curve=20))

    @pytest.mark.parametrize(
        "alpha1, alpha2", [(1.2, 1.5), tuple(np.linspace(0.6, 2.0 * np.pi - 1.8, 12)[[3, 7]])], ids=["bubble", "grid-cell"]
    )
    def test_endgame_below_round_off_converges(self, alpha1, alpha2):
        # Newton's last steps predict a fall of F below its round-off, which
        # F cannot show; the full step is judged by |g| and F may rise by one ulp
        cfg = OptimizationConfig(n_per_curve=100, max_iters=300, grad_tol=1e-9)
        res = minimize(make_generalized_bubble(alpha1, alpha2, 100), cfg)
        assert res.termination == "converged"
        f = res.energy_trace
        assert np.all(np.diff(f) <= ROUND_OFF * f[:-1])

    def test_round_off_regime_tries_the_full_step_only(self, monkeypatch):
        form = _AngleForm(make_generalized_bubble(1.2, 1.5, 100), 100)
        p = form.restore(form.z0)
        for _ in range(4):
            p, on_f = form.line_search(p)
            assert on_f
        dz, _ = form.step(p, 0.0)
        assert 0.0 < -(p.g @ dz) <= ROUND_OFF * p.f  # the fifth step predicts a fall of F below its round-off
        restore, trials = form.restore, []
        monkeypatch.setattr(form, "restore", lambda z: trials.append(z) or restore(z))
        q, on_f = form.line_search(p)
        assert len(trials) == 1 and not on_f
        assert q.grad_norm < p.grad_norm and q.f <= p.f + ROUND_OFF * p.f
        # the same step, had it raised F by more than its round-off, is refused without backtracking
        raised = q._replace(f=p.f + 2.0 * ROUND_OFF * p.f)
        monkeypatch.setattr(form, "restore", lambda z: trials.append(z) or raised)
        assert form.line_search(p) is None and len(trials) == 2

    def test_degeneration_detected(self):
        deg = make_degenerate_figure_eight(60)
        theta = recovery_sequence(deg, 2000)  # middle curve of length 5e-4
        cfg = OptimizationConfig(n_per_curve=40, max_iters=60, grad_tol=1e-12, energy_rel_tol=1e-14)
        res = minimize(theta, cfg)
        assert res.termination == "degeneration"
        # the solver tests the points it builds the network from
        shortest = min(polyline_length(c) for c in res.final.curves)
        assert shortest < DEGENERATION_FACTOR * res.final.diameter

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_degeneration_guard_is_exact(self, data):
        """``minimize`` builds the points for the degeneration test only when a
        curve is shorter than 2 DEGENERATION_FACTOR of the total length: a
        connected network's bounding-box diagonal is at most sqrt(2) times its
        length, so no degenerate curve is missed."""
        net = _random_connected(data)
        lengths = [polyline_length(c) for c in net.curves]
        total, diameter = sum(lengths), net.diameter
        assert diameter <= math.sqrt(2.0) * total
        if min(lengths) >= 2.0 * DEGENERATION_FACTOR * total:
            assert min(lengths) >= DEGENERATION_FACTOR * diameter

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            OptimizationConfig(n_per_curve=4)
        # counts are integers (not booleans), tolerances finite, the seed an integer
        for bad in (
            {"n_per_curve": 50.5},
            {"max_iters": float("inf")},
            {"max_iters": True},
            {"grad_tol": float("nan")},
            {"energy_rel_tol": float("inf")},
            {"seed": "abc"},
            {"grad_tol": 10**400},
            {"energy_rel_tol": 10**400},
        ):
            with pytest.raises(InvalidConfigError):
                OptimizationConfig(**bad)
        OptimizationConfig(n_per_curve=np.int64(50), grad_tol=np.float64(1e-3), seed=-3)
        # the junction constraints are hard, so there is no angle penalty to schedule
        assert "angle_penalty_schedule" not in {f.name for f in dataclasses.fields(OptimizationConfig)}
        # the Newton solver has no step-size or resampling settings
        assert {f.name for f in dataclasses.fields(OptimizationConfig)} == {
            "n_per_curve",
            "max_iters",
            "grad_tol",
            "energy_rel_tol",
            "seed",
        }
        for removed in ("resample_every", "backtrack_factor", "armijo_c", "step_init", "step_growth", "step_min"):
            with pytest.raises(TypeError):
                OptimizationConfig(**{removed: 1})

    def test_no_progress_with_large_gradient_is_stalled(self):
        # a loose progress tolerance stops the run after its first step
        drop = make_teardrop(80)
        cfg = OptimizationConfig(n_per_curve=80, max_iters=5000, grad_tol=1e-6, energy_rel_tol=1.0)
        res = minimize(drop, cfg)
        assert res.iterations == 1
        assert res.energy_trace[1] < res.energy_trace[0]
        assert res.termination == "stalled"
        assert res.grad_norm_trace[-1] > cfg.grad_tol

    @pytest.mark.parametrize("energy_rel_tol", [1e-9, 1e-6, 1.0])
    def test_converged_means_small_gradient(self, energy_rel_tol):
        net = make_circle(1.3, 48)
        cfg = OptimizationConfig(n_per_curve=48, max_iters=5000, grad_tol=1e-2, energy_rel_tol=energy_rel_tol)
        res = minimize(net, cfg)
        assert res.termination in ("converged", "stalled")
        assert (res.termination == "converged") == (res.grad_norm_trace[-1] <= cfg.grad_tol)

    def test_gradient_norm_at_convergence(self):
        net = make_circle(1.3, 48)
        cfg = OptimizationConfig(n_per_curve=48, max_iters=5000, grad_tol=1e-2, energy_rel_tol=1e-16)
        res = minimize(net, cfg)
        assert res.termination == "converged"
        assert res.grad_norm_trace[-1] <= cfg.grad_tol

    def test_final_validates_loosely(self):
        bub = make_standard_double_bubble(RBAR, 60)
        cfg = OptimizationConfig(n_per_curve=60, max_iters=300, grad_tol=1e-9, energy_rel_tol=1e-13)
        res = minimize(bub, cfg)
        assert res.constraint_violation.valid
        assert res.constraint_violation.junction_gap == 0.0

    def test_max_iters_stops_the_newton_loop(self):
        res = minimize(make_standard_double_bubble(RBAR, 60), OptimizationConfig(n_per_curve=60, max_iters=1))
        assert (res.termination, res.iterations) == ("max_iters", 1)
        assert len(res.energy_trace) == 2 and res.energy_trace[1] < res.energy_trace[0]


def _random_connected(data):
    """A theta (three polylines between two ends) or a degenerate theta (two
    loops through one point), each curve drawn at its own scale."""
    coord = st.integers(-1000, 1000).map(lambda k: k / 1000.0)

    def points(scale):
        k = data.draw(st.integers(1, 5))
        return scale * np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k)))

    def scale():
        return 10.0 ** -data.draw(st.floats(0.0, 6.0))

    if data.draw(st.booleans()):
        template, end = make_standard_double_bubble(RBAR, 8), points(scale())[:1]
    else:
        template, end = make_degenerate_figure_eight(28), np.zeros((1, 2))
    curves = [np.vstack([np.zeros((1, 2)), points(scale()), end]) for _ in template.curves]
    assume(all(np.all(np.any(np.diff(c, axis=0) != 0.0, axis=1)) for c in curves))
    return dataclasses.replace(template, curves=tuple(DiscreteCurve(c) for c in curves))


def _negative_count(result):
    """The negative eigenvalues of the reduced Hessian at the result's final network, re-formed at its points per curve."""
    form = _AngleForm(result.final, result.config.n_per_curve)
    return form.step(form.restore(form.z0), 0.0)[1]


FUZZ_GENERATORS = pytest.mark.parametrize(
    "generator",
    [random_theta_network, random_drop, random_generalized_theta, random_degenerate_theta],
    ids=["theta", "drop", "generalized", "degenerate"],
)


class TestMinimizeFuzz:
    """Seeded random networks of every kind with a junction, and drops: every
    one converges to a local minimum within 40 Newton steps, or a generalized
    theta degenerates, and keeps the hard constraints.  At ``grad_tol`` 1e-9
    the last steps predict falls of F below its round-off, and F may rise by
    at most ``ROUND_OFF`` F per step.

    Embeddedness and ``validate`` are not required: several random thetas
    converge to self-crossing local minima.
    """

    def _solve(self, generator, seed, n, grad_tol):
        cfg = OptimizationConfig(n_per_curve=n, max_iters=200, grad_tol=grad_tol)
        res = minimize(generator(np.random.default_rng(seed)), cfg)
        if res.termination == "degeneration":
            # generalized seeds 9 and 12 start with two crossings, and their first curve collapses;
            # its edges are too short for their directions to hold the frame rays to 1e-12
            assert generator is random_generalized_theta
            return res.energy_trace
        assert res.termination == "converged" and res.iterations <= 40
        assert res.grad_norm_trace[-1] <= cfg.grad_tol
        assert _negative_count(res) == 0
        if res.final.kind == "drop":
            (c,) = res.final.curves
            assert c.points[0].tobytes() == c.points[-1].tobytes()
        _check_incidence(res.final)
        return res.energy_trace

    @pytest.mark.parametrize("seed", range(20))
    @FUZZ_GENERATORS
    def test_outcome_and_constraints(self, generator, seed):
        assert np.all(np.diff(self._solve(generator, seed, 60, 1e-4)) <= 0.0)

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("seed", range(20))
    @FUZZ_GENERATORS
    def test_endgame_below_round_off(self, generator, seed, n):
        f = self._solve(generator, seed, n, 1e-9)
        assert np.all(np.diff(f) <= ROUND_OFF * f[:-1])


class TestSymmetricDoubleDrop:
    def test_exact_mirror_and_double_energy(self):
        drop = make_teardrop(60)
        cfg = OptimizationConfig(n_per_curve=60, max_iters=300, grad_tol=1e-9, energy_rel_tol=1e-13)
        res_lobe = minimize_multilevel(drop, cfg)[0]
        res_double = minimize_symmetric_double_drop(make_symmetric_double_drop(drop), cfg)
        assert res_double.energy_trace[-1] == pytest.approx(2 * res_lobe.energy_trace[-1], abs=1e-12)
        c1, c2 = res_double.final.curves
        assert np.array_equal(c2.points, -c1.points[::-1])

    def test_rejects_other_kinds(self):
        with pytest.raises(InvalidInputError):
            minimize_symmetric_double_drop(make_circle(1.0, 32))

    def test_drop_is_paired_with_its_reflection(self):
        drop = make_teardrop(60)
        cfg = OptimizationConfig(n_per_curve=60, max_iters=300, grad_tol=1e-9, energy_rel_tol=1e-13)
        got = minimize_symmetric_double_drop(drop, cfg, multilevel=False)
        want = minimize(make_symmetric_double_drop(drop), cfg)
        assert got.final.kind == "double_drop" and got.termination == "converged"
        for a, b in zip(got.final.curves, want.final.curves):
            assert np.array_equal(a.points, b.points)
        assert np.array_equal(got.energy_trace, want.energy_trace)

    @pytest.mark.parametrize("max_iters", [300, 0])
    def test_minimize_takes_double_drops(self, max_iters):
        double = make_symmetric_double_drop(make_teardrop(60))
        cfg = OptimizationConfig(n_per_curve=60, max_iters=max_iters, grad_tol=1e-9, energy_rel_tol=1e-13)
        pairs = [
            (minimize(double, cfg), minimize_symmetric_double_drop(double, cfg, multilevel=False)),
            (minimize_multilevel(double, cfg)[0], minimize_symmetric_double_drop(double, cfg)),
        ]
        for got, want in pairs:
            assert got.final.kind == "double_drop"
            for a, b in zip(got.final.curves, want.final.curves):
                assert np.array_equal(a.points, b.points)
            for name in ("energy_trace", "elastic_trace", "length_trace", "grad_norm_trace"):
                assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
            assert (got.termination, got.iterations) == (want.termination, want.iterations)

    def test_double_drop_is_twice_its_lobe(self):
        drop = make_teardrop(60)
        cfg = OptimizationConfig(n_per_curve=60, max_iters=300, grad_tol=1e-9, energy_rel_tol=1e-13)
        lobe = minimize(drop, dataclasses.replace(cfg, grad_tol=0.5 * cfg.grad_tol))
        double = minimize(make_symmetric_double_drop(drop), cfg)
        assert np.array_equal(double.energy_trace, 2.0 * lobe.energy_trace)
        assert np.array_equal(double.final.curves[0].points, lobe.final.curves[0].points)
        assert double.termination == "converged" and double.config == cfg

    @pytest.mark.parametrize("delta", [(0.25, -0.5), (1e4, -7e3)])
    def test_moved_drop_is_solved_where_it_lies(self, delta):
        cfg = OptimizationConfig(n_per_curve=60)
        here = minimize_symmetric_double_drop(make_teardrop(60), cfg)
        moved = translate_network(make_teardrop(60), delta)
        there = minimize_symmetric_double_drop(moved, cfg)
        four = moved.curves[0].points[0].tobytes()
        assert [c.points[i].tobytes() for c in there.final.curves for i in (0, -1)] == [four] * 4
        assert (there.termination, there.iterations) == (here.termination, here.iterations) == ("converged", 5)
        if delta == (0.25, -0.5):  # far out, the coordinates' own round-off reads 3.3e-12
            want = translate_network(here.final, delta)
            for a, b in zip(there.final.curves, want.curves):
                assert np.abs(a.points - b.points).max() <= 1e-12 * here.final.diameter

    def test_moved_drop_is_paired_where_it_lies(self):
        drop = translate_network(make_teardrop(60), (0.25, -0.5))
        c1, c2 = make_symmetric_double_drop(drop).curves
        assert c1.points.tobytes() == drop.curves[0].points.tobytes()
        four = drop.curves[0].points[0].tobytes()
        assert c2.points[0].tobytes() == c2.points[-1].tobytes() == four
        np.testing.assert_allclose(c2.points, 2.0 * c1.points[0] - c1.points[::-1], rtol=0.0, atol=1e-15)


class TestRecoverySequence:
    @pytest.mark.parametrize("delta", [(0.0, 0.0), (0.25, -0.5), (1e3, -7.0)])
    def test_built_at_the_four_point(self, delta):
        deg = translate_network(make_degenerate_figure_eight(80), delta)
        four = deg.junctions[0].position
        f_in = penalized_energy(deg).penalized
        for n in (10, 100, 1000):
            theta = recovery_sequence(deg, n)
            j0, j1 = (j.position for j in theta.junctions)
            assert j0.tobytes() == four.tobytes()
            assert j1.tobytes() == (four + [-1.0 / n, 0.0]).tobytes()
            assert penalized_energy(theta).penalized - f_in == pytest.approx(3.0 / n, abs=1e-9)

    def test_defect_is_three_over_n(self):
        deg = make_degenerate_figure_eight(240)
        f_in = penalized_energy(deg).penalized
        for n in (10, 100, 1000):
            theta = recovery_sequence(deg, n)
            f_out = penalized_energy(theta).penalized
            assert f_out - f_in == pytest.approx(3.0 / n, abs=1e-9)

    def test_output_is_valid_theta(self):
        theta = recovery_sequence(make_degenerate_figure_eight(240), 10)
        report = validate(theta)
        assert report.valid
        assert report.angle_defect <= 1e-9
        assert theta.kind == "theta"

    @pytest.mark.parametrize("n", [60, 80])
    def test_cut_on_a_vertex(self, n):
        # with each flat cap edge halved, the apex is a vertex and each lobe is cut there, without a new point:
        # the cut lands 9e-16 above the apex at 60 points and on it, from the edge below, at 80
        deg = make_degenerate_figure_eight(n)
        curves = []
        for c in deg.curves:
            p = c.points
            flat = np.nonzero(p[1:, 1] == p[:-1, 1])[0]
            curves.append(DiscreteCurve(np.insert(p, flat + 1, 0.5 * (p[flat] + p[flat + 1]), axis=0)))
        deg = dataclasses.replace(deg, curves=tuple(curves))
        f_in = penalized_energy(deg).penalized
        for k in (10, 100, 1000):
            theta = recovery_sequence(deg, k)
            assert penalized_energy(theta).penalized - f_in == pytest.approx(3.0 / k, abs=1e-13)
            assert theta.kind == "theta" and validate(theta).valid
            assert [c.n_points for c in theta.curves] == [c.n_points + 1 for c in curves] + [3]

    def test_orientation_premise_enforced(self):
        from elastinet.networks import rotate_network

        deg = rotate_network(make_degenerate_figure_eight(120), 0.5)
        with pytest.raises(ConstructionFailedError):
            recovery_sequence(deg, 10)

    def test_wrong_kind(self):
        with pytest.raises(InvalidInputError):
            recovery_sequence(make_circle(1.0, 32), 10)


def _orient(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])


def _segment_ends(curve):
    pts = curve.points
    if curve.closed:
        return pts, np.roll(pts, -1, axis=0)
    return pts[:-1], pts[1:]


def _row_crossings(p, q, r, s, eps):
    """How many segments (r, s) the segment (p, q) crosses, shared endpoints excluded."""
    hit = (_orient(p, q, r) * _orient(p, q, s) < 0) & (_orient(r, s, p) * _orient(r, s, q) < 0)
    for a in (p, q):
        for b in (r, s):
            hit &= np.linalg.norm(a - b, axis=-1) > eps
    return int(np.count_nonzero(hit))


def all_pairs_report(network):
    """Reference audit: every pair of segments tested, one segment at a time."""
    eps = 1e-12 * max(network.diameter, 1e-30)
    ends = [_segment_ends(c) for c in network.curves]
    self_counts = []
    for c, (p, q) in zip(network.curves, ends):
        k = len(p)
        count = 0
        for i in range(k):
            stop = k - 1 if (c.closed and i == 0) else k
            count += _row_crossings(p[i], q[i], p[i + 2 : stop], q[i + 2 : stop], eps)
        self_counts.append(count)
    pairwise = []
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            (p, q), (r, s) = ends[i], ends[j]
            pairwise.append((i, j, sum(_row_crossings(p[a], q[a], r, s, eps) for a in range(len(p)))))
    return tuple(self_counts), tuple(pairwise)


def assert_matches_all_pairs(net):
    report = injectivity_report(net)
    assert (report.self_intersections, report.pairwise_crossings) == all_pairs_report(net)
    return report


def _jittered(net, rng, scale):
    """The network with its interior vertices moved at random; ends stay put."""
    curves = []
    for c in net.curves:
        pts = c.points.copy()
        pts[1:-1] += scale * rng.normal(size=pts[1:-1].shape)
        curves.append(DiscreteCurve(pts, closed=c.closed))
    return Network(net.kind, tuple(curves), net.junctions)


def _random_loop(rng, n):
    """A closed curve through n points at random radii, in angle order: embedded."""
    th = 2.0 * np.pi * np.arange(n) / n
    r = rng.uniform(0.5, 1.5, n)
    return Network("closed", (DiscreteCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]), closed=True),))


def _gerono(m):
    """Closed lemniscate x = sin(2t)/2, y = sin(t), sampled off t = 0 and t = pi
    and mirrored exactly, so its one crossing is exactly the origin."""
    t = (np.arange(m) + 0.5) * (np.pi / (2 * m))
    q1 = np.column_stack([np.sin(2 * t) / 2, np.sin(t)])  # 0 < t < pi/2
    q2 = (q1 * [-1.0, 1.0])[::-1]  # pi/2 < t < pi
    half = np.vstack([q1, q2])
    return np.vstack([half, half * [1.0, -1.0]])  # pi < t < 2 pi


def _comb(n):
    """Closed comb of n points: teeth 1/3 tall, three 1e-3 steps along the top
    and the bottom between teeth, closed below; a quarter of its edges are long."""
    step, tall = 1e-3, 1.0 / 3.0
    x = 6 * step * np.arange(n // 8)[:, None] + step * np.array([0, 0, 1, 2, 3, 3, 4, 5])
    y = np.broadcast_to(tall * np.array([0, 1, 1, 1, 1, 0, 0, 0]), x.shape)
    end = 6 * step * (n // 8)
    pts = np.vstack([np.column_stack([x.ravel(), y.ravel()]), [[end, 0.0], [end, -tall], [0.0, -tall]]])
    return Network("closed", (DiscreteCurve(pts, closed=True),))


def _jump_walk(rng, n):
    """A closed random walk of 0.01 steps with jumps at scales 0.01 to 1000."""
    steps = 0.01 * rng.normal(size=(n, 2))
    jumps = rng.random(n) < 0.1
    steps[jumps] *= 10.0 ** rng.uniform(0.0, 5.0, (np.count_nonzero(jumps), 1))
    return Network("closed", (DiscreteCurve(np.cumsum(steps, axis=0), closed=True),))


def _star(rng, n, m):
    """The star polygon {n/m}, n prime: its first chord one edge, each other cut
    into 1 to 64 equal pieces at random."""
    corners = np.exp(1j * (2.0 * np.pi * m * np.arange(n + 1) / n + rng.uniform(0.0, 2.0 * np.pi)))
    pieces = 2 ** rng.integers(0, 7, n)
    pieces[0] = 1
    z = np.concatenate([a + (b - a) * np.arange(p) / p for a, b, p in zip(corners[:-1], corners[1:], pieces)])
    return Network("closed", (DiscreteCurve(np.column_stack([z.real, z.imag]), closed=True),))


def _with_chords(net, rng):
    """The network with two runs of interior points cut out of each curve: long chords."""
    curves = []
    for c in net.curves:
        pts = c.points
        for _ in range(2):
            i = int(rng.integers(1, len(pts) // 2))
            pts = np.delete(pts, np.s_[i : i + int(rng.integers(1, len(pts) // 2))], axis=0)
        curves.append(DiscreteCurve(pts, closed=c.closed))
    return Network(net.kind, tuple(curves), net.junctions)


def _spiral(n):
    """A spiral whose radius grows over 12 decades in 30 turns, closed by two long chords."""
    t = np.linspace(0.0, 1.0, n)
    z = 10.0 ** (12.0 * t - 6.0) * np.exp(60j * np.pi * t)
    z = np.append(z, 2e6 * (1 + 1j))
    return Network("closed", (DiscreteCurve(np.column_stack([z.real, z.imag]), closed=True),))


def _long_edge_networks(seed):
    """Seeded networks whose edges span several decades, from one walk, star, drop and double drop."""
    rng = np.random.default_rng(seed)
    drop = _with_chords(random_drop(rng, n=int(rng.integers(100, 300))), rng)
    n = int(rng.choice([5, 7, 11, 13, 17, 19, 23]))
    return (
        _jump_walk(rng, int(rng.integers(50, 400))),
        _star(rng, n, int(rng.integers(2, n // 2 + 1))),
        _jittered(drop, rng, 0.01),
        _jittered(make_symmetric_double_drop(drop), rng, 0.01),
    )


class TestInjectivity:
    def test_circle_simple(self):
        report = injectivity_report(make_circle(1.0, 100))
        assert report.self_intersections == (0,)
        assert report.total == 0

    def test_figure_eight_single_crossing(self):
        t = (np.arange(200) + 0.5) * (2 * np.pi / 200)
        pts = np.column_stack([0.5 * np.sin(2 * t), np.sin(t)])
        net = Network("closed", (DiscreteCurve(pts, closed=True),))
        report = injectivity_report(net)
        assert report.self_intersections == (1,)

    def test_bubble_embedded(self):
        report = injectivity_report(make_standard_double_bubble(RBAR, 150))
        assert report.total == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_all_pairs_on_seeded_networks(self, seed):
        rng = np.random.default_rng(seed)
        theta = random_theta_network(rng, n=int(rng.integers(12, 120)))
        drop = random_drop(rng, n=int(rng.integers(12, 120)))
        for net in (theta, drop):
            assert_matches_all_pairs(net)
        # tangled copies, so the counts being compared are not all zero
        crossed = assert_matches_all_pairs(_jittered(theta, rng, 0.3))
        looped = assert_matches_all_pairs(_jittered(drop, rng, 0.4))
        assert crossed.total > 0 and looped.total > 0
        assert any(c for _, _, c in crossed.pairwise_crossings)
        # closed curves, double drops and three-point curves, small to large
        n = (3, 4, 7, 30, 150, 600)[seed]
        loop = _random_loop(rng, n)
        scribble = Network("closed", (DiscreteCurve(rng.normal(size=(n, 2)), closed=True),))
        lobes = make_symmetric_double_drop(random_drop(rng, n=max(n, 3)))
        for net in (loop, scribble, lobes, random_theta_network(rng, n=3), random_drop(rng, n=2)):
            assert_matches_all_pairs(net)
            assert_matches_all_pairs(_jittered(net, rng, 0.3))
        assert loop.curves[0].n_points == n
        assert assert_matches_all_pairs(loop).total == 0
        assert n < 30 or assert_matches_all_pairs(scribble).total > 0

    def test_huge_coordinates(self):
        # the two cross products of a side test overflow when multiplied
        t = (np.arange(200) + 0.5) * (2 * np.pi / 200)
        pts = 1e150 * np.column_stack([0.5 * np.sin(2 * t), np.sin(t)])
        report = injectivity_report(Network("closed", (DiscreteCurve(pts, closed=True),)))
        assert report.self_intersections == (1,)

    @pytest.mark.parametrize("m", [3, 10, 57, 400])
    def test_lemniscate_crossing_on_cell_corner(self, m):
        # the grid's cell corners include the origin for every cell size
        pts = _gerono(m)
        net = Network("closed", (DiscreteCurve(pts, closed=True),))
        assert assert_matches_all_pairs(net).self_intersections == (1,)
        shifted = Network("closed", (DiscreteCurve(pts + [0.0, 0.25], closed=True),))
        assert assert_matches_all_pairs(shifted).self_intersections == (1,)

    def test_t_contact_is_not_a_crossing(self):
        bar = DiscreteCurve(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        stem = DiscreteCurve(np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]))
        assert assert_matches_all_pairs(Network("double_drop", (bar, stem))).total == 0
        through = DiscreteCurve(np.array([[0.0, -1.0], [0.0, 1.0]]))
        assert assert_matches_all_pairs(Network("double_drop", (bar, through))).total == 1

    def test_collinear_overlap_is_not_a_crossing(self):
        # the fold runs back along its own first edge, the other curve along it too
        fold = DiscreteCurve(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        along = DiscreteCurve(np.array([[-1.0, 0.0], [0.5, 0.0], [0.5, -1.0]]))
        assert assert_matches_all_pairs(Network("double_drop", (fold, along))).total == 0

    def test_closure_and_junction_contacts(self):
        for net in (
            make_teardrop(40),
            make_symmetric_double_drop(make_teardrop(30)),
            make_degenerate_figure_eight(60),
            make_standard_double_bubble(RBAR, 80),
        ):
            assert assert_matches_all_pairs(net).total == 0

    def test_recovery_bridge(self):
        net = recovery_sequence(make_degenerate_figure_eight(120), 10)
        assert len(net.curves[-1].points) == 3
        assert assert_matches_all_pairs(net).total == 0

    def test_one_edge_far_longer_than_the_rest(self):
        rng = np.random.default_rng(3)
        pts = np.cumsum(rng.normal(size=(400, 2)), axis=0)
        pts[200] = pts.min(axis=0) - 500.0  # a spike across the whole walk
        net = Network("closed", (DiscreteCurve(pts, closed=True),))
        assert assert_matches_all_pairs(net).total > 0

    def test_two_long_edges_crossing(self):
        steps = np.column_stack([np.linspace(0.0, 1.0, 101), np.zeros(101)])
        a = DiscreteCurve(np.vstack([steps, [[1000.0, 1000.0]]]))
        b = DiscreteCurve(np.vstack([[1000.0, 0.0] - steps, [[0.0, 1000.0]]]))
        report = assert_matches_all_pairs(Network("double_drop", (a, b)))
        assert report.pairwise_crossings == ((0, 1, 1),)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_all_pairs_on_long_edges(self, seed):
        walk, star, drop, double = _long_edge_networks(seed)
        reports = [assert_matches_all_pairs(net) for net in (walk, star, drop, double)]
        edges = edge_lengths(walk.curves[0].points, closed=True)
        assert edges.max() > 1e4 * np.median(edges)
        assert reports[1].total > 0

    def test_spiral_over_twelve_decades(self):
        net = _spiral(600)
        edges = edge_lengths(net.curves[0].points, closed=True)
        assert edges.max() > 1e12 * edges.min()
        assert assert_matches_all_pairs(net).total > 0

    def test_comb_work_grows_linearly(self):
        # a quarter of the comb's edges are long, and the audit's work still grows linearly
        assert assert_matches_all_pairs(_comb(2000)).total == 0

        def cpu(net):
            times = []
            for _ in range(5):
                start = time.process_time()
                injectivity_report(net)
                times.append(time.process_time() - start)
            return min(times)

        assert cpu(_comb(16000)) < 16 * cpu(_comb(2000))
        net = _comb(8000)
        tracemalloc.start()
        try:
            injectivity_report(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("spike", [False, True])
    def test_memory_stays_linear(self, spike):
        pts = make_circle(1.0, 20000).curves[0].points.copy()
        if spike:
            pts[5000] *= 1000.0  # two edges across a million grid cells
        circle = Network("closed", (DiscreteCurve(pts, closed=True),))
        tracemalloc.start()
        try:
            report = injectivity_report(circle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total == 0
        # all pairs of 20000 segments would need one 400 MB mask per k x k array
        assert peak < 64 * 2**20

    def test_tiny_boxes_own_finer_grids(self):
        # the spiral's inner edges are far below the base cell; in the base grid's
        # few cells around the origin they would pair quadratically (113 MB traced)
        net = _spiral(4000)
        tracemalloc.start()
        try:
            report = injectivity_report(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert (report.self_intersections, report.pairwise_crossings) == all_pairs_report(net)

    def test_tiny_box_far_from_the_origin(self):
        # an edge one ulp of its coordinates tall crosses a unit edge 3e5 from the
        # origin: its grid of cells twice its size would need cell indices past
        # 2**50, so it owns the finest grid that keeps them below
        o = np.array([3e5, -2e5])
        pts = o + [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]
        pts[4, 1] = np.nextafter(o[1], -np.inf)
        pts[5] = np.nextafter(pts[5], np.inf)
        net = Network("closed", (DiscreteCurve(pts, closed=True),))
        assert np.linalg.norm(pts[5] - pts[4]) < 1e-15 * np.abs(o).max()
        assert assert_matches_all_pairs(net).self_intersections == (3,)


class TestDegenerateDescent:
    def test_four_point_pairing_held_while_descending(self):
        net = make_degenerate_figure_eight(60)
        cfg = OptimizationConfig(n_per_curve=60, max_iters=250, grad_tol=1e-9, energy_rel_tol=1e-13)
        res = minimize(net, cfg)
        assert res.energy_trace[-1] < res.energy_trace[0]
        report = validate(res.final, tol_ang=5e-2)
        assert report.valid
        assert res.final.kind == "degenerate_theta"
        # four-point stays shared and pinned
        for c in res.final.curves:
            assert np.allclose(c.points[0], 0.0, atol=1e-15)
            assert np.allclose(c.points[-1], 0.0, atol=1e-15)


class TestInjectivityArithmeticChain:
    def test_half_eight_plus_pair_bound_beats_bubble(self):
        # half the figure-eight energy plus the pair bound exceeds the bubble
        # energy, the comparison that rules out self-intersecting minimizers
        value = 0.5 * 21.2075 + 8 * np.pi / 3
        assert value == pytest.approx(18.9813, abs=5e-5)
        assert value > 18.4059


class TestMultilevel:
    def test_theta_f_never_below_four_pi(self):
        rng = np.random.default_rng(6)
        net = random_theta_network(rng, n=40)
        cfg = OptimizationConfig(n_per_curve=40, max_iters=400, grad_tol=1e-9, energy_rel_tol=1e-13)
        res = minimize(net, cfg)
        assert np.all(res.energy_trace >= 4 * np.pi - 1e-9)


# ---------------------------------------------------------------------------
# the Newton-KKT solver in its equal-edge tangent-angle form

SOLVER_CASES = {
    "closed": lambda: make_circle(1.3, 24),
    "drop": lambda: make_teardrop(20),
    "theta": lambda: make_standard_double_bubble(RBAR, 16),
    "generalized_theta": lambda: make_generalized_bubble(1.7, 2.5, 16),
    "degenerate_theta": lambda: make_degenerate_figure_eight(28),
}


def _perturbed_form(kind, n=16, scale=0.05, seed=0):
    """The case's angle form at a perturbed point back on the closure equations."""
    form = _AngleForm(SOLVER_CASES[kind](), n)
    rng = np.random.default_rng(seed)
    z = form.z0.copy()
    z[: form.nt] += rng.normal(0.0, scale, form.nt)
    return form, form.restore(z).z


def _trig(form, z):
    """The angle form's trigonometric pass at z, off the closure equations too."""
    return form.trig(form.angles(z))


def _evaluate(form, z):
    """The angle form's point at z, off the closure equations too."""
    return form.evaluate(z, form.angles(z), *_trig(form, z))


def _check_incidence(net):
    """Curve ends sit bitwise on their junctions and end edges on the frame rays."""
    for curve, ends in zip(net.curves, end_slots(net.kind, len(net.curves))):
        p = curve.points
        for end, nxt, (j, slot) in ((p[0], p[1], ends[0]), (p[-1], p[-2], ends[1])):
            junction = net.junctions[j]
            assert end.tobytes() == junction.position.tobytes()
            edge, ray = nxt - end, junction.outgoing_dir(slot)
            assert abs(edge[0] * ray[1] - edge[1] * ray[0]) <= 1e-12 * np.linalg.norm(edge)
            assert edge @ ray > 0.0


@pytest.mark.parametrize("kind", list(SOLVER_CASES))
class TestAngleForm:
    def test_energy_is_that_of_the_rebuilt_network(self, kind):
        form, z = _perturbed_form(kind)
        p = form.restore(z)
        net = form.network(p)
        assert net.kind == kind
        assert p.f == pytest.approx(penalized_energy(net).penalized, rel=1e-12, abs=0.0)
        _check_incidence(net)
        edges = np.concatenate([np.linalg.norm(np.diff(c.points, axis=0), axis=1) for c in net.curves[:1]])
        assert np.ptp(edges) <= 1e-12 * edges.mean()

    def test_closure_restored(self, kind):
        form, z = _perturbed_form(kind)
        assert np.max(np.abs(form.closure(z, _trig(form, z)[1]))) <= 1e-15 * max(1.0, form.lengths(z).sum())

    @pytest.mark.parametrize("spread", [1e-4, 1e-6])
    def test_last_restoration_pass_returns_a_measured_point(self, kind, spread, monkeypatch):
        # nearly equal free angles leave every curve far from closing, and the
        # Gauss-Newton passes stall at round-off, so restore reaches its last pass
        form = _AngleForm(SOLVER_CASES[kind](), 16)
        z = form.z0.copy()
        z[: form.nt] = np.random.default_rng(0).normal(0.0, spread, form.nt)
        assert np.max(np.abs(form.closure(z, _trig(form, z)[1]))) > 0.1
        measured = []
        closure = form.closure
        monkeypatch.setattr(form, "closure", lambda zz, sums: measured.append(zz) or closure(zz, sums))
        q = form.restore(z)
        assert len(measured) == 13  # 12 updates, and every point measured
        if q is not None:
            cs, sums = _trig(form, q.z)
            assert q.z is measured[-1] and np.array_equal(q.cs, cs)
            assert np.max(np.abs(closure(q.z, sums))) <= 1e3 * 1e-15 * max(1.0, form.lengths(z).sum())

    def test_gradient_and_jacobian_match_central_differences(self, kind):
        form, z = _perturbed_form(kind)
        p = _evaluate(form, z)
        h = 1e-6
        fd_g = np.empty(len(z))
        fd_jac = np.empty((2 * form.nc, len(z)))
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd_g[i] = (_evaluate(form, zp).f - _evaluate(form, zm).f) / (2 * h)
            fd_jac[:, i] = (form.closure(zp, _trig(form, zp)[1]) - form.closure(zm, _trig(form, zm)[1])).ravel() / (2 * h)
        denom = np.maximum(np.abs(p.g), 1e-3 * max(np.abs(p.g).max(), 1.0))
        assert np.max(np.abs(fd_g - p.g) / denom) < 1e-5
        assert np.max(np.abs(fd_jac - p.jac)) < 1e-8
        assert p.grad_norm == pytest.approx(np.linalg.norm(p.g + p.jac.T @ p.mu.ravel()), rel=1e-12)
        # the least-squares multipliers leave the projected gradient orthogonal to the Jacobian
        assert np.max(np.abs(p.jac @ (p.g + p.jac.T @ p.mu.ravel()))) < 1e-10 * max(1.0, np.abs(p.g).max())

    def test_step_solves_the_dense_kkt_system(self, kind):
        # Hessian of the Lagrangian by central differences of its gradient, at a perturbed point and at the
        # reference shape itself (scale 0), where the standard double bubble's straight middle curve puts a
        # ~1e-33 entry on the diagonal of the border's Schur complement
        for n, scale in ((10, 0.05), (10, 0.0), (16, 0.0), (40, 0.0)):
            form, z = _perturbed_form(kind, n, scale)
            p = _evaluate(form, z)
            mu = p.mu.ravel()

            def lagrangian_gradient(zz):
                q = _evaluate(form, zz)
                return q.g + q.jac.T @ mu

            h = 1e-6
            hess = np.empty((len(z), len(z)))
            for i in range(len(z)):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                hess[:, i] = (lagrangian_gradient(zp) - lagrangian_gradient(zm)) / (2 * h)
            hess = 0.5 * (hess + hess.T)
            n_con = 2 * form.nc
            kkt = np.block([[hess, p.jac.T], [p.jac, np.zeros((n_con, n_con))]])
            dense = np.linalg.solve(kkt, np.concatenate([-p.g, np.zeros(n_con)]))[: len(z)]
            step, negative = form.step(p, 0.0)
            assert np.max(np.abs(step - dense)) <= 1e-6 * max(1.0, np.abs(dense).max()), (n, scale)
            # the KKT matrix has 2 curves negative eigenvalues more than the reduced Hessian; a negative
            # shift of all but D's Hessian rows leaves that Hessian indefinite
            shifted = np.ones(len(z))
            shifted[form.nt + form.nc + 1 :] = 0.0
            for shift in (0.0, -0.3 * np.abs(np.diag(hess)).max()):
                kkt[: len(z), : len(z)] = hess + shift * np.diag(shifted)
                want = np.count_nonzero(np.linalg.eigvalsh(kkt) < 0.0) - n_con
                assert form.step(p, shift)[1] == want and (want > 0) == (shift < 0.0), (n, scale, shift)

    def test_solve_descends_and_converges(self, kind):
        net = SOLVER_CASES[kind]()
        cfg = OptimizationConfig(n_per_curve=24, max_iters=200, grad_tol=1e-8, energy_rel_tol=1e-15)
        res = minimize(net, cfg)
        assert res.termination == "converged"
        assert res.grad_norm_trace[-1] <= cfg.grad_tol
        assert len(res.energy_trace) == res.iterations + 1
        assert np.all(np.diff(res.energy_trace) <= 0.0)
        assert res.energy_trace[-1] == pytest.approx(penalized_energy(res.final).penalized, rel=1e-12, abs=0.0)
        if res.final.junctions:
            _check_incidence(res.final)


GAUGE_CASES = {**SOLVER_CASES, "double_drop": lambda: make_symmetric_double_drop(make_teardrop(20))}


def _gauge_point(network):
    return network.junctions[0].position if network.junctions else network.curves[0].points[0]


@pytest.mark.parametrize("kind", list(GAUGE_CASES))
def test_gauge_point_stays_where_the_input_has_it(kind):
    # z holds no position, so a moved input takes the same steps to the moved answer,
    # with its gauge point, junction 0 or the first curve's first point, kept bit for bit
    cfg = OptimizationConfig(n_per_curve=30, max_iters=200, grad_tol=1e-9)
    here = minimize(GAUGE_CASES[kind](), cfg)
    moved = translate_network(GAUGE_CASES[kind](), (0.3, -0.2))
    there = minimize(moved, cfg)
    assert _gauge_point(there.final).tobytes() == _gauge_point(moved).tobytes()
    assert there.termination == here.termination == "converged" and there.iterations == here.iterations
    want, tol = translate_network(here.final, (0.3, -0.2)), 1e-12 * here.final.diameter
    for a, b in zip(there.final.curves, want.curves):
        assert np.abs(a.points - b.points).max() <= tol
    for a, b in zip(there.final.junctions, want.junctions):
        assert np.abs(a.position - b.position).max() <= tol
    if there.final.junctions:
        _check_incidence(there.final)


@pytest.mark.parametrize("kind", list(SOLVER_CASES))
@pytest.mark.parametrize("n", [8, 24])
def test_solution_does_not_depend_on_scale(kind, n):
    # F's minimum is scale free; a curve closed by shrinking it would not be
    from elastinet.networks import scale_network

    cfg = OptimizationConfig(n_per_curve=n, max_iters=200, grad_tol=1e-9, energy_rel_tol=1e-15)
    results = [minimize(scale_network(SOLVER_CASES[kind](), s, about=(0.0, 0.0)), cfg) for s in (0.01, 1.0, 100.0)]
    for res in results:
        assert res.termination == "converged"
    f = [res.energy_trace[-1] for res in results]
    assert max(f) - min(f) <= 1e-9 * f[1]


@pytest.mark.parametrize("lanes, k", [(1, 1), (1, 13), (3, 1), (3, 13)])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12, 30, 31, 32, 33, 63, 64, 65, 199, 256, 1000])
def test_tridiagonal_solve_matches_dense_solve(n, lanes, k):
    rng = np.random.default_rng(n * 100 + lanes * 10 + k)
    diag = 4.0 + np.abs(rng.normal(size=(n, lanes)))
    rhs = rng.normal(size=(n, lanes, k))
    # diagonally dominant, as the solver's Hessians nearly are; a general
    # off-diagonal, the read-only broadcast one step() passes, and diagonal
    # entries of both signs, as an unshifted Hessian at a saddle has
    general = rng.uniform(-2.0, 2.0, (n - 1, lanes))
    broadcast = np.broadcast_to(rng.uniform(-2.0, 2.0, lanes), (n - 1, lanes))
    indefinite = diag * np.where(np.arange(n) % 3 == 1, -1.0, 1.0)[:, None]
    for main, off in ((diag, general), (diag, broadcast), (indefinite, 0.5 * general)):
        inputs = [main, off, rhs]
        copies = [a.copy() for a in inputs]
        x, negative = _tridiagonal_solve(main, off, rhs)
        assert x.shape == rhs.shape
        for a, a0 in zip(inputs, copies):
            assert np.array_equal(a, a0)
        for lane in range(lanes):
            dense = np.diag(main[:, lane]) + np.diag(off[:, lane], 1) + np.diag(off[:, lane], -1)
            b = rhs[:, lane]
            assert np.abs(dense @ x[:, lane] - b).max() <= 1e-12 * np.abs(b).max()
            np.testing.assert_allclose(x[:, lane], np.linalg.solve(dense, b), rtol=0.0, atol=1e-12 * np.abs(b).max())
            negative -= np.count_nonzero(np.linalg.eigvalsh(dense) < 0.0)
        assert negative == 0  # the negative pivots are the negative eigenvalues, summed over lanes


def test_tridiagonal_solve_counts_a_zero_pivot():
    """A pivot of exactly 0 counts as negative, and the next one as positive, without a division by zero."""
    x, negative = _tridiagonal_solve(np.array([[2.0], [0.5], [1.0]]), np.ones((2, 1)), np.ones((3, 1, 1)))
    dense = np.array([[2.0, 1.0, 0.0], [1.0, 0.5, 1.0], [0.0, 1.0, 1.0]])  # its second pivot is 0.5 - 1 / 2 = 0
    assert negative == np.count_nonzero(np.linalg.eigvalsh(dense) < 0.0) == 1
    np.testing.assert_allclose(dense @ x[:, 0, 0], np.ones(3), rtol=0.0, atol=1e-14)


def _newton_steps(network, n, steps):
    """The F trace of the first ``steps`` Newton steps at n points per curve from network."""
    form = _AngleForm(network, n)
    p = form.restore(form.z0)
    trace = [p.f]
    for _ in range(steps):
        p, _ = form.line_search(p)
        trace.append(p.f)
    return trace


FUZZED_STARTS = pytest.mark.parametrize(
    "generator, n",
    [(random_theta_network, 100), (random_drop, 100), (random_theta_network, 200), (random_drop, 200)],
    ids=["theta", "drop", "theta-200", "drop-200"],
)


class TestLadders:
    """``minimize_multilevel`` solves at the target only: one level, whose
    trace descends to a local minimum (no negative reduced eigenvalue), and
    a stalled level is the replay of its Newton steps."""

    def _check(self, network, cfg, levels):
        (level,) = levels
        assert level.config.n_per_curve == cfg.n_per_curve
        if level.termination == "stalled":
            assert level.energy_trace.tolist() == _newton_steps(network, cfg.n_per_curve, level.iterations)
            f = level.energy_trace
            assert 0.0 < f[-2] - f[-1] <= cfg.energy_rel_tol * max(abs(f[-1]), 1.0)
            assert level.grad_norm_trace[-1] > cfg.grad_tol
        else:
            assert level.termination == "converged"
            assert level.grad_norm_trace[-1] <= cfg.grad_tol
        assert level.resample_events == ()
        assert np.all(np.diff(level.energy_trace) <= 0.0)
        assert _negative_count(level) == 0

    def test_theta_ladder(self):
        """From B_rbar, Newton at the target converges in at most 3 steps: one rung."""
        cfg = OptimizationConfig(n_per_curve=200, max_iters=1000, grad_tol=1e-3, energy_rel_tol=1e-9)
        initial = make_standard_double_bubble(RBAR, 200)
        result, levels = minimize_multilevel(initial, cfg)
        assert len(levels) == 1
        assert levels[0].iterations <= 3
        self._check(initial, cfg, levels)
        f_final = result.energy_trace[-1]
        # above the continuum optimum 18.3111919 by the pinned end edges' O(h) bias
        assert 18.3111919 < f_final < 18.345
        assert f_final == pytest.approx(penalized_energy(result.final).penalized, rel=1e-12, abs=0.0)
        assert result.constraint_violation.valid
        _check_incidence(result.final)
        assert injectivity_report(result.final).total == 0

    @pytest.mark.parametrize("n", [8, 39, 40, 78, 79, 80, 156, 157, 200, 300, 800, 2000])
    def test_ladder_rule(self, n):
        """One rung at every n, the target: ``minimize_multilevel`` returns ``minimize()``'s result as its one level."""
        cfg = OptimizationConfig(n_per_curve=n, max_iters=3)
        initial = make_ellipse(2.0, 1.0, 200)
        result, levels = minimize_multilevel(initial, cfg)
        assert len(levels) == 1 and levels[0] is result
        assert result.config.n_per_curve == n
        want = minimize(initial, cfg)
        assert (result.termination, result.iterations) == (want.termination, want.iterations)
        assert result.energy_trace.tobytes() == want.energy_trace.tobytes()
        assert result.final.curves[0].points.tobytes() == want.final.curves[0].points.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    @FUZZED_STARTS
    def test_fuzzed_ladder(self, generator, n, seed):
        """Every fuzzed start converges at the target within 40 Newton steps, to a local minimum."""
        cfg = OptimizationConfig(n_per_curve=n)
        initial = generator(np.random.default_rng(seed))
        result, levels = minimize_multilevel(initial, cfg)
        self._check(initial, cfg, levels)
        assert result.termination == "converged" and result.iterations <= 40
        if result.final.kind == "drop":
            (c,) = result.final.curves
            assert c.points[0].tobytes() == c.points[-1].tobytes()
        else:
            _check_incidence(result.final)

    @pytest.mark.parametrize("seed", range(20))
    @FUZZED_STARTS
    def test_fallback_is_the_ladder(self, generator, n, seed):
        """No coarse fallback: from every fuzzed start the one level is bitwise ``minimize()`` at the target."""
        cfg = OptimizationConfig(n_per_curve=n)
        initial = generator(np.random.default_rng(seed))
        result, levels = minimize_multilevel(initial, cfg)
        assert len(levels) == 1 and levels[0] is result
        want = minimize(initial, cfg)
        assert (result.termination, result.iterations) == (want.termination, want.iterations)
        assert result.energy_trace.tobytes() == want.energy_trace.tobytes()
        for got, expected in zip(result.final.curves, want.final.curves, strict=True):
            assert got.points.tobytes() == expected.points.tobytes()

    @pytest.mark.parametrize("n", [400, 800])
    def test_theta_first_order_bias(self, n):
        """The pinned end edges put F above the continuum optimum by 5.85 / n."""
        cfg = OptimizationConfig(n_per_curve=n, max_iters=1000, grad_tol=1e-9)
        initial = make_standard_double_bubble(RBAR, 200)
        result, levels = minimize_multilevel(initial, cfg)
        self._check(initial, cfg, levels)
        assert result.iterations <= 8
        assert result.energy_trace[-1] - 18.3111919385 == pytest.approx(5.85 / n, rel=0.02)

    @pytest.mark.parametrize(
        "initial, n, target, steps",
        [
            (lambda: make_ellipse(2.0, 1.0, 200), 200, 4 * np.pi, 4),
            (lambda: optimal_rescale(make_teardrop(300))[1], 300, 10.60375, 5),
        ],
        ids=["ellipse", "teardrop"],
    )
    def test_curve_ladder(self, initial, n, target, steps):
        """The ellipse and the teardrop converge at the target in one rung."""
        cfg = OptimizationConfig(n_per_curve=n, max_iters=40000, grad_tol=1e-3, energy_rel_tol=3e-6)
        result, levels = minimize_multilevel(initial(), cfg)
        assert [level.termination for level in levels] == ["converged"]
        assert [level.iterations for level in levels] == [steps]
        self._check(initial(), cfg, levels)
        assert abs(result.energy_trace[-1] - target) < 1e-4 * target

    def test_stalled_attempt_is_kept(self):
        """The teardrop at grad_tol 1e-9 stalls after 6 Newton steps at the target, in one rung."""
        cfg = OptimizationConfig(n_per_curve=300, max_iters=40000, grad_tol=1e-9, energy_rel_tol=3e-6)
        initial = optimal_rescale(make_teardrop(300))[1]
        result, levels = minimize_multilevel(initial, cfg)
        assert [level.termination for level in levels] == ["stalled"]
        assert result.iterations == 6
        self._check(initial, cfg, levels)

    def test_double_drop_gradient_honest(self):
        cfg = OptimizationConfig(n_per_curve=300, max_iters=40000, grad_tol=1e-3, energy_rel_tol=3e-6)
        drop = optimal_rescale(make_teardrop(300))[1]
        res = minimize_symmetric_double_drop(make_symmetric_double_drop(drop), cfg)
        assert res.termination == "converged"
        assert res.iterations == 5
        assert res.grad_norm_trace[-1] <= cfg.grad_tol
        assert abs(res.energy_trace[-1] - 21.2075) < 1e-4 * 21.2075
