"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion; each test also prints its measured numbers.
"""

import math
import time

import numpy as np
import pytest

from elastinet.bounds import (
    drop_bound_check,
    gauss_bonnet_check,
    pair_bound_check,
    pair_loop,
    theta_lower_bound_check,
)
from elastinet.bounds import PiecewiseClosedCurve
from elastinet.energy import (
    equipartition_defect,
    optimal_rescale,
    penalized_energy,
    scaling_identity_check,
)
from elastinet.geometry import DiscreteCurve
from elastinet.minimize import (
    OptimizationConfig,
    dof_map,
    minimize_multilevel,
    minimize_symmetric_double_drop,
    recovery_sequence,
)
from elastinet.networks import (
    Network,
    generalized_bubble_energy,
    make_circle,
    make_degenerate_figure_eight,
    make_ellipse,
    make_standard_double_bubble,
    make_symmetric_double_drop,
    make_teardrop,
    optimal_bubble_radius,
)
from elastinet.stationarity import junction_residuals
from random_networks import random_drop, random_piecewise_closed_curve, random_theta_network

FOUR_PI = 4.0 * math.pi
BUBBLE_F = 18.40589562425381
DROP_F = 10.60375
EIGHT_F = 21.2075
RBAR = optimal_bubble_radius()
RBAR_INV_SQ = 1.206748335783172


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def drop_run():
    t0 = time.monotonic()
    initial = optimal_rescale(make_teardrop(300))[1]
    config = OptimizationConfig(n_per_curve=300, max_iters=40000, grad_tol=1e-3, energy_rel_tol=1e-8)
    result, _ = minimize_multilevel(initial, config)
    return result, config, time.monotonic() - t0


@pytest.fixture(scope="module")
def theta_run():
    t0 = time.monotonic()
    initial = make_standard_double_bubble(RBAR, 200)
    residual0 = junction_residuals(initial)
    config = OptimizationConfig(n_per_curve=200, max_iters=20000, grad_tol=1e-3, energy_rel_tol=1e-9)
    result, levels = minimize_multilevel(initial, config)
    return result, levels, residual0, time.monotonic() - t0


def test_criterion_01_circle_optimum():
    t0 = time.monotonic()
    ellipse = make_ellipse(2.0, 1.0, 200)
    config = OptimizationConfig(n_per_curve=200, max_iters=40000, grad_tol=1e-3, energy_rel_tol=1e-8)
    result, _ = minimize_multilevel(ellipse, config)
    elapsed = time.monotonic() - t0
    f_final = result.energy_trace[-1]
    rel = abs(f_final - FOUR_PI) / FOUR_PI
    report(
        1,
        rel < 5e-3 and elapsed < 60.0,
        f"ellipse(2:1, n=200) -> F = {f_final:.6f} vs 4*pi = {FOUR_PI:.6f} (rel {rel:.2e}), {elapsed:.1f}s",
    )


def test_criterion_02_double_bubble_energy():
    t0 = time.monotonic()
    f_val = penalized_energy(make_standard_double_bubble(RBAR, 400), 1.0).penalized
    elapsed = time.monotonic() - t0
    rel = abs(f_val - BUBBLE_F) / BUBBLE_F
    report(2, rel < 1e-3 and elapsed < 10.0, f"F(B_rbar, n=400) = {f_val:.6f} (rel {rel:.2e}), {elapsed:.2f}s")


def test_criterion_03_generalized_formula_consistency():
    val = generalized_bubble_energy(2 * math.pi / 3, 2 * math.pi / 3)
    closed_form = (2.0 / 3.0) * math.sqrt(8 * math.pi * (8 * math.pi + 3 * math.sqrt(3.0)))
    diff = abs(val - closed_form)
    report(3, diff < 1e-9, f"generalized(2pi/3, 2pi/3) = {val:.12f}, closed form diff {diff:.2e}")


def test_criterion_04_minimal_drop(drop_run):
    result, _, elapsed = drop_run
    f_final = result.energy_trace[-1]
    rel = abs(f_final - DROP_F) / DROP_F
    bound = drop_bound_check(result.final)
    report(
        4,
        rel < 1e-2 and elapsed < 300.0 and bound.holds,
        f"teardrop(n=300) -> F = {f_final:.6f} vs {DROP_F} (rel {rel:.2e}), "
        f"|k| integral {bound.lhs:.4f} >= pi, {elapsed:.1f}s",
    )


def test_criterion_05_figure_eight(drop_run):
    result_drop, config, _ = drop_run
    t0 = time.monotonic()
    initial = make_symmetric_double_drop(optimal_rescale(make_teardrop(300))[1])
    result = minimize_symmetric_double_drop(initial, config)
    elapsed = time.monotonic() - t0
    f_final = result.energy_trace[-1]
    rel = abs(f_final - EIGHT_F) / EIGHT_F
    rel_double = abs(f_final - 2.0 * result_drop.energy_trace[-1]) / f_final
    c1, c2 = result.final.curves
    symmetry_defect = float(np.max(np.abs(c2.points + c1.points[::-1])))
    report(
        5,
        rel < 1e-2 and rel_double < 1e-3 and symmetry_defect <= 1e-12 and elapsed < 300.0,
        f"double drop -> F = {f_final:.6f} vs {EIGHT_F} (rel {rel:.2e}), "
        f"2x drop defect {rel_double:.2e}, symmetry {symmetry_defect:.1e}, {elapsed:.1f}s",
    )


def test_criterion_06_theta_descent(theta_run):
    result, levels, residual0, elapsed = theta_run
    f_final = result.energy_trace[-1]
    in_range = FOUR_PI <= f_final < BUBBLE_F
    in_range &= all(bool(np.all(level.energy_trace >= FOUR_PI - 1e-9)) for level in levels)
    monotone = True
    for level in levels:
        tr = level.energy_trace
        events = {ev.iteration for ev in level.resample_events}
        for i in range(1, len(tr)):
            if i in events:
                continue
            if tr[i] > tr[i - 1] + 1e-10 * max(1.0, tr[i - 1]):
                monotone = False
        for ev in level.resample_events:
            if abs(ev.f_resampled - ev.f_before) > 1e-3 * ev.f_before or ev.f_after > ev.f_resampled + 1e-12:
                monotone = False
    vec_defect = max(
        float(np.linalg.norm(v - np.array([RBAR_INV_SQ, 0.0]))) for v in residual0.junction_vector
    )
    from elastinet.minimize import injectivity_report

    crossings = injectivity_report(result.final).total  # logged observable, not asserted
    report(
        6,
        monotone and in_range and vec_defect < 1e-3 and elapsed < 600.0,
        f"theta from B_rbar -> F = {f_final:.6f} in [4pi, {BUBBLE_F:.4f}), trace monotone: {monotone}, "
        f"initial junction vector defect {vec_defect:.2e}, final crossings {crossings}, {elapsed:.1f}s",
    )


def test_criterion_07_gauss_bonnet_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260808)
    all_hold = True
    for _ in range(100):
        if not gauss_bonnet_check(random_piecewise_closed_curve(rng)).holds:
            all_hold = False
    ang = 2 * np.pi * np.arange(361) / 360
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    pts[-1] = pts[0]
    circle = gauss_bonnet_check(PiecewiseClosedCurve((DiscreteCurve(pts),)))
    equality = abs(circle.lhs - circle.rhs)
    elapsed = time.monotonic() - t0
    report(
        7,
        all_hold and equality < 1e-3 and elapsed < 30.0,
        f"100 fuzzed piecewise curves hold, circle equality defect {equality:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_lower_bound_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    drops = all(drop_bound_check(random_drop(rng)).holds for _ in range(40))
    pairs = True
    thetas = True
    for _ in range(40):
        net = random_theta_network(rng)
        check = theta_lower_bound_check(net)
        thetas &= check.holds and check.pairs_hold
        for i, j in ((0, 1), (1, 2), (2, 0)):
            pairs &= pair_bound_check(pair_loop(net, i, j), tol_ang=5e-2).holds
    elapsed = time.monotonic() - t0
    report(
        8,
        drops and pairs and thetas and elapsed < 30.0,
        f"drop >= pi, pairs >= 4pi/3, theta F >= 4pi on all fuzzed instances, {elapsed:.1f}s",
    )


def test_criterion_09_scaling_equipartition():
    rng = np.random.default_rng(5)
    nets = [make_circle(1.0, 100), random_drop(rng), random_theta_network(rng), random_theta_network(rng)]
    worst_scaling = 0.0
    worst_equi = 0.0
    for net in nets:
        f1 = penalized_energy(net, 1.0).penalized
        for alpha in (0.5, 2.0, 4.0):
            worst_scaling = max(worst_scaling, scaling_identity_check(net, alpha) / f1)
        worst_equi = max(worst_equi, equipartition_defect(optimal_rescale(net)[1]))
    report(
        9,
        worst_scaling <= 1e-9 and worst_equi <= 1e-6,
        f"scaling identity defect {worst_scaling:.2e} (<= 1e-9), equipartition defect {worst_equi:.2e} (<= 1e-6)",
    )


def test_criterion_10_recovery_sequence():
    degenerate = make_degenerate_figure_eight(240)
    f_in = penalized_energy(degenerate, 1.0).penalized
    worst = 0.0
    for n in (10, 100, 1000):
        theta = recovery_sequence(degenerate, n)
        f_out = penalized_energy(theta, 1.0).penalized
        worst = max(worst, abs((f_out - f_in) - 3.0 / n))
    report(10, worst < 1e-6, f"max |F(recovery_n) - F_bar - 3/n| = {worst:.2e} over n in {{10, 100, 1000}}")


def _fd_gradient(dof, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (dof.value(xp)[0] - dof.value(xm)[0]) / (2 * h)
    return out


def test_criterion_11_gradient_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = []
    for _ in range(7):
        net = make_circle(rng.uniform(0.7, 1.5), 24)
        pts = net.curves[0].points + rng.normal(0, 0.02, (24, 2))
        cases.append(Network("closed", (DiscreteCurve(pts, closed=True),)))
    for _ in range(7):
        net = make_teardrop(20, scale=rng.uniform(0.8, 1.4))
        pts = net.curves[0].points.copy()
        pts[1:-1] += rng.normal(0, 0.01, (len(pts) - 2, 2))
        cases.append(Network("drop", (DiscreteCurve(pts),)))
    for _ in range(6):
        cases.append(make_standard_double_bubble(rng.uniform(0.8, 1.3), 14))
    assert len(cases) == 20
    for net in cases:
        dof = dof_map(net)
        x = dof.pack()
        if net.kind == "theta":
            x = x + rng.normal(0, 3e-3, x.shape)
        g = dof.value_and_grad(x)[3]
        fd = _fd_gradient(dof, x)
        denom = np.maximum(np.abs(g), 1e-3 * max(np.abs(g).max(), 1.0))
        worst = max(worst, float(np.max(np.abs(fd - g) / denom)))
    elapsed = time.monotonic() - t0
    report(
        11,
        worst < 1e-5 and elapsed < 60.0,
        f"max componentwise gradient defect vs central FD = {worst:.2e} over 20 networks, {elapsed:.1f}s",
    )
