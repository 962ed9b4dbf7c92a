"""The three workloads: their inputs, their operations and the checks on them.

A workload object is built by set-up (that construction is what ``setup_s``
times) and then runs whole rounds through a ``Recorder``.  Every call into the
library goes through ``rec.call(name, fn, ...)``, whose name starts with the
layer it enters; everything else in an operation is the benchmark's own
checking and is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from checks import (
    BUBBLE_F,
    DROP_F,
    EIGHT_F,
    FOUR_PI,
    ROUND_OFF,
    check_arc_residuals,
    check_crossings,
    check_descent_trace,
    check_energy,
    check_honest_label,
    check_junction_incidence,
    check_near,
    check_residual_shapes,
    check_same_network,
    count_crossings,
    direction,
    network_energy,
    regular_polygon_energy,
    require,
    symmetry_defect,
)

JUNCTION_KINDS = ("theta", "generalized_theta", "degenerate_theta")
THETA_START = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
THETA_END = (0.0, 4.0 * math.pi / 3.0, 2.0 * math.pi / 3.0)
# The minimizer reports the angle defect of its results at this tolerance:
# validate() estimates junction tangents from the first vertices, which a
# solved curve bends away from.
SOLVER_TOL_ANG = 5e-2


def json_round_trip(lib, network):
    """serialize -> JSON text -> deserialize."""
    return lib.networks.deserialize(json.loads(json.dumps(lib.networks.serialize(network))))


@dataclass
class Expect:
    """What the benchmark knows about a network before the library sees it."""

    crossings: int | None = None  # None: count them independently
    solved: bool = False  # a solver's output: end edges slaved to the frame rays
    circle_radius: float | None = None
    exact_arcs: bool = False  # every curve a uniformly sampled arc or segment
    recovery: tuple | None = None  # (degenerate parent, n)


@dataclass
class Certificate:
    f_value: float
    el_residual_max: float
    junction_scalar_max: float | None = None
    junction_vector_max: float | None = None


def certify(lib, rec, net, expect: Expect, what: str) -> Certificate:
    """The six certification steps on one network, each checked."""
    back = rec.call("networks.json_round_trip", json_round_trip, lib, net)
    check_same_network(net, back, what)

    tol_ang = SOLVER_TOL_ANG if expect.solved else 1e-6
    report = rec.call("networks.validate", lib.networks.validate, net, tol_ang=tol_ang)
    require(report.valid, f"{what}: validate rejects it ({report})")
    check_junction_incidence(net, what, on_frame_rays=expect.solved)

    energy = rec.call("energy.penalized_energy", lib.energy.penalized_energy, net)
    f_value = energy.penalized
    check_energy(net, f_value, what)
    if expect.circle_radius is not None:
        f_poly = regular_polygon_energy(expect.circle_radius, net.curves[0].n_points)
        require(abs(f_value - f_poly) <= 1e-11 * f_poly, f"{what}: F = {f_value!r}, n-gon formula {f_poly!r}")
    if expect.recovery is not None:
        parent, n = expect.recovery
        defect = f_value - network_energy(parent) - 3.0 / n
        require(abs(defect) <= 1e-9, f"{what}: recovery F defect is off 3/n by {defect:.2e}")
    scaling = rec.call("energy.scaling_identity_check", lib.energy.scaling_identity_check, net, 2.0)
    require(scaling <= 1e-9 * f_value, f"{what}: scaling identity defect {scaling:.2e}")

    _check_bounds(lib, rec, net, f_value, what)
    cert = _residuals(lib, rec, net, expect, f_value, what)

    found = rec.call("injectivity", lib.minimize.injectivity_report, net).total
    check_crossings(found, count_crossings(net) if expect.crossings is None else expect.crossings, what)
    return cert


def _check_bounds(lib, rec, net, f_value, what):
    kind = net.kind
    if kind == "closed":
        check = rec.call("bounds.amgm_energy_bound", lib.bounds.amgm_energy_bound, net.curves[0], 2.0 * math.pi)
        require(check.holds and f_value >= FOUR_PI, f"{what}: closed curve F = {f_value!r} < 4 pi")
        require(abs(check.f_value - f_value) <= ROUND_OFF * f_value, f"{what}: AM-GM check sees another F")
    elif kind in ("theta", "generalized_theta"):
        check = rec.call("bounds.theta_lower_bound_check", lib.bounds.theta_lower_bound_check, net)
        require(check.holds and f_value >= FOUR_PI, f"{what}: theta F = {f_value!r} < 4 pi")
        require(kind != "theta" or check.pairs_hold, f"{what}: a pair loop has F < 8 pi / 3")
        require(check.f_value == f_value, f"{what}: theta bound sees another F")
        require(check.identity_defect <= ROUND_OFF * f_value, f"{what}: pair identity defect {check.identity_defect:.2e}")
    else:
        # drop, double drop and degenerate theta: every lobe is a drop
        Network = lib.networks.Network
        checks = rec.call(
            "bounds.drop_bound_check",
            lambda: [lib.bounds.drop_bound_check(Network("drop", (c,))) for c in net.curves],
        )
        for check in checks:
            require(check.holds and check.lhs >= math.pi * (1.0 - 1e-12), f"{what}: a lobe has sum |psi| = {check.lhs!r} < pi")


def _residuals(lib, rec, net, expect, f_value, what) -> Certificate:
    if net.kind in JUNCTION_KINDS and all(c.n_points >= 8 for c in net.curves):
        report = rec.call("stationarity.junction_residuals", lib.stationarity.junction_residuals, net)
        worst = check_residual_shapes(net.curves, report.interior_residuals, what)
        require(worst == report.interior_max_abs, f"{what}: interior_max_abs disagrees with the residuals")
        require(
            all(math.isfinite(s) for s in report.junction_scalar)
            and all(bool(np.all(np.isfinite(v))) for v in report.junction_vector),
            f"{what}: non-finite junction residual",
        )
        if expect.exact_arcs:
            check_arc_residuals(net, report.interior_residuals, report.junction_scalar, report.junction_vector, what)
        return Certificate(
            f_value,
            worst,
            max(abs(s) for s in report.junction_scalar),
            max(float(np.linalg.norm(v)) for v in report.junction_vector),
        )
    curves = [c for c in net.curves if c.n_points >= 8]
    residuals = rec.call("stationarity.el_residual", lambda: [lib.stationarity.el_residual(c) for c in curves])
    worst = check_residual_shapes(curves, residuals, what)
    if expect.exact_arcs:
        check_arc_residuals(net, residuals, what=what)
    return Certificate(f_value, worst)


# ---------------------------------------------------------------------------
# solver workloads


def _solver_checks(levels, grad_tol, what):
    """The label check, on every rung the library returns."""
    for i, level in enumerate(levels):
        check_honest_label(level.termination, float(level.grad_norm_trace[-1]), grad_tol, f"{what} rung {i}")


def _result_checks(result, levels, f_cert, what):
    """The solver's last F is the F of the network it returns; its traces descend."""
    f_last = float(result.energy_trace[-1])
    require(abs(f_last - f_cert) <= ROUND_OFF * f_cert, f"{what}: solver's last F {f_last!r}, network has {f_cert!r}")
    require(result.constraint_violation.valid, f"{what}: solver reports a constraint violation")
    for i, level in enumerate(levels):
        check_descent_trace(level.energy_trace, [ev.iteration for ev in level.resample_events], f"{what} rung {i}")
        for ev in level.resample_events:
            require(
                abs(ev.f_resampled - ev.f_before) <= 1e-3 * ev.f_before and ev.f_after <= ev.f_resampled + 1e-12,
                f"{what} rung {i}: resampling at {ev.iteration} moves F too far",
            )


class ThetaLadder:
    """Theta from the standard double bubble B_rbar, solved coarse to fine, then certified."""

    name = "theta_ladder"

    def __init__(self, lib, seed, work_dir):
        self.lib = lib
        self.initial = lib.networks.make_standard_double_bubble(lib.networks.optimal_bubble_radius(), 200)
        self.config = lib.minimize.OptimizationConfig(
            n_per_curve=200, max_iters=1000, grad_tol=1e-3, energy_rel_tol=1e-9
        )
        self.solved = None
        self.stats = {}

    def run_round(self, rec):
        self.solved = None
        rec.op("solve", self._solve)
        rec.op("certify", self._certify)

    def _solve(self, rec):
        result, levels = rec.call("minimize.solve", self.lib.minimize.minimize_multilevel, self.initial, self.config)
        self.solved = (result, levels)
        _solver_checks(levels, self.config.grad_tol, "theta")

    def _certify(self, rec):
        require(self.solved is not None, "theta: no solver result to certify")
        result, levels = self.solved
        cert = certify(self.lib, rec, result.final, Expect(solved=True), "theta")
        _result_checks(result, levels, cert.f_value, "theta")
        require(FOUR_PI <= cert.f_value < BUBBLE_F, f"theta: F = {cert.f_value!r} outside [4 pi, F(B_rbar))")
        for i, level in enumerate(levels):
            require(bool(np.all(level.energy_trace >= FOUR_PI - 1e-9)), f"theta rung {i}: F dips below 4 pi")
        self.stats = {
            "F_final": cert.f_value,
            "minimize.iterations": sum(level.iterations for level in levels),
            "minimize.grad_norm_final": float(result.grad_norm_trace[-1]),
            "stationarity.el_residual_max": cert.el_residual_max,
            "stationarity.junction_scalar_max": cert.junction_scalar_max,
            "stationarity.junction_vector_max": cert.junction_vector_max,
        }


# Every curve solve must end within this share of its known minimum: tighter
# than the acceptance tolerances (5e-3 and 1e-2), so that a faster solve
# cannot end at a worse F.
F_REL_TOL = 1e-3
# The drop settings also go to the command line as its --kind-config.
CLOSED_SETTINGS = {"n_per_curve": 200, "max_iters": 40000, "grad_tol": 1e-3, "energy_rel_tol": 3e-6}
DROP_SETTINGS = {**CLOSED_SETTINGS, "n_per_curve": 300}


class CurveLadder:
    """Ellipse -> circle and teardrop -> minimal drop through the library, and the
    symmetric double drop -> figure eight through the command line."""

    name = "curve_ladder"

    def __init__(self, lib, seed, work_dir):
        self.lib = lib
        self.closed_config = lib.minimize.OptimizationConfig(**CLOSED_SETTINGS)
        self.drop_config = lib.minimize.OptimizationConfig(**DROP_SETTINGS)
        self.ellipse = lib.networks.make_ellipse(2.0, 1.0, 200)
        self.teardrop = lib.energy.optimal_rescale(lib.networks.make_teardrop(300))[1]
        os.makedirs(work_dir, exist_ok=True)
        self.eight_input = os.path.join(work_dir, "double_drop.json")
        self.eight_config = os.path.join(work_dir, "double_drop_config.json")
        self.eight_out = os.path.join(work_dir, "figure_eight")
        lib.networks.save_json(lib.networks.make_symmetric_double_drop(self.teardrop), self.eight_input)
        with open(self.eight_config, "w", encoding="utf-8") as fh:
            json.dump(DROP_SETTINGS, fh)
        self.solved = {}
        self.stats = {}

    def run_round(self, rec):
        self.solved = {}
        self.stats = {"F_final": 0.0, "minimize.iterations": 0, "minimize.grad_norm_final": 0.0,
                      "stationarity.el_residual_max": 0.0}
        rec.op("solve_ellipse", lambda r: self._solve(r, "ellipse", self.ellipse, self.closed_config))
        rec.op("certify_ellipse", lambda r: self._certify(r, "ellipse", FOUR_PI))
        rec.op("solve_drop", lambda r: self._solve(r, "drop", self.teardrop, self.drop_config))
        rec.op("certify_drop", lambda r: self._certify(r, "drop", DROP_F))
        rec.op("solve_eight", self._solve_eight)
        rec.op("certify_eight", self._certify_eight)

    def _tally(self, f_value, iterations, grad_norm, el_max):
        self.stats["F_final"] += f_value
        self.stats["minimize.iterations"] += iterations
        self.stats["minimize.grad_norm_final"] = max(self.stats["minimize.grad_norm_final"], grad_norm)
        self.stats["stationarity.el_residual_max"] = max(self.stats["stationarity.el_residual_max"], el_max)

    def _solve(self, rec, label, initial, config):
        result, levels = rec.call("minimize.solve", self.lib.minimize.minimize_multilevel, initial, config)
        self.solved[label] = (result, levels)
        _solver_checks(levels, config.grad_tol, label)

    def _certify(self, rec, label, target):
        require(label in self.solved, f"{label}: no solver result to certify")
        result, levels = self.solved[label]
        cert = certify(self.lib, rec, result.final, Expect(solved=True), label)
        _result_checks(result, levels, cert.f_value, label)
        check_near(cert.f_value, target, F_REL_TOL, f"{label}: final F")
        self._tally(
            cert.f_value, sum(level.iterations for level in levels), float(result.grad_norm_trace[-1]), cert.el_residual_max
        )

    def _solve_eight(self, rec):
        argv = ["minimize", self.eight_input, "--out", self.eight_out, "--kind-config", self.eight_config]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = rec.call("cli.solve", self.lib.cli.main, argv)
        require(code == 0, f"eight: elastinet minimize exits with {code}")
        with open(os.path.join(self.eight_out, "result.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(self.eight_out, "trace.csv"), encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = np.array([[float(v) for v in line.split(",")] for line in fh])
        require(header == "iter,F,E,L,grad_norm", f"eight: trace.csv header is {header!r}")
        require(stdout.getvalue().startswith(f"final F = {summary['final_F']:.6f}"), "eight: printed F differs")
        self.solved["eight"] = (summary, rows)
        check_honest_label(summary["termination"], float(rows[-1, 4]), self.drop_config.grad_tol, "eight")

    def _certify_eight(self, rec):
        require("eight" in self.solved and "drop" in self.solved, "eight: no results to certify")
        summary, rows = self.solved["eight"]
        final = rec.call("networks.load_json", self.lib.networks.load_json, os.path.join(self.eight_out, "network_final.json"))
        cert = certify(self.lib, rec, final, Expect(solved=True), "eight")
        f_final = summary["final_F"]
        require(abs(f_final - cert.f_value) <= ROUND_OFF * f_final, f"eight: result.json F {f_final!r}, network has {cert.f_value!r}")
        require(rows[-1, 1] == f_final, "eight: last F of trace.csv differs from result.json")
        require(len(rows) >= summary["iterations"] + 1 and bool(np.all(rows[:, 0] == np.arange(len(rows)))), "eight: trace.csv rows")
        check_descent_trace(rows[:, 1], [ev["iteration"] for ev in summary["resample_events"]], "eight")
        check_near(f_final, EIGHT_F, F_REL_TOL, "eight: final F")
        f_drop = float(self.solved["drop"][0].energy_trace[-1])
        check_near(f_final, 2.0 * f_drop, 1e-3, "eight: F against twice the drop")
        c1, c2 = final.curves
        defect = symmetry_defect(c1.points, c2.points)
        require(defect <= 1e-12, f"eight: symmetry defect {defect:.2e}")
        self._tally(f_final, int(summary["iterations"]), float(rows[-1, 4]), cert.el_residual_max)


# ---------------------------------------------------------------------------
# audit batch


def _rotate(points, angle, shift):
    c, s = math.cos(angle), math.sin(angle)
    return points @ np.array([[c, s], [-s, c]]) + shift


def fuzzed_closed(lib, rng, n):
    """A star-shaped wobbly loop, hence embedded."""
    th = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + sum(rng.uniform(-0.06, 0.06) * np.cos(j * th + rng.uniform(0.0, 2.0 * np.pi)) for j in range(2, 6))
    pts = rng.uniform(0.5, 2.0) * np.column_stack([r * np.cos(th), r * np.sin(th)])
    pts = _rotate(pts, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0, 2))
    return lib.networks.Network("closed", (lib.geometry.DiscreteCurve(pts, closed=True),))


def fuzzed_drop(lib, rng, n):
    """A star-shaped wobbly loop opened at one vertex: an embedded drop."""
    th = 2.0 * np.pi * np.arange(n + 1) / n
    r = 1.0 + sum(rng.uniform(-0.12, 0.12) * np.cos(j * th + rng.uniform(0.0, 2.0 * np.pi)) for j in range(1, 5))
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    pts = _rotate(pts - pts[0], rng.uniform(0.0, 2.0 * np.pi), np.zeros(2))
    pts[-1] = pts[0]
    return lib.networks.Network("drop", (lib.geometry.DiscreteCurve(pts),))


def fuzzed_theta(lib, rng, n):
    """Three Hermite curves between two junctions with random 120 degree frames.

    The first and last two edges of each curve are laid on the frame rays, so
    the junction angles hold exactly for the discrete tangent estimates too.
    """
    Junction = lib.networks.Junction
    end = rng.uniform(1.0, 2.0) * direction(rng.uniform(0.0, 2.0 * np.pi))
    j0 = Junction(np.zeros(2), rng.uniform(0.0, 2.0 * np.pi), THETA_START)
    j1 = Junction(end, rng.uniform(0.0, 2.0 * np.pi), THETA_END)
    dist = float(np.linalg.norm(end))
    t = np.linspace(0.0, 1.0, n)[:, None]
    curves = []
    for i in range(3):
        d0 = direction(j0.frame_angle + j0.offsets[i])
        d1 = -direction(j1.frame_angle + j1.offsets[i])
        v0 = dist * rng.uniform(1.0, 2.0) * d0
        v1 = dist * rng.uniform(1.0, 2.0) * d1
        pts = (t**3 - 2 * t**2 + t) * v0 + (-2 * t**3 + 3 * t**2) * end + (t**3 - t**2) * v1
        pts[0], pts[-1] = 0.0, end
        for k in (1, 2):
            pts[k] = pts[k - 1] + np.linalg.norm(pts[k] - pts[k - 1]) * d0
            pts[-1 - k] = pts[-k] - np.linalg.norm(pts[-k] - pts[-1 - k]) * d1
        curves.append(lib.geometry.DiscreteCurve(pts))
    return lib.networks.Network("theta", tuple(curves), (j0, j1))


def lemniscate(lib, rng, n):
    """Gerono lemniscate sampled at half steps, so its crossing falls inside two segments."""
    t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    pts = rng.uniform(0.5, 2.0) * np.column_stack([np.cos(t), np.sin(t) * np.cos(t)])
    pts = _rotate(pts, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0, 2))
    return lib.networks.Network("closed", (lib.geometry.DiscreteCurve(pts, closed=True),))


SMALL_PER_KIND = 34  # closed, drop and theta each
# Reference shapes at fixed sizes: the seed draws their proportions only, so
# every seed gives the same amount of work.
LARGE_SIZES = {
    "circle": (400, 2000),
    "ellipse": (1000,),
    "lemniscate": (800,),
    "teardrop": (300, 1000),
    "double_drop": (600,),
    "double_bubble": (300, 700),
    "generalized_bubble": (500,),
    "degenerate_eight": (400, 900),
    "recovery": (10, 100, 1000),  # n of the recovery network, from a 240-point degenerate theta
}


def audit_networks(lib, rng):
    """(label, network, Expect) for the whole batch, small fuzzed ones first."""
    nw = lib.networks
    batch = []
    for i in range(SMALL_PER_KIND):
        batch.append((f"closed{i}", fuzzed_closed(lib, rng, int(rng.integers(40, 121))), Expect()))
        batch.append((f"drop{i}", fuzzed_drop(lib, rng, int(rng.integers(40, 121))), Expect()))
        batch.append((f"theta{i}", fuzzed_theta(lib, rng, int(rng.integers(20, 61))), Expect()))
    for n in LARGE_SIZES["circle"]:
        radius = float(rng.uniform(0.5, 2.0))
        batch.append((f"circle{n}", nw.make_circle(radius, n), Expect(crossings=0, circle_radius=radius, exact_arcs=True)))
    for n in LARGE_SIZES["ellipse"]:
        batch.append((f"ellipse{n}", nw.make_ellipse(float(rng.uniform(1.2, 3.0)), 1.0, n), Expect(crossings=0)))
    for n in LARGE_SIZES["lemniscate"]:
        batch.append((f"lemniscate{n}", lemniscate(lib, rng, n), Expect(crossings=1)))
    for n in LARGE_SIZES["teardrop"]:
        batch.append((f"teardrop{n}", nw.make_teardrop(n, float(rng.uniform(0.5, 2.0))), Expect(crossings=0)))
    for n in LARGE_SIZES["double_drop"]:
        drop = nw.make_teardrop(n, float(rng.uniform(0.5, 2.0)))
        batch.append((f"double_drop{n}", nw.make_symmetric_double_drop(drop), Expect(crossings=0)))
    for n in LARGE_SIZES["double_bubble"]:
        net = nw.make_standard_double_bubble(float(rng.uniform(0.7, 1.4)), n)
        batch.append((f"double_bubble{n}", net, Expect(crossings=0, exact_arcs=True)))
    for n in LARGE_SIZES["generalized_bubble"]:
        a1 = float(rng.uniform(1.4, 2.4))
        a2 = float(rng.uniform(a1, 2.8))
        net = nw.make_generalized_bubble(a1, a2, n)
        batch.append((f"generalized_bubble{n}", net, Expect(crossings=0, exact_arcs=True)))
    for n in LARGE_SIZES["degenerate_eight"]:
        net = nw.make_degenerate_figure_eight(n, float(rng.uniform(0.5, 2.0)))
        batch.append((f"degenerate_eight{n}", net, Expect(crossings=0)))
    parent = nw.make_degenerate_figure_eight(240, float(rng.uniform(0.5, 2.0)))
    for n in LARGE_SIZES["recovery"]:
        net = lib.minimize.recovery_sequence(parent, n)
        batch.append((f"recovery{n}", net, Expect(crossings=0, recovery=(parent, n))))
    return batch


class AuditBatch:
    """Certification of a seeded batch of networks; no solver runs."""

    name = "audit_batch"

    def __init__(self, lib, seed, work_dir):
        self.lib = lib
        self.batch = audit_networks(lib, np.random.default_rng(seed))
        self.stats = {}

    def run_round(self, rec):
        for label, net, expect in self.batch:
            rec.op(label, lambda r, net=net, expect=expect, label=label: certify(self.lib, r, net, expect, label))


WORKLOADS = {cls.name: cls for cls in (ThetaLadder, CurveLadder, AuditBatch)}
