"""First-order minimization of the penalized elastic energy over networks.

Degrees of freedom, in two classes:

* curves without junctions (``closed``, ``drop``): every vertex of a closed
  curve; the interior vertices of a drop, whose closure point stays pinned at
  the origin (free corner angle);
* junction networks (``theta``, ``generalized_theta``, ``degenerate_theta``):
  junction positions, one frame angle per junction, one slaved end-edge
  length per junction slot and the interior vertices.  The slot table
  ``networks.end_slots`` says which curve end meets which slot.  The first
  and last edge of every curve lie exactly along the junction frame, so the
  prescribed angles hold to machine precision along the whole run.  The
  four-point of a degenerate theta stays pinned at the origin.

The descent is plain gradient descent with Armijo backtracking (factor 0.5,
sufficient decrease 1e-4) and step growth after clean accepts.  Periodic
resampling keeps the vertices near-uniform; each resampling's energy jump is
recorded.  The gradient is the exact differential of the discrete energy with
respect to the free DOF (finite differences agree componentwise), chained
through the slaved-edge parametrization.

High frequencies relax quickly under gradient descent while long-wavelength
shape modes are stiffness-limited, so ``minimize_multilevel`` runs a
coarse-to-fine ladder: solve at a coarse resolution, upsample with a cubic
spline, polish.  Each rung is an ordinary ``minimize`` run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline

from .energy import penalized_energy
from .errors import (
    ConstructionFailedError,
    InvalidConfigError,
    InvalidInputError,
    OptimizationError,
)
from .geometry import (
    DiscreteCurve,
    checked_energy,
    polyline_energy,
    polyline_length,
    resample_uniform,
    rot90,
    signed_angle,
    unit,
    vertex_arclengths,
)
from .networks import (
    Junction,
    Network,
    ValidationReport,
    end_slots,
    make_symmetric_double_drop,
    network_diameter,
    translate_network,
    validate,
)

__all__ = [
    "OptimizationConfig",
    "OptimizationResult",
    "ResampleEvent",
    "dof_map",
    "discrete_gradient",
    "minimize",
    "minimize_multilevel",
    "minimize_symmetric_double_drop",
    "recovery_sequence",
    "injectivity_report",
    "InjectivityReport",
]

DEGENERATION_FACTOR = 1e-3

# Slaved first/last edges are kept at a quarter of the mean spacing: the
# straight stub a slaved edge forces onto the curve biases the energy by
# O(k^2 * stub), so short stubs track the continuum markedly better, while
# the stub endpoint is not a free vertex and does not shrink the stable step.
STUB_FRACTION = 0.25


@dataclass(frozen=True)
class OptimizationConfig:
    """Settings of one descent run.

    ``seed`` is only echoed into the command line's ``manifest.json``: the
    solver draws no random numbers, so the seed does not affect results.
    """

    n_per_curve: int = 200
    max_iters: int = 20000
    grad_tol: float = 1e-4
    energy_rel_tol: float = 1e-14
    resample_every: int = 25
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    step_init: float = 1e-3
    step_growth: float = 2.0
    step_min: float = 1e-18
    seed: int = 0

    def __post_init__(self):
        for name in ("n_per_curve", "max_iters", "resample_every", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("grad_tol", "energy_rel_tol", "step_init", "step_growth", "step_min", "armijo_c", "backtrack_factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < math.inf:
                raise InvalidConfigError(f"{name} must be a positive finite number, got {value!r}")
        if self.n_per_curve < 8:
            raise InvalidConfigError("n_per_curve must be at least 8")
        if self.max_iters < 0:
            raise InvalidConfigError("max_iters must be nonnegative")
        if self.backtrack_factor >= 1.0:
            raise InvalidConfigError("backtrack_factor must lie in (0, 1)")
        if self.resample_every < 0:
            raise InvalidConfigError("resample_every must be nonnegative (0 disables)")


@dataclass(frozen=True)
class ResampleEvent:
    """f_before -> f_resampled (uniform resampling) -> f_after (exact rescale)."""

    iteration: int
    f_before: float
    f_resampled: float
    f_after: float


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one run.  ``termination`` is one of:

    * ``converged``: the gradient norm reached ``grad_tol``;
    * ``stalled``: 64 iterations descended by at most ``energy_rel_tol``
      relative to ``F`` while the gradient norm stayed above ``grad_tol``;
    * ``max_iters``: the iteration budget ran out;
    * ``line_search_failed``: no step above ``step_min`` decreased ``F``;
    * ``degeneration``: a curve shrank below ``DEGENERATION_FACTOR`` times the
      network diameter.
    """

    final: Network
    energy_trace: np.ndarray
    elastic_trace: np.ndarray
    length_trace: np.ndarray
    grad_norm_trace: np.ndarray
    resample_events: tuple[ResampleEvent, ...]
    constraint_violation: ValidationReport
    termination: str
    iterations: int
    config: OptimizationConfig


# ---------------------------------------------------------------------------
# DOF parametrizations


_INFINITE = (math.inf, math.inf, math.inf)


class _CurveDof:
    """Closed curve: every vertex free.  Drop: the closure point stays pinned."""

    def __init__(self, network: Network):
        self.template = network
        self.closed = network.curves[0].closed
        self.free = slice(None) if self.closed else slice(1, -1)

    def pack(self) -> np.ndarray:
        return self.template.curves[0].points[self.free].ravel().copy()

    def _points(self, x: np.ndarray) -> np.ndarray:
        p = self.template.curves[0].points.copy()
        p[self.free] = x.reshape(-1, 2)
        return p

    def value(self, x: np.ndarray):
        out = polyline_energy(self._points(x), self.closed)
        return _INFINITE if out is None else (out.elastic + out.length, out.elastic, out.length)

    def value_and_grad(self, x: np.ndarray):
        out = checked_energy(self._points(x), self.closed, gradient=True)
        return out.elastic + out.length, out.elastic, out.length, out.grad[self.free].ravel()

    def point_sets(self, x: np.ndarray):
        return [self._points(x)]

    def rebuild(self, x: np.ndarray) -> Network:
        curve = DiscreteCurve(self._points(x), closed=self.closed)
        return Network(self.template.kind, (curve,))

    def rescale(self, x: np.ndarray, factor: float) -> np.ndarray:
        # a drop scales about its pinned closure point at the origin
        return factor * x


class _JunctionDof:
    """Junction kinds: frame angles, slaved end edges and interior vertices.

    ``x`` holds the junction positions, one frame angle per junction, one
    stub length per junction slot (junction by junction, slot by slot) and
    the interior vertices of every curve.  The first and last edge of every
    curve lie along its slot's frame direction, so the prescribed angles hold
    to machine precision along the whole run.  A lone junction (the
    four-point of a degenerate theta) stays where it is instead, at the origin
    where ``_prepare`` puts it, so the network has no translation mode.
    """

    def __init__(self, network: Network):
        self.template = network
        junctions = network.junctions
        self.n_pos = 2 * len(junctions) if len(junctions) > 1 else 0
        self.fixed = np.array([j.position for j in junctions])
        first_stub = np.cumsum([self.n_pos + len(junctions)] + [len(j.offsets) for j in junctions])
        slots = end_slots(network.kind, len(network.curves))
        # per curve and end (start, end): the junction, its slot's offset and
        # the index of the end's stub length in x
        self.end_junction = np.array([[j for j, _ in ends] for ends in slots])
        self.end_offset = np.array([[junctions[j].offsets[s] for j, s in ends] for ends in slots])
        self.end_stub = np.array([[first_stub[j] + s for j, s in ends] for ends in slots])
        self.stubs = slice(int(first_stub[0]), int(first_stub[-1]))
        bounds = np.cumsum([first_stub[-1]] + [2 * (c.n_points - 4) for c in network.curves])
        self.interiors = [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def pack(self) -> np.ndarray:
        net = self.template
        head = np.empty(self.stubs.stop)
        head[: self.n_pos] = self.fixed.ravel()[: self.n_pos]
        head[self.n_pos : self.stubs.start] = [j.frame_angle for j in net.junctions]
        head[self.end_stub] = [
            [np.linalg.norm(c.points[1] - c.points[0]), np.linalg.norm(c.points[-2] - c.points[-1])]
            for c in net.curves
        ]
        return np.concatenate([head] + [c.points[2:-2].ravel() for c in net.curves])

    def _positions(self, x: np.ndarray) -> np.ndarray:
        return x[: self.n_pos].reshape(-1, 2) if self.n_pos else self.fixed

    def _frames(self, x: np.ndarray):
        """Junction position and outgoing frame direction at every curve end."""
        angles = x[self.n_pos + self.end_junction] + self.end_offset
        return self._positions(x)[self.end_junction], np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    def _sets(self, x: np.ndarray, at, dirs):
        h = x[self.end_stub]
        sets = []
        for i, (interior, c) in enumerate(zip(self.interiors, self.template.curves)):
            p = np.empty_like(c.points)
            p[0] = at[i, 0]
            p[1] = at[i, 0] + h[i, 0] * dirs[i, 0]
            p[2:-2] = x[interior].reshape(-1, 2)
            p[-2] = at[i, 1] + h[i, 1] * dirs[i, 1]
            p[-1] = at[i, 1]
            sets.append(p)
        return sets

    def point_sets(self, x: np.ndarray):
        return self._sets(x, *self._frames(x))

    def value(self, x: np.ndarray):
        if np.any(x[self.stubs] <= 0.0):
            return _INFINITE
        at, dirs = self._frames(x)
        f = e = l = 0.0
        for p, (d_start, d_end) in zip(self._sets(x, at, dirs), dirs):
            out = polyline_energy(p, False, d_start, -d_end)
            if out is None:
                return _INFINITE
            f += out.elastic + out.length
            e += out.elastic
            l += out.length
        return f, e, l

    def value_and_grad(self, x: np.ndarray):
        at, dirs = self._frames(x)
        h = x[self.end_stub]
        g = np.zeros_like(x)
        g_positions = g[: self.n_pos].reshape(-1, 2)
        f = e = l = 0.0
        for i, p in enumerate(self._sets(x, at, dirs)):
            out = checked_energy(p, False, dirs[i, 0], -dirs[i, 1], gradient=True)
            f += out.elastic + out.length
            e += out.elastic
            l += out.length
            dp = out.grad
            # the end clamp is minus the outgoing direction: same angle derivative
            for k, end, stub, d_angle in ((0, 0, 1, out.d_start), (1, -1, -2, out.d_end)):
                j = self.end_junction[i, k]
                if self.n_pos:
                    g_positions[j] += dp[end] + dp[stub]
                g[self.n_pos + j] += d_angle + float(dp[stub] @ (h[i, k] * rot90(dirs[i, k])))
                g[self.end_stub[i, k]] += float(dp[stub] @ dirs[i, k])
            g[self.interiors[i]] = dp[2:-2].ravel()
        return f, e, l, g

    def rebuild(self, x: np.ndarray) -> Network:
        net = self.template
        junctions = tuple(
            Junction(q.copy(), float(x[self.n_pos + j]), junction.offsets)
            for j, (q, junction) in enumerate(zip(self._positions(x), net.junctions))
        )
        curves = tuple(DiscreteCurve(p, closed=False) for p in self.point_sets(x))
        return Network(net.kind, curves, junctions, net.prescribed_angles)

    def rescale(self, x: np.ndarray, factor: float) -> np.ndarray:
        out = factor * x
        angles = slice(self.n_pos, self.stubs.start)
        out[angles] = x[angles]  # frame angles are scale invariant
        return out


def _resample(dof, x: np.ndarray):
    """Uniform resampling of the network ``x`` describes, and its new DOF."""
    net = _slave_junction_edges(_resample_network(dof.rebuild(x)))
    dof = _dof(net)
    return dof, dof.pack()


def _dof(network: Network):
    return (_JunctionDof if network.junctions else _CurveDof)(network)


def _slave_junction_edges(network: Network) -> Network:
    """Put the first/last edge of each curve onto its frame ray (short stub)."""
    slots = end_slots(network.kind, len(network.curves))
    if not slots:
        return network
    curves = []
    for c, ((j_start, s_start), (j_end, s_end)) in zip(network.curves, slots):
        start, end = network.junctions[j_start], network.junctions[j_end]
        p = c.points.copy()
        stub = STUB_FRACTION * polyline_length(c) / (len(p) - 1)
        p[0] = start.position
        p[-1] = end.position
        p[1] = start.position + stub * start.outgoing_dir(s_start)
        p[-2] = end.position + stub * end.outgoing_dir(s_end)
        curves.append(DiscreteCurve(p, closed=False))
    return Network(network.kind, tuple(curves), network.junctions, network.prescribed_angles)


def _count_split(total_points: int, lengths: np.ndarray, floor: int = 8) -> list[int]:
    """Split a point budget across curves proportionally to length."""
    shares = lengths / lengths.sum()
    counts = np.maximum(floor, np.floor(total_points * shares).astype(int))
    while counts.sum() < total_points:
        counts[int(np.argmax(total_points * shares - counts))] += 1
    while counts.sum() > total_points:
        over = np.where(counts > floor)[0]
        counts[over[int(np.argmin(total_points * shares[over] - counts[over]))]] -= 1
    return [int(c) for c in counts]


def _resample_network(network: Network) -> Network:
    """Uniform resampling; the point budget follows the curve lengths.

    A short curve sampled as densely as a long one would set the stable step
    for the whole network, so the spacing is equalized across curves.  Counts
    are only redistributed once the spacing imbalance exceeds 10%, otherwise
    rounding would shuffle a vertex back and forth between curves on every
    resampling and keep reinjecting interpolation noise.
    """
    if len(network.curves) == 1:
        c = network.curves[0]
        n = c.n_points
        return Network(
            network.kind,
            (resample_uniform(c, n if c.closed else n - 1),),
            network.junctions,
            network.prescribed_angles,
        )
    lengths = np.array([polyline_length(c) for c in network.curves])
    counts = [c.n_points for c in network.curves]
    spacing = lengths / (np.asarray(counts) - 1)
    if np.max(np.abs(spacing / spacing.mean() - 1.0)) > 0.1:
        counts = _count_split(sum(counts), lengths)
    curves = tuple(
        resample_uniform(c, m - 1) for c, m in zip(network.curves, counts)
    )
    return Network(network.kind, curves, network.junctions, network.prescribed_angles)


def _spline_resample(curve: DiscreteCurve, n_points: int) -> DiscreteCurve:
    """Smooth arclength resampling used when changing resolution."""
    pts = curve.points
    if curve.closed:
        ext = np.vstack([pts, pts[0]])
        s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(ext[1:] - ext[:-1], axis=1))])
        spline = CubicSpline(s, ext, bc_type="periodic")
        targets = np.arange(n_points) * (s[-1] / n_points)
        return DiscreteCurve(spline(targets), closed=True)
    s = vertex_arclengths(curve)
    spline = CubicSpline(s, pts, bc_type="natural")
    targets = np.linspace(0.0, s[-1], n_points)
    out = spline(targets)
    out[0] = pts[0]
    out[-1] = pts[-1]
    return DiscreteCurve(out, closed=False)


def _adapt_resolution(network: Network, n: int) -> Network:
    """Bring the network to an average of n points per curve, spacing equalized."""
    if len(network.curves) == 1:
        if network.curves[0].n_points == n:
            return network
        counts = [n]
    else:
        lengths = np.array([polyline_length(c) for c in network.curves])
        counts = _count_split(n * len(network.curves), lengths)
        if tuple(counts) == tuple(c.n_points for c in network.curves):
            return network
    curves = tuple(_spline_resample(c, m) for c, m in zip(network.curves, counts))
    return Network(network.kind, curves, network.junctions, network.prescribed_angles)


def _prepare(network: Network, n: int | None) -> Network:
    """Normalize an input network for descent: pin, adapt resolution, slave."""
    kind = network.kind
    if kind == "double_drop":
        raise InvalidInputError("use minimize_symmetric_double_drop for double drops")
    net = network
    if kind == "drop":
        net = translate_network(net, -net.curves[0].points[0])
        p = net.curves[0].points.copy()
        p[0] = 0.0
        p[-1] = 0.0
        net = Network("drop", (DiscreteCurve(p, closed=False),))
    elif kind == "degenerate_theta":
        net = translate_network(net, -net.junctions[0].position)
    if n is not None:
        net = _adapt_resolution(net, n)
    return _slave_junction_edges(net)


def dof_map(network: Network):
    """DOF parametrization used by the optimizer (after slaving), for audits."""
    net = _prepare(network, None)
    return _dof(net)


def discrete_gradient(network: Network) -> np.ndarray:
    """Exact gradient of the discrete F with respect to the free DOF."""
    dof = dof_map(network)
    return dof.value_and_grad(dof.pack())[3]


def _network_min_curve_length(sets) -> float:
    return min(float(np.linalg.norm(p[1:] - p[:-1], axis=1).sum()) for p in sets)


def _diameter_of_sets(sets) -> float:
    pts = np.vstack(sets)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def minimize(network: Network, config: OptimizationConfig | None = None) -> OptimizationResult:
    """Gradient descent with Armijo backtracking on the network's free DOF."""
    config = config or OptimizationConfig()
    if config.max_iters == 0:
        report = penalized_energy(network, 1.0)
        return OptimizationResult(
            final=network,
            energy_trace=np.array([report.penalized]),
            elastic_trace=np.array([report.elastic]),
            length_trace=np.array([report.length]),
            grad_norm_trace=np.array([float("nan")]),
            resample_events=(),
            constraint_violation=validate(network, tol_ang=5e-2),
            termination="max_iters",
            iterations=0,
            config=config,
        )

    net = _prepare(network, config.n_per_curve)
    dof = _dof(net)
    x = dof.pack()

    f, e, l = dof.value(x)
    if not math.isfinite(f):
        raise OptimizationError("initial configuration has non-finite energy")

    f_trace, e_trace, l_trace, g_trace = [], [], [], []
    events = []
    step = config.step_init
    termination = "max_iters"
    it = 0
    window_descent = 0.0
    while it < config.max_iters:
        f, e, l, g = dof.value_and_grad(x)
        if not math.isfinite(f):
            raise OptimizationError(f"non-finite energy at iteration {it}")
        gn = float(np.linalg.norm(g))
        f_trace.append(f)
        e_trace.append(e)
        l_trace.append(l)
        g_trace.append(gn)
        if gn <= config.grad_tol:
            termination = "converged"
            break

        accepted = False
        t = step * config.step_growth
        while t >= config.step_min:
            x_new = x - t * g
            f_new = dof.value(x_new)[0]
            if f_new <= f - config.armijo_c * t * gn * gn:
                accepted = True
                break
            t *= config.backtrack_factor
        if not accepted:
            termination = "line_search_failed"
            break
        x = x_new
        window_descent += f - f_new
        step = t
        it += 1

        if config.resample_every and it % config.resample_every == 0:
            f_before = dof.value(x)[0]
            dof, x = _resample(dof, x)
            f_mid, e_mid, l_mid = dof.value(x)
            # exact optimal rescaling: monotone, kills the slow dilation mode
            if math.isfinite(f_mid) and e_mid > 1e-14 * max(l_mid, 1.0):
                x = dof.rescale(x, math.sqrt(e_mid / l_mid))
            f_after = dof.value(x)[0]
            events.append(ResampleEvent(it, f_before, f_mid, f_after))
            sets = dof.point_sets(x)
            if _network_min_curve_length(sets) < DEGENERATION_FACTOR * _diameter_of_sets(sets):
                termination = "degeneration"
                break

        # stop on descent progress alone: uniform resampling drifts the
        # energy by a little each time, which must not mask stagnation
        if it % 64 == 0:
            f_now = dof.value(x)[0]
            if window_descent <= config.energy_rel_tol * max(abs(f_now), 1.0):
                termination = "stalled"
                break
            window_descent = 0.0

    f, e, l = dof.value(x)
    f_trace.append(f)
    e_trace.append(e)
    l_trace.append(l)
    g_trace.append(float(np.linalg.norm(dof.value_and_grad(x)[3])))
    if termination == "stalled" and g_trace[-1] <= config.grad_tol:
        termination = "converged"

    final = dof.rebuild(x)
    return OptimizationResult(
        final=final,
        energy_trace=np.asarray(f_trace),
        elastic_trace=np.asarray(e_trace),
        length_trace=np.asarray(l_trace),
        grad_norm_trace=np.asarray(g_trace),
        resample_events=tuple(events),
        constraint_violation=validate(final, tol_ang=5e-2),
        termination=termination,
        iterations=it,
        config=config,
    )


def _ladder(n_target: int, coarsest: int = 40) -> list[int]:
    levels = [n_target]
    while levels[-1] > coarsest:
        levels.append(max(coarsest, (levels[-1] + 1) // 2))
    return levels[::-1]


def minimize_multilevel(
    network: Network,
    config: OptimizationConfig | None = None,
    levels: list[int] | None = None,
) -> tuple[OptimizationResult, tuple[OptimizationResult, ...]]:
    """Coarse-to-fine ladder of minimize() runs; returns (final, all levels)."""
    config = config or OptimizationConfig()
    if levels is None:
        levels = _ladder(config.n_per_curve)
    if levels[-1] != config.n_per_curve:
        raise InvalidConfigError("ladder must end at config.n_per_curve")
    net = network
    results = []
    for n in levels:
        res = minimize(net, replace(config, n_per_curve=n))
        results.append(res)
        net = res.final
    return results[-1], tuple(results)


def minimize_symmetric_double_drop(
    initial: Network,
    config: OptimizationConfig | None = None,
    multilevel: bool = True,
) -> OptimizationResult:
    """Minimize F over symmetric double drops by optimizing one lobe.

    Only the first drop carries DOF; the second is its point reflection
    through the four-point, so the symmetry defect is zero by construction
    and the total energy is exactly twice the lobe energy.
    """
    config = config or OptimizationConfig()
    if initial.kind == "double_drop":
        lobe = Network("drop", (initial.curves[0],))
    elif initial.kind == "drop":
        lobe = initial
    else:
        raise InvalidInputError("expected a drop or double_drop network")
    if multilevel:
        res, _ = minimize_multilevel(lobe, config)
    else:
        res = minimize(lobe, config)
    final = make_symmetric_double_drop(res.final)
    return OptimizationResult(
        final=final,
        energy_trace=2.0 * res.energy_trace,
        elastic_trace=2.0 * res.elastic_trace,
        length_trace=2.0 * res.length_trace,
        grad_norm_trace=2.0 * res.grad_norm_trace,
        resample_events=res.resample_events,
        constraint_violation=validate(final, tol_ang=5e-2),
        termination=res.termination,
        iterations=res.iterations,
        config=config,
    )


# ---------------------------------------------------------------------------
# recovery sequence (degenerate -> theta)


def _first_horizontal_cut(curve: DiscreteCurve) -> float:
    """Arclength of the first horizontal-tangent point, by sign change.

    The tangent's second component is interpolated linearly in arclength
    between edge midpoints; the first sign change is bisected to 1e-10 of the
    total length.  A run of exactly horizontal edges is cut at its center,
    keeping the cut away from any vertex that carries turning.
    """
    pts = curve.points
    e = pts[1:] - pts[:-1]
    a = np.linalg.norm(e, axis=1)
    ty = e[:, 1] / a
    s = np.concatenate([[0.0], np.cumsum(a)])
    mids = 0.5 * (s[:-1] + s[1:])
    total = s[-1]

    zero = np.nonzero(ty == 0.0)[0]
    change = np.nonzero(ty[:-1] * ty[1:] < 0.0)[0]
    first_zero = zero[0] if len(zero) else None
    first_change = change[0] if len(change) else None
    if first_zero is not None and (first_change is None or first_zero <= first_change):
        j0 = j1 = int(first_zero)
        while j1 + 1 < len(ty) and ty[j1 + 1] == 0.0:
            j1 += 1
        return float(0.5 * (s[j0] + s[j1 + 1]))
    if first_change is None:
        raise ConstructionFailedError("no horizontal tangent: input violates the orientation premise")
    j = int(first_change)

    def value(sq: float) -> float:
        return float(np.interp(sq, mids, ty))

    lo, hi = float(mids[j]), float(mids[j + 1])
    flo = value(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = value(mid)
        if fm == 0.0 or (hi - lo) < 1e-10 * total:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _split_at_arclength(curve: DiscreteCurve, s_cut: float) -> tuple[np.ndarray, np.ndarray]:
    pts = curve.points
    s = vertex_arclengths(curve)
    total = s[-1]
    eps = 1e-12 * total
    j = int(np.searchsorted(s, s_cut)) - 1
    j = max(0, min(j, len(pts) - 2))
    if abs(s_cut - s[j]) < eps:
        return pts[: j + 1].copy(), pts[j:].copy()
    if abs(s_cut - s[j + 1]) < eps:
        return pts[: j + 2].copy(), pts[j + 1 :].copy()
    t = (s_cut - s[j]) / (s[j + 1] - s[j])
    q = pts[j] + t * (pts[j + 1] - pts[j])
    head = np.vstack([pts[: j + 1], q])
    tail = np.vstack([q, pts[j + 1 :]])
    return head, tail


def recovery_sequence(degenerate: Network, n: int) -> Network:
    """Theta-network obtained by cutting a degenerate network and inserting
    three horizontal segments of length 1/n.

    The input must be oriented with curve 0 leaving the four-point at 60
    degrees (frame pi/3, first offset pairing); each curve is cut at its
    first horizontal-tangent point, the trailing halves are shifted left by
    1/n, and the three gaps are bridged by straight horizontal segments, so
    F grows by exactly 3/n up to round-off.
    """
    if degenerate.kind != "degenerate_theta":
        raise InvalidInputError("recovery sequences start from degenerate theta networks")
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    (j,) = degenerate.junctions
    net = translate_network(degenerate, -j.position)
    (j,) = net.junctions
    dirs = [j.frame_angle + off for off in j.offsets]
    want = [math.pi / 3.0, 2.0 * math.pi / 3.0, 5.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    mism = max(abs(float(signed_angle(unit(d), unit(w)))) for d, w in zip(dirs, want))
    if mism > 1e-6:
        raise ConstructionFailedError(
            "input must be oriented with curve 0 leaving at 60 degrees (four-point frame pi/3)"
        )

    w = np.array([-1.0 / n, 0.0])
    new_curves = []
    for c in net.curves:
        s_cut = _first_horizontal_cut(c)
        head, tail = _split_at_arclength(c, s_cut)
        pts = np.vstack([head, tail + w])
        new_curves.append(DiscreteCurve(pts, closed=False))
    bridge = DiscreteCurve(np.array([[0.0, 0.0], 0.5 * w, w]), closed=False)
    new_curves.append(bridge)

    two_thirds = 2.0 * math.pi / 3.0
    j_r = Junction(np.zeros(2), math.pi / 3.0, (0.0, 2.0 * two_thirds, two_thirds))
    j_l = Junction(w.copy(), 0.0, (two_thirds, 2.0 * two_thirds, 0.0))
    return Network("theta", tuple(new_curves), (j_r, j_l))


# ---------------------------------------------------------------------------
# injectivity audit


@dataclass(frozen=True)
class InjectivityReport:
    self_intersections: tuple[int, ...]
    pairwise_crossings: tuple[tuple[int, int, int], ...]

    @property
    def total(self) -> int:
        return sum(self.self_intersections) + sum(c for _, _, c in self.pairwise_crossings)


def _segments(curve: DiscreteCurve) -> np.ndarray:
    pts = curve.points
    if curve.closed:
        return np.stack([pts, np.roll(pts, -1, axis=0)], axis=1)
    return np.stack([pts[:-1], pts[1:]], axis=1)


def _cross(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (a[..., 1] - o[..., 1]) * (
        b[..., 0] - o[..., 0]
    )


# Boxes that would touch more grid cells than this are tested directly
# against every box they overlap, so one long edge cannot make the grid's
# incidences quadratic.
_MAX_CELLS_PER_BOX = 64


def _candidate_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``u < v`` of boxes ``[lo, hi]`` that may overlap, each pair once.

    The grid cells are the squares ``[m h, (m + 1) h)`` of a lattice through
    the origin, with ``h`` twice the median box size.  A box's cell range
    comes from monotone rounding of its corners, so two boxes that share a
    point share a cell.  Boxes over ``_MAX_CELLS_PER_BOX`` cells (long edges)
    are paired instead with every box whose box overlaps theirs.
    """
    size = 2.0 * float(np.median((hi - lo).max(axis=1)))
    reach = float(max(np.abs(lo).max(), np.abs(hi).max()))
    h = max(size, reach * 2.0**-50)  # cell indices stay below 2**50
    f_lo = np.floor(lo / h)
    f_hi = np.floor(hi / h)
    n_cells = (f_hi[:, 0] - f_lo[:, 0] + 1) * (f_hi[:, 1] - f_lo[:, 1] + 1)
    is_long = n_cells > _MAX_CELLS_PER_BOX
    grid = np.flatnonzero(~is_long)
    c_lo = f_lo[grid].astype(np.int64)
    span = (f_hi[grid, 1] - f_lo[grid, 1] + 1).astype(np.int64)
    n_cells = n_cells[grid].astype(np.int64)
    # one incidence per (box, cell) it touches
    at = np.repeat(np.arange(len(grid)), n_cells)
    local = np.arange(len(at)) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells)
    cx = c_lo[at, 0] + local // span[at]
    cy = c_lo[at, 1] + local % span[at]
    order = np.lexsort((cy, cx))
    at, cx, cy = at[order], cx[order], cy[order]
    # every incidence pairs with the later ones in its cell
    run_start = np.flatnonzero(np.r_[True, (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])])
    run_len = np.diff(np.r_[run_start, len(at)])
    later = np.repeat(run_start + run_len, run_len) - np.arange(len(at)) - 1
    first = np.repeat(np.arange(len(at)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    a, b = np.minimum(at[first], at[second]), np.maximum(at[first], at[second])
    # keep a pair only in the lowest cell of both boxes' common range
    keep = (cx[first] == np.maximum(c_lo[a, 0], c_lo[b, 0])) & (cy[first] == np.maximum(c_lo[a, 1], c_lo[b, 1]))
    us, vs = [grid[a[keep]]], [grid[b[keep]]]

    long_boxes = np.flatnonzero(is_long)
    block = max(1, 2**20 // len(lo))
    for start in range(0, len(long_boxes), block):
        rows = long_boxes[start : start + block]
        overlap = np.all((lo[None] <= hi[rows, None]) & (hi[None] >= lo[rows, None]), axis=-1)
        # a pair of long boxes is taken from its first box only
        overlap &= ~is_long | (np.arange(len(lo)) > rows[:, None])
        r, other = np.nonzero(overlap)
        us.append(np.minimum(rows[r], other))
        vs.append(np.maximum(rows[r], other))
    return np.concatenate(us), np.concatenate(vs)


def injectivity_report(network: Network) -> InjectivityReport:
    """Exact counts of transversal self-intersections and pairwise crossings.

    Two segments cross when each one's endpoints lie strictly on opposite
    sides of the other's line: the interiors meet in one point.  Touching
    (a vertex on another segment, a T-contact), collinear overlap and
    contacts at shared endpoints (junctions, drop closure points, neighbours
    along a curve) are not crossings.  Endpoints closer than ``1e-12`` times
    the network diameter count as shared.

    The segments of all curves are bucketed at once into a uniform grid
    whose square cells are twice the median segment box, and only pairs of
    segments that share a cell are tested.  A segment whose box would cover
    more than ``_MAX_CELLS_PER_BOX`` cells (a long edge) is tested instead
    against every segment whose box overlaps its own.  The boxes of crossing
    segments always overlap, so the counts are exact: the same as testing
    every pair.  For curves sampled at comparable spacing, time and memory
    are O(k) expected in the total number of segments k, plus O(k) per long
    edge.
    """
    eps = 1e-12 * max(network_diameter(network), 1e-30)
    segs = [_segments(c) for c in network.curves]
    n_curves = len(segs)
    sizes = np.array([len(s) for s in segs])
    seg = np.concatenate(segs)
    curve = np.repeat(np.arange(n_curves), sizes)
    index = np.arange(len(seg)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    closed = np.array([c.closed for c in network.curves])

    u, v = _candidate_pairs(seg.min(axis=1) - eps, seg.max(axis=1) + eps)
    cu, cv = curve[u], curve[v]
    same = cu == cv
    gap = index[v] - index[u]
    ok = ~same | (gap >= 2)
    ok &= ~(same & closed[cu] & (index[u] == 0) & (gap == sizes[cu] - 1))
    u, v, cu, cv, same = u[ok], v[ok], cu[ok], cv[ok], same[ok]

    p, q = seg[u, 0], seg[u, 1]
    r, s = seg[v, 0], seg[v, 1]
    hit = (_cross(p, q, r) * _cross(p, q, s) < 0) & (_cross(r, s, p) * _cross(r, s, q) < 0)
    for a in (p, q):
        for b in (r, s):
            hit &= np.linalg.norm(a - b, axis=-1) > eps

    self_counts = np.bincount(cu[hit & same], minlength=n_curves)
    # curve pairs (i, j), i < j, in row-major order
    ci, cj = cu[hit & ~same], cv[hit & ~same]
    slot = ci * n_curves - ci * (ci + 1) // 2 + (cj - ci - 1)
    pair_counts = np.bincount(slot, minlength=n_curves * (n_curves - 1) // 2)
    pairs = [(i, j) for i in range(n_curves) for j in range(i + 1, n_curves)]
    return InjectivityReport(
        tuple(int(c) for c in self_counts),
        tuple((i, j, int(c)) for (i, j), c in zip(pairs, pair_counts)),
    )
