"""Minimization of the penalized elastic energy over networks.

The solver works on the equal-edge tangent-angle form of a network: each
curve has m edges of length ``h = L / m`` at angles ``theta``, energy
``sum (theta_k+1 - theta_k)^2 / h + L`` (the functional of
``polyline_energy`` on that mesh) and two closure equations,
``h sum (cos, sin)(theta) = J_end - J_start``.  Junction curves start and end
with an edge along the junction frame.  The rigid motions are removed by
pinning a closed curve's first point and angle, a drop's first angle (its
closure point sits at the origin), a theta's junction midpoint and frame of
junction 0, and a degenerate theta's four-point and frame.

Each step is a Newton step on the KKT conditions (Nocedal and Wright, ch.
18): one cyclic-reduction solve (Buzbee, Golub and Nielson, SIAM J. Numer.
Anal. 7, 1970) of the per-curve tridiagonal Hessian of the Lagrangian for all
right-hand sides, O(m) work and memory in O(log m) vectorized sweeps, plus a
Schur complement over the bordering lengths, free frame, ``D = J_1 - J_0``
and closure rows.  The Hessian is shifted (Levenberg) until the step
descends; each trial point is put back onto the closure equations by
Gauss-Newton and accepted on an Armijo decrease of F, or, where the
predicted decrease is below the round-off of F, if F does not rise and
``|g|`` falls.  ``|g|`` is the norm of the gradient in the free variables
projected onto the tangent space of the closure equations, the KKT residual;
``grad_tol`` and ``converged`` read it.
``minimize_multilevel`` runs a coarse-to-fine ladder of such solves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .energy import penalized_energy
from .errors import InvalidConfigError, InvalidInputError, OptimizationError
from .geometry import DiscreteCurve, checked_energy, polyline_energy, signed_angle, unit
from .injectivity import InjectivityReport, injectivity_report
from .networks import (
    Junction,
    Network,
    ValidationReport,
    curve_clamps,
    end_slots,
    make_symmetric_double_drop,
    recovery_sequence,
    translate_network,
    validate,
)

__all__ = [
    "OptimizationConfig",
    "OptimizationResult",
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
ARMIJO_C = 1e-4  # sufficient decrease of the line search
STEP_MIN = 1e-12  # smallest step length it tries
ROUND_OFF = 1e-12  # predicted decreases of F below this share are not tested on F


@dataclass(frozen=True)
class OptimizationConfig:
    """Settings of one solver run.

    ``seed`` is only echoed into the command line's ``manifest.json``: the
    solver draws no random numbers, so the seed does not affect results.
    """

    n_per_curve: int = 200
    max_iters: int = 20000
    grad_tol: float = 1e-4
    energy_rel_tol: float = 1e-14
    seed: int = 0

    def __post_init__(self):
        for name in ("n_per_curve", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("grad_tol", "energy_rel_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < math.inf:
                raise InvalidConfigError(f"{name} must be a positive finite number, got {value!r}")
        if self.n_per_curve < 8:
            raise InvalidConfigError("n_per_curve must be at least 8")
        if self.max_iters < 0:
            raise InvalidConfigError("max_iters must be nonnegative")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one run.  ``termination`` is one of:

    * ``converged``: ``|g|`` reached ``grad_tol``;
    * ``stalled``: a step lowered F, by at most ``energy_rel_tol`` relative
      to F, while ``|g|`` stayed above ``grad_tol``;
    * ``max_iters``: the iteration budget ran out;
    * ``line_search_failed``: no step down to ``STEP_MIN`` lowered F, nor did
      the full step lower ``|g|`` where the predicted decrease of F is below
      its round-off (``ROUND_OFF``);
    * ``degeneration``: a curve shrank below ``DEGENERATION_FACTOR`` times the
      network diameter.

    ``resample_events`` is always empty, since the solver never resamples; it
    stays for readers of the older result format.
    """

    final: Network
    energy_trace: np.ndarray
    elastic_trace: np.ndarray
    length_trace: np.ndarray
    grad_norm_trace: np.ndarray
    resample_events: tuple
    constraint_violation: ValidationReport
    termination: str
    iterations: int
    config: OptimizationConfig


_INFINITE = (math.inf, math.inf, math.inf)


class _PointDof:
    """F of a network as a function of all its points, curve by curve.

    Junction curves keep the clamps of their junction frames, which stay
    fixed.  For gradient audits only: the solver does not use it.
    """

    def __init__(self, network: Network):
        self.template = network
        self.clamps = [curve_clamps(network, i) for i in range(len(network.curves))]
        self.splits = np.cumsum([c.n_points for c in network.curves])[:-1]

    def pack(self) -> np.ndarray:
        return np.concatenate([c.points.ravel() for c in self.template.curves])

    def _terms(self, x: np.ndarray, energy, **kwargs):
        sets = np.split(x.reshape(-1, 2), self.splits)
        return [energy(p, c.closed, *clamps, **kwargs) for p, c, clamps in zip(sets, self.template.curves, self.clamps)]

    def value(self, x: np.ndarray):
        terms = self._terms(x, polyline_energy)
        if any(t is None for t in terms):
            return _INFINITE
        e, l = sum(t.elastic for t in terms), sum(t.length for t in terms)
        return e + l, e, l

    def value_and_grad(self, x: np.ndarray):
        terms = self._terms(x, checked_energy, gradient=True)
        e, l = sum(t.elastic for t in terms), sum(t.length for t in terms)
        return e + l, e, l, np.concatenate([t.grad.ravel() for t in terms])


def dof_map(network: Network) -> _PointDof:
    """The discrete F of the network as a function of its points, for audits."""
    return _PointDof(network)


def discrete_gradient(network: Network) -> np.ndarray:
    """Exact gradient of the discrete F with respect to every point."""
    dof = dof_map(network)
    return dof.value_and_grad(dof.pack())[3]


# ---------------------------------------------------------------------------
# the solver


def _tridiagonal_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve symmetric tridiagonal systems, one per lane, for many right-hand sides.

    ``diag`` is (n, lanes), ``off`` (n - 1, lanes) and ``rhs`` (n, lanes, k).
    Odd-even cyclic reduction without pivoting, on the system padded with
    identity rows to 2^p - 1 rows: each level eliminates the even rows of all
    lanes at once; O(n k) work and memory in O(log n) sweeps.
    """
    n, lanes = diag.shape
    pad = 2 ** n.bit_length() - 1 - n
    d = np.concatenate([diag, np.ones((pad, lanes))])[:, :, None]
    e = np.concatenate([np.zeros((1, lanes)), off, np.zeros((pad + 1, lanes))])[:, :, None]  # e[i] couples rows i-1, i
    r = np.concatenate([rhs, np.zeros((pad,) + rhs.shape[1:])])
    levels = []
    while len(d) > 1:
        lo, hi, inv = e[0::2], e[1::2], 1.0 / d[0::2]  # the even rows' couplings and inverse pivots
        s_lo, s_hi, ri = lo * inv, hi * inv, r[0::2] * inv
        levels.append((s_lo, s_hi, ri))
        d = d[1::2] - hi[:-1] * s_hi[:-1] - lo[1:] * s_lo[1:]
        r = r[1::2] - hi[:-1] * ri[:-1] - lo[1:] * ri[1:]
        e = -lo * s_hi
    x, zero = r / d, np.zeros((1,) + r.shape[1:])
    for s_lo, s_hi, ri in reversed(levels):
        xp = np.concatenate([zero, x, zero])
        x = np.empty((2 * len(ri) - 1,) + x.shape[1:])
        x[1::2] = xp[1:-1]
        x[0::2] = ri - s_lo * xp[:-1] - s_hi * xp[1:]
    return x[:n]


class _Point(NamedTuple):
    """A feasible iterate and what a Newton step at it needs."""

    z: np.ndarray
    theta: np.ndarray  # edge angles, (curves, m)
    d: np.ndarray  # their differences, a closed curve's closing one last
    f: float
    elastic: float
    length: float
    g: np.ndarray  # dF/dz
    jac: np.ndarray  # closure Jacobian, (2 curves, len(z))
    mu: np.ndarray  # least-squares multipliers, (curves, 2)
    grad_norm: float  # |g + jac^T mu|


def _angle_profile(curve: DiscreteCurve, m: int) -> tuple[np.ndarray, float, float]:
    """The curve's edge angles on an m-edge equal-length mesh, interpolated in
    arclength between its edge midpoints; its length; its total turning if
    closed, else 0."""
    p = curve.points
    e = np.diff(np.vstack([p, p[:1]]) if curve.closed else p, axis=0)
    a = np.hypot(e[:, 0], e[:, 1])
    angle = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    total = float(a.sum())
    s = np.cumsum(a) - 0.5 * a
    wrap = 0.0
    if curve.closed:
        wrap = 2.0 * math.pi * round((angle[-1] - angle[0] + float(signed_angle(e[-1], e[0]))) / (2.0 * math.pi))
        s = np.concatenate([[s[-1] - total], s, [s[0] + total]])
        angle = np.concatenate([[angle[-1] - wrap], angle, [angle[0] + wrap]])
    return np.interp((np.arange(m) + 0.5) * (total / m), s, angle), total, wrap


class _AngleForm:
    """A network in equal-edge tangent angles: the solver's variables.

    ``z`` holds the free angles as a (curves, nf) block, the curve lengths
    and, for theta kinds, the frame angle of junction 1 and ``D``.  The other
    angles are constants, except the last one of a theta curve: the frame of
    junction 1 plus a constant.
    """

    def __init__(self, network: Network, n: int):
        self.template = network
        self.nc = nc = len(network.curves)
        self.closed = network.curves[0].closed
        self.m = m = n if self.closed else n - 1
        self.slots = end_slots(network.kind, nc)
        # every angle is free but the first (a junction end or the gauge) and
        # a junction curve's last
        self.free = slice(1, m - 1) if self.slots else slice(1, m)
        self.nf = len(range(m)[self.free])
        self.nt = nc * self.nf
        self.free_frame = network.kind in ("theta", "generalized_theta")
        self.nh = nc + 3 * self.free_frame
        self.touch = np.full(m, 2.0)  # angle differences each angle enters
        if not self.closed:
            self.touch[[0, -1]] = 1.0

        profiles = [_angle_profile(c, m) for c in network.curves]
        theta = np.array([t for t, _, _ in profiles])
        self.wrap = profiles[0][2]
        self.const = theta.copy()
        junctions = network.junctions
        for i, ((js, ss), (je, se)) in enumerate(self.slots):
            start = junctions[js].frame_angle + junctions[js].offsets[ss]
            theta[i] += 2.0 * math.pi * round((start - theta[i, 0]) / (2.0 * math.pi))
            self.const[i, 0] = start
            end = junctions[je].frame_angle + junctions[je].offsets[se] + math.pi
            end += 2.0 * math.pi * round((theta[i, -1] - end) / (2.0 * math.pi))
            self.const[i, -1] = end - junctions[je].frame_angle * self.free_frame
        header = [[length for _, length, _ in profiles]]
        if self.free_frame:
            j0, j1 = junctions
            self.center = 0.5 * (j0.position + j1.position)
            header += [[j1.frame_angle], j1.position - j0.position]
        self.z0 = np.concatenate([theta[:, self.free].ravel()] + header)

    def lengths(self, z):
        return z[self.nt : self.nt + self.nc]

    def angles(self, z):
        theta = self.const.copy()
        theta[:, self.free] = z[: self.nt].reshape(self.nc, self.nf)
        if self.free_frame:
            theta[:, -1] += z[self.nt + self.nc]
        return theta

    def differences(self, theta):
        d = np.diff(theta, axis=1)
        if self.closed:
            d = np.concatenate([d, theta[:, :1] + self.wrap - theta[:, -1:]], axis=1)
        return d

    def d_sum(self, d):
        """dS/dtheta of S = sum d^2, per curve and angle."""
        if self.closed:
            return 2.0 * (np.roll(d, 1, axis=1) - d)
        pad = np.zeros((self.nc, 1))
        return 2.0 * (np.concatenate([pad, d], axis=1) - np.concatenate([d, pad], axis=1))

    def energy(self, z, theta=None) -> tuple[float, float, float]:
        """(F, E, L) at z (angles theta), infinite where a length is not positive or an edge turns by pi."""
        return self._totals(self.lengths(z), self.differences(self.angles(z) if theta is None else theta))

    def _totals(self, lengths, d) -> tuple[float, float, float]:
        if not (lengths.min() > 0.0 and np.abs(d).max() < math.pi):
            return _INFINITE
        elastic, length = float(np.sum(self.m * np.sum(d * d, axis=1) / lengths)), float(lengths.sum())
        return elastic + length, elastic, length

    def closure(self, z, theta):
        c = self.lengths(z)[:, None] / self.m * np.stack([np.cos(theta).sum(1), np.sin(theta).sum(1)], 1)
        return c - z[self.nt + self.nc + 1 :] if self.free_frame else c

    def jacobian(self, z, theta):
        nc, nf, nt = self.nc, self.nf, self.nt
        h = self.lengths(z) / self.m
        cos, sin = np.cos(theta), np.sin(theta)
        lanes = np.arange(nc)
        block = np.zeros((nc, 2, nc, nf))
        block[lanes, 0, lanes] = -h[:, None] * sin[:, self.free]
        block[lanes, 1, lanes] = h[:, None] * cos[:, self.free]
        head = np.zeros((nc, 2, self.nh))
        head[lanes, :, lanes] = np.stack([cos.sum(1), sin.sum(1)], 1) / self.m
        if self.free_frame:
            head[:, :, nc] = h[:, None] * np.stack([-sin[:, -1], cos[:, -1]], 1)
            head[:, :, nc + 1 :] = -np.eye(2)
        return np.concatenate([block.reshape(nc, 2, nt), head], axis=2).reshape(2 * nc, nt + self.nh)

    def restore(self, z):
        """Gauss-Newton (least-change steps) onto the closure equations: (z, its angles), or None.

        The lengths stay: a curve far from closing would otherwise be closed
        mostly by shrinking it towards a point.
        """
        tol = 1e-15 * max(1.0, float(np.abs(self.lengths(z)).sum()))
        for _ in range(12):
            theta = self.angles(z)
            c = self.closure(z, theta).ravel()
            defect = float(np.max(np.abs(c)))
            if not (self.lengths(z).min() > 0.0 and math.isfinite(defect)):
                return None
            if defect <= tol:
                return z, theta
            jac = self.jacobian(z, theta)
            jac[:, self.nt : self.nt + self.nc] = 0.0
            try:
                z = z - jac.T @ np.linalg.solve(jac @ jac.T, c)
            except np.linalg.LinAlgError:
                return None
        return (z, self.angles(z)) if defect <= 1e3 * tol else None

    def evaluate(self, z, theta=None) -> _Point:
        theta = self.angles(z) if theta is None else theta
        d = self.differences(theta)
        lengths = self.lengths(z)
        w = self.m / lengths
        s = np.sum(d * d, axis=1)
        g_theta = w[:, None] * self.d_sum(d)
        header = [1.0 - w * s / lengths]
        if self.free_frame:
            header += [[g_theta[:, -1].sum()], np.zeros(2)]
        g = np.concatenate([g_theta[:, self.free].ravel()] + header)
        jac = self.jacobian(z, theta)
        mu = -np.linalg.solve(jac @ jac.T, jac @ g)
        grad_norm = float(np.linalg.norm(g + jac.T @ mu))
        return _Point(z, theta, d, *self._totals(lengths, d), g, jac, mu.reshape(-1, 2), grad_norm)

    def step(self, p: _Point, shift: float) -> np.ndarray:
        """Newton-KKT step at p with the Hessian shifted by ``shift``."""
        nc, nf, nt, nh = self.nc, self.nf, self.nt, self.nh
        lengths = self.lengths(p.z)
        w = self.m / lengths
        cos, sin = np.cos(p.theta), np.sin(p.theta)
        # Hessian of the Lagrangian: tridiagonal in each curve's angles, and
        # the angle-length column
        diag = 2.0 * w[:, None] * self.touch - (p.mu[:, :1] * cos + p.mu[:, 1:] * sin) / w[:, None]
        cross = -(w / lengths)[:, None] * self.d_sum(p.d) + (p.mu[:, 1:] * cos - p.mu[:, :1] * sin) / self.m
        # border columns: lengths, [free frame, D], closure rows
        nb = nh + 2 * nc
        lanes = np.arange(nc)
        border = np.zeros((nf, nc, nb))
        border[:, lanes, lanes] = cross[:, self.free].T
        border[:, :, nh:] = p.jac[:, :nt].reshape(2 * nc, nc, nf).transpose(2, 1, 0)
        corner = np.zeros((nb, nb))
        corner[lanes, lanes] = 2.0 * w * np.sum(p.d * p.d, axis=1) / lengths**2 + shift
        if self.free_frame:
            border[-1, :, nc] = -2.0 * w
            corner[nc, nc] = diag[:, -1].sum() + shift
            corner[lanes, nc] = corner[nc, lanes] = cross[:, -1]
        corner[nh:, :nh] = p.jac[:, nt:]
        corner[:nh, nh:] = p.jac[:, nt:].T
        rhs = np.concatenate([-p.g[:nt].reshape(nc, nf).T[:, :, None], border], axis=2)
        solved = _tridiagonal_solve(diag[:, self.free].T + shift, np.broadcast_to(-2.0 * w, (nf - 1, nc)), rhs)
        y, ys, bt = solved[:, :, 0].ravel(), solved[:, :, 1:].reshape(nt, nb), border.reshape(nt, nb)
        x_border = np.linalg.solve(corner - bt.T @ ys, np.concatenate([-p.g[nt:], np.zeros(2 * nc)]) - bt.T @ y)
        # the free angles are solved lane by lane, z holds them curve by curve
        return np.concatenate([(y - ys @ x_border).reshape(nf, nc).T.ravel(), x_border[:nh]])

    def line_search(self, p: _Point) -> _Point | None:
        """The next feasible iterate, on an Armijo decrease of F, or None."""
        scale = 2.0 * float(np.max(self.m / self.lengths(p.z)))
        for shift in [0.0] + [scale * 10.0**k for k in range(-8, 9)]:
            dz = self.step(p, shift)
            slope = float(p.g @ dz)
            if slope < 0.0:  # False for NaN too
                break
        else:
            return None
        t = 1.0
        while t >= STEP_MIN:
            restored = self.restore(p.z + t * dz)
            if restored is not None:
                f = self.energy(*restored)[0]
                if f < p.f and f <= p.f + ARMIJO_C * t * slope:
                    return self.evaluate(*restored)
                # a decrease below the round-off of F cannot show: judge the
                # full step by |g| instead
                if t == 1.0 and f <= p.f and -slope <= ROUND_OFF * p.f:
                    if (q := self.evaluate(*restored)).grad_norm < p.grad_norm:
                        return q
            t *= 0.5
        return None

    def frames(self, z) -> list[tuple[np.ndarray, float]]:
        """The position and frame angle of each junction at z."""
        junctions = self.template.junctions
        if not self.free_frame:
            return [(j.position, j.frame_angle) for j in junctions]
        half = 0.5 * z[self.nt + self.nc + 1 :]
        return [(self.center - half, junctions[0].frame_angle), (self.center + half, float(z[self.nt + self.nc]))]

    def points(self, z) -> list[np.ndarray]:
        """Each curve's points at z.  Junction curves run from junction to
        junction, their end edges built from the junction along its frame ray."""
        theta = self.angles(z)
        h = self.lengths(z) / self.m
        steps = h[:, None, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        if not self.slots:
            origin = self.template.curves[0].points[0]
            p = origin + np.concatenate([np.zeros((1, 2)), np.cumsum(steps[0], axis=0)])
            if not self.closed:
                p[-1] = origin
            return [p[:-1] if self.closed else p]
        frames, offsets = self.frames(z), [j.offsets for j in self.template.junctions]
        curves = []
        for i, ((js, ss), (je, se)) in enumerate(self.slots):
            (start, a), (end, b) = frames[js], frames[je]
            p = np.empty((self.m + 1, 2))
            p[0] = start
            p[1] = start + h[i] * unit(a + offsets[js][ss])
            p[2:-2] = p[1] + np.cumsum(steps[i, 1:-2], axis=0)
            p[-2] = end + h[i] * unit(b + offsets[je][se])
            p[-1] = end
            curves.append(p)
        return curves

    def network(self, z, points=None) -> Network:
        """The network at z, built from its ``points(z)`` if given."""
        points = self.points(z) if points is None else points
        curves = tuple(DiscreteCurve(p, self.closed) for p in points)
        junctions = tuple(Junction(pos, a, j.offsets) for (pos, a), j in zip(self.frames(z), self.template.junctions))
        return Network(self.template.kind, curves, junctions, self.template.prescribed_angles)


def _pinned(network: Network) -> Network:
    """A drop's closure point or the four-point moved to the origin."""
    if network.kind == "drop":
        return Network("drop", (DiscreteCurve(network.curves[0].points - network.curves[0].points[0]),))
    if network.kind == "degenerate_theta":
        return translate_network(network, -network.junctions[0].position)
    return network


def _result(final: Network, traces, termination: str, iterations: int, config: OptimizationConfig) -> OptimizationResult:
    """The result ending at ``final``; ``traces`` are the F, E, L and ``|g|`` traces."""
    traces = (np.asarray(t, dtype=float) for t in traces)
    return OptimizationResult(final, *traces, (), validate(final, tol_ang=5e-2), termination, iterations, config)


def minimize(network: Network, config: OptimizationConfig | None = None) -> OptimizationResult:
    """Newton-KKT descent of F over the network's equal-edge tangent-angle form.

    A double drop is solved as its first lobe plus that lobe's point
    reflection, so it is symmetric by construction and F and ``|g|`` are twice
    the lobe's; the lobe is solved to half of ``grad_tol``.
    """
    config = config or OptimizationConfig()
    if network.kind == "double_drop":
        lobe = minimize(Network("drop", (network.curves[0],)), replace(config, grad_tol=0.5 * config.grad_tol))
        traces = (lobe.energy_trace, lobe.elastic_trace, lobe.length_trace, lobe.grad_norm_trace)
        return _result(
            make_symmetric_double_drop(lobe.final), [2.0 * t for t in traces], lobe.termination, lobe.iterations, config
        )
    if config.max_iters == 0:
        report = penalized_energy(network, 1.0)
        return _result(network, [[report.penalized], [report.elastic], [report.length], [math.nan]], "max_iters", 0, config)
    form = _AngleForm(_pinned(network), config.n_per_curve)
    restored = form.restore(form.z0)
    if restored is None or not math.isfinite(form.energy(*restored)[0]):
        raise OptimizationError(
            f"the network has no closed equal-edge form at {config.n_per_curve} points per curve"
            " whose edges turn by less than pi"
        )
    p = form.evaluate(*restored)
    trace = [(p.f, p.elastic, p.length, p.grad_norm)]
    it, stalled = 0, False
    while True:
        # a connected network's bounding-box diagonal is at most sqrt(2) times its length:
        # only a curve under 2 DEGENERATION_FACTOR of the total can be degenerate
        lengths = form.lengths(p.z)
        points = form.points(p.z) if lengths.min() < 2.0 * DEGENERATION_FACTOR * lengths.sum() else None
        diameter = 0.0 if points is None else float(np.linalg.norm(np.ptp(np.vstack(points), axis=0)))
        if lengths.min() < DEGENERATION_FACTOR * diameter:
            termination = "degeneration"
        elif p.grad_norm <= config.grad_tol:
            termination = "converged"
        elif stalled:
            termination = "stalled"
        elif it >= config.max_iters:
            termination = "max_iters"
        elif (q := form.line_search(p)) is None:
            termination = "line_search_failed"
        else:
            it += 1
            trace.append((q.f, q.elastic, q.length, q.grad_norm))
            stalled = 0.0 < p.f - q.f <= config.energy_rel_tol * max(abs(q.f), 1.0)
            p = q
            continue
        return _result(form.network(p.z, points), zip(*trace), termination, it, config)


def _ladder(n_target: int, coarsest: int = 40) -> list[int]:
    """Points per curve of each rung: n_target halved, rounding up, while the half is at least ``coarsest``."""
    levels = [n_target]
    while (half := (levels[-1] + 1) // 2) >= coarsest:
        levels.append(half)
    return levels[::-1]


def minimize_multilevel(
    network: Network, config: OptimizationConfig | None = None
) -> tuple[OptimizationResult, tuple[OptimizationResult, ...]]:
    """Coarse-to-fine ladder of minimize() runs; returns (final, all levels)."""
    config = config or OptimizationConfig()
    results = []
    for n in _ladder(config.n_per_curve):
        results.append(minimize(results[-1].final if results else network, replace(config, n_per_curve=n)))
    return results[-1], tuple(results)


def minimize_symmetric_double_drop(
    initial: Network,
    config: OptimizationConfig | None = None,
    multilevel: bool = True,
) -> OptimizationResult:
    """Minimize F over symmetric double drops from a drop or a double drop.

    A drop is first paired with its point reflection; the double drop is then
    solved by ``minimize_multilevel``, or by one ``minimize`` call without
    ``multilevel``.
    """
    if initial.kind == "drop":
        initial = make_symmetric_double_drop(initial)
    elif initial.kind != "double_drop":
        raise InvalidInputError("expected a drop or double_drop network")
    return minimize_multilevel(initial, config)[0] if multilevel else minimize(initial, config)
