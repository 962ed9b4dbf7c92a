"""Minimization of the penalized elastic energy over networks.

The solver works on the equal-edge tangent-angle form of a network: each
curve has m edges of length ``h = L / m`` at angles ``theta``, energy
``sum (theta_k+1 - theta_k)^2 / h + L`` (the functional of
``polyline_energy`` on that mesh) and two closure equations,
``h sum (cos, sin)(theta) = J_end - J_start``.  A closed curve's row of
angles ends with one more, its first plus its total turning, which enters the
energy but not the closure.  Junction curves start and end with an edge along
the junction frame.  One gauge removes the rigid motions of every kind: the
gauge point, junction 0 or else the first curve's first point, and the first
curve's first angle stay where the input has them.  Every curve runs from the
gauge point to one shared end: junction 1, at ``D`` from junction 0, for a
theta, and the gauge point again for every other kind.

Each step is a Newton step on the KKT conditions (Nocedal and Wright, ch.
18): one cyclic-reduction solve (Buzbee, Golub and Nielson, SIAM J. Numer.
Anal. 7, 1970) of the per-curve tridiagonal Hessian of the Lagrangian for all
right-hand sides, O(m) work and memory in O(log m) vectorized sweeps down to
at most 31 rows that one batched dense solve finishes, plus a Schur
complement over the bordering lengths, free frame, ``D = J_1 - J_0`` and
closure rows.  An iterate's cos and sin come from one pass, the last of its
restoration, shared by the closure, its Jacobian, the step and the points.  The Hessian
is shifted (Levenberg) until the step descends and the factorization counts
no negative eigenvalue of it reduced to the closure equations' tangent space,
so no step heads for a saddle; each trial point is put back onto the closure equations by
Gauss-Newton and evaluated there once.  A step whose predicted decrease exceeds the round-off
of F is halved until F falls by Armijo's rule; any other is taken whole, if ``|g|`` falls and F
rises by at most that round-off.  ``|g|`` is the norm of the gradient in the free variables
projected onto the tangent space of the closure equations, the KKT residual;
``grad_tol`` and ``converged`` read it.
``minimize_multilevel`` is the same single solve, as one level.
"""

from __future__ import annotations

import itertools
import math
import numbers
import reprlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .energy import penalized_energy
from .errors import InvalidConfigError, InvalidInputError, OptimizationError
from .geometry import DiscreteCurve, checked_energy, points_diameter, polyline_energy, signed_angle
from .injectivity import InjectivityReport, injectivity_report
from .networks import (
    Junction,
    Network,
    ValidationReport,
    _is_finite_number,
    end_slots,
    make_symmetric_double_drop,
    recovery_sequence,
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
ROUND_OFF = 1e-12  # round-off of F as a share of F: a step predicted to change F less is judged by |g|


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
                raise InvalidConfigError(f"{name} must be an integer, got {reprlib.repr(value)}")
        for name in ("grad_tol", "energy_rel_tol"):
            value = getattr(self, name)
            if not (_is_finite_number(value) and value > 0.0):  # an int beyond the float range is not finite
                raise InvalidConfigError(f"{name} must be a positive finite number, got {reprlib.repr(value)}")
        if self.n_per_curve < 8:
            raise InvalidConfigError("n_per_curve must be at least 8")
        if self.max_iters < 0:
            raise InvalidConfigError("max_iters must be nonnegative")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one run.  ``termination`` is one of:

    * ``converged``: ``|g|`` reached ``grad_tol`` at a point whose Hessian, reduced to the closure
      equations' tangent space, has no negative eigenvalue;
    * ``stalled``: a step accepted on Armijo's rule lowered F by at most
      ``energy_rel_tol`` relative to F, at a point that had not converged;
    * ``max_iters``: the iteration budget ran out;
    * ``line_search_failed``: no step down to ``STEP_MIN`` met Armijo's rule, or, below F's round-off
      (``ROUND_OFF``), the full step did not lower ``|g|`` or raised F by more than ``ROUND_OFF`` F;
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


class _PointDof:
    """F of a network as a function of all its points, curve by curve.

    Junction curves keep the clamps of their junction frames, which stay
    fixed.  For gradient audits only: the solver does not use it.
    """

    def __init__(self, network: Network):
        self.template = network
        self.clamps = network.clamps
        self.splits = np.cumsum([c.n_points for c in network.curves])[:-1]

    def pack(self) -> np.ndarray:
        return np.concatenate([c.points.ravel() for c in self.template.curves])

    def _terms(self, x: np.ndarray, energy, **kwargs):
        sets = np.split(x.reshape(-1, 2), self.splits)
        return [energy(p, c.closed, *clamps, **kwargs) for p, c, clamps in zip(sets, self.template.curves, self.clamps)]

    def value(self, x: np.ndarray):
        terms = self._terms(x, polyline_energy)
        if any(t is None for t in terms):
            return math.inf, math.inf, math.inf
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


def _tridiagonal_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve symmetric tridiagonal systems, one per lane, for many right-hand sides.

    ``diag`` is (n, lanes), ``off`` (n - 1, lanes) and ``rhs`` (n, lanes, k).
    Odd-even cyclic reduction without pivoting, on the system padded with identity
    rows to ``(b + 1) 2^p - 1`` rows: each of p levels eliminates the even rows of all
    lanes at once (a Schur complement), and one batched dense solve finishes the
    b <= 31 rows left; O(n k) work and memory in O(log n) sweeps.  Also returns the count of
    non-positive pivots, the eliminated rows' and the LDL^T ones of the b rows left: the
    systems' negative eigenvalues summed over lanes (Sylvester's law of inertia).
    """
    n, lanes = diag.shape
    block = 1 << (n // 32).bit_length()  # 2^levels: the fewest levels that leave at most 31 rows
    size = -(-(n + 1) // block) * block - 1
    d, e, r = np.ones((size, lanes, 1)), np.zeros((size + 1, lanes, 1)), np.zeros((size,) + rhs.shape[1:])
    d[:n, :, 0], e[1:n, :, 0], r[:n] = diag, off, rhs  # e[i] couples rows i-1, i
    levels, negative = [], 0
    while len(d) > 31:
        lo, hi, inv = e[0::2], e[1::2], 1.0 / d[0::2]  # the even rows' couplings and inverse pivots
        negative += int(np.count_nonzero(~(d[0::2] > 0.0)))
        s_lo, s_hi, ri = lo * inv, hi * inv, r[0::2] * inv
        levels.append((s_lo, s_hi, ri))
        d = d[1::2] - hi[:-1] * s_hi[:-1] - lo[1:] * s_lo[1:]
        r = r[1::2] - hi[:-1] * ri[:-1] - lo[1:] * ri[1:]
        e = -lo * s_hi
    for row, couplings in zip(d[:, :, 0].T.tolist(), (e[:-1, :, 0] ** 2).T.tolist()):
        pivot = 1.0
        for a, b in zip(row, couplings):  # a zero pivot is taken as the least negative float, as LAPACK's dstebz does
            pivot = a - b / (pivot or -5e-324)
            negative += not pivot > 0.0
    i, base = np.arange(len(d)), np.zeros((lanes, len(d), len(d)))  # the rows left, dense, lane by lane
    base[:, i, i], base[:, i[1:], i[:-1]], base[:, i[:-1], i[1:]] = d[:, :, 0].T, e[1:-1, :, 0].T, e[1:-1, :, 0].T
    x, zero = np.linalg.solve(base, r.transpose(1, 0, 2)).transpose(1, 0, 2), np.zeros((1,) + r.shape[1:])
    for s_lo, s_hi, ri in reversed(levels):
        xp = np.concatenate([zero, x, zero])
        x = np.empty((2 * len(ri) - 1,) + x.shape[1:])
        x[1::2] = xp[1:-1]
        x[0::2] = ri - s_lo * xp[:-1] - s_hi * xp[1:]
    return x[:n], negative


class _Point(NamedTuple):
    """A feasible iterate and what a Newton step at it needs."""

    z: np.ndarray
    cs: np.ndarray  # cos and sin of the rows of angles, (2, curves, m), (2, 1, m + 1) for a closed curve
    ds: np.ndarray  # dS/dtheta of S = sum d^2, d the differences along each row
    s: np.ndarray  # S per row
    f: float
    elastic: float
    length: float
    g: np.ndarray  # dF/dz
    jac: np.ndarray  # closure Jacobian, (2 curves, len(z))
    mu: np.ndarray  # least-squares multipliers, (curves, 2)
    grad_norm: float  # |g + jac^T mu|


def _angle_profile(curve: DiscreteCurve, m: int) -> tuple[np.ndarray, float]:
    """The curve's row of angles, its m edge angles on an equal-length mesh
    interpolated in arclength between its edge midpoints (for a closed curve
    then the first plus its total turning), and its length."""
    p = curve.points
    e = np.diff(np.vstack([p, p[:1]]) if curve.closed else p, axis=0)
    a = np.hypot(e[:, 0], e[:, 1])
    angle = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    total = float(a.sum())
    s = np.cumsum(a) - 0.5 * a
    if curve.closed:
        wrap = 2.0 * math.pi * round((angle[-1] - angle[0] + float(signed_angle(e[-1], e[0]))) / (2.0 * math.pi))
        s = np.concatenate([[s[-1] - total], s, [s[0] + total]])
        angle = np.concatenate([[angle[-1] - wrap], angle, [angle[0] + wrap]])
    row = np.interp((np.arange(m) + 0.5) * (total / m), s, angle)
    return (np.append(row, row[0] + wrap) if curve.closed else row), total


class _AngleForm:
    """A network in equal-edge tangent angles: the solver's variables.

    Each curve is one row of angles: its m edge angles and, for a closed
    curve, a last column that is no edge, the first angle plus the total
    turning.  F is ``m / L sum(differences along the row)^2 + L`` per row.
    ``z`` holds the free angles as a (curves, nf) block, the curve lengths
    and, for theta kinds, the frame angle of junction 1 and ``D``.  A row's
    first and last angles are constants, but a drop's last is free and a
    theta curve's last is the frame of junction 1 plus a constant.
    """

    def __init__(self, network: Network, n: int):
        self.template = network
        self.nc = nc = len(network.curves)
        self.n = n
        self.m = m = n if network.curves[0].closed else n - 1
        self.slots = end_slots(network.kind, nc)
        profiles = [_angle_profile(c, m) for c in network.curves]
        theta = np.array([row for row, _ in profiles])
        self.free = slice(1, None if network.kind == "drop" else -1)
        self.nf = len(range(theta.shape[1])[self.free])
        self.nt = nc * self.nf
        self.free_frame = network.kind in ("theta", "generalized_theta")
        self.nh = nc + 3 * self.free_frame
        self.touch = np.full(theta.shape[1], 2.0)  # angle differences each angle enters
        self.touch[[0, -1]] = 1.0
        self.const = theta.copy()
        junctions = network.junctions
        for i, ((js, ss), (je, se)) in enumerate(self.slots):
            start = junctions[js].frame_angle + junctions[js].offsets[ss]
            theta[i] += 2.0 * math.pi * round((start - theta[i, 0]) / (2.0 * math.pi))
            self.const[i, 0] = start
            end = junctions[je].frame_angle + junctions[je].offsets[se] + math.pi
            end += 2.0 * math.pi * round((theta[i, -1] - end) / (2.0 * math.pi))
            self.const[i, -1] = end - junctions[je].frame_angle * self.free_frame
        header = [[length for _, length in profiles]]
        if self.free_frame:
            j0, j1 = junctions
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

    def trig(self, theta):
        """cos and sin at angles theta, (2, curves, columns), and their sums over each row's edges, (curves, 2)."""
        cs = np.empty((2,) + theta.shape)
        np.cos(theta, out=cs[0]), np.sin(theta, out=cs[1])
        return cs, np.add.reduce(cs[:, :, : self.m], axis=2).T

    def closure(self, z, sums):
        c = self.lengths(z)[:, None] / self.m * sums
        return c - z[self.nt + self.nc + 1 :] if self.free_frame else c

    def jacobian(self, z, cs, sums):
        nc, nf, nt = self.nc, self.nf, self.nt
        h, (cos, sin) = self.lengths(z) / self.m, cs
        jac = np.zeros((nc, 2, nt + self.nh))
        for i in range(nc):  # curve i's rows: its free angles and its length
            jac[i, 0, i * nf : (i + 1) * nf] = -h[i] * sin[i, self.free]
            jac[i, 1, i * nf : (i + 1) * nf] = h[i] * cos[i, self.free]
            jac[i, :, nt + i] = sums[i] / self.m
        if self.free_frame:
            jac[:, :, nt + nc] = h[:, None] * np.stack([-sin[:, -1], cos[:, -1]], 1)
            jac[:, :, nt + nc + 1 :] = -np.eye(2)
        return jac.reshape(2 * nc, nt + self.nh)

    def restore(self, z) -> _Point | None:
        """The point that Gauss-Newton (least-change steps) reaches on the closure equations from z, ``evaluate``d,
        or None: the line search judges a trial by the F and ``|g|`` of this point, the one it would keep.

        A point is accepted on its own closure defect: at most tol, or 1e3 tol after the 12th and last update.
        The lengths stay: a curve far from closing would otherwise be closed mostly by shrinking it towards a point.
        """
        if not self.lengths(z).min() > 0.0:
            return None
        tol = 1e-15 * max(1.0, float(self.lengths(z).sum()))
        for updates_left in range(12, -1, -1):
            theta = self.angles(z)
            cs, sums = self.trig(theta)
            c = self.closure(z, sums).ravel()
            defect = float(np.max(np.abs(c)))
            if defect <= (tol if updates_left else 1e3 * tol):
                return self.evaluate(z, theta, cs, sums)
            if not (updates_left and math.isfinite(defect)):
                return None
            jac = self.jacobian(z, cs, sums)
            jac[:, self.nt : self.nt + self.nc] = 0.0
            try:
                z = z - jac.T @ np.linalg.solve(jac @ jac.T, c)
            except np.linalg.LinAlgError:
                return None

    def evaluate(self, z, theta, cs, sums) -> _Point:
        """The point at z (angles theta), F infinite where an edge turns by pi."""
        d = np.diff(theta, axis=1)
        lengths = self.lengths(z)
        w = self.m / lengths
        s, pad = np.sum(d * d, axis=1), np.zeros((self.nc, 1))
        ds = 2.0 * (np.concatenate([pad, d], axis=1) - np.concatenate([d, pad], axis=1))  # dS/dtheta of S = sum d^2
        g_theta = w[:, None] * ds
        header = [1.0 - w * s / lengths]
        if self.free_frame:
            header += [[g_theta[:, -1].sum()], np.zeros(2)]
        g = np.concatenate([g_theta[:, self.free].ravel()] + header)
        jac = self.jacobian(z, cs, sums)
        mu = -np.linalg.solve(jac @ jac.T, jac @ g)
        grad_norm = float(np.linalg.norm(g + jac.T @ mu))
        elastic, length = float(np.sum(self.m * s / lengths)), float(lengths.sum())  # m s / L: w s rounds differently
        f = elastic + length if np.abs(d).max() < math.pi else math.inf
        return _Point(z, cs, ds, s, f, elastic, length, g, jac, mu.reshape(-1, 2), grad_norm)

    def step(self, p: _Point, shift: float) -> tuple[np.ndarray, int]:
        """Newton-KKT step at p with the Hessian shifted by ``shift``, and the negative eigenvalues of that Hessian
        reduced to the closure equations' tangent space: the KKT matrix's, the tridiagonal blocks' plus the Schur
        complement's (Haynsworth), less one per closure row (Gould, Math. Program. 32, 1985)."""
        nc, nf, nt, nh = self.nc, self.nf, self.nt, self.nh
        lengths = self.lengths(p.z)
        w = self.m / lengths
        cos, sin = p.cs
        # Hessian of the Lagrangian: tridiagonal in each curve's angles, and
        # the angle-length column
        diag = 2.0 * w[:, None] * self.touch - (p.mu[:, :1] * cos + p.mu[:, 1:] * sin) / w[:, None]
        cross = -(w / lengths)[:, None] * p.ds + (p.mu[:, 1:] * cos - p.mu[:, :1] * sin) / self.m
        # border columns: lengths, [free frame, D], closure rows
        nb = nh + 2 * nc
        lanes = np.arange(nc)
        border = np.zeros((nf, nc, nb))
        border[:, lanes, lanes] = cross[:, self.free].T
        border[:, :, nh:] = p.jac[:, :nt].reshape(2 * nc, nc, nf).transpose(2, 1, 0)
        corner = np.zeros((nb, nb))
        corner[lanes, lanes] = 2.0 * w * p.s / lengths**2 + shift
        if self.free_frame:
            border[-1, :, nc] = -2.0 * w
            corner[nc, nc] = diag[:, -1].sum() + shift
            corner[lanes, nc] = corner[nc, lanes] = cross[:, -1]
        corner[nh:, :nh] = p.jac[:, nt:]
        corner[:nh, nh:] = p.jac[:, nt:].T
        rhs = np.concatenate([-p.g[:nt].reshape(nc, nf).T[:, :, None], border], axis=2)
        solved, negative = _tridiagonal_solve(diag[:, self.free].T + shift, np.broadcast_to(-2.0 * w, (nf - 1, nc)), rhs)
        y, ys, bt = solved[:, :, 0].ravel(), solved[:, :, 1:].reshape(nt, nb), border.reshape(nt, nb)
        schur = corner - bt.T @ ys
        x_border = np.linalg.solve(schur, np.concatenate([-p.g[nt:], np.zeros(2 * nc)]) - bt.T @ y)
        negative += int(np.count_nonzero(np.linalg.eigvalsh(schur) < 0.0)) - 2 * nc
        # the free angles are solved lane by lane, z holds them curve by curve
        return np.concatenate([(y - ys @ x_border).reshape(nf, nc).T.ravel(), x_border[:nh]]), negative

    def line_search(self, p: _Point) -> tuple[_Point, bool] | None:
        """The next feasible iterate and whether it was accepted on F, or None.  The step takes the first shift that
        leaves no negative reduced eigenvalue and descends (Waechter and Biegler, Math. Program. 106, 2006).  Where its
        predicted decrease is at most ``ROUND_OFF`` F, only the full step is tried, kept if ``|g|`` falls and F rises
        by at most that (Hager and Zhang, SIAM J. Optim. 16, 2005); elsewhere, Armijo backtracking to ``STEP_MIN``."""
        shifts = (2.0 * float(np.max(self.m / self.lengths(p.z))) * 10.0**k for k in range(-8, 9))
        for shift in itertools.chain([0.0], shifts):  # the Levenberg scale only once a shift is tried
            dz, negative = self.step(p, shift)
            slope = float(p.g @ dz)
            if negative == 0 and slope < 0.0:  # False for NaN too
                break
        else:
            return None
        if -slope <= ROUND_OFF * p.f:
            q = self.restore(p.z + dz)
            return (q, False) if q is not None and q.f <= p.f + ROUND_OFF * p.f and q.grad_norm < p.grad_norm else None
        t = 1.0
        while t >= STEP_MIN:
            if (q := self.restore(p.z + t * dz)) is not None and q.f < p.f and q.f <= p.f + ARMIJO_C * t * slope:
                return q, True
            t *= 0.5
        return None

    def ends(self, z) -> tuple[np.ndarray, np.ndarray]:
        """The start and end that all curves share at z: the gauge point, and junction 1 for a theta, else the gauge
        point again."""
        t = self.template
        start = t.junctions[0].position if t.junctions else t.curves[0].points[0]
        return start, (start + z[self.nt + self.nc + 1 :] if self.free_frame else start)

    def points(self, p: _Point) -> list[np.ndarray]:
        """Each curve's points at p: one cumulative sum of its edges, from the
        cos and sin p carries, from the shared start, with the last point set
        on the shared end.  A junction curve's last edge is laid back from its
        end, so it stays on the frame ray."""
        h = self.lengths(p.z) / self.m
        steps = h[:, None, None] * np.moveaxis(p.cs[:, :, : self.m], 0, -1)
        start, end = self.ends(p.z)
        x = start + np.concatenate([np.zeros((self.nc, 1, 2)), np.cumsum(steps, axis=1)], axis=1)
        x[:, -1] = end
        if self.slots:
            x[:, -2] = end - steps[:, -1]
        return list(x[:, : self.n])

    def network(self, p: _Point, points=None) -> Network:
        """The network at p, built from its ``points(p)`` if given.  Only a theta's junction 1 moves."""
        t = self.template
        points = self.points(p) if points is None else points
        curves = tuple(DiscreteCurve(x, c.closed) for x, c in zip(points, t.curves))
        junctions = t.junctions
        if self.free_frame:
            junctions = (junctions[0], Junction(self.ends(p.z)[1], p.z[self.nt + self.nc], junctions[1].offsets))
        return Network(t.kind, curves, junctions, t.prescribed_angles)


def _result(final: Network, traces, termination: str, iterations: int, config: OptimizationConfig) -> OptimizationResult:
    """The result ending at ``final``; ``traces`` are the F, E, L and ``|g|`` traces."""
    traces = (np.asarray(t, dtype=float) for t in traces)
    return OptimizationResult(final, *traces, (), validate(final, tol_ang=5e-2), termination, iterations, config)


def minimize(network: Network, config: OptimizationConfig | None = None) -> OptimizationResult:
    """Newton-KKT descent of F over the network's equal-edge tangent-angle form.

    A double drop is solved as its first lobe plus that lobe's point
    reflection through the four-point, which stays where the input has it, so
    it is symmetric by construction and F and ``|g|`` are twice the lobe's; the
    lobe is solved to half of ``grad_tol``.  At ``max_iters`` 0 every network,
    a double drop included, is returned unchanged.
    """
    config = config or OptimizationConfig()
    if config.max_iters == 0:
        report = penalized_energy(network, 1.0)
        return _result(network, [[report.penalized], [report.elastic], [report.length], [math.nan]], "max_iters", 0, config)
    if network.kind == "double_drop":
        lobe = minimize(Network("drop", (network.curves[0],)), replace(config, grad_tol=0.5 * config.grad_tol))
        traces = (lobe.energy_trace, lobe.elastic_trace, lobe.length_trace, lobe.grad_norm_trace)
        pair = make_symmetric_double_drop(lobe.final)
        return _result(pair, [2.0 * t for t in traces], lobe.termination, lobe.iterations, config)
    form = _AngleForm(network, config.n_per_curve)
    p = form.restore(form.z0)
    if p is None or not math.isfinite(p.f):
        raise OptimizationError(
            f"the network has no closed equal-edge form at {config.n_per_curve} points per curve"
            " whose edges turn by less than pi"
        )
    trace = [(p.f, p.elastic, p.length, p.grad_norm)]
    it, stalled = 0, False
    while True:
        # a connected network's bounding-box diagonal is at most sqrt(2) times its length:
        # only a curve under 2 DEGENERATION_FACTOR of the total can be degenerate
        lengths = form.lengths(p.z)
        points = form.points(p) if lengths.min() < 2.0 * DEGENERATION_FACTOR * lengths.sum() else None
        diameter = 0.0 if points is None else points_diameter(points)
        if lengths.min() < DEGENERATION_FACTOR * diameter:
            termination = "degeneration"
        elif p.grad_norm <= config.grad_tol and form.step(p, 0.0)[1] == 0:
            termination = "converged"
        elif stalled:
            termination = "stalled"
        elif it >= config.max_iters:
            termination = "max_iters"
        elif (step := form.line_search(p)) is None:
            termination = "line_search_failed"
        else:
            q, on_f = step
            it += 1
            trace.append((q.f, q.elastic, q.length, q.grad_norm))
            stalled = on_f and 0.0 < p.f - q.f <= config.energy_rel_tol * max(abs(q.f), 1.0)
            p = q
            continue
        return _result(form.network(p, points), zip(*trace), termination, it, config)


def minimize_multilevel(
    network: Network, config: OptimizationConfig | None = None
) -> tuple[OptimizationResult, tuple[OptimizationResult, ...]]:
    """``minimize()`` as (final, all levels): the inertia-controlled shifts globalize Newton from rough starts,
    so there is one level, at ``n_per_curve``."""
    result = minimize(network, config)
    return result, (result,)


def minimize_symmetric_double_drop(
    initial: Network,
    config: OptimizationConfig | None = None,
    multilevel: bool = True,
) -> OptimizationResult:
    """Minimize F over symmetric double drops from a drop or a double drop.

    A drop is first paired with its point reflection; the double drop is then
    solved by one ``minimize`` call, whatever ``multilevel`` says.
    """
    if initial.kind == "drop":
        initial = make_symmetric_double_drop(initial)
    elif initial.kind != "double_drop":
        raise InvalidInputError("expected a drop or double_drop network")
    return minimize(initial, config)
