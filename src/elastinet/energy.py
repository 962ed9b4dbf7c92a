"""Penalized elastic energy F_alpha = integral of k^2 ds + alpha * length.

One kernel, ``polyline_energy``, evaluates the discrete functional of one
polyline; every other function here, and the minimizer, reads it.  The
kernel walks the polyline's curvature vertices, each the turn from one edge
direction to the next: psi is the signed turning angle and ell the dual
length, half the sum of the two edge lengths.  The bending energy is
E = sum(psi^2 / ell) and the length L the sum of the edge lengths.

* An interior vertex of an open curve turns between its two edges.
* A closed curve also turns at its first vertex, from its last edge into its
  first.
* A clamped end, where a curve meets a junction, is a zero-length edge along
  the prescribed frame direction: its vertex is the half cell that turns
  from the frame into the first edge (or from the last edge into the frame)
  over half that edge.
* Free ends (open standalone curves, drop closure points) carry no end term:
  their contribution is an angle, not curvature.

With those terms the discrete energy of a sampled circular arc matches the
continuum to O(h^2), and the discrete Cauchy-Schwarz and Gauss-Bonnet chains
used by the bound checks hold exactly.  On request the kernel also returns
the exact gradient with respect to the points and to the two clamp angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError, InvalidCurveError, NoOptimalRescaleError
from .geometry import DiscreteCurve, rot90, signed_angle
from .networks import Network, curve_clamps, network_diameter, scale_network

__all__ = [
    "CurveEnergy",
    "EnergyReport",
    "elastic_energy",
    "curve_energy",
    "curvature_samples",
    "penalized_energy",
    "scaling_identity_check",
    "optimal_rescale",
    "equipartition_defect",
    "polyline_energy",
    "PolylineEnergy",
]

DEGENERATE_LENGTH_FACTOR = 1e-12


@dataclass(frozen=True)
class CurveEnergy:
    length: float
    elastic: float
    penalized: float


@dataclass(frozen=True)
class EnergyReport:
    """Totals plus the per-curve breakdown; penalized = elastic + alpha * length."""

    length: float
    elastic: float
    penalized: float
    alpha: float
    per_curve: tuple[CurveEnergy, ...]
    degenerate_curves: tuple[int, ...] = ()


class PolylineEnergy(NamedTuple):
    """Turning angles, dual lengths and totals of one polyline.

    ``grad`` is dF/dpoints for F = E + L, and ``d_start`` and ``d_end`` are
    dF/d(angle) of the start and end clamp directions (zero without a clamp);
    all three are filled in only when the gradient is requested.
    """

    psi: np.ndarray
    ell: np.ndarray
    elastic: float
    length: float
    grad: np.ndarray | None = None
    d_start: float = 0.0
    d_end: float = 0.0


def polyline_energy(points, closed=False, clamp_start=None, clamp_end=None, gradient=False):
    """The discrete energy of one polyline, or None when an edge collapsed.

    ``clamp_start`` is the prescribed travel direction leaving the first
    point, ``clamp_end`` the prescribed travel direction arriving at the last;
    either may be None for a free end, and both are ignored on closed curves.
    The dual lengths of a closed or fully clamped curve partition its length.
    """
    p = np.asarray(points, float)
    if closed:
        p = np.concatenate([p, p[:1]])
    e = p[1:] - p[:-1]
    a = np.linalg.norm(e, axis=1)
    length = float(a.sum())
    if not (a.min() > 0.0 and math.isfinite(length)):
        return None
    # Directions d and lengths h of the edges, led by the closing edge of a
    # closed curve or a zero-length clamp edge, and trailed by a clamp edge:
    # vertex k turns from d[k] to d[k + 1].
    lead = int(closed or clamp_start is not None)
    tail = int(clamp_end is not None and not closed)
    edges = slice(lead, lead + len(e))
    d = np.empty((len(e) + lead + tail, 2))
    h = np.zeros(len(d))
    d[edges] = e
    h[edges] = a
    if closed:
        d[0], h[0] = e[-1], a[-1]
    elif lead:
        d[0] = clamp_start
    if tail:
        d[-1] = clamp_end
    psi = signed_angle(d[:-1], d[1:])
    ell = 0.5 * (h[:-1] + h[1:])
    elastic = float(np.sum(psi * psi / ell))
    if not gradient:
        return PolylineEnergy(psi, ell, elastic, length)

    # d(edge angle)/d(edge) = w and d(edge length)/d(edge) = t; clamp edges
    # have neither, their angle derivative is taken at the vertex instead
    t = np.zeros_like(d)
    w = np.zeros_like(d)
    t[edges] = e / a[:, None]
    w[edges] = rot90(e) / (a * a)[:, None]
    if closed:
        t[0], w[0] = t[-1], w[-1]
    cw = 2.0 * psi / ell
    cl = -0.5 * psi * psi / (ell * ell)
    g = np.zeros_like(d)
    g[1:] += cw[:, None] * w[1:] + cl[:, None] * t[1:]
    g[:-1] += -cw[:, None] * w[:-1] + cl[:, None] * t[:-1]
    grad_e = g[edges] + t[edges]
    if closed:
        grad_e[-1] += g[0]
    grad = np.zeros_like(p)
    grad[1:] += grad_e
    grad[:-1] -= grad_e
    if closed:
        grad[0] += grad[-1]
        grad = grad[:-1]
    d_start = -float(cw[0]) if lead and not closed else 0.0
    d_end = float(cw[-1]) if tail else 0.0
    return PolylineEnergy(psi, ell, elastic, length, grad, d_start, d_end)


def _curve_kernel(curve: DiscreteCurve, clamp_start=None, clamp_end=None) -> PolylineEnergy:
    out = polyline_energy(curve.points, curve.closed, clamp_start, clamp_end)
    if out is None:
        raise InvalidCurveError("zero-length edge")
    return out


def curvature_samples(curve: DiscreteCurve, clamp_start=None, clamp_end=None):
    """(kappa, ell) samples including clamped-end half cells; see ``polyline_energy``."""
    out = _curve_kernel(curve, clamp_start, clamp_end)
    return out.psi / out.ell, out.ell


def curve_energy(curve: DiscreteCurve, clamp_start=None, clamp_end=None) -> tuple[float, float]:
    """(elastic, length) of one curve with optional clamped ends."""
    out = _curve_kernel(curve, clamp_start, clamp_end)
    return out.elastic, out.length


def elastic_energy(curve: DiscreteCurve) -> float:
    """Bending energy of a standalone curve; free ends carry no turning."""
    return curve_energy(curve)[0]


def penalized_energy(network: Network, alpha: float = 1.0) -> EnergyReport:
    """F_alpha of a network; near-zero-length curves contribute nothing."""
    if not (alpha > 0) or not math.isfinite(alpha):
        raise InvalidConfigError("alpha must be positive and finite")
    diam = network_diameter(network)
    per = []
    degenerate = []
    e_tot = l_tot = 0.0
    for i, c in enumerate(network.curves):
        elastic, length = curve_energy(c, *curve_clamps(network, i))
        if length < DEGENERATE_LENGTH_FACTOR * diam:
            degenerate.append(i)
            per.append(CurveEnergy(0.0, 0.0, 0.0))
            continue
        per.append(CurveEnergy(length, elastic, elastic + alpha * length))
        e_tot += elastic
        l_tot += length
    return EnergyReport(
        length=l_tot,
        elastic=e_tot,
        penalized=e_tot + alpha * l_tot,
        alpha=float(alpha),
        per_curve=tuple(per),
        degenerate_curves=tuple(degenerate),
    )


def scaling_identity_check(network: Network, alpha: float) -> float:
    """|F_1(G) - alpha^(-1/2) F_alpha(alpha^(-1/2) G)|, zero up to round-off."""
    if not (alpha > 0):
        raise InvalidConfigError("alpha must be positive")
    f1 = penalized_energy(network, 1.0).penalized
    lam = alpha ** -0.5
    f_alpha = penalized_energy(scale_network(network, lam), alpha).penalized
    return abs(f1 - lam * f_alpha)


def optimal_rescale(network: Network) -> tuple[float, Network]:
    """Dilation factor sqrt(E/L) and the rescaled network (equipartition E = L)."""
    report = penalized_energy(network, 1.0)
    if report.elastic <= 1e-14 * max(report.length, 1.0):
        raise NoOptimalRescaleError("straight network: no optimal rescaling exists")
    if report.length <= 0.0:
        raise InvalidCurveError("zero-length network")
    factor = math.sqrt(report.elastic / report.length)
    return factor, scale_network(network, factor)


def equipartition_defect(network: Network) -> float:
    """|E - L| / max(E, L); vanishes after optimal rescaling."""
    report = penalized_energy(network, 1.0)
    return abs(report.elastic - report.length) / max(report.elastic, report.length)
