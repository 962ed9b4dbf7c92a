"""Network functionals over the kernel ``geometry.polyline_energy``.

F_alpha = integral of k^2 ds + alpha * length, curve by curve with the
junction clamps of ``networks.curve_clamps``, and the scaling identity,
optimal rescaling and equipartition defect built on it.  ``polyline_energy``
and ``PolylineEnergy`` are re-exported from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidCurveError, NoOptimalRescaleError
from .geometry import DiscreteCurve, PolylineEnergy, checked_energy, points_diameter, polyline_energy
from .networks import Network, _curve_terms, scale_network

__all__ = [
    "CurveEnergy",
    "EnergyReport",
    "elastic_energy",
    "curve_energy",
    "penalized_energy",
    "scaling_identity_check",
    "optimal_rescale",
    "equipartition_defect",
    "polyline_energy",
    "PolylineEnergy",
]


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


def curve_energy(curve: DiscreteCurve, clamp_start=None, clamp_end=None) -> tuple[float, float]:
    """(elastic, length) of one curve with optional clamped ends."""
    out = checked_energy(curve.points, curve.closed, clamp_start, clamp_end)
    return out.elastic, out.length


def elastic_energy(curve: DiscreteCurve) -> float:
    """Bending energy of a standalone curve; free ends carry no turning."""
    return curve.kernel.elastic


def penalized_energy(network: Network, alpha: float = 1.0) -> EnergyReport:
    """F_alpha of a network; near-zero-length curves contribute nothing."""
    return _penalized_energy(network, alpha)


def _penalized_energy(network: Network, alpha: float, point_sets=None) -> EnergyReport:
    """``penalized_energy`` of the network's curves laid on ``point_sets``, one array per curve, or on their own."""
    if not (alpha > 0) or not math.isfinite(alpha):
        raise InvalidConfigError("alpha must be positive and finite")
    if point_sets is None:
        terms = network.curve_terms
    else:
        terms = _curve_terms(network, point_sets, points_diameter(point_sets))
    per, degenerate = [], []
    e_tot = l_tot = 0.0
    for i, (elastic, length, is_degenerate) in enumerate(terms):
        if is_degenerate:
            degenerate.append(i)
            per.append(CurveEnergy(0.0, 0.0, 0.0))
            continue
        per.append(CurveEnergy(length, elastic, elastic + alpha * length))
        e_tot += elastic
        l_tot += length
    penalized = e_tot + alpha * l_tot
    if not math.isfinite(penalized):
        raise InvalidConfigError(f"F_alpha overflows at alpha = {alpha:.6g}")
    return EnergyReport(l_tot, e_tot, penalized, float(alpha), tuple(per), tuple(degenerate))


def scaling_identity_check(network: Network, alpha: float) -> float:
    """|F_1(G) - alpha^(-1/2) F_alpha(alpha^(-1/2) G)|, zero up to round-off; G dilated as by ``scale_network``."""
    if not (alpha > 0) or not math.isfinite(alpha):
        raise InvalidConfigError("alpha must be positive and finite")
    f1 = penalized_energy(network, 1.0).penalized
    lam = alpha ** -0.5
    about = network.junctions[0].position if network.junctions else np.zeros(2)
    with np.errstate(over="ignore", invalid="ignore"):
        points = [about + lam * (c.points - about) for c in network.curves]
        try:
            f_alpha = _penalized_energy(network, alpha, points).penalized
        except InvalidCurveError:  # a dilated curve's own fault, such as edge lengths that overflow
            for c, pts in zip(network.curves, points):
                DiscreteCurve(pts, c.closed)
            raise
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
