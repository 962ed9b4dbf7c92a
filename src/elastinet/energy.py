"""Network functionals over the kernel ``geometry.polyline_energy``.

F_alpha = integral of k^2 ds + alpha * length, curve by curve with the
junction clamps of ``networks.curve_clamps``, and the scaling identity,
optimal rescaling and equipartition defect built on it.  ``polyline_energy``
and ``PolylineEnergy`` are re-exported from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfigError, InvalidCurveError, NoOptimalRescaleError
from .geometry import DiscreteCurve, PolylineEnergy, checked_energy, polyline_energy
from .networks import Network, curve_clamps, network_diameter, scale_network

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


def curve_energy(curve: DiscreteCurve, clamp_start=None, clamp_end=None) -> tuple[float, float]:
    """(elastic, length) of one curve with optional clamped ends."""
    out = checked_energy(curve.points, curve.closed, clamp_start, clamp_end)
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
    penalized = e_tot + alpha * l_tot
    if not math.isfinite(penalized):
        raise InvalidConfigError(f"F_alpha overflows at alpha = {alpha:.6g}")
    return EnergyReport(
        length=l_tot,
        elastic=e_tot,
        penalized=penalized,
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
