"""Euler-Lagrange and junction-condition residuals.

A critical curve of the penalized elastic energy satisfies
2 k'' + k^3 - k = 0 in arclength; at a triple junction the curvatures sum to
zero and sum(2 k' nu + k^2 tau) vanishes.  These are audited on the discrete
curvature samples: second derivatives by three-point stencils in arclength
(central inside, one-sided at the ends), junction values by quadratic
extrapolation from the three nearest interior vertices, junction tangents
from the stored frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import DiscreteCurve, vertex_arclengths, vertex_curvature
from .networks import Network, end_slots

__all__ = [
    "ResidualReport",
    "AuditReport",
    "el_residual",
    "junction_residuals",
    "criticality_audit",
]


@dataclass(frozen=True)
class ResidualReport:
    interior_residuals: tuple[np.ndarray, ...]
    interior_max_abs: float
    junction_scalar: tuple[float, ...]
    junction_vector: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    interior_tol: float
    junction_tol: float
    report: ResidualReport


def _second_derivative(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Three-point second derivative on a nonuniform grid (exact on quadratics)."""
    s0, s1, s2 = s[:-2], s[1:-1], s[2:]
    k0, k1, k2 = values[:-2], values[1:-1], values[2:]
    return 2.0 * (
        k0 / ((s1 - s0) * (s2 - s0))
        - k1 / ((s2 - s1) * (s1 - s0))
        + k2 / ((s2 - s1) * (s2 - s0))
    )


def _curvature_profile(curve: DiscreteCurve):
    """(EL residual, kappa, vertex arclengths) of one curve, one kernel call."""
    if curve.n_points < 8:
        raise InvalidInputError("need at least 8 points for the residual stencils")
    kappa, _ = vertex_curvature(curve)
    s = vertex_arclengths(curve)
    if curve.closed:
        total = s[-1] + float(np.linalg.norm(curve.points[0] - curve.points[-1]))
        s_ext = np.concatenate([[s[0] - (total - s[-1])], s, [total]])
        ks, k_in = _second_derivative(np.concatenate([[kappa[-1]], kappa, [kappa[0]]]), s_ext), kappa
    else:
        ks, k_in = _second_derivative(kappa, s[1:-1]), kappa[1:-1]
    return 2.0 * ks + k_in**3 - k_in, kappa, s


def el_residual(curve: DiscreteCurve) -> np.ndarray:
    """Pointwise 2 k'' + k^3 - k on the usable vertices of one curve."""
    return _curvature_profile(curve)[0]


def _quadratic_eval(s3, k3, s0: float) -> tuple[float, float]:
    """Value and slope at s0 of the quadratic through three (s, k) samples, given as Python floats."""
    val = der = 0.0
    for i, (j, l) in enumerate(((1, 2), (0, 2), (0, 1))):
        denom = (s3[i] - s3[j]) * (s3[i] - s3[l])
        val += k3[i] * (s0 - s3[j]) * (s0 - s3[l]) / denom
        der += k3[i] * ((s0 - s3[j]) + (s0 - s3[l])) / denom
    return val, der


def _residual_report(network: Network) -> ResidualReport:
    """Interior residuals of every curve and the junction sums (on Python floats: for six ends, cheaper than numpy)."""
    profiles = [_curvature_profile(c) for c in network.curves]
    interior = tuple(residual for residual, _, _ in profiles)
    max_abs = max(float(np.max(np.abs(r))) for r in interior)
    slots = end_slots(network.kind, len(network.curves))
    if not slots:
        return ResidualReport(interior, max_abs, (), ())
    scalars, vectors = [0.0] * len(network.junctions), [(0.0, 0.0)] * len(network.junctions)
    for (_, kappa, s), ends, clamps in zip(profiles, slots, network.clamps.tolist()):
        s_in, k_in = s[[1, 2, 3, -4, -3, -2, -1]].tolist(), kappa[[0, 1, 2, -3, -2, -1]].tolist()
        at_ends = (_quadratic_eval(s_in[:3], k_in[:3], 0.0), _quadratic_eval(s_in[3:6], k_in[3:], s_in[6]))
        for (j, _), (k, dk), (tx, ty) in zip(ends, at_ends, clamps):
            scalars[j] += k
            vx, vy = vectors[j]  # plus 2 k' nu + k^2 tau, with nu = rot90(tau) = (-ty, tx)
            vectors[j] = (vx + 2.0 * dk * -ty + k * k * tx, vy + 2.0 * dk * tx + k * k * ty)
    return ResidualReport(interior, max_abs, tuple(scalars), tuple(np.array(v) for v in vectors))


def junction_residuals(network: Network) -> ResidualReport:
    """Scalar and vector junction conditions plus interior residuals."""
    if not network.junctions:
        raise InvalidInputError("junction residuals need a junction-constrained network")
    return _residual_report(network)


def criticality_audit(network: Network, interior_tol: float = 1e-2, junction_tol: float = 1e-2) -> AuditReport:
    """Pass iff interior and junction residuals stay below the thresholds."""
    report = _residual_report(network)
    passed = (
        report.interior_max_abs <= interior_tol
        and all(abs(s) <= junction_tol for s in report.junction_scalar)
        and all(float(np.linalg.norm(v)) <= junction_tol for v in report.junction_vector)
    )
    return AuditReport(passed=bool(passed), interior_tol=interior_tol, junction_tol=junction_tol, report=report)
