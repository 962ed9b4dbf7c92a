"""Numeric certification of the curvature lower bounds.

All checks share one discretization: the total absolute curvature of a smooth
arc is the sum of interior |turning angles| plus a half-turn correction at
each end measured against the second-order endpoint tangent estimate, and
corner angles between arcs are measured between those same estimates.  With
consistent definitions the discrete inequality

    integral |k| ds  >=  2*pi - sum(theta_i)

is a theorem for polygons (the polygon turning at a corner is at most the two
half-turn corrections plus the corner angle, and the total turning of any
closed polygon is at least 2*pi), so every check below holds up to round-off,
not up to discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import penalized_energy
from .errors import HypothesisNotMetError, InvalidInputError
from .geometry import (
    DiscreteCurve,
    PolylineEnergy,
    VertexAngleSet,
    checked_energy,
    endpoint_tangent_array,
    external_angle,
    points_diameter,
)
from .networks import Network

__all__ = [
    "PiecewiseClosedCurve",
    "InequalityCheck",
    "AmGmCheck",
    "ThetaBoundCheck",
    "total_abs_curvature",
    "arc_abs_curvature",
    "gauss_bonnet_check",
    "drop_bound_check",
    "pair_loop",
    "pair_bound_check",
    "amgm_energy_bound",
    "theta_lower_bound_check",
    "turning_cauchy_schwarz",
    "tangent_gap_bound",
]

_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class AmGmCheck:
    f_value: float
    bound: float
    holds: bool
    abs_curvature: float
    length: float


@dataclass(frozen=True)
class ThetaBoundCheck:
    f_value: float
    bound: float
    holds: bool
    pair_values: tuple[float, float, float]
    pair_bound: float
    pair_holds: tuple[bool, bool, bool]  # F_01, F_12, F_20 >= pair_bound, within the float slack
    pairs_hold: bool
    identity_defect: float


@dataclass(frozen=True)
class PiecewiseClosedCurve:
    """Chained open arcs closing up into a loop, with corner angles in between.

    Arc i must end where arc (i+1) % N starts.  Corner angles are computed
    from the endpoint tangent estimates of the incident arcs; corners within
    tolerance of pi are flagged (their orientation is ambiguous) and counted
    as contributing pi.
    """

    arcs: tuple[DiscreteCurve, ...]
    closure_tol: float = 1e-9

    def __post_init__(self):
        arcs = tuple(self.arcs)
        object.__setattr__(self, "arcs", arcs)
        if not arcs:
            raise InvalidInputError("need at least one arc")
        if any(a.closed for a in arcs):
            raise InvalidInputError("arcs must be open curves")
        scale = max(self.diameter(), 1e-30)
        for i, arc in enumerate(arcs):
            nxt = arcs[(i + 1) % len(arcs)]
            gap = float(np.linalg.norm(arc.points[-1] - nxt.points[0]))
            if gap > self.closure_tol * scale + self.closure_tol:
                raise InvalidInputError(f"arc {i} does not chain to arc {(i + 1) % len(arcs)} (gap {gap:g})")

    def diameter(self) -> float:
        return points_diameter([a.points for a in self.arcs])

    def corner_angles(self) -> VertexAngleSet:
        """Corner i turns from the end of arc i into the start of arc i + 1."""
        tau = endpoint_tangent_array(self.arcs)
        angles = tuple(external_angle(a, b) for a, b in zip(tau[:, 1], np.roll(tau[:, 0], -1, axis=0)))
        return VertexAngleSet(angles, tuple(i for i, th in enumerate(angles) if abs(th - math.pi) < 1e-9))


def _arc_kernels(arcs) -> list[PolylineEnergy]:
    """The discrete energy of each open arc clamped to its estimated end tangents, from one tangent pass."""
    return [checked_energy(a.points, False, *tau) for a, tau in zip(arcs, endpoint_tangent_array(arcs))]


def _abs_turning(out: PolylineEnergy) -> float:
    """sum |kappa| ell over the curvature vertices of one kernel result."""
    return float(np.sum(np.abs(out.psi / out.ell) * out.ell))


def arc_abs_curvature(arc: DiscreteCurve) -> float:
    """Total |turning| of one open arc including the endpoint half-cells."""
    return _abs_turning(_arc_kernels([arc])[0])


def total_abs_curvature(curve: PiecewiseClosedCurve) -> float:
    """Discrete integral of |k| over the smooth arcs; corner angles excluded."""
    return float(sum(_abs_turning(out) for out in _arc_kernels(curve.arcs)))


def gauss_bonnet_check(curve: PiecewiseClosedCurve) -> InequalityCheck:
    """integral |k| ds >= 2*pi - sum of corner angles."""
    lhs = total_abs_curvature(curve)
    rhs = 2.0 * math.pi - sum(curve.corner_angles().angles)
    tol = _FLOAT_SLACK * (1.0 + lhs + abs(rhs))
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - tol))


def drop_bound_check(drop: Network) -> InequalityCheck:
    """integral |k| ds >= pi for a drop (one free corner of arbitrary angle)."""
    if drop.kind != "drop":
        raise InvalidInputError(f"expected a drop network, got {drop.kind!r}")
    (curve,) = drop.curves
    gap = float(np.linalg.norm(curve.points[0] - curve.points[-1]))
    if gap > min(1e-6 * max(1.0, np.abs(curve.points).max()), 1e-6 * drop.diameter + 1e-6):
        raise InvalidInputError(f"drop endpoints do not coincide (gap {gap:g})")
    lhs = arc_abs_curvature(curve)
    tol = _FLOAT_SLACK * (1.0 + lhs)
    return InequalityCheck(lhs=lhs, rhs=math.pi, holds=bool(lhs >= math.pi - tol))


def pair_loop(theta: Network, i: int, j: int) -> PiecewiseClosedCurve:
    """Closed loop gamma_i followed by gamma_j reversed, corners at the junctions."""
    if theta.kind not in ("theta", "generalized_theta"):
        raise InvalidInputError("pair loops are built from theta networks")
    if i == j:
        raise InvalidInputError("need two distinct curves")
    return PiecewiseClosedCurve((theta.curves[i], theta.curves[j].reversed()), closure_tol=1e-6)


def pair_bound_check(loop: PiecewiseClosedCurve, tol_ang: float = 1e-2) -> InequalityCheck:
    """integral |k| ds >= 4*pi/3 for a loop with two pi/3 corners."""
    corners = loop.corner_angles().angles
    if len(corners) != 2:
        raise InvalidInputError(f"expected exactly 2 corners, got {len(corners)}")
    for th in corners:
        if abs(th - math.pi / 3.0) > tol_ang:
            raise InvalidInputError(f"corner angle {th:.6f} is not pi/3 within {tol_ang:g}")
    lhs = total_abs_curvature(loop)
    rhs = 4.0 * math.pi / 3.0
    tol = _FLOAT_SLACK * (1.0 + lhs)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - tol))


def amgm_energy_bound(curve_or_loop, c: float) -> AmGmCheck:
    """F >= c^2/L + L >= 2c whenever integral |k| >= c > 0.

    Raises HypothesisNotMetError when the measured total curvature falls
    short of c; that is a misuse signal, not a failed inequality.
    """
    if not (c > 0):
        raise InvalidInputError("c must be positive")
    if isinstance(curve_or_loop, PiecewiseClosedCurve):
        kernels = _arc_kernels(curve_or_loop.arcs)
    elif isinstance(curve_or_loop, DiscreteCurve):
        kernels = [curve_or_loop.kernel]
    else:
        raise InvalidInputError("expected a DiscreteCurve or PiecewiseClosedCurve")
    total_k = float(sum(_abs_turning(out) for out in kernels))
    elastic = sum(out.elastic for out in kernels)
    length = float(sum(out.length for out in kernels))
    if total_k < c - _FLOAT_SLACK * (1.0 + c):
        raise HypothesisNotMetError(f"total |k| = {total_k:g} < c = {c:g}")
    f_val = elastic + length
    mid = c * c / length + length
    tol = _FLOAT_SLACK * (1.0 + f_val + 2.0 * c)
    holds = bool(f_val >= mid - tol and mid >= 2.0 * c - tol)
    return AmGmCheck(f_value=f_val, bound=2.0 * c, holds=holds, abs_curvature=total_k, length=length)


def theta_lower_bound_check(theta: Network) -> ThetaBoundCheck:
    """F(Gamma) >= 4*pi via the three pairwise loops, each with F >= 8*pi/3.

    Both bounds assume 120 degree junctions; a generalized theta is measured
    against them but may fall below.  The pair energies reuse the
    junction-frame end cells of the network energy, so the identity
    F = (F_12 + F_23 + F_31) / 2 is exact.
    """
    if theta.kind not in ("theta", "generalized_theta"):
        raise InvalidInputError("expected a theta network")
    report = penalized_energy(theta, 1.0)
    f_val = report.penalized
    per = [ce.penalized for ce in report.per_curve]
    pairs = (per[0] + per[1], per[1] + per[2], per[2] + per[0])
    pair_bound = 8.0 * math.pi / 3.0
    tol = _FLOAT_SLACK * (1.0 + f_val)
    pair_holds = tuple(bool(p >= pair_bound - tol) for p in pairs)
    identity_defect = abs(0.5 * sum(pairs) - f_val)
    holds = bool(f_val >= 4.0 * math.pi - tol)
    return ThetaBoundCheck(
        f_value=f_val,
        bound=4.0 * math.pi,
        holds=holds,
        pair_values=pairs,
        pair_bound=pair_bound,
        pair_holds=pair_holds,
        pairs_hold=all(pair_holds),
        identity_defect=identity_defect,
    )


def turning_cauchy_schwarz(curve: DiscreteCurve) -> InequalityCheck:
    """integral |k| ds <= sqrt(E * L), sharp for constant curvature."""
    out = curve.kernel
    lhs = _abs_turning(out)
    rhs = math.sqrt(max(out.elastic * out.length, 0.0))
    tol = _FLOAT_SLACK * (1.0 + rhs)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + tol))


def tangent_gap_bound(curve: DiscreteCurve) -> InequalityCheck:
    """|tau(1) - tau(0)| <= sqrt(F * L) for an open curve.

    F here includes the endpoint half-cells (measured against the estimated
    end tangents); without them an under-resolved curve could hide turning in
    its end edges and beat the bound.
    """
    if curve.closed:
        raise InvalidInputError("expected an open curve")
    tau0, tau1 = endpoint_tangent_array([curve])[0]
    gap = float(np.linalg.norm(tau1 - tau0))
    out = checked_energy(curve.points, False, tau0, tau1)
    rhs = math.sqrt((out.elastic + out.length) * out.length)
    tol = _FLOAT_SLACK * (1.0 + rhs)
    return InequalityCheck(lhs=gap, rhs=rhs, holds=bool(gap <= rhs + tol))
