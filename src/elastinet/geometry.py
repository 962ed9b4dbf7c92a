"""Discrete planar curves: polylines with turning-angle curvature.

A curve is an ordered list of points in the plane, open or closed.  Curvature
lives on vertices.  ``polyline_energy``, the one kernel of the discrete
curvature and energy, walks the curvature vertices of one polyline, each the
signed turn psi (counterclockwise positive) from one edge direction to the
next over the dual length ell, half the sum of the two edge lengths, and
returns psi, ell, the bending energy E = sum(psi^2 / ell) and the length L.

* An interior vertex of an open curve turns between its two edges.
* A closed curve also turns at its first vertex, from its last edge into its
  first.
* A clamped end, where a curve meets a junction, is a zero-length edge along
  the prescribed frame direction: its vertex is the half cell that turns
  from the frame into the first edge (or from the last edge into the frame)
  over half that edge.
* Free ends (open standalone curves, drop closure points) carry no end term:
  their contribution is an angle, not curvature.

The total signed turning of a closed polygon is then an exact multiple of the
winding, the discrete energy of a sampled circular arc matches the continuum
to O(h^2), and the discrete Cauchy-Schwarz and Gauss-Bonnet chains used by
the bound checks hold exactly.  On request the kernel also returns the exact
gradient with respect to the points and to the two clamp angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, InvalidCurveError

__all__ = [
    "DiscreteCurve",
    "VertexAngleSet",
    "polyline_length",
    "points_diameter",
    "resample_uniform",
    "edge_vectors",
    "edge_lengths",
    "edge_tangents",
    "PolylineEnergy",
    "polyline_energy",
    "checked_energy",
    "vertex_curvature",
    "vertex_arclengths",
    "external_angle",
    "signed_angle",
    "endpoint_tangents",
    "endpoint_tangent_array",
    "rot90",
    "unit",
    "rotate_points",
]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidCurveError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidCurveError("points contain non-finite coordinates")
    return pts


@dataclass(frozen=True)
class DiscreteCurve:
    """Ordered point sequence approximating a regular plane curve.

    ``closed`` curves wrap around (the closing edge is implicit, the first
    point is not repeated).  Consecutive points must be distinct, the discrete
    analogue of |dγ/dx| != 0.  ``points`` is a read-only copy of the input, so
    ``kernel`` is computed once, on first use.
    """

    points: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = _as_points(self.points).copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        n_min = 3 if self.closed else 2
        if len(pts) < n_min:
            raise InvalidCurveError(
                f"need at least {n_min} points for a {'closed' if self.closed else 'open'} curve"
            )
        with np.errstate(over="ignore"):  # an overflowing length is rejected here, not warned about
            lengths = edge_lengths(pts, self.closed)
        if not lengths.max() < math.inf:
            raise InvalidCurveError("edge lengths overflow: coordinates too far apart")
        if not lengths.min() > 0.0:
            raise InvalidCurveError("consecutive points must be distinct")

    @property
    def n_points(self) -> int:
        return len(self.points)

    def reversed(self) -> "DiscreteCurve":
        return DiscreteCurve(self.points[::-1], self.closed)

    def __reduce__(self):  # copies and pickles are built afresh: read-only, with nothing cached
        return DiscreteCurve, (self.points, self.closed)

    @cached_property
    def kernel(self) -> PolylineEnergy:
        """``checked_energy(points, closed)``, computed once: the turning with free ends."""
        out = checked_energy(self.points, self.closed)
        out.psi.flags.writeable = out.ell.flags.writeable = False
        return out


@dataclass(frozen=True)
class VertexAngleSet:
    """External angles at designated corner vertices of a piecewise curve."""

    angles: tuple[float, ...]
    pi_corners: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for th in self.angles:
            if not (-1e-12 <= th <= np.pi + 1e-12):
                raise InvalidCurveError(f"corner angle {th} outside [0, pi]")


def rot90(v: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter turn, works on (..., 2) arrays."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def unit(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def rotate_points(points: np.ndarray, angle: float, about=(0.0, 0.0)) -> np.ndarray:
    about = np.asarray(about, float)
    c, s = np.cos(angle), np.sin(angle)
    rel = np.asarray(points, float) - about
    return about + rel @ np.array([[c, s], [-s, c]])


def _points_of(curve) -> tuple[np.ndarray, bool]:
    if isinstance(curve, DiscreteCurve):
        return curve.points, curve.closed
    return _as_points(curve), False


def edge_vectors(points, closed: bool = False) -> np.ndarray:
    pts = np.asarray(points, float)
    if closed:
        return np.roll(pts, -1, axis=0) - pts
    return pts[1:] - pts[:-1]


def _vector_lengths(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=-1)`` of (..., 2) vectors bit for bit; numpy reduces two entries slowly."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def edge_lengths(points, closed: bool = False) -> np.ndarray:
    return _vector_lengths(edge_vectors(points, closed))


def polyline_length(curve) -> float:
    """Total length of the polyline (including the closing edge if closed)."""
    pts, closed = _points_of(curve)
    if len(pts) < 2:
        raise InvalidCurveError("length needs at least 2 points")
    return float(edge_lengths(pts, closed).sum())


def points_diameter(point_sets) -> float:
    """Diagonal of the bounding box of all the point arrays: the norm of max - min per coordinate."""
    pts = np.vstack(point_sets)
    x, y = pts[:, 0], pts[:, 1]  # one column at a time: numpy reduces a column far faster than axis 0
    return float(np.linalg.norm([x.max() - x.min(), y.max() - y.min()]))


def edge_tangents(curve) -> np.ndarray:
    """Unit tangent of every segment, oriented along the parametrization."""
    pts, closed = _points_of(curve)
    e = edge_vectors(pts, closed)
    a = _vector_lengths(e)
    if np.any(a == 0.0):
        raise InvalidCurveError("zero-length edge")
    return e / a[:, None]


def signed_angle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Signed angle from u to v in (-pi, pi], counterclockwise positive."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    return np.arctan2(cross, dot)


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
    a = _vector_lengths(e)
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


def checked_energy(points, closed=False, clamp_start=None, clamp_end=None, gradient=False) -> PolylineEnergy:
    """``polyline_energy`` that raises InvalidCurveError on a collapsed edge."""
    out = polyline_energy(points, closed, clamp_start, clamp_end, gradient)
    if out is None:
        raise InvalidCurveError("zero-length edge")
    return out


def vertex_curvature(curve) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (kappa_i, ell_i) with kappa = turning angle / dual length.

    Closed curves carry curvature at every vertex, open curves only at
    interior vertices; endpoints of open curves hold no turning of their own.
    """
    pts, closed = _points_of(curve)
    if len(pts) < 3:
        raise InvalidCurveError("curvature needs at least 3 points")
    out = curve.kernel if isinstance(curve, DiscreteCurve) else checked_energy(pts, closed)
    return out.psi / out.ell, out.ell


def vertex_arclengths(curve) -> np.ndarray:
    """Arclength position of every point along the polyline, starting at 0."""
    pts, closed = _points_of(curve)
    a = edge_lengths(pts, closed)
    s = np.concatenate([[0.0], np.cumsum(a)])
    return s[: len(pts)] if closed else s


def external_angle(tangent_in, tangent_out) -> float:
    """Angle in [0, pi] between two unit tangents, orientation independent."""
    t_in = np.asarray(tangent_in, float)
    t_out = np.asarray(tangent_out, float)
    for t in (t_in, t_out):
        if abs(np.linalg.norm(t) - 1.0) > 1e-6:
            raise ContractViolationError(f"tangent {t} is not unit norm")
    dot = float(np.clip(np.dot(t_in, t_out), -1.0, 1.0))
    return float(np.arccos(dot))


def endpoint_tangent_array(curves) -> np.ndarray:
    """Second-order tangent estimates at the start ``[i, 0]`` and end ``[i, 1]`` of each open curve i.

    The first edge direction is rotated back by half the turning at the first
    interior vertex (and symmetrically at the far end), the kernel's first and
    last psi, read from the end edges alone.  Exact on uniformly sampled
    circular arcs and on straight lines; a two-point curve's are its edge's.
    """
    sets = [_points_of(c) for c in curves]
    if any(closed for _, closed in sets):
        raise InvalidCurveError("endpoint tangents are defined for open curves")
    two_point = np.array([len(p) == 2 for p, _ in sets])
    # each end's three points (a two-point curve repeats its points) and two edges
    ends = np.stack([p[[0, 1, min(2, len(p) - 1), max(len(p) - 3, 0), -2, -1]] for p, _ in sets])
    e = np.diff(ends.reshape(-1, 2, 3, 2), axis=2)
    edge = e[:, [0, 1], [0, 1]]  # the first edge at the start, the last at the end
    a = _vector_lengths(edge)
    if not a.all():
        raise InvalidCurveError("zero-length edge")
    t = edge / a[..., None]
    half = signed_angle(e[:, :, 0], e[:, :, 1]) * np.array([-0.5, 0.5])
    c, s = np.cos(half), np.sin(half)
    # one (1, 2) @ (2, 2) product per end, as rotate_points takes it: bitwise its rotation
    turned = (t[..., None, :] @ np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2, 2))[..., 0, :]
    return np.where(two_point[:, None, None], t, turned)


def endpoint_tangents(curve) -> tuple[np.ndarray, np.ndarray]:
    """The start and end tangents of one open curve (see ``endpoint_tangent_array``)."""
    return tuple(endpoint_tangent_array([curve])[0])


def resample_uniform(curve, n: int) -> DiscreteCurve:
    """Resample to uniform spacing: n + 1 points (open) or n points (closed).

    Open curves keep their endpoints, closed curves keep the first point.
    All samples lie on the input polyline; the sample parameters are iterated
    to the equal-chord fixed point, so the output segment lengths agree to
    round-off and resampling an already-resampled curve is the identity
    within 1e-9.
    """
    if n < 3:
        raise InvalidCurveError("resampling needs n >= 3")
    pts, closed = _points_of(curve)
    ext = np.vstack([pts, pts[0]]) if closed else pts
    seg = _vector_lengths(ext[1:] - ext[:-1])
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total <= 0.0:
        raise InvalidCurveError("cannot resample a zero-length curve")

    m = n if closed else n + 1
    targets = np.arange(m) * (total / n) if closed else np.linspace(0.0, total, m)
    for _ in range(12):
        x = np.interp(targets, s, ext[:, 0])
        y = np.interp(targets, s, ext[:, 1])
        out = np.column_stack([x, y])
        loop = np.vstack([out, [np.interp(total, s, ext[:, 0]), np.interp(total, s, ext[:, 1])]]) if closed else out
        chord = _vector_lengths(loop[1:] - loop[:-1])
        spread = np.max(chord) - np.min(chord)
        if spread <= 1e-13 * total:
            break
        # redistribute parameters so the output chords equalize
        cum = np.concatenate([[0.0], np.cumsum(chord)])
        even = np.arange(m) * (cum[-1] / n) if closed else np.linspace(0.0, cum[-1], m)
        targets = np.interp(even, cum, np.concatenate([targets, [total]]) if closed else targets)
    if not closed:
        out[0] = pts[0]
        out[-1] = pts[-1]
    return DiscreteCurve(out, closed)
