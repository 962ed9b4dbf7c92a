"""Seeded random networks and curves for the fuzz tests.

Each generator draws from the ``numpy.random.Generator`` it is given, so a
seed fixes its output bit for bit.
"""

import numpy as np

from elastinet.bounds import PiecewiseClosedCurve
from elastinet.geometry import DiscreteCurve, rotate_points, unit
from elastinet.networks import (
    DEGENERATE_OFFSET_VARIANTS,
    THETA_OFFSETS_END,
    THETA_OFFSETS_START,
    Junction,
    Network,
)


def _fourier_bump(rng, t: np.ndarray, scale: float, modes: int = 3) -> np.ndarray:
    out = np.zeros_like(t)
    for j in range(1, modes + 1):
        out += rng.normal(0.0, scale / j) * np.sin(j * np.pi * t)
    return out


def random_piecewise_closed_curve(rng, samples_per_arc: int = 80) -> PiecewiseClosedCurve:
    """Random piecewise-smooth closed curve: Fourier arcs joined at corners."""
    if rng.random() < 0.3:
        # one smooth loop closing on itself with a (usually small) corner
        k = samples_per_arc
        th = 2.0 * np.pi * np.arange(k + 1) / k
        r = 1.0 + sum(
            rng.uniform(-0.08, 0.08) * np.cos(j * th + rng.uniform(0, 2 * np.pi)) for j in range(2, 6)
        )
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        pts[-1] = pts[0]
        return PiecewiseClosedCurve((DiscreteCurve(pts),), closure_tol=1e-9)
    m = int(rng.integers(2, 6))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    if np.min(np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))) < 0.3:
        ang = 2.0 * np.pi * np.arange(m) / m + rng.uniform(-0.2, 0.2, m)
    rad = rng.uniform(0.6, 1.4, m)
    corners = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    arcs = []
    t = np.linspace(0.0, 1.0, samples_per_arc)
    for i in range(m):
        a, b = corners[i], corners[(i + 1) % m]
        chord = b - a
        normal = np.array([-chord[1], chord[0]])
        bump = _fourier_bump(rng, t, 0.15)
        pts = a[None, :] + t[:, None] * chord[None, :] + bump[:, None] * normal[None, :]
        pts[0] = a
        pts[-1] = b
        arcs.append(DiscreteCurve(pts))
    return PiecewiseClosedCurve(tuple(arcs), closure_tol=1e-9)


def _hermite(p0, v0, p1, v1, t: np.ndarray) -> np.ndarray:
    t = t[:, None]
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h01 = -2 * t**3 + 3 * t**2
    h11 = t**3 - t**2
    return h00 * p0 + h10 * v0 + h01 * p1 + h11 * v1


def _random_theta(rng, n, kind, start_offsets, end_offsets, prescribed_angles=None) -> Network:
    """Three Hermite curves from junction 0 at the origin to junction 1, leaving and arriving along random frames."""
    p2 = rng.uniform(1.0, 2.0) * unit(rng.uniform(0.0, 2.0 * np.pi))
    f1 = rng.uniform(0.0, 2.0 * np.pi)
    f2 = rng.uniform(0.0, 2.0 * np.pi)
    j1 = Junction(np.zeros(2), f1, start_offsets)
    j2 = Junction(p2, f2, end_offsets)
    dist = float(np.linalg.norm(p2))
    t = np.linspace(0.0, 1.0, n)
    curves = []
    for i in range(3):
        speed0 = dist * rng.uniform(1.0, 2.0)
        speed1 = dist * rng.uniform(1.0, 2.0)
        v0 = speed0 * j1.outgoing_dir(i)
        v1 = speed1 * (-j2.outgoing_dir(i))
        pts = _hermite(np.zeros(2), v0, p2, v1, t)
        pts[0] = 0.0
        pts[-1] = p2
        curves.append(DiscreteCurve(pts))
    return Network(kind, tuple(curves), (j1, j2), prescribed_angles)


def random_theta_network(rng, n: int = 70) -> Network:
    """Random valid theta: Hermite curves honoring random 120 degree frames."""
    return _random_theta(rng, n, "theta", THETA_OFFSETS_START, THETA_OFFSETS_END)


def random_generalized_theta(rng, n: int = 70) -> Network:
    """Random valid generalized theta: prescribed sectors alpha1, alpha2 in [0.6, 2.6], the third above 0.6,
    joined by Hermite curves as in ``random_theta_network``."""
    while True:
        a1, a2 = sorted(rng.uniform(0.6, 2.6, 2))
        if a1 + a2 < 2.0 * np.pi - 0.6:
            break
    start, end = (0.0, a1, a1 + a2), (0.0, 2.0 * np.pi - a1, 2.0 * np.pi - a1 - a2)
    return _random_theta(rng, n, "generalized_theta", start, end, (a1, a2, 2.0 * np.pi - a1 - a2))


def random_degenerate_theta(rng, n: int = 70) -> Network:
    """Random valid degenerate theta: two Hermite loops at a four-point with a random frame and either
    offset pattern; lobe i leaves through slot 2i and returns through slot 2i + 1."""
    j = Junction(np.zeros(2), rng.uniform(0.0, 2.0 * np.pi), DEGENERATE_OFFSET_VARIANTS[rng.integers(2)])
    t = np.linspace(0.0, 1.0, n)
    lobes = []
    for i in range(2):
        v0 = rng.uniform(2.0, 4.0) * j.outgoing_dir(2 * i)
        v1 = rng.uniform(2.0, 4.0) * (-j.outgoing_dir(2 * i + 1))
        pts = _hermite(np.zeros(2), v0, np.zeros(2), v1, t)
        pts[0] = pts[-1] = 0.0
        lobes.append(DiscreteCurve(pts))
    return Network("degenerate_theta", tuple(lobes), (j,))


def random_drop(rng, n: int = 90) -> Network:
    """Random drop: a wobbly loop through the origin with a free corner."""
    k = n
    th = 2.0 * np.pi * np.arange(k + 1) / k
    r = 1.0 + sum(
        rng.uniform(-0.12, 0.12) * np.cos(j * th + rng.uniform(0, 2 * np.pi)) for j in range(1, 5)
    )
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    pts = pts - pts[0]
    pts[-1] = pts[0]
    pts = rotate_points(pts, rng.uniform(0.0, 2.0 * np.pi))
    return Network("drop", (DiscreteCurve(pts),))
