"""Seeded random networks and curves for the fuzz tests.

Each generator draws from the ``numpy.random.Generator`` it is given, so a
seed fixes its output bit for bit.
"""

import numpy as np

from elastinet.bounds import PiecewiseClosedCurve
from elastinet.geometry import DiscreteCurve, rotate_points, unit
from elastinet.networks import THETA_OFFSETS_END, THETA_OFFSETS_START, Junction, Network


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


def random_theta_network(rng, n: int = 70) -> Network:
    """Random valid theta: Hermite curves honoring random 120 degree frames."""
    p2 = rng.uniform(1.0, 2.0) * unit(rng.uniform(0.0, 2.0 * np.pi))
    f1 = rng.uniform(0.0, 2.0 * np.pi)
    f2 = rng.uniform(0.0, 2.0 * np.pi)
    j1 = Junction(np.zeros(2), f1, THETA_OFFSETS_START)
    j2 = Junction(p2, f2, THETA_OFFSETS_END)
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
    return Network("theta", tuple(curves), (j1, j2))


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
