"""The benchmark's own reference computations and the checks built on them.

Nothing here calls the library: energies, crossing counts and junction frames
are recomputed from the raw point arrays with numpy, so a check compares the
library's answer with an independent one or with a property the method must
have.  Every check raises ``CheckFailed`` when it does not hold; a check whose
failure is a known, kept fault of the library raises ``KnownFault``.
"""

from __future__ import annotations

import math

import numpy as np

FOUR_PI = 4.0 * math.pi
BUBBLE_F = 18.40589562425381  # standard double bubble B_rbar
DROP_F = 10.60375  # minimal drop
EIGHT_F = 21.2075  # figure eight

# Relative agreement expected of two evaluations of the same float formula.
ROUND_OFF = 1e-12


class CheckFailed(Exception):
    """An output of the library is wrong."""


class KnownFault(CheckFailed):
    """A check fails because of a known fault that the benchmark keeps in view."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent discrete energy


def _turning(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Signed angle from u to v, counterclockwise positive."""
    return np.arctan2(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0], u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1])


def direction(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def clamp_directions(network) -> list[tuple]:
    """Per curve, the prescribed travel directions at its start and at its end.

    A theta curve i leaves junction 0 along slot i and arrives at junction 1
    against slot i; a degenerate-theta lobe i leaves the four-point along slot
    2i and comes back against slot 2i + 1.  Junction-free kinds have free ends.
    """
    if network.kind in ("theta", "generalized_theta"):
        j0, j1 = network.junctions
        return [
            (direction(j0.frame_angle + j0.offsets[i]), -direction(j1.frame_angle + j1.offsets[i]))
            for i in range(len(network.curves))
        ]
    if network.kind == "degenerate_theta":
        (j,) = network.junctions
        return [
            (direction(j.frame_angle + j.offsets[2 * i]), -direction(j.frame_angle + j.offsets[2 * i + 1]))
            for i in range(len(network.curves))
        ]
    return [(None, None)] * len(network.curves)


def curve_energy(points: np.ndarray, closed: bool, clamp_start=None, clamp_end=None) -> tuple[float, float]:
    """(E, L): sum psi^2 / ell over the vertices plus the clamped half-cells, and the length."""
    e = (np.roll(points, -1, axis=0) - points) if closed else np.diff(points, axis=0)
    a = np.hypot(e[:, 0], e[:, 1])
    if closed:
        psi = _turning(np.roll(e, 1, axis=0), e)
        ell = 0.5 * (np.roll(a, 1) + a)
    else:
        psi = _turning(e[:-1], e[1:])
        ell = 0.5 * (a[:-1] + a[1:])
    elastic = float(np.sum(psi * psi / ell))
    if clamp_start is not None:
        elastic += float(_turning(clamp_start, e[0])) ** 2 / (0.5 * a[0])
    if clamp_end is not None:
        elastic += float(_turning(e[-1], clamp_end)) ** 2 / (0.5 * a[-1])
    return elastic, float(a.sum())


def network_energy(network) -> float:
    """F = E + L of a network, computed without the library."""
    total = 0.0
    for curve, (cs, ce) in zip(network.curves, clamp_directions(network)):
        elastic, length = curve_energy(curve.points, curve.closed, cs, ce)
        total += elastic + length
    return total


def regular_polygon_energy(radius: float, n: int) -> float:
    """F of the regular n-gon inscribed in a circle: n psi^2 / a + n a."""
    psi = 2.0 * math.pi / n
    a = 2.0 * radius * math.sin(math.pi / n)
    return n * psi * psi / a + n * a


def check_energy(network, f_library: float, what: str) -> float:
    """The library's F of ``network`` agrees with the independent one to round-off."""
    f_own = network_energy(network)
    require(
        math.isfinite(f_library) and abs(f_library - f_own) <= ROUND_OFF * max(1.0, abs(f_own)),
        f"{what}: F = {f_library!r}, independent evaluation gives {f_own!r}",
    )
    return f_own


# ---------------------------------------------------------------------------
# crossings


def _segments(points: np.ndarray, closed: bool) -> np.ndarray:
    end = np.roll(points, -1, axis=0) if closed else points[1:]
    start = points if closed else points[:-1]
    return np.stack([start, end], axis=1)


def _orient(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])


def _proper_crossings(sa: np.ndarray, sb: np.ndarray, same: bool) -> int:
    """Pairs of segments whose interiors cross transversally.

    Segments that share an endpoint give a zero orientation and never count,
    which also leaves out neighbours along a curve and contacts at junctions.
    """
    count = 0
    for i in range(len(sa)):
        rest = sb[i + 1 :] if same else sb
        p, q = sa[i, 0], sa[i, 1]
        r, s = rest[:, 0], rest[:, 1]
        hit = (_orient(p, q, r) * _orient(p, q, s) < 0) & (_orient(r, s, p) * _orient(r, s, q) < 0)
        count += int(np.count_nonzero(hit))
    return count


def count_crossings(network) -> int:
    """Self-intersections plus pairwise crossings, by testing every pair of segments."""
    segs = [_segments(c.points, c.closed) for c in network.curves]
    total = 0
    for i, si in enumerate(segs):
        total += _proper_crossings(si, si, same=True)
        for sj in segs[i + 1 :]:
            total += _proper_crossings(si, sj, same=False)
    return total


def check_crossings(found: int, expected: int, what: str) -> None:
    require(found == expected, f"{what}: injectivity_report counts {found} crossings, expected {expected}")


# ---------------------------------------------------------------------------
# networks and round trips


def check_same_network(a, b, what: str) -> None:
    """Bitwise equality of kind, points, junctions and prescribed angles."""
    require(a.kind == b.kind, f"{what}: kind {a.kind!r} came back as {b.kind!r}")
    require(len(a.curves) == len(b.curves), f"{what}: curve count changed")
    for i, (ca, cb) in enumerate(zip(a.curves, b.curves)):
        require(
            ca.closed == cb.closed
            and ca.points.shape == cb.points.shape
            and ca.points.tobytes() == cb.points.tobytes(),
            f"{what}: points of curve {i} differ",
        )
    require(len(a.junctions) == len(b.junctions), f"{what}: junction count changed")
    for i, (ja, jb) in enumerate(zip(a.junctions, b.junctions)):
        require(
            ja.position.tobytes() == jb.position.tobytes()
            and ja.frame_angle == jb.frame_angle
            and ja.offsets == jb.offsets,
            f"{what}: junction {i} differs",
        )
    require(a.prescribed_angles == b.prescribed_angles, f"{what}: prescribed angles differ")


def check_junction_incidence(network, what: str, on_frame_rays: bool) -> None:
    """Curve ends sit bitwise on their junctions; with ``on_frame_rays`` the
    first and last edges also leave along the prescribed directions."""
    if network.kind in ("theta", "generalized_theta"):
        ends = [tuple(network.junctions)] * 3
    elif network.kind == "degenerate_theta":
        ends = [network.junctions * 2] * 2
    else:
        return
    for curve, (j_start, j_end), (cs, ce) in zip(network.curves, ends, clamp_directions(network)):
        p = curve.points
        for end, nxt, junction, direction in ((p[0], p[1], j_start, cs), (p[-1], p[-2], j_end, -ce)):
            require(end.tobytes() == junction.position.tobytes(), f"{what}: a curve end is off its junction")
            if on_frame_rays:
                edge = nxt - end
                cross = edge[0] * direction[1] - edge[1] * direction[0]
                require(
                    abs(cross) <= 1e-12 * float(np.hypot(*edge)) and float(edge @ direction) > 0.0,
                    f"{what}: an end edge leaves its junction off the frame ray",
                )


# ---------------------------------------------------------------------------
# solver results


def check_honest_label(termination: str, grad_norm: float, grad_tol: float, what: str) -> None:
    """A run labelled converged must end with |g| <= grad_tol."""
    if termination == "converged" and not grad_norm <= grad_tol:
        raise KnownFault(f"{what}: labelled converged with |g| = {grad_norm:.3g} > grad_tol {grad_tol:g}")


def check_descent_trace(trace, resample_iterations, what: str) -> None:
    """F never rises between iterations, except across a logged resampling."""
    trace = np.asarray(trace, float)
    require(len(trace) > 0 and bool(np.all(np.isfinite(trace))), f"{what}: non-finite energy trace")
    skip = set(resample_iterations)
    for i in range(1, len(trace)):
        if i not in skip and trace[i] > trace[i - 1] + 1e-10 * max(1.0, trace[i - 1]):
            raise CheckFailed(f"{what}: F rises from {trace[i - 1]!r} to {trace[i]!r} at iteration {i}")


def check_near(value: float, target: float, rel_tol: float, what: str) -> None:
    rel = abs(value - target) / abs(target)
    require(rel < rel_tol, f"{what}: {value!r} is {rel:.2e} from {target!r} (tolerance {rel_tol:g})")


def symmetry_defect(c1_points: np.ndarray, c2_points: np.ndarray) -> float:
    """max |gamma_2(t) + gamma_1(1 - t)|: zero for a point-symmetric double drop."""
    return float(np.max(np.abs(c2_points + c1_points[::-1])))


# ---------------------------------------------------------------------------
# residuals


def discrete_arc_curvature(points: np.ndarray) -> float:
    """psi / ell at the first interior vertex: constant along a uniformly sampled arc."""
    e = np.diff(points[:3], axis=0)
    a = np.hypot(e[:, 0], e[:, 1])
    return float(_turning(e[0], e[1])) / (0.5 * (a[0] + a[1]))


def check_arc_residuals(network, interior, scalars=(), vectors=(), what: str = "") -> None:
    """Residuals of a network of uniformly sampled arcs and segments.

    There k is constant along each curve and k' = 0, so the interior residual
    is k^3 - k and the junction conditions read sum k_i and sum k_i^2 tau_i.
    Round-off in the turning of nearly parallel edges puts noise of about
    eps X / h^2 on k (X the coordinate size, h the edge length), which the
    second-derivative stencil divides by h^2 and the slope by h.
    """
    pts = np.vstack([c.points for c in network.curves])
    h = min(float(np.min(np.hypot(*np.diff(c.points, axis=0).T))) for c in network.curves)
    noise = 1e3 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(pts))))
    ks = [discrete_arc_curvature(c.points) for c in network.curves]
    for k, r in zip(ks, interior):
        dev = float(np.max(np.abs(r - (k**3 - k))))
        require(dev <= noise / h**4, f"{what}: interior residual is {dev:.2e} off k^3 - k")
    clamps = clamp_directions(network)
    ends = ([(i, 0) for i in range(3)], [(i, 1) for i in range(3)])
    for scalar, vector, slots in zip(scalars, vectors, ends):
        want_s = sum(ks[i] for i, _ in slots)
        want_v = sum(ks[i] ** 2 * clamps[i][end] for i, end in slots)
        require(abs(scalar - want_s) <= noise / h**3, f"{what}: junction scalar {scalar!r}, arcs give {want_s!r}")
        require(
            float(np.max(np.abs(vector - want_v))) <= noise / h**3,
            f"{what}: junction vector {vector!r}, arcs give {want_v!r}",
        )


def check_residual_shapes(curves, residuals, what: str) -> float:
    """Finite residuals on every usable vertex; returns the largest magnitude."""
    worst = 0.0
    for c, r in zip(curves, residuals):
        usable = c.n_points if c.closed else c.n_points - 4
        require(r.shape == (usable,) and bool(np.all(np.isfinite(r))), f"{what}: residual has the wrong shape or is not finite")
        worst = max(worst, float(np.max(np.abs(r))))
    return worst
