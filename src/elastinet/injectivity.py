"""Crossing audit of a network: transversal self-intersections and crossings.

``elastinet.minimize`` re-exports both names, where the audit used to live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DiscreteCurve
from .networks import Network, network_diameter

__all__ = ["InjectivityReport", "injectivity_report"]


@dataclass(frozen=True)
class InjectivityReport:
    self_intersections: tuple[int, ...]
    pairwise_crossings: tuple[tuple[int, int, int], ...]

    @property
    def total(self) -> int:
        return sum(self.self_intersections) + sum(c for _, _, c in self.pairwise_crossings)


def _segments(curve: DiscreteCurve) -> np.ndarray:
    pts = curve.points
    if curve.closed:
        return np.stack([pts, np.roll(pts, -1, axis=0)], axis=1)
    return np.stack([pts[:-1], pts[1:]], axis=1)


def _cross(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (a[..., 1] - o[..., 1]) * (
        b[..., 0] - o[..., 0]
    )


# Boxes that would touch more grid cells than this are tested directly
# against every box they overlap, so one long edge cannot make the grid's
# incidences quadratic.
_MAX_CELLS_PER_BOX = 64


def _candidate_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``u < v`` of boxes ``[lo, hi]`` that may overlap, each pair once.

    The grid cells are the squares ``[m h, (m + 1) h)`` of a lattice through
    the origin, with ``h`` twice the middle (upper median) box size.  A box's
    cell range comes from monotone rounding of its corners, so two boxes that
    share a point share a cell.  Boxes over ``_MAX_CELLS_PER_BOX`` cells (long
    edges) are paired instead with every box whose box overlaps theirs.
    """
    sizes = (hi - lo).max(axis=1)
    size = 2.0 * float(np.partition(sizes, len(sizes) // 2)[len(sizes) // 2])
    reach = float(max(np.abs(lo).max(), np.abs(hi).max()))
    h = max(size, reach * 2.0**-50)  # cell indices stay below 2**50
    f_lo = np.floor(lo / h)
    f_hi = np.floor(hi / h)
    n_cells = (f_hi[:, 0] - f_lo[:, 0] + 1) * (f_hi[:, 1] - f_lo[:, 1] + 1)
    is_long = n_cells > _MAX_CELLS_PER_BOX
    grid = np.flatnonzero(~is_long)
    c_lo = f_lo[grid].astype(np.int64)
    span = (f_hi[grid, 1] - f_lo[grid, 1] + 1).astype(np.int64)
    n_cells = n_cells[grid].astype(np.int64)
    # one incidence per (box, cell) it touches
    at = np.repeat(np.arange(len(grid)), n_cells)
    local = np.arange(len(at)) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells)
    cx = c_lo[at, 0] + local // span[at]
    cy = c_lo[at, 1] + local % span[at]
    order = np.lexsort((cy, cx))
    at, cx, cy = at[order], cx[order], cy[order]
    # every incidence pairs with the later ones in its cell
    run_start = np.flatnonzero(np.r_[True, (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])])
    run_len = np.diff(np.r_[run_start, len(at)])
    later = np.repeat(run_start + run_len, run_len) - np.arange(len(at)) - 1
    first = np.repeat(np.arange(len(at)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    a, b = np.minimum(at[first], at[second]), np.maximum(at[first], at[second])
    # keep a pair only in the lowest cell of both boxes' common range
    keep = (cx[first] == np.maximum(c_lo[a, 0], c_lo[b, 0])) & (cy[first] == np.maximum(c_lo[a, 1], c_lo[b, 1]))
    us, vs = [grid[a[keep]]], [grid[b[keep]]]

    long_boxes = np.flatnonzero(is_long)
    block = max(1, 2**20 // len(lo))
    for start in range(0, len(long_boxes), block):
        rows = long_boxes[start : start + block]
        overlap = np.all((lo[None] <= hi[rows, None]) & (hi[None] >= lo[rows, None]), axis=-1)
        # a pair of long boxes is taken from its first box only
        overlap &= ~is_long | (np.arange(len(lo)) > rows[:, None])
        r, other = np.nonzero(overlap)
        us.append(np.minimum(rows[r], other))
        vs.append(np.maximum(rows[r], other))
    return np.concatenate(us), np.concatenate(vs)


def injectivity_report(network: Network) -> InjectivityReport:
    """Exact counts of transversal self-intersections and pairwise crossings.

    Two segments cross when each one's endpoints lie strictly on opposite
    sides of the other's line: the interiors meet in one point.  Touching
    (a vertex on another segment, a T-contact), collinear overlap and
    contacts at shared endpoints (junctions, drop closure points, neighbours
    along a curve) are not crossings.  Endpoints closer than ``1e-12`` times
    the network diameter count as shared.

    The segments of all curves are bucketed at once into a uniform grid
    whose square cells are twice the middle segment box, and only pairs of
    segments that share a cell are tested.  A segment whose box would cover
    more than ``_MAX_CELLS_PER_BOX`` cells (a long edge) is tested instead
    against every segment whose box overlaps its own.  The boxes of crossing
    segments always overlap, so the counts are exact: the same as testing
    every pair.  For curves sampled at comparable spacing, time and memory
    are O(k) expected in the total number of segments k, plus O(k) per long
    edge.
    """
    eps = 1e-12 * max(network_diameter(network), 1e-30)
    segs = [_segments(c) for c in network.curves]
    n_curves = len(segs)
    sizes = np.array([len(s) for s in segs])
    seg = np.concatenate(segs)
    curve = np.repeat(np.arange(n_curves), sizes)
    index = np.arange(len(seg)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    closed = np.array([c.closed for c in network.curves])

    u, v = _candidate_pairs(seg.min(axis=1) - eps, seg.max(axis=1) + eps)
    cu, cv = curve[u], curve[v]
    same = cu == cv
    gap = index[v] - index[u]
    ok = ~same | (gap >= 2)
    ok &= ~(same & closed[cu] & (index[u] == 0) & (gap == sizes[cu] - 1))
    u, v, cu, cv, same = u[ok], v[ok], cu[ok], cv[ok], same[ok]

    p, q = seg[u, 0], seg[u, 1]
    r, s = seg[v, 0], seg[v, 1]
    hit = (_cross(p, q, r) * _cross(p, q, s) < 0) & (_cross(r, s, p) * _cross(r, s, q) < 0)
    for a in (p, q):
        for b in (r, s):
            hit &= np.linalg.norm(a - b, axis=-1) > eps

    self_counts = np.bincount(cu[hit & same], minlength=n_curves)
    # curve pairs (i, j), i < j, in row-major order
    ci, cj = cu[hit & ~same], cv[hit & ~same]
    slot = ci * n_curves - ci * (ci + 1) // 2 + (cj - ci - 1)
    pair_counts = np.bincount(slot, minlength=n_curves * (n_curves - 1) // 2)
    pairs = [(i, j) for i in range(n_curves) for j in range(i + 1, n_curves)]
    return InjectivityReport(
        tuple(int(c) for c in self_counts),
        tuple((i, j, int(c)) for (i, j), c in zip(pairs, pair_counts)),
    )
