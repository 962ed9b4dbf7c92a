"""Crossing audit of a network: transversal self-intersections and crossings.

``elastinet.minimize`` re-exports both names, where the audit used to live.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .networks import Network

__all__ = ["InjectivityReport", "injectivity_report"]


@dataclass(frozen=True)
class InjectivityReport:
    self_intersections: tuple[int, ...]
    pairwise_crossings: tuple[tuple[int, int, int], ...]

    @property
    def total(self) -> int:
        return sum(self.self_intersections) + sum(c for _, _, c in self.pairwise_crossings)


def _segments(points: np.ndarray, closed: bool) -> np.ndarray:
    """The segments of one curve as four rows: x and y of their starts, then of their ends."""
    pts = points.T
    end = np.concatenate([pts[:, 1:], pts[:, :1]], axis=1) if closed else pts[:, 1:]
    return np.concatenate([pts[:, : end.shape[1]], end])


# Boxes that would touch more grid cells than this are tested directly
# against every box they overlap, so one long edge cannot make the grid's
# incidences quadratic.
_MAX_CELLS_PER_BOX = 64


def _candidate_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``u < v`` of boxes that may overlap, each pair once; box k spans
    ``lo[:, k]`` to ``hi[:, k]``, row 0 in x and row 1 in y.

    The grid cells are the squares ``[m h, (m + 1) h)`` of a lattice through
    the origin, with ``h`` twice the middle (upper median) box size.  A box's
    cell range comes from monotone rounding of its corners, so two boxes that
    share a point share a cell.  Boxes over ``_MAX_CELLS_PER_BOX`` cells (long
    edges) are paired instead with every box whose box overlaps theirs.
    """
    k = lo.shape[1]
    extent = hi - lo
    sizes = np.maximum(extent[0], extent[1])
    size = 2.0 * float(np.partition(sizes, k // 2)[k // 2])
    reach = float(max(hi.max(), -lo.min()))  # the largest |coordinate|, as lo <= hi
    h = max(size, reach * 2.0**-50)  # cell indices stay below 2**50
    f_lo = np.floor(lo / h)
    width = np.floor(hi / h) - f_lo + 1  # cells per box along x and along y
    n_cells = width[0] * width[1]
    is_long = n_cells > _MAX_CELLS_PER_BOX
    grid = np.flatnonzero(~is_long)
    lx, ly = np.take(f_lo, grid, axis=1).astype(np.int64)
    span = width[1, grid].astype(np.int64)
    n_cells = n_cells[grid].astype(np.int64)
    # one incidence per (box, cell) it touches, in box order
    at = np.repeat(np.arange(len(grid)), n_cells)
    row, col = np.divmod(np.arange(len(at)) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells), span[at])
    cx, cy = lx[at] + row, ly[at] + col
    # sorted by cell; lexsort is stable, so the boxes in a cell stay in order
    order = np.lexsort((cy, cx))
    at, cx, cy = at[order], cx[order], cy[order]
    # every incidence pairs with the later ones in its cell
    run = np.ones(len(at) + 1, dtype=bool)
    run[1:-1] = (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
    run = np.flatnonzero(run)  # where each cell's incidences start, then len(at)
    later = np.repeat(run[1:], run[1:] - run[:-1]) - np.arange(1, len(at) + 1)
    first = np.repeat(np.arange(len(at)), later)
    second = np.arange(1, len(first) + 1) + first - np.repeat(np.cumsum(later) - later, later)
    a, b = at[first], at[second]
    # keep a pair only in the lowest cell of both boxes' common range
    keep = (cx[first] == np.maximum(lx[a], lx[b])) & (cy[first] == np.maximum(ly[a], ly[b]))
    us, vs = [grid[a[keep]]], [grid[b[keep]]]

    long_boxes = np.flatnonzero(is_long)
    block = max(1, 2**20 // k)
    for start in range(0, len(long_boxes), block):
        rows = long_boxes[start : start + block]
        overlap = ((lo[:, None] <= hi[:, rows, None]) & (hi[:, None] >= lo[:, rows, None])).all(axis=0)
        # a pair of long boxes is taken from its first box only
        overlap &= ~is_long | (np.arange(k) > rows[:, None])
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
    curves, n = network.curves, len(network.curves)
    segs = [_segments(c.points, c.closed) for c in curves]
    seg = np.concatenate(segs, axis=1)
    start, end = seg[:2], seg[2:]
    eps = 1e-12 * max(network.diameter, 1e-30)

    u, v = _candidate_pairs(np.minimum(start, end) - eps, np.maximum(start, end) + eps)
    # each coordinate holds segment u = (p, q) in row 0 and v = (r, s) in row 1;
    # c_start holds (q - p) x (r - p) for u and (s - r) x (p - r) for v, c_end
    # (q - p) x (s - p) and (s - r) x (q - r): zero at a shared end
    x0, y0, x1, y1 = np.take(seg, np.stack([u, v]), axis=1)
    dx, dy = x1 - x0, y1 - y0
    c_start = dx * (y0[::-1] - y0) - dy * (x0[::-1] - x0)
    c_end = dx * (y1[::-1] - y0) - dy * (x1[::-1] - x0)
    # opposite signs, compared without their product, which can overflow
    hit = np.sign(c_start) * np.sign(c_end) < 0
    u, v = u[hit[0] & hit[1]], v[hit[0] & hit[1]]
    if len(u):  # ends closer than eps are shared: junctions, drop closure points
        gap = np.linalg.norm(seg[:, u].reshape(2, 1, 2, -1) - seg[:, v].reshape(1, 2, 2, -1), axis=2)
        apart = (gap > eps).all(axis=(0, 1))
        u, v = u[apart], v[apart]

    curve = np.repeat(np.arange(n), [s.shape[1] for s in segs])
    crossings = Counter(zip(curve[u].tolist(), curve[v].tolist()))  # by curve pair (i, j), i <= j as u < v
    return InjectivityReport(
        tuple(crossings[i, i] for i in range(n)),
        tuple((i, j, crossings[i, j]) for i in range(n) for j in range(i + 1, n)),
    )
