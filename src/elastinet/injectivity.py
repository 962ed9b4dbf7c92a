"""Crossing audit of a network: transversal self-intersections and crossings,
found among the pairs of segments that share a cell of a multi-level grid.

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


# A box is owned by the finest grid on which it touches at most about this many cells.
_CELLS = 64


def _candidate_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``u < v`` of boxes that may overlap, each pair once; box k spans
    ``lo[:, k]`` to ``hi[:, k]``, row 0 in x and row 1 in y.

    Grid l has the square cells ``[m h 2**l, (m + 1) h 2**l)`` of a lattice
    through the origin, with ``h`` twice the middle (upper median) box size.
    A box is owned by the finest grid on which it touches about ``_CELLS``
    cells at most, and visits the coarser grids that own a box, one row on
    each.  Cell ranges come from monotone rounding of the corners, so two
    boxes that share a point share a cell on every grid that holds both.
    Only owners start pairs, each in the lowest cell of both rows' ranges,
    so two boxes meet once, on the grid of the larger one.
    """
    k = lo.shape[1]
    extent = hi - lo
    sizes = np.maximum(extent[0], extent[1])
    size = 2.0 * float(np.partition(sizes, k // 2)[k // 2])
    reach = float(max(hi.max(), -lo.min()))  # the largest |coordinate|, as lo <= hi
    h = max(size, reach * 2.0**-50)  # cell indices stay below 2**50
    lo, hi = lo / h, hi / h
    box, tag = np.arange(k), 0  # the box of each row: one row per box on its own grid first
    wx, wy = extent / h
    if ((wx + 1) * (wy + 1)).max() > _CELLS:
        # the coarsening 2**l at which (wx / 2**l + 1) (wy / 2**l + 1) = _CELLS, up to round-off
        s = wx + wy
        need = (s + np.sqrt(s * s + 4 * (_CELLS - 1) * wx * wy)) / (2 * (_CELLS - 1))
        level = np.maximum(np.ceil(np.log2(need)), 0).astype(np.int64)
        used = np.flatnonzero(np.bincount(level))
        visits = [np.flatnonzero(level < g) for g in used[1:]]
        box = np.concatenate([box, *visits])
        grid = np.concatenate([level, np.repeat(used[1:], [len(v) for v in visits])])
        scale = np.exp2(-grid)
        lo, hi = lo[:, box] * scale, hi[:, box] * scale
        tag = grid << 52  # one range of cell indices per grid
    f_lo = np.floor(lo)
    width = np.floor(hi) - f_lo + 1  # cells per row along x and along y
    lx, ly = f_lo.astype(np.int64)
    lx += tag
    span = width[1].astype(np.int64)
    n_cells = (width[0] * width[1]).astype(np.int64)
    # one incidence per (row, cell) it touches, in row order
    at = np.repeat(np.arange(len(box)), n_cells)
    row, col = np.divmod(np.arange(len(at)) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells), span[at])
    cx, cy = lx[at] + row, ly[at] + col
    order = np.lexsort((cy, cx))  # by cell; stable, so a cell's owners come first, in order
    at, cx, cy, left, bottom = at[order], cx[order], cy[order], (row == 0)[order], (col == 0)[order]
    # every owner incidence pairs with the later ones in its cell
    run = np.ones(len(at) + 1, dtype=bool)
    run[1:-1] = (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
    run = np.flatnonzero(run)  # where each cell's incidences start, then len(at)
    later = np.repeat(run[1:], run[1:] - run[:-1]) - np.arange(1, len(at) + 1)
    later[at >= k] = 0  # visitors start no pair
    first = np.repeat(np.arange(len(at)), later)
    second = np.arange(len(first)) + np.repeat(np.arange(1, len(at) + 1) - np.cumsum(later) + later, later)
    # keep a pair only in the lowest cell of both rows' common range: the lowest
    # column of one row's range (left) and the lowest line of one (bottom)
    keep = (left[first] | left[second]) & (bottom[first] | bottom[second])
    u, v = box[at[first[keep]]], box[at[second[keep]]]
    return (np.minimum(u, v), np.maximum(u, v)) if len(box) > k else (u, v)  # visitors come in any order


def injectivity_report(network: Network) -> InjectivityReport:
    """Exact counts of transversal self-intersections and pairwise crossings.

    Two segments cross when each one's endpoints lie strictly on opposite
    sides of the other's line: the interiors meet in one point.  Touching
    (a vertex on another segment, a T-contact), collinear overlap and
    contacts at shared endpoints (junctions, drop closure points, neighbours
    along a curve) are not crossings.  Endpoints closer than ``1e-12`` times
    the network diameter count as shared.

    The segments' boxes are bucketed at once into square grids whose cells
    are twice the middle segment box times powers of 2: each box into the
    finest grid on which it touches at most about 64 cells, and into every
    coarser grid in use.  Only segments that share a cell are tested; the
    boxes of crossing segments overlap, so the counts are exact, the same
    as testing every pair.  Memory is O(k) per grid in use in the number of
    segments k, and time O(k) for curves sampled at comparable spacing, also
    with long edges between them, as in a comb.
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
