"""Minimal SVG rendering of networks (presentation only)."""

from __future__ import annotations

import numpy as np

from .networks import Network

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def render_svg(network: Network, width: int = 640) -> str:
    """Fixed-viewBox drawing: curves stroked per index, junctions dotted."""
    pts = np.vstack([c.points for c in network.curves])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * float(max(span))
    lo = lo - margin
    hi = hi + margin
    w = float(hi[0] - lo[0])
    h = float(hi[1] - lo[1])
    height = int(round(width * h / w))
    stroke = 0.004 * max(w, h)

    def mapped(p):
        # flip y: SVG grows downward
        return p[:, 0], hi[1] - p[:, 1] + lo[1]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{lo[0]:.6g} {lo[1]:.6g} {w:.6g} {h:.6g}">'
    ]
    for i, c in enumerate(network.curves):
        p = c.points
        if c.closed:
            p = np.vstack([p, p[0]])
        xs, ys = mapped(p)
        coords = " ".join(["%.8g,%.8g"] * len(p)) % tuple(np.column_stack([xs, ys]).ravel().tolist())
        color = _COLORS[i % len(_COLORS)]
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{stroke:.6g}"/>'
        )
    for j in network.junctions:
        xs, ys = mapped(j.position[None, :])
        lines.append(
            f'<circle cx="{xs[0]:.8g}" cy="{ys[0]:.8g}" r="{2.0 * stroke:.6g}" fill="#000000"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def save_svg(network: Network, path, width: int = 640) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(network, width))
