"""Minimal static SVG scatter writer: points inside an axis box, nothing else."""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
SIZE = 480  # square canvas side, in pixels
RADIUS = 4.0  # marker radius, in pixels


def write_scatter_svg(
    path: str | Path,
    x: np.ndarray,
    y: np.ndarray,
    groups: Sequence[int] | None = None,
    title: str | None = None,
) -> None:
    """Scatter the (x, y) points into an SVG file, colored by integer group."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if groups is None:
        groups = np.zeros(x.shape[0], dtype=int)
    groups = np.asarray(groups, dtype=int)
    margin = 40.0
    span = SIZE - 2.0 * margin

    def scaled(values: np.ndarray) -> np.ndarray:
        lo, hi = float(values.min()), float(values.max())
        if hi - lo < 1e-30:
            return np.full(values.shape, 0.5 * span + margin)
        return margin + span * (values - lo) / (hi - lo)

    px = scaled(x)
    py = SIZE - scaled(y)  # svg y axis points down
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{SIZE / 2}" y="{margin / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for xi, yi, gi in zip(px, py, groups):
        color = PALETTE[int(gi) % len(PALETTE)]
        parts.append(f'<circle cx="{xi:.2f}" cy="{yi:.2f}" r="{RADIUS}" fill="{color}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="ascii")
