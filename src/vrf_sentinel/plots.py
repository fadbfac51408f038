"""Dependency-free SVG rendering: matrix heatmaps and sweep line plots.

SVG keeps the artifacts diffable and timestamp-free, so reruns are
byte-identical.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import VrfError

_CELL = 6          # heatmap cell size, px
_LEFT_GUTTER = 60  # room for row labels
_TOP_GUTTER = 24
_LEGEND_H = 34

_LINE_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _color(t: float) -> str:
    """Linear dark-blue to yellow ramp for t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    r = int(20 + 235 * t)
    g = int(24 + 210 * t)
    b = int(96 + (40 - 96) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap(
    grid: np.ndarray,
    row_labels: Iterable[str],
    col_labels: Iterable[str],
    path: str,
    title: str = "",
    highlight: set[tuple[int, int]] | None = None,
) -> None:
    """Write a heatmap SVG: rows = locales, columns = intervals, linear
    color scale with min/max in the legend, highlighted cells outlined."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise VrfError("cannot render an empty matrix")
    rows = list(row_labels)
    cols = list(col_labels)
    n_rows, n_cols = grid.shape
    if len(rows) != n_rows or len(cols) != n_cols:
        raise VrfError("label counts do not match grid shape")
    highlight = highlight or set()

    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    span = hi - lo

    width = _LEFT_GUTTER + n_cols * _CELL + 10
    height = _TOP_GUTTER + n_rows * _CELL + _LEGEND_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_LEFT_GUTTER}" y="14" font-size="11" font-family="monospace">{title}</text>',
    ]
    for i in range(n_rows):
        y = _TOP_GUTTER + i * _CELL
        if n_rows <= 40 or i % max(1, n_rows // 20) == 0:
            parts.append(
                f'<text x="2" y="{y + _CELL - 1}" font-size="5" '
                f'font-family="monospace">{rows[i]}</text>'
            )
        for j in range(n_cols):
            v = grid[i, j]
            if math.isinf(v):
                fill = "#ff00ff"  # sentinel scores get an out-of-ramp color
            else:
                fill = _color((v - lo) / span) if span > 0 else _color(0.5)
            x = _LEFT_GUTTER + j * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" fill="{fill}"/>'
            )
    for i, j in sorted(highlight):
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise VrfError(f"highlight cell {i},{j} is outside the {n_rows}x{n_cols} grid")
        x = _LEFT_GUTTER + j * _CELL
        y = _TOP_GUTTER + i * _CELL
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" fill="none" '
            f'stroke="white" stroke-width="1.5" class="highlight"/>'
        )

    legend_y = _TOP_GUTTER + n_rows * _CELL + 12
    for step in range(21):
        parts.append(
            f'<rect x="{_LEFT_GUTTER + step * 8}" y="{legend_y}" width="8" height="8" '
            f'fill="{_color(step / 20)}"/>'
        )
    if span > 0:
        scale_note = f"min={lo:.6g} max={hi:.6g}"
    else:
        scale_note = f"min=max={lo:.6g} (constant)"
    parts.append(
        f'<text x="{_LEFT_GUTTER + 176}" y="{legend_y + 8}" font-size="9" '
        f'font-family="monospace">{scale_note}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def render_sweep_svg(results, path: str, title: str = "") -> None:
    """Precision-vs-gamma line plot, one polyline per method."""
    width, height = 560, 360
    left, right, top, bottom = 60, 150, 30, 40
    plot_w = width - left - right
    plot_h = height - top - bottom

    gamma_max = max((r.gamma_grid[-1] for r in results if r.gamma_grid), default=1.0)
    if gamma_max == 0:
        gamma_max = 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="16" font-size="12" font-family="monospace">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#444"/>',
        f'<text x="{left + plot_w // 2 - 20}" y="{height - 8}" font-size="10" '
        f'font-family="monospace">gamma</text>',
        f'<text x="8" y="{top + plot_h // 2}" font-size="10" '
        f'font-family="monospace">p@k</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        y = top + plot_h * (1 - frac)
        parts.append(
            f'<line x1="{left}" y1="{y}" x2="{left + plot_w}" y2="{y}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 26}" y="{y + 3}" font-size="9" '
            f'font-family="monospace">{frac:.1f}</text>'
        )
    for idx, result in enumerate(results):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        points = []
        for gamma, precision in zip(result.gamma_grid, result.precision_at_k):
            x = left + plot_w * (gamma / gamma_max)
            y = top + plot_h * (1 - precision)
            points.append(f"{x:.2f},{y:.2f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = top + 14 * idx
        parts.append(
            f'<rect x="{left + plot_w + 8}" y="{ly}" width="10" height="3" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 22}" y="{ly + 5}" font-size="9" '
            f'font-family="monospace">{result.method} (auc={result.auc:.3f})</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
