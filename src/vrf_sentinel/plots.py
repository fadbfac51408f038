"""Dependency-free SVG rendering: matrix heatmaps and sweep line plots.

SVG keeps the artifacts diffable and timestamp-free, so reruns are
byte-identical. Titles, row labels and method names are XML-escaped, and
characters XML cannot hold (most C0 controls) become U+FFFD, so any locale
text gives a well-formed file; plain text keeps its bytes. A
heatmap is coloured and written a grid row at a time, each cell's fill
text looked up by its colour code, so beside its input it holds the finite
cells that set its scale and one row's arrays and text, never the file.
"""

from __future__ import annotations

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


def _ramp(t: np.ndarray) -> np.ndarray:
    """Linear dark-blue to yellow ramp: a 0xRRGGBB code per t, with t
    clamped to [0, 1] and NaN taken as 0."""
    t = np.fmin(np.fmax(t, 0.0), 1.0)  # fmax drops a NaN, as max(0.0, nan) does
    r = (20 + 235 * t).astype(np.int64)
    g = (24 + 210 * t).astype(np.int64)
    b = (96 + (40 - 96) * t).astype(np.int64)
    return r << 16 | g << 8 | b


# SVG character data for each character that cannot stand as itself: the
# characters XML 1.0 allows in no form, not even as a reference (the C0
# controls but tab, LF and CR, and U+FFFE and U+FFFF), become U+FFFD; the
# markup characters become entities; a carriage return is kept as a
# reference, which an XML reader would otherwise turn into a newline.
_XML_TEXT = dict.fromkeys(
    [c for c in range(0x20) if chr(c) not in "\t\n\r"] + [0xFFFE, 0xFFFF], "\ufffd"
) | {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", ord("\r"): "&#13;"}


def _text(text: str) -> str:
    """`text` as SVG character data (see `_XML_TEXT`)."""
    return text.translate(_XML_TEXT)


def _row_codes(row: np.ndarray, lo: float, span: float) -> np.ndarray:
    """The colour code of each cell of a grid row whose finite cells span
    [lo, lo + span]: its place on the ramp, the ramp's middle when span is 0,
    and an out-of-ramp colour for ±inf."""
    if span > 0:
        # a cell far from lo overflows to inf, and inf / inf is nan: the ramp clamps both
        with np.errstate(over="ignore", invalid="ignore"):
            codes = _ramp((row - lo) / span)
    else:
        codes = _ramp(np.full(row.shape, 0.5))
    codes[np.isinf(row)] = 0xFF00FF
    return codes


class _Fills(dict):
    """Colour code -> the fill text that ends a cell's rect line, made on
    first use."""

    def __missing__(self, code: int) -> str:
        self[code] = fill = f'#{code:06x}"/>\n'
        return fill


def render_heatmap(
    grid: np.ndarray,
    row_labels: Iterable[str],
    col_labels: Iterable[str],
    path: str,
    title: str = "",
    highlight: set[tuple[int, int]] | None = None,
) -> None:
    """Write a heatmap SVG: rows = locales, columns = intervals, linear
    color scale with min/max in the legend, highlighted cells outlined.
    ±inf cells get an out-of-ramp color; a constant grid is drawn at the
    ramp's middle."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise VrfError("cannot render an empty matrix")
    rows = list(row_labels)
    cols = list(col_labels)
    n_rows, n_cols = grid.shape
    if len(rows) != n_rows or len(cols) != n_cols:
        raise VrfError("label counts do not match grid shape")
    highlight = sorted(highlight or ())
    for i, j in highlight:
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise VrfError(f"highlight cell {i},{j} is outside the {n_rows}x{n_cols} grid")

    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    span = hi - lo

    fills = _Fills()
    # one rect line per cell: x prefix, then y and size, then fill
    cells: list[str] = [""] * (3 * n_cols)
    cells[0::3] = [f'<rect x="{_LEFT_GUTTER + j * _CELL}" y="' for j in range(n_cols)]

    width = _LEFT_GUTTER + n_cols * _CELL + 10
    height = _TOP_GUTTER + n_rows * _CELL + _LEGEND_H
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="{_LEFT_GUTTER}" y="14" font-size="11" font-family="monospace">'
            f"{_text(title)}</text>\n"
        )
        for i in range(n_rows):
            y = _TOP_GUTTER + i * _CELL
            if n_rows <= 40 or i % max(1, n_rows // 20) == 0:
                fh.write(
                    f'<text x="2" y="{y + _CELL - 1}" font-size="5" '
                    f'font-family="monospace">{_text(rows[i])}</text>\n'
                )
            cells[1::3] = [f'{y}" width="{_CELL}" height="{_CELL}" fill="'] * n_cols
            cells[2::3] = map(fills.__getitem__, _row_codes(grid[i], lo, span).tolist())
            fh.write("".join(cells))
        for i, j in highlight:
            fh.write(
                f'<rect x="{_LEFT_GUTTER + j * _CELL}" y="{_TOP_GUTTER + i * _CELL}" '
                f'width="{_CELL}" height="{_CELL}" fill="none" '
                f'stroke="white" stroke-width="1.5" class="highlight"/>\n'
            )
        legend_y = _TOP_GUTTER + n_rows * _CELL + 12
        for step, code in enumerate(_ramp(np.arange(21) / 20).tolist()):
            fh.write(
                f'<rect x="{_LEFT_GUTTER + step * 8}" y="{legend_y}" width="8" height="8" '
                f'fill="#{code:06x}"/>\n'
            )
        if span > 0:
            scale_note = f"min={lo:.6g} max={hi:.6g}"
        else:
            scale_note = f"min=max={lo:.6g} (constant)"
        fh.write(
            f'<text x="{_LEFT_GUTTER + 176}" y="{legend_y + 8}" font-size="9" '
            f'font-family="monospace">{scale_note}</text>\n'
            "</svg>\n"
        )


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
        f'<text x="{left}" y="16" font-size="12" font-family="monospace">{_text(title)}</text>',
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
            f'font-family="monospace">{_text(result.method)} (auc={result.auc:.3f})</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
