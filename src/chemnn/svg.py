"""Dependency-free SVG writers: polyline time-series charts and grid heatmaps."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["line_chart", "heatmap"]

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def line_chart(
    path,
    x: np.ndarray,
    series: Sequence[Tuple[str, np.ndarray]],
    title: str = "",
    width: int = 900,
    height: int = 420,
) -> None:
    """Write a labeled multi-series polyline chart."""
    x = np.asarray(x, dtype=float)
    left, right, top, bottom = 60, 150, 30, 40
    pw, ph = width - left - right, height - top - bottom
    ys = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return top + (1.0 - (v - y_lo) / (y_hi - y_lo)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="18" font-size="14">{title}</text>' if title else "",
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#999"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{left - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end">{_fmt(yv)}</text>'
        )
        xv = x_lo + frac * (x_hi - x_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - bottom + 16}" text-anchor="middle">{_fmt(xv)}</text>'
        )
    for idx, (label, values) in enumerate(series):
        values = np.asarray(values, dtype=float)
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, values))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 14 * (idx + 1)
        parts.append(f'<line x1="{width - right + 8}" y1="{ly - 4}" x2="{width - right + 28}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - right + 32}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(p for p in parts if p) + "\n")


def heatmap(
    path,
    grid: np.ndarray,
    title: str = "",
    extent: Tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
    cell: int = 36,
) -> None:
    """Write a value grid as colored cells (blue 0 to red 1), row 0 at the bottom."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    rows, cols = grid.shape
    left, top, bottom = 50, 30, 34
    width = left + cols * cell + 20
    height = top + rows * cell + bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="18" font-size="14">{title}</text>' if title else "",
    ]
    for r in range(rows):
        for c in range(cols):
            v = min(1.0, max(0.0, float(grid[r, c])))
            red = int(255 * v)
            blue = int(255 * (1.0 - v))
            x = left + c * cell
            y = top + (rows - 1 - r) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({red},64,{blue})" stroke="white" stroke-width="1">'
                f"<title>{v:.4f}</title></rect>"
            )
    x0, x1, y0, y1 = extent
    parts.append(f'<text x="{left}" y="{height - 12}" text-anchor="middle">{_fmt(x0)}</text>')
    parts.append(f'<text x="{left + cols * cell}" y="{height - 12}" text-anchor="middle">{_fmt(x1)}</text>')
    parts.append(f'<text x="{left - 8}" y="{top + rows * cell}" text-anchor="end">{_fmt(y0)}</text>')
    parts.append(f'<text x="{left - 8}" y="{top + 10}" text-anchor="end">{_fmt(y1)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(p for p in parts if p) + "\n")
