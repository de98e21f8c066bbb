"""Dependency-free SVG renderers for the paper's figures.

matplotlib is unavailable offline, so the figure harnesses emit real
vector graphics through these small generators instead: scatter plots
(Fig. 5), heatmaps (Fig. 7), line charts (loss curves), and grouped bar
charts (Fig. 4 / Table 4 summaries).  Every function returns the SVG
document as a string and optionally writes it to disk; the output is
plain SVG 1.1 that any browser renders.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

PathLike = Union[str, Path]

# A colour-blind-safe categorical palette (Okabe–Ito).
PALETTE = (
    "#0072B2", "#E69F00", "#009E73", "#CC79A7",
    "#56B4E9", "#D55E00", "#F0E442", "#999999",
    "#332288", "#44AA99", "#882255", "#117733",
)


def _document(width: int, height: int, body: List[str], title: str = "") -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" font-weight="bold">'
            f"{_escape(title)}</text>"
        )
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts)


def _escape(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _maybe_write(svg: str, path: Optional[PathLike]) -> str:
    if path is not None:
        Path(path).write_text(svg)
    return svg


def _scale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    vmin, vmax = float(values.min()), float(values.max())
    span = (vmax - vmin) or 1.0
    return lo + (values - vmin) / span * (hi - lo)


def scatter_svg(
    points: np.ndarray,
    labels: np.ndarray,
    path: Optional[PathLike] = None,
    title: str = "",
    width: int = 480,
    height: int = 400,
    radius: float = 3.0,
) -> str:
    """2-D scatter coloured by integer class label (Fig. 5 panels)."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (N, 2), got {points.shape}")
    if len(labels) != len(points):
        raise ValueError("labels and points disagree in length")
    margin = 30
    xs = _scale(points[:, 0], margin, width - margin)
    ys = _scale(-points[:, 1], margin, height - margin)  # flip y for SVG
    body = [
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius}" '
        f'fill="{PALETTE[int(label) % len(PALETTE)]}" fill-opacity="0.75"/>'
        for x, y, label in zip(xs, ys, labels)
    ]
    return _maybe_write(_document(width, height, body, title), path)


def heatmap_svg(
    matrix: np.ndarray,
    path: Optional[PathLike] = None,
    title: str = "",
    cell: int = 6,
    max_cells: int = 160,
) -> str:
    """Matrix heatmap, light→dark blue over [min, max] (Fig. 7 masks)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    row_step = max(1, matrix.shape[0] // max_cells)
    col_step = max(1, matrix.shape[1] // max_cells)
    pooled = matrix[::row_step, ::col_step]
    vmin, vmax = float(pooled.min()), float(pooled.max())
    span = (vmax - vmin) or 1.0
    rows, cols = pooled.shape
    width = cols * cell + 20
    height = rows * cell + 40
    body = []
    for r in range(rows):
        for c in range(cols):
            value = (pooled[r, c] - vmin) / span
            shade = int(235 - value * 180)
            body.append(
                f'<rect x="{10 + c * cell}" y="{30 + r * cell}" '
                f'width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)"/>'
            )
    return _maybe_write(_document(width, height, body, title), path)


def line_chart_svg(
    series: Dict[str, Sequence[float]],
    path: Optional[PathLike] = None,
    title: str = "",
    width: int = 520,
    height: int = 320,
) -> str:
    """Multi-series line chart with a legend (loss / accuracy curves)."""
    if not series:
        raise ValueError("series must not be empty")
    margin = 40
    all_values = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    vmin, vmax = float(all_values.min()), float(all_values.max())
    span = (vmax - vmin) or 1.0
    body = [
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - 10}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{margin}" y2="20" '
        f'stroke="black"/>',
        f'<text x="{margin - 5}" y="{height - margin + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{vmin:.2f}</text>',
        f'<text x="{margin - 5}" y="28" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{vmax:.2f}</text>',
    ]
    for index, (name, values) in enumerate(series.items()):
        values = np.asarray(values, dtype=np.float64)
        if len(values) < 2:
            continue
        xs = np.linspace(margin, width - 10, len(values))
        ys = (height - margin) - (values - vmin) / span * (height - margin - 30)
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        colour = PALETTE[index % len(PALETTE)]
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{colour}" '
            f'stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{width - 12}" y="{30 + index * 14}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{colour}">'
            f"{_escape(name)}</text>"
        )
    return _maybe_write(_document(width, height, body, title), path)


def bar_chart_svg(
    groups: Dict[str, Dict[str, float]],
    path: Optional[PathLike] = None,
    title: str = "",
    width: int = 560,
    height: int = 340,
) -> str:
    """Grouped bar chart: {group: {series: value}} (Table-4-style summaries)."""
    if not groups:
        raise ValueError("groups must not be empty")
    series_names: List[str] = []
    for values in groups.values():
        for name in values:
            if name not in series_names:
                series_names.append(name)
    margin = 40
    vmax = max(max(values.values()) for values in groups.values()) or 1.0
    group_width = (width - margin - 20) / len(groups)
    bar_width = max(2.0, group_width / (len(series_names) + 1))
    body = [
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - 10}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for g_index, (group, values) in enumerate(groups.items()):
        x0 = margin + g_index * group_width
        for s_index, name in enumerate(series_names):
            value = values.get(name, 0.0)
            bar_height = value / vmax * (height - margin - 40)
            x = x0 + s_index * bar_width
            y = height - margin - bar_height
            colour = PALETTE[s_index % len(PALETTE)]
            body.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_width * 0.9:.1f}" '
                f'height="{bar_height:.1f}" fill="{colour}"/>'
            )
        body.append(
            f'<text x="{x0 + group_width / 2:.1f}" y="{height - margin + 14}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"{_escape(group)}</text>"
        )
    for s_index, name in enumerate(series_names):
        colour = PALETTE[s_index % len(PALETTE)]
        body.append(
            f'<text x="{width - 12}" y="{30 + s_index * 14}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{colour}">'
            f"{_escape(name)}</text>"
        )
    return _maybe_write(_document(width, height, body, title), path)
