"""Tiny deterministic SVG emitter for trajectory and region plots.

Fixed 800x600 viewport, no external assets, no timestamps: identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import math

import numpy as np

from ._textfmt import svg_number, svg_rows

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 46
MARGIN_BOTTOM = 56

PALETTE = ("#1f6fb4", "#d95f2b", "#2f9e57", "#b43ab4", "#7d7d23", "#3ac2c2", "#8049d9")
STABLE_FILL = "#74c0a0"
UNSTABLE_FILL = "#d98080"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


class _Frame:
    """Affine map from data coordinates to the plotting viewport."""

    def __init__(self, x_min, x_max, y_min, y_max):
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            x_min, x_max = 0.0, 1.0
        if not (math.isfinite(y_min) and math.isfinite(y_max)):
            y_min, y_max = 0.0, 1.0
        if x_max <= x_min:
            pad = max(1.0, abs(x_min))
            x_min, x_max = x_min - pad, x_min + pad
        if y_max <= y_min:
            pad = max(1.0, abs(y_min))
            y_min, y_max = y_min - pad, y_min + pad
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max
        self.px_left = MARGIN_LEFT
        self.px_right = WIDTH - MARGIN_RIGHT
        self.px_top = MARGIN_TOP
        self.px_bottom = HEIGHT - MARGIN_BOTTOM

    def x(self, value: float) -> float:
        frac = (value - self.x_min) / (self.x_max - self.x_min)
        return self.px_left + frac * (self.px_right - self.px_left)

    def y(self, value: float) -> float:
        frac = (value - self.y_min) / (self.y_max - self.y_min)
        return self.px_bottom - frac * (self.px_bottom - self.px_top)


def _header() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]


def _axes(frame: _Frame, title: str, xlabel: str, ylabel: str) -> list[str]:
    parts = [
        f'<rect x="{frame.px_left}" y="{frame.px_top}" '
        f'width="{frame.px_right - frame.px_left}" '
        f'height="{frame.px_bottom - frame.px_top}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    ]
    n_ticks = 5
    for i in range(n_ticks):
        frac = i / (n_ticks - 1)
        xv = frame.x_min + frac * (frame.x_max - frame.x_min)
        px = frame.x(xv)
        parts.append(
            f'<line x1="{svg_number(px)}" y1="{frame.px_bottom}" x2="{svg_number(px)}" '
            f'y2="{frame.px_bottom + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{svg_number(px)}" y="{frame.px_bottom + 20}" font-size="12" '
            f'font-family="monospace" text-anchor="middle">{_tick_label(xv)}</text>'
        )
        yv = frame.y_min + frac * (frame.y_max - frame.y_min)
        py = frame.y(yv)
        parts.append(
            f'<line x1="{frame.px_left - 5}" y1="{svg_number(py)}" x2="{frame.px_left}" '
            f'y2="{svg_number(py)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{frame.px_left - 9}" y="{svg_number(py + 4)}" font-size="12" '
            f'font-family="monospace" text-anchor="end">{_tick_label(yv)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH // 2}" y="24" font-size="15" font-family="monospace" '
        f'text-anchor="middle">{title}</text>'
    )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 14}" font-size="13" '
        f'font-family="monospace" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT // 2}" font-size="13" font-family="monospace" '
        f'text-anchor="middle" transform="rotate(-90 18 {HEIGHT // 2})">{ylabel}</text>'
    )
    return parts


def _points(frame: _Frame, xs: np.ndarray, ys: np.ndarray) -> str:
    """``x,y`` pixel pairs of data points, space-separated."""
    return svg_rows([frame.x(xs), ",", frame.y(ys), " "])[:-1]


def _extreme(values: np.ndarray, default: float, first_index) -> float:
    """``min``/``max`` of ``values`` (``first_index`` is ``np.argmin`` or
    ``np.argmax``) as Python picks it: the first of equal values, so the
    sign of a zero is kept; ``default`` when there are none."""
    return float(values[first_index(values)]) if values.size else default


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """Polyline chart of (name, xs, ys) series with a small legend."""
    arrays = [(name, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for name, xs, ys in series]
    xs_all = np.concatenate([[]] + [xs[np.isfinite(xs)] for _, xs, _ in arrays])
    ys_all = np.concatenate([[]] + [ys[np.isfinite(ys)] for _, _, ys in arrays])
    frame = _Frame(
        _extreme(xs_all, 0.0, np.argmin),
        _extreme(xs_all, 1.0, np.argmax),
        _extreme(ys_all, 0.0, np.argmin),
        _extreme(ys_all, 1.0, np.argmax),
    )
    parts = _header()
    parts.extend(_axes(frame, title, xlabel, ylabel))
    for idx, (name, xs, ys) in enumerate(arrays):
        color = PALETTE[idx % len(PALETTE)]
        xs, ys = xs[: len(ys)], ys[: len(xs)]
        shown = np.isfinite(xs) & np.isfinite(ys)
        if shown.any():
            parts.append(
                f'<polyline points="{_points(frame, xs[shown], ys[shown])}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = MARGIN_TOP + 16 + 16 * idx
        parts.append(
            f'<line x1="{frame.px_right - 150}" y1="{ly - 4}" '
            f'x2="{frame.px_right - 126}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{frame.px_right - 120}" y="{ly}" font-size="12" '
            f'font-family="monospace">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _edges(values: list[float]) -> np.ndarray:
    """Cell edges around grid values: midpoints, mirrored at both ends; a
    single value gets a band of max(0.5, 5%) of its magnitude."""
    if len(values) == 1:
        half = max(0.5, abs(values[0]) * 0.05)
        return np.array([values[0] - half, values[0] + half])
    mids = [0.5 * (values[i] + values[i + 1]) for i in range(len(values) - 1)]
    first = values[0] - (mids[0] - values[0])
    last = values[-1] + (values[-1] - mids[-1])
    return np.array([first] + mids + [last])


def _clip(edges: np.ndarray, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's (max(lower edge, low), min(upper edge, high)), with
    Python's choice among equal values."""
    lower, upper = edges[:-1], edges[1:]
    return np.where(low > lower, low, lower), np.where(high < upper, high, upper)


def region_map(
    x_values,
    y_values,
    stable_grid,
    boundary,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Two-color stability map over a rectangular grid with an optional
    boundary polyline overlay. ``stable_grid[i][j]`` (any nx x ny boolean
    array-like) pairs with (x_values[i], y_values[j])."""
    x_list = np.asarray(x_values, dtype=float).tolist()
    y_list = np.asarray(y_values, dtype=float).tolist()
    frame = _Frame(min(x_list), max(x_list), min(y_list), max(y_list))
    parts = _header()
    x_low, x_high = _clip(_edges(x_list), frame.x_min, frame.x_max)
    y_low, y_high = _clip(_edges(y_list), frame.y_min, frame.y_max)
    x0, x1 = frame.x(x_low), frame.x(x_high)
    y0, y1 = frame.y(y_high), frame.y(y_low)
    xs = [(svg_number(x), svg_number(w)) for x, w in zip(x0.tolist(), (x1 - x0).tolist())]
    ys = [(svg_number(y), svg_number(h)) for y, h in zip(y0.tolist(), (y1 - y0).tolist())]
    fill = (UNSTABLE_FILL, STABLE_FILL)  # by stability
    # One string per column, so no more than a column of rectangles is held
    # as small strings at a time.
    parts.append("\n".join([
        "\n".join([f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill[stable]}"/>'
                   for (y, h), stable in zip(ys, column)])
        for (x, w), column in zip(xs, np.asarray(stable_grid, dtype=bool).tolist())
    ]))
    if boundary:
        points = np.asarray(boundary, dtype=float)
        parts.append(
            f'<polyline points="{_points(frame, points[:, 0], points[:, 1])}" fill="none" '
            f'stroke="#111111" stroke-width="2"/>'
        )
    parts.extend(_axes(frame, title, xlabel, ylabel))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
