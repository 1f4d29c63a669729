"""Minimal hand-rolled SVG charts.

Every chart is drawn through one frame, ``_chart``: the header, the axes,
the chart's own shapes, one palette polyline per series and the legend.
Output is a pure function of the data: fixed canvas, fixed palette, fixed
decimal formatting, no timestamps or generated ids, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

WIDTH, HEIGHT = 640.0, 480.0
MARGIN = 56.0
# Largest magnitude a chart scales to pixels: twice it times the canvas
# width stays finite.
MAX_VALUE = 1e305
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """A points attribute; Python floats format twice as fast as numpy scalars."""
    return " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px.tolist(), py.tolist()))


def _scale(vals, lo, hi, p_lo, p_hi):
    vals = np.asarray(vals, dtype=float)
    span = hi - lo if hi != lo else 1.0   # all values equal: each maps to p_lo
    return p_lo + (vals - lo) * (p_hi - p_lo) / span


def _bounds(xs, ys) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, y_lo, y_hi) over the lists of arrays ``xs`` and ``ys``."""
    all_x = np.concatenate([np.asarray(x, dtype=float) for x in xs])
    all_y = np.concatenate([np.asarray(y, dtype=float) for y in ys])
    if all_x.size == 0:
        raise ValidationError("series are empty")
    return float(all_x.min()), float(all_x.max()), float(all_y.min()), float(all_y.max())


def _chart(path: str, title: str, series, bounds, xlabel: str, ylabel: str,
           shapes=lambda to_px: []) -> None:
    """Write the chart at ``path``: the title, axes over ``bounds`` =
    (x_lo, x_hi, y_lo, y_hi), the parts ``shapes(to_px)`` returns, one palette
    polyline per (label, xs, ys) series and the legend.  ``to_px(xs, ys)``
    maps data coordinates to pixel arrays."""
    x_lo, x_hi, y_lo, y_hi = bounds
    x0, x1 = MARGIN, WIDTH - MARGIN
    y0, y1 = HEIGHT - MARGIN, MARGIN

    def to_px(xs, ys):
        return _scale(xs, x_lo, x_hi, x0, x1), _scale(ys, y_lo, y_hi, y0, y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(WIDTH)}" '
        f'height="{int(HEIGHT)}" viewBox="0 0 {int(WIDTH)} {int(HEIGHT)}">',
        f'<rect x="0" y="0" width="{int(WIDTH)}" height="{int(HEIGHT)}" fill="white"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(HEIGHT - 16)}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{ylabel}</text>',
    ]
    for val, px in ((x_lo, x0), (x_hi, x1)):
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{val:.4g}</text>')
    for val, py in ((y_lo, y0), (y_hi, y1)):
        parts.append(f'<text x="{_fmt(x0 - 6)}" y="{_fmt(py + 4)}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{val:.4g}</text>')
    parts += shapes(to_px)
    legend = []
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<polyline points="{_points(*to_px(xs, ys))}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        y = MARGIN + 16.0 * i
        legend.append(f'<rect x="{_fmt(WIDTH - MARGIN - 150)}" y="{_fmt(y - 9)}" '
                      f'width="10" height="10" fill="{color}"/>')
        legend.append(f'<text x="{_fmt(WIDTH - MARGIN - 136)}" y="{_fmt(y)}" '
                      f'font-family="monospace" font-size="11">{label}</text>')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts + legend + ["</svg>"]) + "\n")


def svg_line_chart(series, path: str, title: str = "",
                   xlabel: str = "x", ylabel: str = "y") -> None:
    """Polyline chart; series is a list of (label, xs, ys)."""
    if not series:
        raise ValidationError("need at least one series")
    bounds = _bounds([s[1] for s in series], [s[2] for s in series])
    _chart(path, title, series, bounds, xlabel, ylabel)


def svg_bar_chart(counts, vrange, path: str, title: str = "",
                  xlabel: str = "value") -> None:
    """Histogram bars over [lo, hi] with equal-width bins."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValidationError("need at least one bin")
    lo, hi = vrange
    y_hi = float(counts.max()) if counts.max() > 0 else 1.0
    bar_w = (WIDTH - 2 * MARGIN) / counts.size
    heights = ((HEIGHT - 2 * MARGIN) * counts / y_hi).tolist()
    bars = [f'<rect x="{_fmt(MARGIN + i * bar_w)}" y="{_fmt(HEIGHT - MARGIN - h)}" '
            f'width="{_fmt(bar_w * 0.92)}" height="{_fmt(h)}" fill="{PALETTE[0]}"/>'
            for i, h in enumerate(heights)]
    _chart(path, title, [], (lo, hi, 0.0, y_hi), xlabel, "count", lambda to_px: bars)


def svg_trajectory(series, path: str, scenario=None, title: str = "") -> None:
    """Top-down overlay at equal aspect: one polyline per (label, xs, ys)
    series, obstacles drawn as rectangles and cones as small circles when a
    scenario is given."""
    if not series:
        raise ValidationError("need at least one trace")
    boxes = [box.corners() for box in scenario.boxes] if scenario is not None else []
    cones = np.array(scenario.cones if scenario is not None else (),
                     dtype=float).reshape(-1, 2)
    x_lo, x_hi, y_lo, y_hi = _bounds(
        [s[1] for s in series] + [c[:, 0] for c in boxes] + [cones[:, 0]],
        [s[2] for s in series] + [c[:, 1] for c in boxes] + [cones[:, 1]])
    pad_x = 0.05 * max(x_hi - x_lo, 1e-9)
    pad_y = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    # Equal aspect: widen the shorter world axis around its midpoint.
    span = max(x_hi - x_lo, y_hi - y_lo)
    mx, my = (x_lo + x_hi) / 2, (y_lo + y_hi) / 2
    bounds = (mx - span / 2, mx + span / 2, my - span / 2, my + span / 2)

    def shapes(to_px):
        parts = [f'<polygon points="{_points(*to_px(c[:, 0], c[:, 1]))}" fill="#cccccc" '
                 f'stroke="black" stroke-width="1"/>' for c in boxes]
        px, py = to_px(cones[:, 0], cones[:, 1])
        return parts + [f'<circle cx="{_fmt(a)}" cy="{_fmt(b)}" r="4" fill="#ff7f0e" '
                        f'stroke="black" stroke-width="1"/>'
                        for a, b in zip(px.tolist(), py.tolist())]

    _chart(path, title, series, bounds, "x [m]", "y [m]", shapes)
