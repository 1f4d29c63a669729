"""Minimal hand-rolled SVG charts.

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


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(WIDTH)}" '
        f'height="{int(HEIGHT)}" viewBox="0 0 {int(WIDTH)} {int(HEIGHT)}">',
        f'<rect x="0" y="0" width="{int(WIDTH)}" height="{int(HEIGHT)}" fill="white"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
    ]


def _axes(x_lo, x_hi, y_lo, y_hi, xlabel: str, ylabel: str) -> list[str]:
    x0, x1 = MARGIN, WIDTH - MARGIN
    y0, y1 = HEIGHT - MARGIN, MARGIN
    parts = [
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
    return parts


def _scale(vals, lo, hi, p_lo, p_hi):
    vals = np.asarray(vals, dtype=float)
    span = hi - lo if hi != lo else 1.0   # all values equal: each maps to p_lo
    return p_lo + (vals - lo) * (p_hi - p_lo) / span


def _legend(labels: list[str]) -> list[str]:
    parts = []
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        y = MARGIN + 16.0 * i
        parts.append(f'<rect x="{_fmt(WIDTH - MARGIN - 150)}" y="{_fmt(y - 9)}" '
                     f'width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(WIDTH - MARGIN - 136)}" y="{_fmt(y)}" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    return parts


def _write(path: str, parts: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts + ["</svg>"]) + "\n")


def svg_line_chart(series, path: str, title: str = "",
                   xlabel: str = "x", ylabel: str = "y") -> None:
    """Polyline chart; series is a list of (label, xs, ys)."""
    if not series:
        raise ValidationError("need at least one series")
    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if all_x.size == 0:
        raise ValidationError("series are empty")
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    parts = _header(title) + _axes(x_lo, x_hi, y_lo, y_hi, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(series):
        px = _scale(xs, x_lo, x_hi, MARGIN, WIDTH - MARGIN)
        py = _scale(ys, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        parts.append(f'<polyline points="{_points(px, py)}" fill="none" '
                     f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="1.5"/>')
    parts += _legend([s[0] for s in series])
    _write(path, parts)


def svg_bar_chart(counts, vrange, path: str, title: str = "",
                  xlabel: str = "value") -> None:
    """Histogram bars over [lo, hi] with equal-width bins."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValidationError("need at least one bin")
    lo, hi = vrange
    y_hi = float(counts.max()) if counts.max() > 0 else 1.0
    parts = _header(title) + _axes(lo, hi, 0.0, y_hi, xlabel, "count")
    span = WIDTH - 2 * MARGIN
    bar_w = span / counts.size
    for i, count in enumerate(counts):
        h = (HEIGHT - 2 * MARGIN) * float(count) / y_hi
        x = MARGIN + i * bar_w
        y = HEIGHT - MARGIN - h
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w * 0.92)}" '
                     f'height="{_fmt(h)}" fill="{PALETTE[0]}"/>')
    _write(path, parts)


def svg_trajectory(traces, path: str, scenario=None, title: str = "") -> None:
    """Top-down overlay: one polyline per (label, xy) trace, obstacles drawn
    as rectangles and cones as small circles when a scenario is given."""
    if not traces:
        raise ValidationError("need at least one trace")
    chunks = [np.asarray(xy, dtype=float) for _, xy in traces]
    all_pts = [np.concatenate(chunks)]
    if scenario is not None:
        for box in scenario.boxes:
            all_pts.append(box.corners())
        if scenario.cones:
            all_pts.append(np.asarray(scenario.cones, dtype=float))
    pts = np.concatenate(all_pts)
    x_lo, x_hi = float(pts[:, 0].min()), float(pts[:, 0].max())
    y_lo, y_hi = float(pts[:, 1].min()), float(pts[:, 1].max())
    pad_x = 0.05 * max(x_hi - x_lo, 1e-9)
    pad_y = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    # Equal aspect: widen the shorter world axis around its midpoint.
    span = max(x_hi - x_lo, y_hi - y_lo)
    mx, my = (x_lo + x_hi) / 2, (y_lo + y_hi) / 2
    x_lo, x_hi = mx - span / 2, mx + span / 2
    y_lo, y_hi = my - span / 2, my + span / 2

    def to_px(xy):
        px = _scale(xy[:, 0], x_lo, x_hi, MARGIN, WIDTH - MARGIN)
        py = _scale(xy[:, 1], y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        return px, py

    parts = _header(title) + _axes(x_lo, x_hi, y_lo, y_hi, "x [m]", "y [m]")
    if scenario is not None:
        for box in scenario.boxes:
            px, py = to_px(box.corners())
            parts.append(f'<polygon points="{_points(px, py)}" fill="#cccccc" '
                         f'stroke="black" stroke-width="1"/>')
        for cone in scenario.cones:
            px, py = to_px(np.array([cone]))
            parts.append(f'<circle cx="{_fmt(px[0])}" cy="{_fmt(py[0])}" r="4" '
                         f'fill="#ff7f0e" stroke="black" stroke-width="1"/>')
    for i, (label, xy) in enumerate(traces):
        px, py = to_px(np.asarray(xy, dtype=float))
        parts.append(f'<polyline points="{_points(px, py)}" fill="none" '
                     f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="1.5"/>')
    parts += _legend([t[0] for t in traces])
    _write(path, parts)
