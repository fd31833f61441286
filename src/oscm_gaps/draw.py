"""Static SVG output: two-layer drawings and simple line charts.

Everything is rendered with fixed spacing and fixed float formatting so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import BipartiteInstance, InputError, Permutation, count_gaps

_SPACING = 48
_MARGIN = 40
_TOP_Y = 70
_BOTTOM_Y = 230
_RADIUS = 9

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _f(value: float) -> str:
    return f"{value:.2f}"


def render_two_layer_svg(inst: BipartiteInstance, pi2: Permutation) -> str:
    """Two-layer straight-line drawing: bottom row in pi1 order, top row
    in pi2 order, circles for real nodes, violet squares for dummies,
    dashed rectangles outlining each gap."""
    report = count_gaps(inst, pi2)  # first: it refuses a pi2 off the top layer

    cols = max(len(inst.bottom), len(inst.top), 1)
    width = 2 * _MARGIN + _SPACING * (cols - 1)
    height = _BOTTOM_Y + _MARGIN

    def x_at(i: int) -> float:
        return _MARGIN + _SPACING * i

    top_x = {v: x_at(i) for i, v in enumerate(pi2.order)}
    bottom_x = {v: x_at(i) for i, v in enumerate(inst.pi1.order)}
    bottom_kind = {v.id: v.kind for v in inst.bottom}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for b, t in sorted(inst.edges):
        parts.append(
            f'<line class="edge" x1="{_f(bottom_x[b])}" y1="{_BOTTOM_Y}" '
            f'x2="{_f(top_x[t])}" y2="{_TOP_Y}" stroke="#666" stroke-width="1"/>'
        )

    for start, end in report.runs:
        x0 = x_at(start) - _RADIUS - 5
        x1 = x_at(end) + _RADIUS + 5
        parts.append(
            f'<rect class="gap" x="{_f(x0)}" y="{_TOP_Y - _RADIUS - 7}" '
            f'width="{_f(x1 - x0)}" height="{2 * (_RADIUS + 7)}" fill="none" '
            f'stroke="#555" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    def node_glyph(node_id: int, kind: str, x: float, y: float) -> str:
        if kind == "dummy":
            side = 2 * _RADIUS - 2
            glyph = (
                f'<rect class="node-dummy" x="{_f(x - side / 2)}" y="{_f(y - side / 2)}" '
                f'width="{side}" height="{side}" fill="#8e44ad" stroke="#4a235a"/>'
            )
        else:
            glyph = (
                f'<circle class="node-real" cx="{_f(x)}" cy="{_f(y)}" r="{_RADIUS}" '
                f'fill="#eaf0f8" stroke="#2c3e50"/>'
            )
        label_fill = "#ffffff" if kind == "dummy" else "#1b2631"
        text = (
            f'<text x="{_f(x)}" y="{_f(y + 3)}" font-size="9" text-anchor="middle" '
            f'fill="{label_fill}" font-family="monospace">{node_id}</text>'
        )
        return glyph + text

    for v in inst.pi1.order:
        parts.append(node_glyph(v, bottom_kind[v], bottom_x[v], _BOTTOM_Y))
    for v in pi2.order:
        parts.append(node_glyph(v, inst.top_kind[v], top_x[v], _TOP_Y))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def svg_line_chart(
    title: str,
    x_label: str,
    y_label: str,
    x_values: Sequence[float],
    series: Sequence[tuple[str, Sequence[tuple[float, float, float]]]],
    log_y: bool = False,
) -> str:
    """Line chart with a mean line and a min/max band per series.

    `series` entries are (name, [(mean, min, max) per x value]).
    """
    width, height = 560, 360
    left, right, top, bottom = 64, 150, 36, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    ys = [v for _, points in series for triple in points for v in triple]
    if not ys or not x_values:
        raise InputError("chart needs at least one point")
    if log_y:
        floor = min((v for v in ys if v > 0), default=1.0)
        transform = lambda v: math.log10(max(v, floor / 10))
    else:
        transform = lambda v: v
    ty = [transform(v) for v in ys]
    y_lo, y_hi = min(ty), max(ty)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    x_lo, x_hi = min(x_values), max(x_values)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return top + plot_h - (transform(v) - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{left + plot_w / 2:.0f}" y="20" font-size="13" text-anchor="middle">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#999"/>',
    ]

    for tv in _ticks(y_lo, y_hi):
        y = top + plot_h - (tv - y_lo) / (y_hi - y_lo) * plot_h
        label = 10**tv if log_y else tv
        parts.append(
            f'<line x1="{left}" y1="{_f(y)}" x2="{left + plot_w}" y2="{_f(y)}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{_f(y + 3)}" font-size="9" text-anchor="end">{label:.3g}</text>'
        )
    for tv in _ticks(x_lo, x_hi, min(len(set(x_values)) + 1, 6)):
        x = sx(tv)
        parts.append(
            f'<text x="{_f(x)}" y="{top + plot_h + 16}" font-size="9" text-anchor="middle">{tv:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 12}" font-size="11" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.0f}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">{y_label}</text>'
    )

    for s_idx, (name, points) in enumerate(series):
        color = _PALETTE[s_idx % len(_PALETTE)]
        band_upper = [(sx(x), sy(p[2])) for x, p in zip(x_values, points)]
        band_lower = [(sx(x), sy(p[1])) for x, p in zip(x_values, points)]
        band = " ".join(f"{_f(x)},{_f(y)}" for x, y in band_upper + band_lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.12"/>')
        line = " ".join(f"{_f(sx(x))},{_f(sy(p[0]))}" for x, p in zip(x_values, points))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, p in zip(x_values, points):
            parts.append(
                f'<circle cx="{_f(sx(x))}" cy="{_f(sy(p[0]))}" r="2.5" fill="{color}"/>'
            )
        ly = top + 12 + 14 * s_idx
        lx = left + plot_w + 8
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 16}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 20}" y="{ly + 3}" font-size="9">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
