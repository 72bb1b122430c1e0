"""Minimal SVG log-log charts: polylines, axes, and a slope guide line."""

from __future__ import annotations

import math
from html import escape

from .errors import PlotError

WIDTH, HEIGHT = 640, 480
MARGIN = 60
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
# the slope of the dashed guide: the sigma^2/n rate on log-log axes
GUIDE_SLOPE = -1.0


def _log_range(values):
    bad = [v for v in values if not (math.isfinite(v) and v > 0)]
    if bad:
        raise PlotError(f"log-log chart needs finite positive values, got {bad[0]!r}")
    lo, hi = math.log10(min(values)), math.log10(max(values))
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def render_loglog_svg(series, title: str = "") -> str:
    """Render (label, xs, ys) series on shared log-log axes.

    A dashed guide line of slope GUIDE_SLOPE is anchored at the first point
    of the first series.
    """
    if not series:
        raise ValueError("no series to plot")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = _log_range(all_x)
    y_lo, y_hi = _log_range(all_y)

    def sx(x):
        return MARGIN + (math.log10(x) - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - (math.log10(y) - y_lo) / (y_hi - y_lo) * (
            HEIGHT - 2 * MARGIN
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>'
        )
    # decade ticks
    for decade in range(math.floor(x_lo), math.ceil(x_hi) + 1):
        if x_lo <= decade <= x_hi:
            px = sx(10.0**decade)
            parts.append(
                f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN}" x2="{px:.1f}" '
                f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{HEIGHT - MARGIN + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">1e{decade}</text>'
            )
    for decade in range(math.floor(y_lo), math.ceil(y_hi) + 1):
        if y_lo <= decade <= y_hi:
            py = sy(10.0**decade)
            parts.append(
                f'<line x1="{MARGIN - 6}" y1="{py:.1f}" x2="{MARGIN}" y2="{py:.1f}" '
                f'stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN - 10}" y="{py + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">1e{decade}</text>'
            )
    # slope guide anchored at the first point of the first series and
    # clipped where it exits the plot box
    _, xs0, ys0 = series[0]
    gx0, gy0 = xs0[0], ys0[0]
    gx1 = 10.0**x_hi
    gy1 = gy0 * (gx1 / gx0) ** GUIDE_SLOPE
    if not 10.0**y_lo <= gy1 <= 10.0**y_hi:
        y_exit = 10.0**y_lo if gy1 < 10.0**y_lo else 10.0**y_hi
        gx1 = gx0 * (y_exit / gy0) ** (1.0 / GUIDE_SLOPE)
        gy1 = y_exit
    parts.append(
        f'<line x1="{sx(gx0):.2f}" y1="{sy(gy0):.2f}" x2="{sx(gx1):.2f}" '
        f'y2="{sy(gy1):.2f}" stroke="gray" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<text x="{WIDTH - MARGIN:.1f}" y="{MARGIN - 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">guide slope {GUIDE_SLOPE:g}</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{MARGIN + 8}" y="{MARGIN + 16 * idx}" font-family="sans-serif" '
            f'font-size="12" fill="{color}">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
