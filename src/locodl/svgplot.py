"""Minimal pure-text SVG line charts: linear x, log-10 y, decade ticks.

Deliberately tiny: no external renderer, just axes, polylines, and a legend.
"""

from __future__ import annotations

import math

from .errors import InputError

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 20, 50

# the characters SVG text may not hold raw; `xml.sax.saxutils.escape` does the same, but its
# import pulls in urllib, http and ssl (7 MB of resident memory)
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf"]


def _decades(lo, hi):
    start = math.floor(math.log10(lo))
    end = math.ceil(math.log10(hi))
    return [10.0 ** k for k in range(start, end + 1)]


def render(series, x_label="x", y_label="y"):
    """series: list of (label, runs), each run an (xs, ys) pair drawn as its own line in
    the label's colour; plots the points with a finite x and a finite y > 0."""
    cleaned = []
    for label, runs in series:
        lines = [pts for pts in ([(float(x), float(y)) for x, y in zip(xs, ys)
                                  if math.isfinite(x) and y > 0 and math.isfinite(y)]
                                 for xs, ys in runs) if pts]
        if lines:
            cleaned.append((label, lines))
    if not cleaned:
        raise InputError(f"nothing to plot: no point has a finite {x_label} "
                         f"and a positive finite {y_label}")

    all_x = [x for _, lines in cleaned for pts in lines for x, _ in pts]
    all_y = [y for _, lines in cleaned for pts in lines for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    ticks = _decades(min(all_y), max(all_y))
    y_lo, y_hi = math.log10(ticks[0]), math.log10(ticks[-1])
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + plot_h * (1.0 - (math.log10(y) - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
           'fill="none" stroke="black"/>']

    for tick in ticks:
        y = py(tick)
        exp = int(round(math.log10(tick)))
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="12">1e{exp}</text>')

    for i in range(5):
        x = x_lo + (x_hi - x_lo) * i / 4
        xp = px(x)
        out.append(f'<line x1="{xp:.2f}" y1="{MARGIN_T + plot_h}" x2="{xp:.2f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{xp:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
                   f'font-size="12">{x:.3g}</text>')

    out.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
               f'font-size="13">{x_label.translate(_TEXT_ESCAPES)}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" font-size="13" '
               f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2})">'
               f'{y_label.translate(_TEXT_ESCAPES)}</text>')

    for idx, (label, lines) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        for pts in lines:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
        ly = MARGIN_T + 15 + 18 * idx
        lx = WIDTH - MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" stroke="{color}" '
                   'stroke-width="1.5" class="legend"/>')
        out.append(f'<text x="{lx + 25}" y="{ly + 4}" font-size="12" class="legend">'
                   f'{label.translate(_TEXT_ESCAPES)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
