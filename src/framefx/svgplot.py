"""Minimal static SVG emission for line charts and heat maps.

Deterministic output (no timestamps, stable float formatting) so figures can
be diffed and regenerated byte-identically.
"""

from __future__ import annotations

import math

__all__ = ["line_chart", "heatmap"]

PALETTE = ("#1f4e8c", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#16a085",
           "#7f8c8d", "#2c3e50")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 34, 56


def _fmt(x):
    return f"{x:.6g}"


def _ticks(lo, hi, target=6):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / target
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out or [lo]


def _write_svg(path, w, h, body):
    """Write the ``body`` elements as one SVG document on a white background."""
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">',
            f'<rect width="{w}" height="{h}" fill="white"/>']
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + body + ["</svg>"]) + "\n")


def line_chart(path, series, title="", xlabel="", ylabel=""):
    """Write a multi-series line chart.

    ``series`` is a list of (label, xs, ys); points with non-finite y are
    skipped (they break the polyline).
    """
    finite = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
              if math.isfinite(y)]
    if finite:
        xlo = min(p[0] for p in finite)
        xhi = max(p[0] for p in finite)
        ylo = min(p[1] for p in finite)
        yhi = max(p[1] for p in finite)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + (abs(ylo) or 1.0) * 0.1

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return _MT + ph - (y - ylo) / (yhi - ylo) * ph

    parts = [f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for t in _ticks(xlo, xhi):
        x = px(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_MT + ph}" x2="{_fmt(x)}" '
                     f'y2="{_MT + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_MT + ph + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" '
                     f'y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="black"/>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_MT + ph / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_MT + ph / 2})">{ylabel}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                       for x, y in zip(xs, ys) if math.isfinite(y))
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * k
        parts.append(f'<line x1="{_ML + pw - 150}" y1="{ly}" x2="{_ML + pw - 126}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_ML + pw - 120}" y="{ly + 4}">{label}</text>')
    _write_svg(path, _W, _H, parts)


def heatmap(path, values, title=""):
    """Write a grayscale heat map of a 2D array; darker means larger,
    row 0 rendered at the top."""
    n_rows = len(values)
    n_cols = len(values[0]) if n_rows else 0
    vmax = max((v for row in values for v in row), default=0.0)
    cell = max(4, min(24, 480 // max(n_rows, n_cols, 1)))
    w, h = n_cols * cell + 40, n_rows * cell + 50
    parts = [f'<text x="{w / 2}" y="16" text-anchor="middle">{title}</text>']
    for r, row in enumerate(values):
        for c, v in enumerate(row):
            frac = 0.0 if vmax <= 0 else max(0.0, min(1.0, v / vmax))
            level = int(round(255 * (1.0 - frac)))
            parts.append(
                f'<rect x="{20 + c * cell}" y="{28 + r * cell}" width="{cell}" '
                f'height="{cell}" fill="rgb({level},{level},{level})" '
                f'stroke="#ddd" stroke-width="0.5"/>'
            )
    _write_svg(path, w, h, parts)
