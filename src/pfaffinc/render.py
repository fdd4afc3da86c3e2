"""Minimal SVG output for scenes and cuttings."""

from __future__ import annotations

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf"]


def render_svg(scene, traces, cutting=None, width=800):
    x0, x1, y0, y1 = scene.viewport
    scale = width / (x1 - x0)
    height = (y1 - y0) * scale

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return height - (y - y0) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if cutting is not None:
        for cell in cutting.cells:
            for side in (cell.left, cell.right):
                if side is None:
                    continue
                x, lo, hi = side
                parts.append(
                    f'<line x1="{sx(x):.2f}" y1="{sy(lo):.2f}" '
                    f'x2="{sx(x):.2f}" y2="{sy(hi):.2f}" '
                    'stroke="#eeeeee" stroke-width="0.7"/>')
        for w in cutting.rays + cutting.aux_walls:
            parts.append(
                f'<line x1="{sx(w.x):.2f}" y1="{sy(w.y_lo):.2f}" '
                f'x2="{sx(w.x):.2f}" y2="{sy(w.y_hi):.2f}" '
                'stroke="#bbbbbb" stroke-width="1"/>')
    sampled = set(cutting.sample) if cutting is not None else set()
    for ci, trace in enumerate(traces):
        color = _COLORS[ci % len(_COLORS)]
        swidth = 2.2 if ci in sampled else 1.1
        for xs, ys, _ in trace.pieces():
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="{swidth}"/>')
    for x, y in scene.points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
