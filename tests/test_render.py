import re

import numpy as np

import pfaffinc as pf
from pfaffinc import generators as gen
from pfaffinc.curves import trace_table
from pfaffinc.render import _COLORS, render_svg


def test_svg_draws_one_polyline_per_trace_piece_in_sample_order():
    scene = gen.random_scene(["line", "circle", "parabola", "exp"], m=5, n=8, planted=0.0, seed=3)
    # a large circle, cut by the viewport's sides into several components
    scene.curves.append(pf.circle(0.0, 0.0, 4.5))
    traces = scene.traces()
    table = trace_table(traces)
    assert len(table) > len(traces)
    width = 640
    svg = render_svg(scene, traces, width=width)
    lines = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)" '
                       r'stroke-width="([^"]*)"/>', svg)
    assert svg.count("<polyline") == len(lines) == len(table)
    x0, x1, y0, y1 = scene.viewport
    scale = width / (x1 - x0)
    for (points, color, stroke), curve, (xs, ys, _) in zip(lines, table.curve, table.pieces()):
        assert color == _COLORS[curve % len(_COLORS)] and stroke == "1.1"
        drawn = np.array([p.split(",") for p in points.split()], dtype=float)
        want = np.column_stack([(xs - x0) * scale, (y1 - y0) * scale - (ys - y0) * scale])
        assert drawn.shape == want.shape
        assert np.abs(drawn - want).max() <= 0.005 + 1e-9
