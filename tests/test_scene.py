
import json
from pathlib import Path

import numpy as np
import pytest

import pfaffinc as pf
from pfaffinc import cli
from pfaffinc import generators as gen
from pfaffinc import incidence as inc
from pfaffinc.scene import (Scene, load_scene, prerotate_scene, rotate_scene,
                            save_scene, scene_from_dict, scene_to_dict,
                            scene_to_json)


def _mixed_scene():
    curves = [
        pf.line(0.5, -0.2, label="a"),
        pf.circle(0.3, 0.1, 1.1, label="b"),
        pf.tan_curve(0, label="c"),
        pf.exp_of_poly((0.1, 0.3, -0.2), scale=1.5, label="d"),
        pf.compose_with_polynomial(pf.exp_curve(), (0.0, 2.0), label="e"),
        pf.apply_linear_transform(pf.circle(0, 0, 1), 2.0, 0.0, 0.0, 1.0),
        pf.reciprocal_root(2, label="f"),
        pf.arctan_curve(label="g"),
        pf.reciprocal_curve(1.0, -1, label="h"),
        pf.log_curve(1.2, 0.1, label="i"),
        pf.parabola(0.5, 0.0, -1.0, label="j"),
    ]
    pts = np.array([(0.0, 0.0), (0.5, 0.25), (-1.0, 1.0)])
    return Scene(pts, curves, (-3.0, 3.0, -3.0, 3.0), seed=5, meta={"k": 1})


def test_json_roundtrip_preserves_geometry():
    scene = _mixed_scene()
    back = scene_from_dict(scene_to_dict(scene))
    assert back.viewport == scene.viewport
    assert back.m == scene.m and back.n == scene.n
    for c0, c1 in zip(scene.curves, back.curves):
        assert c0.kind == c1.kind
        lo, hi = c0.t_window(scene.viewport)
        ts = np.linspace(lo, hi, 37)
        x0, y0 = c0.point_at(ts)
        x1, y1 = c1.point_at(ts)
        np.testing.assert_allclose(x1, x0, atol=1e-12)
        np.testing.assert_allclose(y1, y0, atol=1e-12)


def test_json_text_is_stable(tmp_path):
    scene = _mixed_scene()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scene(scene, p1)
    save_scene(scene, p2)
    assert p1.read_bytes() == p2.read_bytes()
    again = load_scene(p1)
    assert scene_to_json(again) == scene_to_json(scene)


def test_json_text_matches_golden_bytes():
    golden = Path(__file__).parent / "data" / "mixed_scene.json"
    assert scene_to_json(_mixed_scene()) == golden.read_text()


def _set_point_nan(d):
    d["points"][0] = ["nan", 1.0]


def _set_viewport_inf(d):
    d["viewport"][1] = "inf"


def _set_viewport_string(d):
    d["viewport"][0] = str(d["viewport"][0])


def _reverse_viewport(d):
    d["viewport"][0], d["viewport"][1] = d["viewport"][1], d["viewport"][0]


def _add_unknown_param(d):
    d["curves"][0]["params"]["zz"] = 1.0


def _drop_param(d):
    del d["curves"][0]["params"]["b"]


def _duplicate_curve(d):
    d["curves"].append(dict(d["curves"][0]))


def _set_param_nan(d):
    d["curves"][0]["params"]["a"] = float("nan")


def _set_param_string(d):
    d["curves"].append({"kind": "circle", "params": {"cx": 0.0, "cy": 0.0, "r": "inf"}})


def _set_tan_branch_fraction(d):
    d["curves"].append({"kind": "tan", "params": {"branch": 0.5}})


def _set_root_order_fraction(d):
    d["curves"].append({"kind": "reciprocal-root", "params": {"k": 1.7}})


def _set_reciprocal_branch_zero(d):
    d["curves"].append({"kind": "reciprocal", "params": {"a": 1.0, "branch": 0}})


def _set_transform_string(d):
    d["curves"][0]["transform"] = ["nan", 0, 0, 1]


def _set_transform_nan(d):
    d["curves"][0]["transform"] = [float("nan"), 0.0, 0.0, 1.0]


def _set_transform_three(d):
    d["curves"][0]["transform"] = [1.0, 0.0, 1.0]


def _set_transform_zero(d):
    d["curves"][0]["transform"] = [0, 0, 0, 0]


def _set_transform_rank_one(d):
    d["curves"][0]["transform"] = [1, 2, 2, 4]


def _set_unknown_kind(d):
    d["curves"][0]["kind"] = "spiral"


def _move_point_outside(d):
    x0, x1, _y0, y1 = d["viewport"]
    d["points"][0] = [x1 + 1.0, y1 + 1.0]


BAD_INPUTS = [_set_point_nan, _move_point_outside, _set_viewport_inf, _set_viewport_string,
              _reverse_viewport, _add_unknown_param, _drop_param, _duplicate_curve,
              _set_param_nan, _set_param_string, _set_tan_branch_fraction,
              _set_root_order_fraction, _set_reciprocal_branch_zero, _set_transform_string,
              _set_transform_nan, _set_transform_three, _set_transform_zero,
              _set_transform_rank_one, _set_unknown_kind]


@pytest.mark.parametrize("spoil", BAD_INPUTS, ids=lambda f: f.__name__.strip("_"))
def test_load_rejects_bad_input(spoil, tmp_path, capsys):
    data = scene_to_dict(gen.grid_lines(2, 2))
    scene_from_dict(data)
    spoil(data)
    with pytest.raises(ValueError):
        scene_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["count", "--scene", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_rotation_preserves_incidence_count():
    scene = gen.random_scene(["line", "circle", "parabola"], m=60, n=15,
                             planted=0.6, seed=13)
    base = inc.count_incidences(scene.points, scene.curves, scene.traces()).count()
    rotated = rotate_scene(scene, 0.37)
    after = inc.count_incidences(rotated.points, rotated.curves,
                                 rotated.traces()).count()
    assert after == base


def test_prerotation_accepts_clean_scene_unrotated():
    scene = gen.random_scene(["line"], m=5, n=5, planted=0.0, seed=1)
    out, theta = prerotate_scene(scene)
    assert theta == 0.0
    assert out is scene


def test_prerotation_moves_vertical_curve():
    vertical = pf.apply_linear_transform(pf.line(0.0, 0.0), 0.0, -1.0, 1.0, 0.0)
    scene = Scene(np.zeros((0, 2)), [vertical, pf.line(1.0, 0.0)],
                  (-2.0, 2.0, -2.0, 2.0), seed=3)
    out, theta = prerotate_scene(scene, seed=3)
    assert theta != 0.0
    for c in out.curves:
        tr = pf.trace_curve(c, out.viewport, samples=128)
        for xs, _, _ in tr.pieces():
            assert xs.max() - xs.min() >= 1e-9


def test_traces_leave_the_scene_unchanged():
    # no trace is kept on the scene, so it stays as constructed
    scene = gen.grid_lines(2, 2)
    fields = dict(vars(scene))
    first, second = scene.traces(), scene.traces()
    assert first is not second and len(first) == scene.n
    assert vars(scene).keys() == fields.keys()
    assert all(vars(scene)[k] is v for k, v in fields.items())
