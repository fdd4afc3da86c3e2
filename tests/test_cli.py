import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pfaffinc as pf
from pfaffinc import cli
from pfaffinc import chains as ch
from pfaffinc import generators as gen
from pfaffinc.scene import save_scene

DATA = Path(__file__).parent / "data"
ACCEPTANCE_KINDS = ["line", "circle", "parabola", "exp", "log", "reciprocal",
                    "exp-of-poly", "tan"]


def run(argv):
    return cli.main(argv)


def test_generate_and_count(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    assert run(["generate", "--family", "grid", "--a", "2", "--b", "2",
                "--out", str(scene_path)]) == 0
    out_path = tmp_path / "count.csv"
    assert run(["count", "--scene", str(scene_path), "--tol", "1e-7",
                "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert "m,n,I" in lines
    assert lines[-1] == "16,8,16"


def test_intersect_csv(tmp_path):
    scene_path = tmp_path / "scene.json"
    run(["generate", "--family", "random", "--kinds", "line", "--m", "0",
         "--n", "6", "--planted", "0", "--seed", "3", "--out", str(scene_path)])
    out_path = tmp_path / "inter.csv"
    assert run(["intersect", "--scene", str(scene_path), "--out", str(out_path)]) == 0
    rows = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "curve_i,curve_j,x,y"
    assert len(rows) > 1


def test_intersect_csv_matches_golden_bytes(tmp_path):
    # tests/data/intersect_golden.csv was written by the per-pair
    # intersect_curves loop, before branches were built once per curve; its
    # `# scene=` line, which holds a path, reads scene.json
    scene_path = tmp_path / "scene.json"
    save_scene(gen.random_scene(ACCEPTANCE_KINDS, m=0, n=60, planted=0.0, seed=7), scene_path)
    out_path = tmp_path / "inter.csv"
    assert run(["intersect", "--scene", str(scene_path), "--out", str(out_path)]) == 0
    got = out_path.read_text().replace(f"# scene={scene_path}\n", "# scene=scene.json\n", 1)
    assert got == (DATA / "intersect_golden.csv").read_text()


def test_count_csv_matches_golden_bytes(tmp_path):
    # tests/data/count_golden.csv was written by the scalar per-candidate
    # refiner, before refinement was batched per curve; its `# scene=` line,
    # which holds a path, reads scene.json
    scene_path = tmp_path / "scene.json"
    save_scene(gen.random_scene(ACCEPTANCE_KINDS, m=400, n=40, planted=0.6, seed=7), scene_path)
    out_path = tmp_path / "count.csv"
    assert run(["count", "--scene", str(scene_path), "--out", str(out_path)]) == 0
    got = out_path.read_text().replace(f"# scene={scene_path}\n", "# scene=scene.json\n", 1)
    assert got == (DATA / "count_golden.csv").read_text()


def test_cutting_crossings_csv_matches_golden_bytes(tmp_path, capsys):
    # tests/data/crossings_golden.csv was written from per-cell crossing
    # sets, before they became one sorted key table; the scene is that of
    # cutting_golden.json, and the `# scene=` line, which holds a path,
    # reads scene.json
    scene_path = tmp_path / "scene.json"
    save_scene(gen.random_scene(ACCEPTANCE_KINDS, m=0, n=60, planted=0.0, seed=7), scene_path)
    cut_path, csv_path = tmp_path / "cut.json", tmp_path / "cross.csv"
    assert run(["cutting", "--scene", str(scene_path), "--r", "4", "--seed", "7",
                "--out", str(cut_path), "--crossings-out", str(csv_path)]) == 0
    assert capsys.readouterr().out == "cells=1986 max_crossings=5 bound=15.00 retries=0\n"
    got = csv_path.read_text().replace(f"# scene={scene_path}\n", "# scene=scene.json\n", 1)
    assert got == (DATA / "crossings_golden.csv").read_text()
    assert json.loads(cut_path.read_text()) == json.loads((DATA / "cutting_golden.json").read_text())


def test_intersect_csv_rows_are_pinned_on_160_curves(tmp_path):
    # the sha256 of the rows below the header, recorded with the earlier
    # chunk-pruned scan: the scan's prune must not move, add or drop a row
    scene_path = tmp_path / "scene.json"
    save_scene(gen.random_scene(ACCEPTANCE_KINDS, m=0, n=160, planted=0.0, seed=7), scene_path)
    out_path = tmp_path / "inter.csv"
    assert run(["intersect", "--scene", str(scene_path), "--out", str(out_path)]) == 0
    rows = [l for l in out_path.read_text().splitlines(keepends=True) if not l.startswith("#")]
    assert rows[0] == "curve_i,curve_j,x,y\n" and len(rows) == 1 + 8687
    assert hashlib.sha256("".join(rows[1:]).encode()).hexdigest() == (
        "93fe91376dbbef6b3974554e11eb344b410591b3c226549292cf1b6391240f0b")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_intersect_rejects_bad_tolerance(tol, capsys):
    assert run(["intersect", "--scene", str(DATA / "mixed_scene.json"), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert "curve_i" not in captured.out


def test_intersect_reports_a_shared_component(tmp_path, capsys):
    # a circle and its copy rotated about the centre are one curve
    c, s = math.cos(0.3), math.sin(0.3)
    data = {"viewport": [-2.0, 2.0, -2.0, 2.0], "points": [], "curves": [
        {"kind": "line", "params": {"a": 0.5, "b": 1.5}},
        {"kind": "circle", "params": {"cx": 0.0, "cy": 0.0, "r": 1.0}},
        {"kind": "circle", "params": {"cx": 0.0, "cy": 0.0, "r": 1.0},
         "transform": [c, -s, s, c]}]}
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(data))
    out_path = tmp_path / "inter.csv"
    assert run(["intersect", "--scene", str(scene_path), "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "share a component" in err
    assert not out_path.exists()


def _singular_transform(matrix):
    def spoil(data):
        data["curves"][0]["transform"] = matrix
    return spoil


def _add_curve_off_viewport(data):
    data["curves"].append({"kind": "line", "params": {"a": 5, "b": 40}})


@pytest.mark.parametrize("command", [["count"], ["intersect"], ["cutting", "--r", "2"]])
@pytest.mark.parametrize("spoil", [_singular_transform([0, 0, 0, 0]),
                                   _singular_transform([1, 2, 2, 4]),
                                   _add_curve_off_viewport],
                         ids=["transform-zero", "transform-rank-one", "off-viewport"])
def test_bad_curves_are_usage_errors(spoil, command, tmp_path, capsys):
    data = json.loads((DATA / "mixed_scene.json").read_text())
    spoil(data)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(data))
    out_path = tmp_path / "out"
    assert run([*command, "--scene", str(scene_path), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    if spoil is _add_curve_off_viewport:
        # the message names the curve by its index in the scene
        assert f"curve {len(data['curves']) - 1}: line curve misses viewport" in err
    assert not out_path.exists()


def test_off_viewport_error_gives_the_label(tmp_path, capsys):
    data = json.loads((DATA / "mixed_scene.json").read_text())
    data["curves"].insert(1, {"kind": "line", "params": {"a": 5, "b": 40}, "label": "far"})
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(data))
    assert run(["count", "--scene", str(scene_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: curve 1 'far': line curve misses")


@pytest.mark.parametrize("n_curves", [0, 1])
def test_intersect_small_scene_writes_header_only(n_curves, tmp_path):
    data = json.loads((DATA / "mixed_scene.json").read_text())
    data["curves"] = data["curves"][:n_curves]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(data))
    out_path = tmp_path / "inter.csv"
    assert run(["intersect", "--scene", str(scene_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[-1] == "curve_i,curve_j,x,y"
    assert all(line.startswith("#") for line in lines[:-1])


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pf.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "pfaffinc", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert out.stdout.startswith("usage: pfaffinc")
    assert "intersect" in out.stdout


def test_cutting_command(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    run(["generate", "--family", "random", "--kinds", "line", "--m", "20",
         "--n", "12", "--planted", "0.5", "--seed", "4", "--out", str(scene_path)])
    cut_path = tmp_path / "cut.json"
    csv_path = tmp_path / "cross.csv"
    svg_path = tmp_path / "cut.svg"
    assert run(["cutting", "--scene", str(scene_path), "--r", "2", "--seed", "7",
                "--out", str(cut_path), "--crossings-out", str(csv_path),
                "--svg", str(svg_path)]) == 0
    payload = json.loads(cut_path.read_text())
    assert payload["format_version"] == 1
    assert payload["cells"]
    assert "cell,crossings" in csv_path.read_text()
    assert svg_path.read_text().startswith("<svg")


def test_verify_bound_passes_with_fitted_constant(tmp_path):
    scene_path = tmp_path / "scene.json"
    run(["generate", "--family", "grid", "--a", "3", "--b", "3",
         "--out", str(scene_path)])
    out_path = tmp_path / "bound.csv"
    assert run(["verify-bound", "--scene", str(scene_path), "--s", "2",
                "--theorem", "pfaffian", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "m,n,s,t,I,bound,C_fit,regime" in text
    assert "# PASS" in text


def test_verify_bound_fails_with_tiny_constant(tmp_path):
    scene_path = tmp_path / "scene.json"
    run(["generate", "--family", "grid", "--a", "3", "--b", "3",
         "--out", str(scene_path)])
    code = run(["verify-bound", "--scene", str(scene_path), "--s", "2",
                "--c-fit", "1e-9", "--out", str(tmp_path / "b.csv")])
    assert code == 1


def test_sweep_reports_expected_exponent(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    assert run(["sweep", "--family", "grid", "--sizes", "8,16,32,64",
                "--fit-exponent", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    slope = float(text.rsplit("fitted_exponent=", 1)[1].splitlines()[0])
    assert abs(slope - 4.0 / 3.0) <= 0.05


def test_outputs_are_byte_identical_across_runs(tmp_path):
    args = ["generate", "--family", "random", "--kinds", "line,circle",
            "--m", "10", "--n", "6", "--planted", "0.5", "--seed", "11"]
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    run(args + ["--out", str(p1)])
    run(args + ["--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()

    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    run(["count", "--scene", str(p1), "--out", str(c1)])
    run(["count", "--scene", str(p1), "--out", str(c2)])
    assert c1.read_bytes() == c2.read_bytes()


def _duality_family(tmp_path):
    points, family, curves = gen.duality_scene(3, 12, 8, seed=6)
    payload = {
        "family": family.to_dict(),
        "curves": [list(c.coeffs) for c in curves],
        "points": [list(p) for p in points],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    return path


def _chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(ch.chain_to_json(ch.chain_cos_halfangle())))
    return path


def test_duality_command(tmp_path):
    path = _duality_family(tmp_path)
    assert run(["duality", "--family", str(path), "--seed", "2",
                "--out", str(tmp_path / "out.csv")]) == 0
    text = (tmp_path / "out.csv").read_text()
    assert "primal,dual,projected,transpose_ok" in text


def test_chains_command(tmp_path):
    path = _chain_file(tmp_path)
    assert run(["chains", "--chain", str(path), "--samples", "100",
                "--out", str(tmp_path / "rep.csv")]) == 0
    text = (tmp_path / "rep.csv").read_text()
    assert "# PASS" in text
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    assert rows[0] == ["link", "kind", "max_error_x", "max_error_y"]
    assert len(rows) > 1
    for link, _kind, err_x, err_y in rows[1:]:  # plain floats, not numpy reprs
        assert int(link) >= 1 and float(err_x) >= 0 and float(err_y) >= 0


def test_chains_fails_a_link_whose_value_overflows(tmp_path, capsys):
    # exp(800 x) overflows for x > 0.89 on the default region: the link's
    # error is infinite, so it fails, with no traceback and no warning
    payload = ch.chain_to_json(ch.chain_exp_poly((0, 3, 1)))
    payload["links"][0]["params"]["coeffs"] = [0, 800]
    path, out = tmp_path / "chain.json", tmp_path / "rep.csv"
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["chains", "--chain", str(path), "--samples", "20", "--seed", "0",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().out == "FAIL\n"
    lines = out.read_text().splitlines()
    assert lines[-2:] == ["1,exp-poly,inf,inf", "# FAIL"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_duality_rejects_bad_tolerance(tol, tmp_path, capsys):
    path = _duality_family(tmp_path)
    assert run(["duality", "--family", str(path), "--seed", "2", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert "PASS" not in captured.out


def test_duality_rejects_proportional_curves(tmp_path, capsys):
    path = _duality_family(tmp_path)
    payload = json.loads(path.read_text())
    payload["curves"].append([2 * a for a in payload["curves"][0]])
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert run(["duality", "--family", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "usage error: coefficients of curve8 are proportional to curve0\n")
    assert not out.exists()


@pytest.mark.parametrize("curves, bad", [
    ([[0, 1], [1, 0]], "curve0 has 2 coefficients, the family has 3 terms"),
    ([[0, 1, -1], [1, 0]], "curve1 has 2 coefficients, the family has 3 terms"),
    ([[[0, 1, -1]], [1, 0, 0]], "curve0 is not a flat list of 3 coefficients")])
def test_duality_rejects_curves_with_the_wrong_number_of_coefficients(curves, bad, tmp_path,
                                                                      capsys):
    path = _duality_family(tmp_path)
    payload = json.loads(path.read_text())
    assert len(payload["family"]["terms"]) == 3
    payload["curves"] = curves
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert run(["duality", "--family", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {bad}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_duality_rejects_curves_with_coefficients_that_are_not_finite(bad, tmp_path, capsys):
    path = _duality_family(tmp_path)
    payload = json.loads(path.read_text())
    payload["curves"][1][2] = bad
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert run(["duality", "--family", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error: curve1 coefficients must be finite")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_chains_rejects_bad_tolerance(tol, tmp_path, capsys):
    path = _chain_file(tmp_path)
    assert run(["chains", "--chain", str(path), "--samples", "50", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("command, region", [
    ("chains", [1, -1, -1, 1]),
    ("chains", [math.nan, 1, -1, 1]),
    ("duality", [-2, 2, -2, "x"]),
    ("duality", [2, -2, -2, 2]),
], ids=str)
def test_bad_regions_are_usage_errors(command, region, tmp_path, capsys):
    # a chain or family region must be four finite numbers with x0 < x1 and
    # y0 < y1; the family file holds no points, so only its region is wrong
    if command == "chains":
        path, option = _chain_file(tmp_path), "--chain"
        payload = json.loads(path.read_text())
        payload["region"] = region
    else:
        path, option = _duality_family(tmp_path), "--family"
        payload = json.loads(path.read_text())
        payload["family"]["region"], payload["points"] = region, []
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert run([command, option, str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and "region" in captured.err
    assert "PASS" not in captured.out and not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--sizes", "-8"],
    ["sweep", "--sizes", "8,0"],
    ["cutting", "--r", "2", "--max-retries", "0"],
    ["cutting", "--r", "2", "--max-retries", "-3"],
    ["generate", "--family", "random", "--m", "-5"],
    ["generate", "--family", "random", "--n", "-5"],
    ["generate", "--family", "random", "--kinds", "composed"],  # a kind with no random draw
    ["generate", "--family", "random", "--kinds", "line,nope"],
], ids=lambda argv: " ".join(argv))
def test_bad_sizes_are_usage_errors(argv, tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    run(["generate", "--family", "grid", "--a", "2", "--b", "2", "--out", str(scene_path)])
    capsys.readouterr()
    out = tmp_path / "out"
    scene = ["--scene", str(scene_path)] if argv[0] == "cutting" else []
    assert run(argv + scene + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_usage_error_exit_code(tmp_path):
    assert run(["count", "--scene", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_count_rejects_non_finite_tolerance(tol, tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    run(["generate", "--family", "grid", "--a", "2", "--b", "2", "--out", str(scene_path)])
    capsys.readouterr()
    assert run(["count", "--scene", str(scene_path), "--tol", tol]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PFAFFINC_SEED", "123")
    p1 = tmp_path / "s1.json"
    run(["generate", "--family", "circles", "--m", "6", "--n", "4",
         "--out", str(p1)])
    monkeypatch.setenv("PFAFFINC_SEED", "124")
    p2 = tmp_path / "s2.json"
    run(["generate", "--family", "circles", "--m", "6", "--n", "4",
         "--out", str(p2)])
    assert p1.read_bytes() != p2.read_bytes()


@pytest.mark.parametrize("term", [
    {"kind": "monomial", "i": 1.5, "j": 0},  # was cut to x and passed
    {"kind": "monomial", "i": -1, "j": 0},
    {"kind": "monomial", "i": True, "j": 0},
    {"kind": "monomial", "i": 1},
    {"kind": "exp-poly", "coeffs": [math.nan]},
    {"kind": "monomial", "i": 1, "j": 0, "k": 2},
    {"kind": "sin"},
    1,  # not an object
    "no list",  # the terms are not a list
], ids=str)
def test_duality_rejects_bad_terms_at_load(term, tmp_path, capsys):
    path = _duality_family(tmp_path)
    payload = json.loads(path.read_text())
    if term == "no list":
        payload["family"]["terms"] = 5
    else:
        payload["family"]["terms"][1] = term
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert run(["duality", "--family", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and "PASS" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("link, bad", [
    ({"fd_step": 0}, "fd_step"), ({"fd_step": math.nan}, "fd_step"),
    ({"fd_step": "abc"}, "fd_step"), ({"fd_step": -1e-6}, "fd_step"),
    ({"fd_step": True}, "fd_step"), ({"node_kind": "sin-half"}, "unknown node kind 'sin-half'"),
    ({"params": {"junk": 1}}, "tan-half node takes params [], got ['junk']"),
    ({"node_kind": "exp-poly", "params": {"coefs": [0.0, 1.0]}},
     "exp-poly node takes params ['coeffs'], got ['coefs']"),
    ({"node_kind": "exp-poly", "params": {"coeffs": [math.nan, 1.0]}},
     "exp-poly coeffs must be a list of finite numbers, got [nan, 1.0]"),
    ({"node_kind": "exp-poly", "params": {"coeffs": 1.0}}, "exp-poly coeffs must be a list"),
    ({"gx": {"0,0,0": math.nan}}, "polynomial coefficients must be finite, got {'0,0,0': nan}"),
    ({"gy": {"0,0,1": math.inf}}, "polynomial coefficients must be finite, got {'0,0,1': inf}"),
    ({"node_kind": "poly", "params": {"poly": {"1,0": math.nan}}},
     "polynomial coefficients must be finite"),
    ({"node_kind": "integral", "params": {"inner": {"0,0": -math.inf}, "from": 0.0}},
     "polynomial coefficients must be finite"),
    ({"node_kind": "integral", "params": {"inner": {"0,0": 1.0}, "from": math.nan}},
     "integral from must be a finite number, got nan"),
], ids=str)
def test_chains_rejects_bad_links_at_load(link, bad, tmp_path, capsys):
    path = _chain_file(tmp_path)
    payload = json.loads(path.read_text())
    payload["links"][0].update(link)
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert run(["chains", "--chain", str(path), "--samples", "20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: link 1") and bad in captured.err
    assert "PASS" not in captured.out
    assert not out.exists()


def test_choices_are_the_dispatch_tables_keys():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    choices = {(name, a.dest): a.choices for name, sub in commands.items()
               for a in sub._actions if a.choices is not None}
    assert choices[("generate", "family")] == list(cli._FAMILIES)
    assert choices[("verify-bound", "theorem")] == list(cli._BOUNDS)
