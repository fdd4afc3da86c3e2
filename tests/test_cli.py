import json
import math
import os
import subprocess
import sys
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
    assert "# PASS" in (tmp_path / "rep.csv").read_text()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_duality_rejects_bad_tolerance(tol, tmp_path, capsys):
    path = _duality_family(tmp_path)
    assert run(["duality", "--family", str(path), "--seed", "2", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_chains_rejects_bad_tolerance(tol, tmp_path, capsys):
    path = _chain_file(tmp_path)
    assert run(["chains", "--chain", str(path), "--samples", "50", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["sweep", "--sizes", "-8"],
    ["sweep", "--sizes", "8,0"],
    ["cutting", "--r", "2", "--max-retries", "0"],
    ["cutting", "--r", "2", "--max-retries", "-3"],
    ["generate", "--family", "random", "--m", "-5"],
    ["generate", "--family", "random", "--n", "-5"],
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
