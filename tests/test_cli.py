import json

import pytest

from pfaffinc import cli
from pfaffinc import chains as ch


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


def test_duality_command(tmp_path):
    from pfaffinc import generators as gen

    points, family, curves = gen.duality_scene(3, 12, 8, seed=6)
    payload = {
        "family": family.to_dict(),
        "curves": [list(c.coeffs) for c in curves],
        "points": [list(p) for p in points],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    assert run(["duality", "--family", str(path), "--seed", "2",
                "--out", str(tmp_path / "out.csv")]) == 0
    text = (tmp_path / "out.csv").read_text()
    assert "primal,dual,projected,transpose_ok" in text


def test_chains_command(tmp_path):
    chain = ch.chain_cos_halfangle()
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(ch.chain_to_json(chain)))
    assert run(["chains", "--chain", str(path), "--samples", "100",
                "--out", str(tmp_path / "rep.csv")]) == 0
    assert "# PASS" in (tmp_path / "rep.csv").read_text()


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
