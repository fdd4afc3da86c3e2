"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import workloads as wk  # noqa: E402
from tracer import Tracer  # noqa: E402

TOY_PIPELINE = wk.Workload("toy-pipeline", n=12, m=60, r=2, default_seed=3)
TOY_CLI = wk.Workload("toy-cli", n=8, m=0, r=0, default_seed=3, curve_seed=3)
SEED = 5


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def write_reference(directory, wl, ref):
    with open(wk.reference_path(wl, SEED, directory), "w") as fh:
        json.dump(ref, fh)


def check_schema(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == set(names)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_seed_reaches_the_inputs(tmp_path):
    digests = [run.prepare(TOY_CLI, seed, str(tmp_path))[2] for seed in (SEED, SEED, SEED + 1)]
    assert digests[0] == digests[1] != digests[2]
    with open(os.path.join(tmp_path, f"toy-cli-seed{SEED + 1}", "scene.json")) as fh:
        assert json.load(fh)["seed"] == SEED + 1


def test_pipeline_counts_each_corrupted_point(tmp_path):
    work, refs = str(tmp_path / "work"), str(tmp_path / "refs")
    os.makedirs(refs)
    ref = record.record(TOY_PIPELINE, SEED, work)
    incident = sorted({p for p, _c in ref["incidences"]})
    assert incident, "toy scene has no incidences to corrupt"
    # drop every incidence of one point, add a false one to another
    ref["incidences"] = [e for e in ref["incidences"] if e[0] != incident[0]]
    lonely = next(p for p in range(TOY_PIPELINE.m) if p not in incident)
    ref["incidences"].append([lonely, 0])
    write_reference(refs, TOY_PIPELINE, ref)

    result, details = run.run_workload(TOY_PIPELINE, SEED, 0, 0, work, refs, probes=1)
    check_schema(result, run.END_TO_END)
    iterations = len(details["iterations"])
    assert details["seed"] == SEED and details["reference"]
    assert result["attempted"] == TOY_PIPELINE.m * iterations
    assert result["failed"] == 2 * iterations
    assert not result["correct"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_counts_a_moved_point_and_a_changed_digest(tmp_path):
    work, refs = str(tmp_path / "work"), str(tmp_path / "refs")
    os.makedirs(refs)
    ref = record.record(TOY_CLI, SEED, work)
    assert ref["pairs"], "toy scene has no intersections to corrupt"
    ref["pairs"][0][2][0][0] += 1e-6
    write_reference(refs, TOY_CLI, ref)
    result, details = run.run_workload(TOY_CLI, SEED, 0, 0, work, refs, probes=1)
    # the moved point fails its pair; byte identity is only reported
    assert result["failed"] == len(details["iterations"])
    assert details["csv_identical"] == len(details["iterations"])

    ref["input_sha256"] = "0" * 64
    write_reference(refs, TOY_CLI, ref)
    result, details = run.run_workload(TOY_CLI, SEED, 0, 0, work, refs, probes=1)
    assert result["failed"] == result["attempted"] and not result["correct"]

    # without a reference only the invariants are checked, and they hold
    result, details = run.run_workload(TOY_CLI, SEED, 0, 0, work, str(tmp_path), probes=1)
    assert result["correct"] and not details["reference"]


def test_traced_run_reports_every_layer_metric(tmp_path):
    result, details = run.run_workload(TOY_PIPELINE, SEED, 0, 1, str(tmp_path), probes=1)
    check_schema(result, layers.METRICS)
    assert result["correct"] and not details["reference"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["cutting.attempts"] >= 1
    assert values["incidence.locate_calls"] >= 1
    assert values["trace.absent_targets"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)


def test_tracer_reports_absent_targets():
    def sized(xs):
        return len(xs)

    original = json.dumps
    tracer = Tracer([("pfaffinc.intersect", "no_such_function", "gone", None),
                     ("pfaffinc.no_such_module", "f", "gone", None),
                     ("json", "dumps", "json.dumps", sized)])
    with tracer:
        json.dumps([1, 2])
    assert tracer.absent == ["pfaffinc.intersect.no_such_function", "pfaffinc.no_such_module.f"]
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("json.dumps", -1, 6)]
    assert json.dumps is original
