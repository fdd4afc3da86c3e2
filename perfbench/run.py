"""Benchmark of pfaffinc: cutting, incidence counting and pairwise intersection.

Run from the repository root:

    python3 perfbench/run.py --workload cutting-scale --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload at its default seed

Workloads are described in workloads.py.  A run writes the workload's scene
JSON from `--seed` under perfbench/.work/, then measures it in fresh
interpreters that import pfaffinc from src/:

- set-up: several interpreters each import the program and load the scene;
  `setup_s` is the median time from spawn to ready;
- timed run (`--trace 0`): one interpreter runs the workload as a closed loop
  (one caller, each call after the previous returns) for `--seconds`;
  `wall_s` is the median iteration time and `peak_rss_mb` that process's
  peak resident set size;
- traced run (`--trace 1`): a traced iteration between two untraced ones;
  spans around the program's public functions give the per-layer metrics
  (see layers.py), and `trace.overhead_frac` compares the traced iteration
  with the mean of the untraced ones.

Outputs are checked in this process after the timing.  With a reference for
the seed (perfbench/reference/, written by record.py), each point's incidence
set or each curve pair's intersection points must match it; otherwise only
invariants are checked.  A changed input digest, an exception or a broken
invariant fails every operation of the run.  `fail_frac` is failed/attempted.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the lines before it, starting with `#`, give a readable
summary with `fail_frac` and the environment.  BLAS and OpenMP pools are
capped at one thread: the workloads are single-threaded.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads as wk  # noqa: E402
from layers import METRICS, import_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join("perfbench", ".work")  # relative: CSV headers name the scene path
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def spawn(mode, wl, scene_path, run_dir, seconds, timeout):
    """Run a worker; returns (seconds from spawn to ready, last stdout line)."""
    cmd = [sys.executable, WORKER, mode, json.dumps(dataclasses.asdict(wl)),
           scene_path, run_dir, str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {wl.name} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def measure_import_times():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pfaffinc"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=PROBE_TIMEOUT_S, check=True)
    return import_times(proc.stderr)


def check_outputs(wl, run_dir, n_iter, scene_path, ref):
    """(failed ops, CLI iterations whose CSV is byte-identical to the
    reference, or to the first iteration when there is no reference)."""
    failed = identical = 0
    first = first_csv = None
    if ref is not None:
        expected = wk.reference_pairs(ref) if wl.uses_cli else wk.incidence_sets(wl, ref["incidences"])
    for k in range(n_iter):
        if wl.uses_cli:
            with open(os.path.join(run_dir, f"iter-{k}.csv")) as fh:
                text = fh.read()
            pairs = wk.parse_csv(text)
            if ref is not None:
                failed += wk.pair_failures(wl, pairs, expected)
                identical += hashlib.sha256(text.encode()).hexdigest() == ref["csv_sha256"]
            elif first is None:
                failed += wk.pair_invariant_failures(wl, pairs, scene_path)
                first, first_csv = pairs, text
                identical += 1
            else:
                failed += wk.pair_failures(wl, pairs, first)
                identical += text == first_csv
        else:
            with open(os.path.join(run_dir, f"iter-{k}.json")) as fh:
                out = json.load(fh)
            if ref is not None:
                failed += wk.pipeline_failures(wl, out, expected)
            else:
                failed += wk.pipeline_failures(wl, out, first)
                first = first or wk.incidence_sets(wl, out["edges"])
    return failed, identical


def environment():
    import numpy
    import scipy

    commit = None  # a checkout without .git records only the source digest
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    src_dir = os.path.join("src", "pfaffinc")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": src.hexdigest()}


def prepare(wl, seed, work_dir=WORK_DIR):
    """Fresh run directory holding the scene; returns (run dir, scene, digest)."""
    run_dir = os.path.join(work_dir, f"{wl.name}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    scene_path = os.path.join(run_dir, "scene.json")
    return run_dir, scene_path, wk.write_scene(wl, seed, scene_path)


def run_workload(wl, seed, seconds, trace, work_dir=WORK_DIR, reference_dir=wk.REFERENCE_DIR,
                 probes=SETUP_PROBES):
    """Measure one workload at one seed; returns (result line, details)."""
    run_dir, scene_path, digest = prepare(wl, seed, work_dir)
    ref = wk.load_reference(wl, seed, reference_dir)

    details = {"workload": wl.name, "seed": seed, "reference": ref is not None,
               "input_sha256": digest, "error": None}
    setups = []
    t0 = time.perf_counter()
    try:
        for _ in range(probes):
            setups.append(spawn("setup", wl, scene_path, run_dir, seconds, PROBE_TIMEOUT_S)[0])
        t0 = time.perf_counter()
        ready, line = spawn("traced" if trace else "timed", wl, scene_path, run_dir,
                            seconds, WORKER_TIMEOUT_S)
        setups.append(ready)
        summary = json.loads(line)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        details["error"] = str(err)
        summary = {"wall_s": [time.perf_counter() - t0], "peak_rss_mb": 0.0}
        setups = setups or [0.0]
    times = summary["wall_s"]
    n_iter = len(times)
    attempted = wl.ops * n_iter
    if details["error"] is not None:
        failed, identical = attempted, 0
    elif ref is not None and ref["input_sha256"] != digest:
        details["error"] = "input digest differs from the reference"
        failed, identical = attempted, 0
    else:
        failed, identical = check_outputs(wl, run_dir, n_iter, scene_path, ref)
    details.update(iterations=times, setups=setups, fail_frac=failed / attempted,
                   csv_identical=identical)

    if trace:
        layers = dict(summary.get("layers") or {})
        layers.update(measure_import_times())
        layers["cli.csv_identical"] = identical
        details["absent_targets"] = summary.get("absent", [])
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in METRICS.items()}
    else:
        values = {"wall_s": statistics.median(times), "setup_s": statistics.median(setups),
                  "peak_rss_mb": summary["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0 and details["error"] is None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def describe(result, details):
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()
             if name in END_TO_END]
    parts.append(f"fail_frac={details['fail_frac']:.6g} ({result['failed']}/{result['attempted']} ops)")
    return f"# {details['workload']} seed={details['seed']}: " + " ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wk.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="scene seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pfaffinc", "__init__.py")):
        print("perfbench: src/pfaffinc not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    env = environment()
    names = list(wk.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = wk.WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        result, details = run_workload(wl, seed, args.seconds, args.trace)
        details["env"] = env
        print(describe(result, details))
        print("# " + json.dumps(details))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
