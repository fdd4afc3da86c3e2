"""One fresh interpreter of a benchmark run; started by run.py, not by hand.

    python3 perfbench/worker.py MODE WORKLOAD_JSON SCENE RUN_DIR SECONDS

MODE is `setup` (import and load, then exit), `timed` (closed loop for
SECONDS) or `traced` (untraced, traced and untraced iterations).  The worker
prints `ready` once set up; the parent times set-up from the spawn to that
line.  Each iteration's outputs go to RUN_DIR (iter-<k>.json or
iter-<k>.csv), and the last stdout line is a JSON summary.
"""

import json
import os
import resource
import statistics
import sys
import time

import workloads


def closed_loop(step, seconds):
    """Run `step(k)` back to back; the next call starts only after the
    previous returns.  Stops when another iteration of median length would
    overrun `seconds`; always runs at least one."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(step(len(times)))
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def main(argv):
    mode, spec, scene_path, run_dir, seconds = argv
    wl = workloads.Workload(**json.loads(spec))
    scene_mod = workloads.import_program(wl)
    loaded = scene_mod.load_scene(scene_path)
    print("ready", flush=True)
    if mode == "setup":
        return

    last = {}

    def step(k):
        csv_path = os.path.join(run_dir, f"iter-{k}.csv")
        t0 = time.perf_counter()
        raw = workloads.iterate(wl, loaded, scene_path, csv_path)
        elapsed = time.perf_counter() - t0
        if wl.uses_cli:
            if raw != 0:
                raise RuntimeError(f"pfaffinc intersect exited with {raw}")
        else:
            last["out"] = workloads.extract(raw)
            with open(os.path.join(run_dir, f"iter-{k}.json"), "w") as fh:
                json.dump(last["out"], fh)
        return elapsed

    summary = {}
    if mode == "timed":
        summary["wall_s"] = closed_loop(step, float(seconds))
    else:
        from layers import TARGETS, output_metrics, span_metrics
        from tracer import Tracer

        # untraced iterations on both sides of the traced one, so a drift in
        # machine speed cancels from the overhead
        times = [step(0)]
        tracer = Tracer(TARGETS)
        with tracer:
            times.append(step(1))
        traced_out = last.get("out")
        times.append(step(2))
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
        layer = span_metrics(tracer.spans)
        layer.update(output_metrics(wl, traced_out))
        layer["trace.overhead_frac"] = 2 * times[1] / (times[0] + times[2]) - 1.0
        layer["trace.absent_targets"] = len(tracer.absent)
        summary.update(wall_s=times, layers=layer, absent=tracer.absent)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
