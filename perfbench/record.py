"""Record reference outputs for each workload at its default seed.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the repository root, at the commit whose outputs become the
reference.  Each workload runs one iteration in a fresh worker; its input
digest and outputs are written to perfbench/reference/<workload>-seed<seed>.json.
"""

import json
import os
import sys

import run
import workloads as wk


def record(wl, seed, work_dir=run.WORK_DIR):
    """Run one iteration of `wl` at `seed` and return its reference record."""
    run_dir, scene_path, digest = run.prepare(wl, seed, work_dir)
    run.spawn("timed", wl, scene_path, run_dir, 0, run.WORKER_TIMEOUT_S)
    if wl.uses_cli:
        with open(os.path.join(run_dir, "iter-0.csv")) as fh:
            output = fh.read()
    else:
        with open(os.path.join(run_dir, "iter-0.json")) as fh:
            output = json.load(fh)
    return wk.make_reference(wl, seed, digest, output)


def main(names):
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(wk.REFERENCE_DIR, exist_ok=True)
    for name in names or list(wk.WORKLOADS):
        wl = wk.WORKLOADS[name]
        ref = record(wl, wl.default_seed)
        with open(wk.reference_path(wl, wl.default_seed), "w") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"recorded {wk.reference_path(wl, wl.default_seed)}")


if __name__ == "__main__":
    main(sys.argv[1:])
