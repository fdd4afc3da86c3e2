"""Measure the baseline: every workload on seeds 1..N, untraced, plus one
traced run at each workload's default seed.

    python3 perfbench/baseline.py [--runs 10] [--out perfbench/baseline.json]

Run from the repository root.  Each run is a fresh `perfbench/run.py`
process, as a benchmark driver would start it.  For each end-to-end metric
the output gives the median, the quartiles (`statistics.quantiles(n=4)`),
the spread (interquartile range over the median) and the run count; the
per-layer metrics are those of the traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys

import workloads as wk

BYPASSES = {
    "cutting-scale": "the CLI; exercises every other layer",
    "points-dense": "cutting construction in all but name (under 5% of the run)",
    "intersect-cli": "cutting and incidence: no cutting is built and nothing is counted",
}
NOT_MEASURED = ("duality and chains: no ROADMAP hot path runs through them; the "
                "scipy.integrate import that chains pull in shows in setup_s")


def bench_run(name, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][2:])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default="perfbench/baseline.json")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"run_seconds": seconds, "seeds": list(range(1, args.runs + 1)),
           "not_measured": NOT_MEASURED, "workloads": {}}
    for name, wl in wk.WORKLOADS.items():
        values, failed = {}, 0
        for seed in out["seeds"]:
            result, details = bench_run(name, seed, seconds, 0)
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        end_to_end = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            end_to_end[metric] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals),
                                  "spread": (q3 - q1) / med, "bound": bounds[metric]}
            print(f"  {metric}: median {med:.4g} spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[metric]})", flush=True)
        traced, details = bench_run(name, wl.default_seed, seconds, 1)
        out["env"] = details["env"]
        out["workloads"][name] = {
            "why": why[name], "bypasses": BYPASSES[name], "failed_ops": failed,
            "end_to_end": end_to_end,
            "per_layer_seed": wl.default_seed,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
