"""Measure the baseline: every workload on two sets of seeds, plus one traced run.

    python3 perfbench/baseline.py

Run from the repository root.  For each workload it runs perfbench/run.py
untraced for ``run_seconds`` (from BENCHMARK.json) once per seed of each
set in SEED_SETS.  Per set and end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, which
is the distance between the quartiles as a share of the median.  Each
spread, and the change of the second set's median against the first's, is
compared with the metric's bound in BENCHMARK.json.  One traced run per
workload, on the first seed, gives the per-layer numbers.  The result is
written to perfbench/BASELINE.json.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "seconds": seconds,
        "seed_sets": SEED_SETS,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for seeds in SEED_SETS:
            runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
            sets.append({name: summarize([r[name] for r in runs], bound) for name, bound in bounds.items()})
        change = {}
        for name, bound in bounds.items():
            first, second = sets[0][name], sets[1][name]
            change[name] = second["median"] / first["median"] - 1
            print(f"{workload:9s} {name:12s} medians {first['median']:10.4f} {second['median']:10.4f} "
                  f"(change {change[name]:+.3f}), spreads {first['spread']:.3f} {second['spread']:.3f} "
                  f"(bound {bound}, a third {bound / 3:.3f})", flush=True)
        out["workloads"][workload] = {
            "end_to_end": sets,
            "second_median_change": change,
            "per_layer": run_once(workload, SEED_SETS[0][0], seconds, 1),
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
