#!/usr/bin/env python3
"""Run every workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/record.py --runs 10 --out perfbench/baseline.json

For each seed 1..runs and each workload, ``run.py --trace 0`` runs in a fresh
process with the ``run_seconds`` of BENCHMARK.json; then one traced run per
workload uses seed 1. The table gives each metric's median, quartiles and
spread (interquartile distance / median) next to its bound from
BENCHMARK.json. ``--out`` writes the runs together with a machine block:
nproc, Python and numpy versions, the BLAS library and the thread settings
the games ran with, the git commit, the workload seeds and the computed
(not measured) flops and bytes of each microbenchmarked oracle call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def machine(seeds) -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import numpy as np

    from perfbench.run import BLAS_ENV
    from perfbench.tracing import oracle_cost
    from perfbench.workloads import BALL, unit_polytope

    vertices = unit_polytope(0)
    shapes = {"ball": (BALL["dim"], 0), "polytope": (vertices.shape[1], len(vertices))}
    costs = {f"{kind}.b{batch}": dict(zip(("flops", "bytes"), oracle_cost(kind, batch, dim, nverts)))
             for kind, (dim, nverts) in shapes.items() for batch in (1, 4096)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "git_commit": commit, "workload_seeds": list(seeds),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_env_of_games": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
            "blas_threads_of_oracle_microbench": 1,
            "oracle_cost_per_call": {"label": "computed from the shapes, not measured", **costs}}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write runs, statistics and the machine block here")
    args = parser.parse_args(argv)

    seeds = range(1, args.runs + 1)
    results = {w["name"]: [] for w in bench["workloads"]}
    for seed in seeds:
        for name in results:
            results[name].append(run(name, seed, bench["run_seconds"], 0))
            values = {m: round(v["value"], 4) for m, v in results[name][-1]["metrics"].items()}
            print(f"seed {seed} {name}: {values}", flush=True)

    report = {"machine": machine(seeds), "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    print(f"{'workload':20s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, runs in results.items():
        entry = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median
            if spread > metric["bound"] / 3:
                steady = False
            entry["end_to_end"][metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                                   "q3": q3, "spread": spread, "values": values}
            print(f"{name:20s} {metric['name']:14s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{metric['bound']:6.3f}")
        entry["per_layer_seed_1"] = run(name, 1, bench["run_seconds"], 1)
        report["workloads"][name] = entry
    print("every spread below a third of its bound" if steady else "SOME SPREAD IS ABOVE A THIRD OF ITS BOUND")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
