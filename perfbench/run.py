#!/usr/bin/env python3
"""Benchmark of the pfol package: end-to-end metrics, or a traced per-layer run.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload fpl-linear-m1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in its own process as a closed loop of one op at a time
(see ``workloads.py``); the only other processes are the sweep's pool workers,
the short set-up launches measured for ``setup_s`` and, in a traced run, one
for the oracle microbenchmarks; this process waits while any of them runs.
With ``--trace 0`` the ops run untraced for ``--seconds`` and the end-to-end
metrics are printed:

- rounds_per_s: game rounds completed / wall seconds of the timed ops;
- op_s_p50: median wall seconds per op (the sample count is printed);
- setup_s: median of the time from launching a fresh process until pfol is
  imported, the configs are built and one warm-up op at small T has finished;
  one launch follows each op, and at least five are made;
- peak_rss_mb: peak resident set of this process, plus, for the sweep, the
  pool's worker count times the largest worker's peak. For the sweep this is
  an upper bound: the forked workers' peaks include the pages they share
  copy-on-write with this process, so those are counted once per process.

With ``--trace 1`` untraced and traced ops alternate on the same game seeds,
for ``--seconds`` and at least ``MIN_PAIRS`` times, and the per-layer metrics
of ``tracing.py`` are printed, together with the oracle microbenchmarks (run
in a fresh process with one BLAS thread), the sweep's pool efficiency and the
tracing overhead.
Every game played is checked (``checks.py``); the failed share is the last
line's ``failed`` / ``attempted``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 5
# traced runs repeat the untraced/traced pair at least this often, so that
# the ratios of two wall times (pool efficiency, trace overhead) are medians
MIN_PAIRS = 3
# BLAS thread settings; printed for the games, set to 1 for the oracle microbenchmarks
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_pfol():
    """Import pfol from this checkout's ``src/``, or exit non-zero without a result."""
    if not os.path.isfile(os.path.join(SRC, "pfol", "__init__.py")):
        sys.exit(f"perfbench: no pfol package under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import pfol

    if not os.path.abspath(pfol.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported pfol from {pfol.__file__}, not from {SRC}")
    return pfol


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def setup_launch(args) -> float:
    """Wall seconds from launch until a fresh process has set up and run its warm-up op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up launch exited with {proc.returncode}")
    return seconds


def oracle_microbench_one_thread(seed: int) -> tuple[dict, dict]:
    """The oracle microbenchmarks of ``tracing.py``, run in a fresh process whose BLAS uses one thread.

    With OpenBLAS's default threading the batch-4096 polytope call took from
    0.4 to 12 ms on a 2-core host, depending on the load on the other core.
    The games are left at the environment's setting: on the polytope workload
    their times did not differ between the default and one thread.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
               **{name: "1" for name in BLAS_ENV})
    proc = subprocess.run([sys.executable, "-m", "perfbench.tracing", str(seed)], stdout=subprocess.PIPE,
                          text=True, cwd=ROOT, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, workload, checker, lines):
    """Untraced ops for ``args.seconds``, each followed by one set-up launch.

    On a shared host the machine's speed drifts over seconds; spreading the
    set-up launches over the run keeps them from all landing in one slow
    stretch. Pool workers are the only children until the first launch, so
    their peak RSS is read right after the first op.
    """
    from perfbench.workloads import NPROC

    durations, setup = [], []
    worker_rss = None
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        try:
            out, dt = timed(workload.op, index)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            checker.op_failed(index, exc)
        else:
            durations.append(dt)
            checker.op(index, out)
        if worker_rss is None:
            worker_rss = max_rss_mb(resource.RUSAGE_CHILDREN)
        setup.append(setup_launch(args))
        index += 1
    rss = max_rss_mb(resource.RUSAGE_SELF) + (NPROC * worker_rss if workload.uses_pool else 0.0)
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_launch(args))
    checker.finish()

    n = len(durations)
    metrics = {
        "rounds_per_s": workload.rounds_per_op * n / sum(durations) if n else 0.0,
        "op_s_p50": statistics.median(durations) if n else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    lines += [
        f"  rounds_per_s = {metrics['rounds_per_s']:.1f} 1/s  ({workload.rounds_per_op} rounds x {n} ops "
        f"in {sum(durations):.3f} s)",
        f"  op_s_p50     = {metrics['op_s_p50']:.4f} s  (median of {n} ops: "
        + ", ".join(f"{d:.4f}" for d in durations) + ")",
        f"  setup_s      = {metrics['setup_s']:.4f} s  (median of {len(setup)} launches: "
        + ", ".join(f"{s:.3f}" for s in setup) + ")",
        f"  peak_rss_mb  = {rss:.1f} MB" + (f"  (this process + {NPROC} workers x largest worker)" if workload.uses_pool else ""),
    ]
    return metrics


def per_layer(args, workload, checker, lines):
    """Untraced and traced ops alternate on the same seeds: ``args.seconds``, ``MIN_PAIRS`` pairs at least.

    For the sweep, a ``jobs=nproc`` op follows each untraced ``jobs=1`` op, so
    the two runs that pool efficiency compares are measured close together.
    """
    from perfbench import tracing
    from perfbench.workloads import NPROC

    metrics, costs = oracle_microbench_one_thread(args.seed)
    # spans recorded in pool workers would be lost, so traced sweeps use one process
    single = functools.partial(workload.op, jobs=1) if workload.uses_pool else workload.op
    plain, pooled, traced, layers, selfs = [], [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        pair_start = time.perf_counter()
        try:
            out, dt = timed(single, index)
            checker.op(("plain", index), out)
            plain.append(dt)
            if workload.uses_pool:
                out, dt = timed(workload.op, index, jobs=NPROC)
                checker.op(("pool", index), out)
                pooled.append(dt)
            with tracing.Recorder() as rec:
                out, dt = timed(rec.span("op")(single), index)
            checker.op(("traced", index), out)
            traced.append(dt)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            checker.op_failed(("pair", index), exc)
            break
        layer, self_s, op_s = tracing.analyse(rec.spans, workload.rounds_per_op)
        layers.append(layer)
        selfs.append((self_s, op_s))
        index += 1
        now = time.perf_counter()
        if index >= MIN_PAIRS and now - start + (now - pair_start) > args.seconds:
            break
    for name in layers[0] if layers else ():
        metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain) if traced else 0.0
    metrics["harness.pool_efficiency"] = statistics.median(
        one / (NPROC * many) for one, many in zip(plain, pooled)) if pooled else 0.0
    if pooled:
        lines.append(f"  pool: jobs=1 {[round(x, 4) for x in plain]} s, jobs={NPROC} {[round(x, 4) for x in pooled]} s")
    checker.finish()

    lines.append(f"  {len(traced)} traced ops; op seconds untraced {[round(x, 4) for x in plain]}, "
                 f"traced {[round(x, 4) for x in traced]}")
    if selfs:
        last, op_s = selfs[-1]
        lines.append(f"  self times of the last traced op add up to {sum(last.values()):.9f} s; its span lasted "
                     f"{op_s:.9f} s. By span: "
                     + ", ".join(f"{name} {s:.4f}" for name, s in sorted(last.items(), key=lambda kv: -kv[1])))
    lines.append("  oracle cost per call (computed, not measured): " + ", ".join(
        f"{key} {c['flops']} flop {c['bytes']} B" for key, c in costs.items()))
    for name, unit in args.units.items():
        lines.append(f"  {name:30s} = {metrics.get(name, 0.0):.6g} {unit}")
    return metrics


def run_workload(args) -> int:
    import numpy as np

    pfol = import_pfol()
    from perfbench import checks, workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        tally = checks.Tally()
        checker = (checks.SweepChecks if workload.uses_pool else checks.GameChecks)(
            workload, tally, workdir)
        lines = [
            f"[{args.workload}] seed={args.seed} seconds={args.seconds} trace={args.trace} "
            f"nproc={workloads.NPROC} python={platform.python_version()} numpy={np.__version__} "
            f"pfol={pfol.__version__} "
            + " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_ENV),
            f"  op: {workload.describe()}",
        ]
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args, workload, checker, lines)

    lines.append(f"  failed_share = {tally.failed_games}/{tally.attempted} games")
    lines.append(f"  checks: {tally.summary()}")
    lines += [f"  FAILED {message}" for message in tally.messages]
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.failed_games == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed_games,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in args.units.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other; metric names gain the workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in args.names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        out = proc.stdout.splitlines()
        if proc.returncode != 0 or not out:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]), flush=True)
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed; all inputs derive from it")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="how long the ops are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    args.names = names
    args.units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload == "all":
        if args.setup_probe:
            parser.error("--setup-probe needs a single workload")
        import_pfol()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
