"""Span recorder for the traced run, and the per-layer metrics computed from its spans.

The recorder wraps public pfol callables from outside the package: each call
becomes a span (name, start, end, parent, count) kept in memory until the op
ends. A name is wrapped in the module or class where pfol looks it up at call
time; ``harness`` imports ``best_in_hindsight``, ``run_game`` and friends by
name, so those are patched on ``pfol.harness``, and every oracle query goes
through a concrete set class's ``support_argmax_many``. Spans recorded in pool
workers would be lost, so traced sweeps run with ``jobs=1``.

Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import pfol.adversaries
import pfol.harness
import pfol.learners
import pfol.rng
import pfol.sets

_clock = time.perf_counter_ns


def _rows(args) -> int:
    return len(args[1])


# (owner, attribute, span name, count of work units from the call's arguments)
TARGETS = [
    (pfol.rng.RoundStream, "at", "rng.at", None),
    # the workloads play only balls and polytopes
    *((cls, "support_argmax_many", "sets.oracle", _rows) for cls in (pfol.sets.Ball, pfol.sets.Polytope)),
    (pfol.harness, "set_from_json", "sets.from_json", None),
    (pfol.adversaries, "linear_loss", "losses.build", None),
    (pfol.adversaries, "quadratic_loss", "losses.build", None),
    (pfol.adversaries.Adversary, "next_loss", "adversaries.next_loss", None),
    (pfol.harness, "make_adversary", "adversaries.make", None),
    (pfol.learners.OnlineLearner, "act", "learners.act", None),
    (pfol.learners.OnlineLearner, "observe", "learners.observe", None),
    (pfol.harness, "best_in_hindsight", "hindsight.solve", None),
    (pfol.harness, "run_game", "harness.run_game", None),
    (pfol.harness, "run_experiment", "harness.run_experiment", None),
    (pfol.harness, "sweep", "harness.sweep", None),
    (pfol.harness, "trace_to_csv", "harness.csv_write", None),
]


class Recorder:
    """Collects spans while installed; ``with Recorder() as rec:`` patches, exit restores."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, count(args) if count else 1)

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        """Wrap a callable of the benchmark's own (the op) in a span."""
        return lambda fn: self._wrap(fn, name, None)

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def analyse(spans, rounds: int) -> tuple[dict, dict, float]:
    """Per-layer metrics of one traced op, its self seconds per span name, and its seconds.

    ``spans[0]`` must be the op's own span; ``rounds`` is the game rounds the op played.
    The self times add up to the op's duration exactly when every span lies
    inside its parent, which the caller reports.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p = spans[parent]
            covered[parent] += max(0, min(end, p[2]) - max(start, p[1]))

    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    oracle = {"act": 0, "hindsight": 0, "other": 0}
    act_starts, observe_ends = [], []
    for i, (name, start, end, parent, count) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        self_ns[name] = self_ns.get(name, 0) + end - start - covered[i]
        if name == "sets.oracle":
            group, p = "other", parent
            while p >= 0:
                if spans[p][0] == "learners.act":
                    group = "act"
                    break
                if spans[p][0] == "hindsight.solve":
                    group = "hindsight"
                    break
                p = spans[p][3]
            oracle[group] += count
        elif name == "learners.act":
            act_starts.append(start)
        elif name == "learners.observe":
            observe_ends.append(end)

    op_ns = spans[0][2] - spans[0][1]
    n = min(len(act_starts), len(observe_ends))
    round_us = (np.array(observe_ends[:n]) - np.array(act_starts[:n])) / 1e3 if n else np.zeros(1)

    def mean_us(name, table=total):
        return table.get(name, 0) / calls[name] / 1e3 if calls.get(name) else 0.0

    metrics = {
        "rng.at_us": mean_us("rng.at"),
        "rng.calls_per_round": calls.get("rng.at", 0) / rounds,
        "sets.oracle_self_s": self_ns.get("sets.oracle", 0) / 1e9,
        "sets.oracle_calls.act": oracle["act"],
        "sets.oracle_calls.hindsight": oracle["hindsight"],
        "sets.oracle_calls.other": oracle["other"],
        "adversaries.next_loss_us": mean_us("adversaries.next_loss"),
        "losses.build_us": mean_us("losses.build"),
        "learners.act_self_us": mean_us("learners.act", self_ns),
        "learners.observe_us": mean_us("learners.observe"),
        "hindsight.solve_s": total.get("hindsight.solve", 0) / 1e9,
        "hindsight.share": total.get("hindsight.solve", 0) / op_ns,
        "harness.loop_self_s": self_ns.get("harness.run_game", 0) / 1e9,
        "harness.round_us_p50": float(np.percentile(round_us, 50)),
        "harness.round_us_p99": float(np.percentile(round_us, 99)),
        "harness.csv_write_s": total.get("harness.csv_write", 0) / 1e9,
    }
    return metrics, {name: ns / 1e9 for name, ns in self_ns.items()}, op_ns / 1e9


# ---------------------------------------------------------------------------
# oracle microbenchmarks
# ---------------------------------------------------------------------------


def oracle_cost(kind: str, batch: int, dim: int, vertices: int = 0) -> tuple[int, int]:
    """Computed (not measured) flops and compulsory bytes of one oracle call.

    Ball: row norms (2nd + n), scale (nd + n). Polytope: scores (2nVd), argmax
    (nV), gather. Bytes count float64 queries read, vertices read and answers
    written; intermediates are left out.
    """
    if kind == "ball":
        return 3 * batch * dim + 2 * batch, 8 * 2 * batch * dim
    return 2 * batch * vertices * dim + batch * vertices, 8 * (2 * batch * dim + vertices * dim)


def time_call(fn, repeats: int = 7, target_s: float = 0.02) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` blocks of about ``target_s`` each."""
    start = time.perf_counter()
    fn()
    n = max(1, int(target_s / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return float(np.median(samples))


def oracle_microbench(polytope_vertices: np.ndarray, seed: int) -> tuple[dict, dict]:
    """µs per ``support_argmax_many`` call at batch 1 and 4096 on the workloads' sets."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4096]))
    sets = {"ball": pfol.sets.Ball(dim=5, radius=1.0), "polytope": pfol.sets.Polytope(polytope_vertices)}
    metrics, costs = {}, {}
    for kind, set_ in sets.items():
        for batch in (1, 4096):
            queries = rng.standard_normal((batch, set_.dim))
            seconds = time_call(lambda: set_.support_argmax_many(queries))
            metrics[f"sets.oracle_us.{kind}.b{batch}"] = seconds * 1e6
            nverts = len(polytope_vertices) if kind == "polytope" else 0
            flops, nbytes = oracle_cost(kind, batch, set_.dim, nverts)
            costs[f"{kind}.b{batch}"] = {"flops": flops, "bytes": nbytes, "dim": set_.dim,
                                         "vertices": nverts, "label": "computed, not measured"}
    return metrics, costs


if __name__ == "__main__":
    # python3 -m perfbench.tracing <workload seed>: the oracle microbenchmarks as one JSON line
    from perfbench.workloads import unit_polytope

    seed = int(sys.argv[1])
    print(json.dumps(oracle_microbench(unit_polytope(seed), seed)))
