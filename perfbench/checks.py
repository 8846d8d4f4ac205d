"""Correctness checks applied to every game the benchmark plays.

A game passes when all of these hold:

- regret identity: the final cumulative regret is exactly the summed loss minus
  the comparator value;
- budgets: the final oracle-call and gradient counts equal ``expected_budgets``;
- feasible: every action lies in the set (a polytope is checked with one
  vectorized support-function battery);
- bound: the regret is at most the theoretical bound plus the comparator
  correction, wherever a bound exists;
- comparator: the losses replayed through the public adversary reproduce the
  trace bit for bit, and the comparator lies between an exact minimum the
  benchmark computes itself and that minimum plus the certified correction
  (on a polytope: the Frank-Wolfe duality gap at the comparator point is at
  most the correction);
- determinism: replaying a (config, seed) gives a byte-identical CSV, and a
  sweep gives bit-identical final regrets for any number of workers.

Nothing here is loosened to make a run pass: a failing check is counted in the
run's ``failed`` games and printed.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter

import numpy as np

from pfol import harness
from pfol.adversaries import make_adversary
from pfol.sets import Ball, Polytope, set_from_json

from .workloads import Game

# relative slack for comparing sums of T floating-point terms computed in a
# different order; far below any regret or correction the workloads produce
REL_TOL = 1e-9
# how far outside the set an action may sit from rounding alone
FEASIBILITY_TOL = 1e-9


class Tally:
    """Pass/fail counts per check and the set of games that failed any check."""

    def __init__(self):
        self.passed: Counter = Counter()
        self.failed: Counter = Counter()
        self.messages: list[str] = []
        self._games: dict = {}

    def record(self, check: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        (self.passed if ok else self.failed)[check] += 1
        if not ok and len(self.messages) < 20:
            self.messages.append(f"{check}: {detail}")
        return ok

    def game(self, key, ok: bool) -> None:
        self._games[key] = self._games.get(key, True) and bool(ok)

    @property
    def attempted(self) -> int:
        return len(self._games)

    @property
    def failed_games(self) -> int:
        return sum(1 for ok in self._games.values() if not ok)

    def summary(self) -> str:
        names = sorted(set(self.passed) | set(self.failed))
        return ", ".join(f"{n} {self.passed[n]}/{self.passed[n] + self.failed[n]}" for n in names)


def csv_sha256(trace, path) -> str:
    """Write the trace's CSV with pfol's writer and hash its bytes."""
    harness.trace_to_csv(trace, path)
    return file_sha256(path)


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def replay_losses(config, seed: int, actions: np.ndarray):
    """The game's set and its realized losses, rebuilt from the trace's actions."""
    set_ = set_from_json(config.set)
    adversary = make_adversary(config.adversary, horizon=config.T, seed=seed,
                               norm_bound=set_.norm_bound, dim=set_.dim)
    history: list[np.ndarray] = []
    losses = []
    for action in actions:
        losses.append(adversary.next_loss(history))
        history.append(action)
    return set_, losses


def infeasibility(set_, actions: np.ndarray) -> float:
    """Largest distance by which any action leaves the set (a certificate for polytopes)."""
    if isinstance(set_, Ball):
        norms = np.sqrt(np.einsum("ij,ij->i", actions, actions))
        return max(0.0, float(norms.max()) - set_.radius)
    if isinstance(set_, Polytope):
        rng = np.random.default_rng(0)
        dirs = np.vstack([rng.standard_normal((256, set_.dim)), np.eye(set_.dim), -np.eye(set_.dim)])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        support = np.max(dirs @ set_.vertices.T, axis=1)
        return max(0.0, float(np.max(actions @ dirs.T - support)))
    raise TypeError(f"no feasibility check for {set_.kind!r} sets")


def check_comparator(set_, losses, trace, correction: float) -> tuple[bool, str]:
    """Bracket the trace's comparator with an exactly computed minimum."""
    values = np.array([loss.evaluate(a) for loss, a in zip(losses, trace.actions)])
    if not np.array_equal(values, trace.losses):
        return False, "replayed losses differ from the trace"
    got = trace.comparator_value
    if all(loss.center is not None for loss in losses):
        C = np.stack([loss.center for loss in losses])
        if isinstance(set_, Ball):
            mean = C.mean(axis=0)
            norm = float(np.linalg.norm(mean))
            x = mean if norm <= set_.radius else mean * (set_.radius / norm)
            per_round = 0.5 * np.einsum("ij,ij->i", C - x, C - x)
            best = math.fsum(per_round)
            tol = REL_TOL * (1.0 + best)
            ok = best - tol <= got <= best + correction + tol
            return ok, f"comparator {got!r} outside [{best!r}, {best!r} + {correction!r}]"
        if isinstance(set_, Polytope):
            p = trace.comparator_point
            per_round = 0.5 * np.einsum("ij,ij->i", C - p, C - p)
            value = math.fsum(per_round)
            grad = len(losses) * p - C.sum(axis=0)
            v = set_.vertices[np.argmin(set_.vertices @ grad)]
            gap = float(grad @ (p - v))
            tol = REL_TOL * (1.0 + value)
            ok = abs(value - got) <= tol and gap <= correction + tol
            return ok, f"duality gap {gap!r} (correction {correction!r}), value {value!r} vs {got!r}"
    if all(loss.direction is not None for loss in losses):
        G = np.stack([loss.direction for loss in losses])
        total = G.sum(axis=0)
        if isinstance(set_, Ball):
            norm = float(np.linalg.norm(total))
            x = -total * (set_.radius / norm) if norm > 0 else np.zeros(set_.dim)
        elif isinstance(set_, Polytope):
            x = set_.vertices[np.argmin(set_.vertices @ total)]
        else:
            return False, f"no exact linear minimizer for {set_.kind!r}"
        per_round = G @ x
        best = math.fsum(per_round)
        tol = REL_TOL * (1.0 + float(np.abs(per_round).sum()))
        ok = best - tol <= got <= best + correction + tol
        return ok, f"comparator {got!r} outside [{best!r}, {best!r} + {correction!r}]"
    return False, "no exact minimizer for a mixed loss stream"


def check_game(game, exp, tally: Tally) -> bool:
    """Run every per-game check on one played game; True when all pass."""
    trace = game.trace
    set_, losses = replay_losses(game.config, game.seed, trace.actions)
    results = [
        tally.record("regret_identity",
                     trace.cum_regret[-1] == trace.cum_loss[-1] - trace.comparator_value,
                     f"seed {game.seed}"),
        tally.record("budgets",
                     trace.oracle_calls[-1] == exp.oracle_calls and trace.grad_evals[-1] == exp.grad_evals,
                     f"seed {game.seed}: oracle {trace.oracle_calls[-1]} (want {exp.oracle_calls}), "
                     f"gradients {trace.grad_evals[-1]} (want {exp.grad_evals})"),
        tally.record("feasible", infeasibility(set_, trace.actions) <= FEASIBILITY_TOL, f"seed {game.seed}"),
        tally.record("bound", exp.bound is None or trace.final_regret <= exp.bound + exp.correction,
                     f"seed {game.seed}: regret {trace.final_regret!r} > {exp.bound!r} + {exp.correction!r}"),
    ]
    ok, detail = check_comparator(set_, losses, trace, exp.correction)
    results.append(tally.record("comparator", ok, f"seed {game.seed}: {detail}"))
    return all(results)


def check_summaries(workload, op_key, summaries, reference: dict, tally: Tally) -> None:
    """Check one sweep op: every cell complete, within budget and bound, and equal to ``reference``.

    ``reference`` maps (T, seed) to the final regret of a serial replay of that
    game that passed ``check_game``; a game missing from it fails.
    """
    by_T = {summary.T: summary for summary in summaries}
    for T, cell in workload.cells.items():
        exp = workload.expected[T]
        summary = by_T.get(T)
        if summary is None:
            tally.record("errors", False, f"T={T}: cell missing from the sweep")
            for seed in cell.seeds:
                tally.game((op_key, T, seed), False)
            continue
        cell_ok = all([
            tally.record("errors", not summary.errors, f"T={T}: {list(summary.errors)}"),
            tally.record("budgets",
                         summary.oracle_calls == exp.oracle_calls and summary.grad_evals == exp.grad_evals,
                         f"T={T}: oracle {summary.oracle_calls}, gradients {summary.grad_evals}"),
            tally.record("bound", exp.bound is None or summary.mean_regret <= exp.bound + exp.correction,
                         f"T={T}: mean regret {summary.mean_regret!r} > {exp.bound!r}"),
        ])
        regrets = dict(zip(summary.seeds, summary.final_regrets))
        for seed in cell.seeds:
            want = reference.get((T, seed))
            same = seed in regrets and want is not None and regrets[seed] == want
            tally.record("determinism", same, f"T={T} seed {seed}: {regrets.get(seed)!r} vs {want!r}")
            tally.game((op_key, T, seed), cell_ok and same)


class GameChecks:
    """Checks each game as it is played; a seed seen twice must give the same CSV bytes.

    ``finish`` replays the first game once more and compares its CSV by sha256.
    """

    def __init__(self, workload, tally: Tally, workdir: str):
        self.workload = workload
        self.tally = tally
        self.path = os.path.join(workdir, "check.csv")
        self.first = None
        self.hashes: dict[int, str] = {}

    def op(self, key, games) -> None:
        for game in games:
            ok = check_game(game, self.workload.expected[game.config.T], self.tally)
            if self.workload.csv:
                sha = file_sha256(self.workload.csv_path)
            else:
                sha = csv_sha256(game.trace, self.path)
            if game.seed in self.hashes:
                ok = self.tally.record("determinism", self.hashes[game.seed] == sha,
                                       f"seed {game.seed}: CSV bytes differ between plays") and ok
            else:
                self.hashes[game.seed] = sha
            if self.first is None:
                self.first = (key, game)
            self.tally.game(key, ok)

    def op_failed(self, key, exc: BaseException) -> None:
        self.tally.record("raised", False, f"op {key}: {type(exc).__name__}: {exc}")
        self.tally.game(key, False)

    def finish(self) -> None:
        if self.first is None:
            return
        key, game = self.first
        replay = harness.run_game(game.config, game.seed)
        same = csv_sha256(replay, self.path) == self.hashes[game.seed]
        self.tally.game(key, self.tally.record("determinism", same, f"seed {game.seed}: replay CSV differs"))


class SweepChecks:
    """Checks sweeps once every op has run.

    Every game of the grid is replayed serially with ``run_game`` and checked in
    full; each op's summaries must then match those replays bit for bit, which
    also compares ``jobs=1`` against ``jobs=nproc``. The first game is replayed
    once more to compare CSV bytes.
    """

    def __init__(self, workload, tally: Tally, workdir: str):
        self.workload = workload
        self.tally = tally
        self.path = os.path.join(workdir, "check.csv")
        self.ops: list = []

    def op(self, key, summaries) -> None:
        self.ops.append((key, summaries))

    def op_failed(self, key, exc: BaseException) -> None:
        self.tally.record("raised", False, f"op {key}: {type(exc).__name__}: {exc}")
        for T, cell in self.workload.cells.items():
            for seed in cell.seeds:
                self.tally.game((key, T, seed), False)

    def finish(self) -> None:
        reference, first = {}, None
        for T, cell in self.workload.cells.items():
            for seed in cell.seeds:
                game = Game(cell, seed, harness.run_game(cell, seed))
                if check_game(game, self.workload.expected[T], self.tally):
                    reference[(T, seed)] = game.trace.final_regret
                if first is None:
                    first = (T, seed, csv_sha256(game.trace, self.path))
        T, seed, sha = first
        same = csv_sha256(harness.run_game(self.workload.cells[T], seed), self.path) == sha
        if not self.tally.record("determinism", same, f"T={T} seed {seed}: replay CSV differs"):
            reference.pop((T, seed), None)
        for key, summaries in self.ops:
            check_summaries(self.workload, key, summaries, reference, self.tally)
