"""The benchmark's workloads: the configs each one plays and the op a user makes.

Every workload is built from a workload seed; all game seeds and the random
polytope derive from it, so the same seed gives the same inputs. An op is the
call a user makes: one game plus its CSV trace (``pfol run``), one game, or one
sweep. pfol functions are looked up through ``harness.<name>`` at call time,
so the traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from pfol import harness
from pfol.adversaries import make_adversary
from pfol.errors import ConfigError
from pfol.harness import ExperimentConfig, RegretTrace, RunSummary
from pfol.sets import set_from_json

NPROC = os.cpu_count() or 1

BALL = {"kind": "ball", "dim": 5, "radius": 1.0}

# game index of the warm-up op, far from the indices the timed ops use
WARMUP_INDEX = 2**31


def game_seed(workload_seed: int, index: int) -> int:
    """Seed of game ``index`` of a workload, derived from the workload seed."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def unit_polytope(workload_seed: int, count: int = 64, dim: int = 16) -> np.ndarray:
    """``count`` vertices drawn uniformly on the unit sphere of R^dim."""
    rng = np.random.default_rng(np.random.SeedSequence([workload_seed, count, dim]))
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class Expected:
    """What a correct game of one config must report, computed before any op runs."""

    oracle_calls: int
    grad_evals: int
    bound: float | None
    correction: float


def expected(config: ExperimentConfig) -> Expected:
    set_ = set_from_json(config.set)
    adversary = make_adversary(config.adversary, horizon=config.T, seed=0,
                               norm_bound=set_.norm_bound, dim=set_.dim)
    _, beta = adversary.constants()
    k = harness.resolve_block(config, beta)
    oracle, grads = harness.expected_budgets(config, k)
    try:
        bound = harness.theoretical_bound(config)
    except ConfigError:
        bound = None
    return Expected(oracle, grads, bound, harness.comparator_correction(config))


@dataclass
class Game:
    """One played game: enough to check it and to replay it."""

    config: ExperimentConfig
    seed: int
    trace: RegretTrace


class GameWorkload:
    """One op plays one game; ``csv`` adds the trace write that ``pfol run`` does."""

    name: str
    csv: bool = False
    uses_pool = False
    warmup_T: int = 512

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = self.make_config(seed)
        self.expected = {self.config.T: expected(self.config)}
        self.csv_path = os.path.join(workdir, f"{self.name}.csv")
        self.rounds_per_op = self.config.T

    def make_config(self, seed: int) -> ExperimentConfig:
        raise NotImplementedError

    def describe(self) -> str:
        c = self.config
        return (f"{'run_game + trace_to_csv' if self.csv else 'run_game'}: {c.learner} m={c.m} k={c.k} "
                f"{c.set['kind']} d={set_from_json(c.set).dim} {c.adversary['kind']} T={c.T} "
                f"fw_budget={c.fw_budget if c.fw_budget is not None else 10 * c.T}")

    def warmup(self) -> None:
        small = replace(self.config, T=self.warmup_T)
        trace = harness.run_game(small, game_seed(self.seed, WARMUP_INDEX))
        if self.csv:
            harness.trace_to_csv(trace, self.csv_path)

    def op(self, index: int) -> list[Game]:
        seed = game_seed(self.seed, index)
        trace = harness.run_game(self.config, seed)
        if self.csv:
            harness.trace_to_csv(trace, self.csv_path)
        return [Game(self.config, seed, trace)]


class FplLinearM1(GameWorkload):
    name = "fpl-linear-m1"
    csv = True

    def make_config(self, seed):
        return ExperimentConfig(learner="sampled_fpl", set=BALL, adversary={"kind": "linear_stochastic"},
                                T=2**14, m=1, fw_budget=64)


class OspfQuadPolytope(GameWorkload):
    name = "ospf-quad-polytope"
    warmup_T = 256

    def make_config(self, seed):
        vertices = unit_polytope(seed).tolist()
        return ExperimentConfig(learner="ospf", set={"kind": "polytope", "vertices": vertices},
                                adversary={"kind": "quadratic_stochastic"}, T=2**13, k="auto")


class FplM64Sweep:
    """One op is a sweep over T; its seeds per cell need not divide among the workers."""

    name = "fpl-m64-sweep"
    uses_pool = True
    T_GRID = (2**10, 2**11, 2**12)
    SEEDS_PER_CELL = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        seeds = tuple(game_seed(seed, i) for i in range(self.SEEDS_PER_CELL))
        self.config = ExperimentConfig(learner="sampled_fpl", set=BALL,
                                       adversary={"kind": "quadratic_adaptive"},
                                       T=self.T_GRID[0], m=64, seeds=seeds)
        self.cells = {T: replace(self.config, T=T) for T in self.T_GRID}
        self.expected = {T: expected(cell) for T, cell in self.cells.items()}
        self.rounds_per_op = sum(self.T_GRID) * self.SEEDS_PER_CELL

    def describe(self) -> str:
        c = self.config
        return (f"sweep: {c.learner} m={c.m} {c.set['kind']} d=5 {c.adversary['kind']} "
                f"T in {list(self.T_GRID)} x {self.SEEDS_PER_CELL} seeds, default fw_budget")

    def warmup(self) -> None:
        small = replace(self.config, T=64)
        harness.sweep(small, {"T": [64, 128, 256]}, jobs=NPROC)

    def op(self, index: int, jobs: int = NPROC) -> list[RunSummary]:
        return harness.sweep(self.config, {"T": list(self.T_GRID)}, jobs=jobs)


WORKLOADS = {cls.name: cls for cls in (FplLinearM1, FplM64Sweep, OspfQuadPolytope)}
