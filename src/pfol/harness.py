"""Experiment orchestration: game loop, regret accounting, sweeps, bounds.

A run is fully described by (ExperimentConfig, seed) and replays to identical
CSV bytes. One game engine serves every learner and adversary:
``_play_games`` builds a config's learners and adversaries for a batch of
seeds and makes one call to their class's ``play``, which plays the seeds
side by side, each game bit for bit its game of act and observe. The
docstring of ``pfol.learners`` is the one description of those engines.
``run_game`` plays one with one seed.

A trace's oracle-call column is the config's call schedule
(``_oracle_schedule``), and the instrumented set's count must equal the
schedule's total times the games played. One tail prices each game: losses
from ``row_dots``, then the exact hindsight comparator on the (T, d)
parameter array; the final cumulative regret is the summed losses minus the
comparator value by construction. Sweeps and multi-seed runs hand one
process pool all their tasks (see ``_play_all``).

Every entry point resolves its config once (``_resolve``): validated, its
set parsed and its (G, beta), block length and perturbation scale worked out;
the game, the summary and the bounds read that record. Bounds are evaluated
from it (never fitted), so a bound check passes when the computed regret is
at most the bound.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import numbers
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from ._csv import write_rows
from .adversaries import Adversary, make_adversary
from .errors import ConfigError, is_int
from .learners import OFW, OGD, InstrumentedSet, PerturbedLeader
from .losses import row_dots
from .rng import ROUND_LIMIT
from .sets import FeasibleSet, set_from_json

__all__ = [
    "ExperimentConfig",
    "RegretTrace",
    "RunSummary",
    "ExponentFit",
    "run_game",
    "run_experiment",
    "sweep",
    "best_in_hindsight",
    "theoretical_bound",
    "high_probability_bound",
    "bound_check",
    "quantile_check",
    "fit_exponent",
    "trace_to_csv",
    "sweep_regrets_csv",
    "CSV_HEADER",
]

logger = logging.getLogger("pfol")

# the knobs each learner reads; the others must keep their field defaults
LEARNER_KNOBS = {"sampled_fpl": ("m", "delta"), "ospf": ("k", "delta"), "ogd": (), "ofw": ()}

CSV_HEADER = "run_id,algorithm,seed,t,loss,cum_loss,cum_regret,oracle_calls,grad_evals"


def _check_count(name: str, value) -> None:
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark cell: learner, set, adversary, horizon, and knobs.

    Each learner reads its own knobs (``LEARNER_KNOBS``): ``sampled_fpl``
    its samples per round ``m`` and ``delta``, ``ospf`` its block length
    ``k`` and ``delta``, the baselines none. A knob the learner does not
    read must keep its default (1, 1, "auto"), else ``validate`` refuses
    it. ``delta`` and ``k`` accept "auto", which ``resolve_delta`` and
    ``resolve_block`` resolve. ``fw_budget`` is accepted and validated, and
    is not read: the hindsight comparator is exact and needs no iteration
    budget. It stays because the benchmark's workloads
    (perfbench/workloads.py) set and read it. Where a trace goes is the
    caller's choice (``pfol run --out``), not the config's.
    """

    learner: str
    set: dict
    adversary: dict
    T: int
    m: int = 1
    k: int | str = 1
    delta: float | str = "auto"
    seeds: tuple[int, ...] = (0,)
    fw_budget: int | None = None

    def validate(self) -> None:
        if not isinstance(self.learner, str) or self.learner not in LEARNER_KNOBS:
            raise ConfigError(f"unknown learner {self.learner!r}; supported: {tuple(LEARNER_KNOBS)}")
        for name in ("T", "m") + (() if self.k == "auto" else ("k",)):
            _check_count(name, getattr(self, name))
        if self.T >= ROUND_LIMIT:
            raise ConfigError(f"T must be below 2^48, the rounds a seed's random streams key, got {self.T}")
        if self.fw_budget is not None:
            _check_count("fw_budget", self.fw_budget)
        if isinstance(self.delta, str):
            if self.delta != "auto":
                raise ConfigError(f"delta must be a positive number or 'auto', got {self.delta!r}")
        elif isinstance(self.delta, bool) or not isinstance(self.delta, numbers.Real) or not self.delta > 0:
            raise ConfigError(f"delta must be a positive number or 'auto', got {self.delta!r}")
        reads = LEARNER_KNOBS[self.learner]
        if unread := [name for name in ("m", "k", "delta") if name not in reads
                      and getattr(self, name) != self.__dataclass_fields__[name].default]:
            raise ConfigError(f"learner {self.learner!r} does not read {unread}; it reads {list(reads)}")
        if not isinstance(self.seeds, (tuple, list)) or not all(is_int(s) for s in self.seeds):
            raise ConfigError(f"seeds must be a list of integers, got {self.seeds!r}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        first = {}  # a seed keys its streams modulo 2^64, so seeds equal modulo 2^64 play one game
        for i, seed in enumerate(self.seeds):
            if (j := first.setdefault(int(seed) % 2**64, i)) != i:
                raise ConfigError(f"seeds {self.seeds[j]} and {seed} are equal modulo 2^64 and would play one game")

    @staticmethod
    def from_json(spec: dict) -> "ExperimentConfig":
        if not isinstance(spec, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(spec) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"learner", "set", "adversary", "T"} - set(spec)
        if missing:
            raise ConfigError(f"config is missing required fields: {sorted(missing)}")
        kwargs = {k: v for k, v in spec.items() if k in known}
        if isinstance(kwargs.get("seeds"), list):
            kwargs["seeds"] = tuple(kwargs["seeds"])
        cfg = ExperimentConfig(**kwargs)
        cfg.validate()
        return cfg

    def to_json(self) -> dict:
        return asdict(self)


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# parameter resolution
# ---------------------------------------------------------------------------


def resolve_block(config: ExperimentConfig, beta: float) -> int:
    """Concrete block length k of a config whose stream has smoothness ``beta``.

    ``k: "auto"`` is max(1, round(T^(1/3))) on a smooth stream (beta > 0)
    and 1 on a linear one. Blocks only spread the perturbed leader's
    sampling error over smooth losses: k ~ T^(1/3) balances that term,
    which falls like T/k, against the stability term, which grows like
    sqrt(dTk), for T^(2/3) regret at one amortized oracle call a round. A
    linear loss has no sampling-variance term, and a block only delays the
    leader: on ``linear_adaptive`` regret grows with k, and on
    ``linear_stochastic`` it is flat in k. ``resolve_delta`` prices
    ``delta: "auto"`` on the resolved k.
    """
    if config.k != "auto":
        return int(config.k)
    return max(1, round(config.T ** (1.0 / 3.0))) if beta > 0 else 1


def leader_shape(config: ExperimentConfig, k: int) -> tuple[int, int] | None:
    """(samples, block) of the PerturbedLeader a config plays, None for a baseline.

    ``k`` is the resolved block length; this is the one place that tells the
    perturbed-leader config names apart.
    """
    return {"sampled_fpl": (config.m, 1), "ospf": (k, k)}.get(config.learner)


def resolve_delta(config: ExperimentConfig, G: float, dim: int, k: int) -> float | None:
    """Concrete perturbation scale, or None for learners that take none.

    ``delta: "auto"`` balances the bias 2D/delta against the drift
    delta*D*G^2*d*T/2: 2 / (G*sqrt(d*T)) for ``sampled_fpl``, and for the
    blocked ``ospf`` the same on its n = ceil(T/k) block losses of gradient
    bound G*k, computed as 2 / (G*sqrt(d)*sqrt(n)*k): the recorded traces
    depend on that order of operations to the last bit.
    """
    if leader_shape(config, k) is None:
        return None
    if config.delta != "auto":
        return float(config.delta)
    if config.learner == "ospf":
        value = 2.0 / (G * math.sqrt(dim) * math.sqrt(math.ceil(config.T / k)) * k)
    else:
        value = 2.0 / (G * math.sqrt(dim * config.T))
    logger.info("resolved delta=%.6g for learner=%s T=%d", value, config.learner, config.T)
    return value


@dataclass(frozen=True)
class _Problem:
    """A validated config's set, (G, beta), block length k, delta (None for a baseline) and leader shape."""

    set: FeasibleSet
    G: float
    beta: float
    k: int
    delta: float | None
    leader_shape: tuple[int, int] | None


def _adversary(config: ExperimentConfig, set_: FeasibleSet, seed: int) -> Adversary:
    return make_adversary(config.adversary, horizon=config.T, seed=seed, norm_bound=set_.norm_bound, dim=set_.dim)


def _resolve(config: ExperimentConfig) -> _Problem:
    """Validate and resolve a config; the set is parsed here and nowhere else, and the adversary certifies G, beta.

    A perturbed leader whose auto delta underflows to 0 (G too large), or
    whose expected-regret bound is not finite (a delta, given or resolved,
    out of range for the set and the adversary), is a ConfigError: no game
    of it could check against the bound.
    """
    config.validate()
    set_ = set_from_json(config.set)
    adversary = _adversary(config, set_, 0)
    G, beta = adversary.constants()
    k = resolve_block(config, beta)
    problem = _Problem(set_, G, beta, k, resolve_delta(config, G, set_.dim, k), leader_shape(config, k))
    if problem.delta is not None and not problem.delta > 0:  # an auto delta underflows when G*sqrt(d*T) overflows
        raise ConfigError(f"the auto delta is {problem.delta!r} at G={G!r}: choose a smaller set or adversary scale")
    if problem.leader_shape is not None and not math.isfinite(bound := _expected_bound(config, problem)):
        raise ConfigError(f"delta={problem.delta!r} gives the regret bound {bound!r}, which is not finite: "
                          f"choose a delta that suits the set's size and the adversary's scale")
    return problem


def _make_learner(config: ExperimentConfig, problem: _Problem, oracle: InstrumentedSet, seed: int):
    if problem.leader_shape is not None:
        samples, block = problem.leader_shape
        return PerturbedLeader(oracle, delta=problem.delta, samples=samples, block=block, seed=seed)
    return {"ogd": OGD, "ofw": OFW}[config.learner](oracle, grad_bound=problem.G)


def _oracle_schedule(config: ExperimentConfig, k: int, t):
    """Oracle calls a game makes through round t, an int or an array of rounds.

    A perturbed leader makes samples * floor(t/block), ofw one a round and
    ogd none; ofw, and a perturbed leader with block > 1, make one extra
    call for their start point.
    """
    shape = leader_shape(config, k)
    if shape is not None:
        samples, block = shape
        return samples * (t // block) + int(block > 1)
    return t + 1 if config.learner == "ofw" else 0 * t


def expected_budgets(config: ExperimentConfig, k: int) -> tuple[int, int]:
    """(oracle calls, gradient evaluations) a full run must consume exactly."""
    return _oracle_schedule(config, k, config.T), config.T


# ---------------------------------------------------------------------------
# one game
# ---------------------------------------------------------------------------


def best_in_hindsight(params: np.ndarray, set_: FeasibleSet, quadratic: bool) -> np.ndarray:
    """Best fixed action against a realized loss stream, exact on every set kind.

    ``params`` holds the stream's (T, d) rows: the centres of squared-distance
    losses when ``quadratic``, else the directions of linear ones. Since
    sum_t 0.5 ||x - c_t||^2 = (T/2) ||x - mean(c)||^2 + const, a quadratic
    stream's minimizer is the projection of the mean centre; a linear stream's
    is the oracle answer at minus the direction sum.
    """
    if quadratic:
        return set_.project(params.mean(axis=0))
    return set_.support_argmax(-params.sum(axis=0))


@dataclass
class RegretTrace:
    """Per-round record of one game plus its hindsight comparator.

    cum_regret[t] = cum_loss[t] - (comparator's cumulative loss through t),
    so the final entry is exactly sum of losses minus comparator_value.
    """

    algorithm: str
    seed: int
    delta: float | None
    actions: np.ndarray
    losses: np.ndarray
    cum_loss: np.ndarray
    comparator_point: np.ndarray
    comparator_value: float
    cum_regret: np.ndarray
    oracle_calls: np.ndarray
    grad_evals: np.ndarray

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])

    @property
    def horizon(self) -> int:
        return len(self.losses)


def run_game(config: ExperimentConfig, seed: int) -> RegretTrace:
    """Play one full game and return its trace; deterministic in (config, seed).

    Raises RuntimeError if the oracle calls counted differ from the config's
    budget (``expected_budgets``).
    """
    return next(_play_games(config, _resolve(config), (seed,)))


def _play_games(config: ExperimentConfig, problem: _Problem, seeds: Sequence[int]) -> Iterator[RegretTrace]:
    """The traces of a resolved config's games under ``seeds``, in order, each bit for bit the game ``run_game`` plays.

    The learners' class plays the seeds side by side through one
    instrumented set (``OnlineLearner.play``). Raises RuntimeError if the
    count is not len(seeds) times the budget. The traces are priced as they
    are asked for, so that a batch holds one at a time.
    """
    oracle = InstrumentedSet(problem.set)
    learners = [_make_learner(config, problem, oracle, seed) for seed in seeds]
    adversaries = [_adversary(config, problem.set, seed) for seed in seeds]
    actions, params = type(learners[0]).play(learners, adversaries, config.T)
    # the column is the config's call schedule, whose total the count below checks
    oracle_calls = _oracle_schedule(config, problem.k, np.arange(1, config.T + 1))
    budget = expected_budgets(config, problem.k)[0]
    if oracle.oracle_calls != len(seeds) * budget:
        raise RuntimeError(f"oracle calls counted {oracle.oracle_calls}, not {budget} for each of {len(seeds)} games")
    quadratic = adversaries[0].quadratic
    return (_price(config, seed, problem, quadratic, actions[i], params[i], oracle_calls)
            for i, seed in enumerate(seeds))


def _price(config: ExperimentConfig, seed: int, problem: _Problem, quadratic: bool,
           actions: np.ndarray, params: np.ndarray, oracle_calls: np.ndarray) -> RegretTrace:
    """The trace of a played game: its losses and hindsight comparator."""
    comparator_point = best_in_hindsight(params, problem.set, quadratic)
    if quadratic:
        grads = actions - params
        losses = 0.5 * row_dots(grads, grads)
        diffs = np.subtract(comparator_point, params, out=grads)
        comparator_losses = 0.5 * row_dots(diffs, diffs)
    else:
        losses = row_dots(params, actions)
        comparator_losses = row_dots(params, comparator_point)
    cum_loss = np.cumsum(losses)
    cum_comparator = np.cumsum(comparator_losses)
    return RegretTrace(
        algorithm=config.learner,
        seed=int(seed),
        delta=problem.delta,
        actions=actions,
        losses=losses,
        cum_loss=cum_loss,
        comparator_point=comparator_point,
        comparator_value=float(cum_comparator[-1]),
        cum_regret=cum_loss - cum_comparator,
        oracle_calls=oracle_calls,
        grad_evals=np.arange(1, len(actions) + 1, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def theoretical_bound(config: ExperimentConfig) -> float:
    """Expected-regret guarantee (excess over the comparator) for the config."""
    return _expected_bound(config, _resolve(config))


def _expected_bound(config: ExperimentConfig, problem: _Problem) -> float:
    """``theoretical_bound`` of a resolved config.

    A perturbed leader with (samples, block) plays FPL on n = ceil(T/block)
    block losses with gradient bound G*block and smoothness beta*block, so
    every one is priced by the sampled-FPL bound on those constants:
    2D/delta + delta*D*G^2*d*n/2 plus the sampling term (2GDn/sqrt(m)
    general, 4*beta*D^2*n/m smooth), with m = samples. The blocked game is
    this bound on (n, G*k, beta*k, k). Baselines have no bound here.
    """
    if problem.leader_shape is None:
        raise ConfigError(f"no closed-form regret bound for learner {config.learner!r}")
    m, block = problem.leader_shape
    D, d, delta = problem.set.norm_bound, problem.set.dim, problem.delta
    n = math.ceil(config.T / block)
    G, beta = problem.G * block, problem.beta * block
    base = 2.0 * D / delta + delta * D * G * G * d * n / 2.0
    if beta > 0:
        return base + 4.0 * beta * D * D * n / m
    return base + 2.0 * G * D * n / math.sqrt(m)


def high_probability_bound(config: ExperimentConfig, sigma: float) -> float:
    """Regret level exceeded with probability at most sigma.

    Only defined for an unblocked perturbed leader. Uses the larger
    derivation constants: sqrt(2 log(2T/sigma)) on the general sampling term;
    in the smooth case 2GD*sqrt(2T log(4/sigma)) + (8 beta D^2 T / m) log(4T/sigma).
    """
    problem = _resolve(config)
    if not 0 < sigma <= 1:
        raise ConfigError("sigma must lie in (0, 1]")
    shape = problem.leader_shape
    if shape is None or shape[1] > 1:
        raise ConfigError(
            f"high-probability bound is only available for unblocked perturbed-leader learners, "
            f"not {config.learner!r}"
        )
    m, delta, G, beta = shape[0], problem.delta, problem.G, problem.beta
    D, d, T = problem.set.norm_bound, problem.set.dim, config.T
    base = 2.0 * D / delta + delta * d * D * G * G * T / 2.0
    if beta > 0:
        return (base
                + 2.0 * G * D * math.sqrt(2.0 * T * math.log(4.0 / sigma))
                + (8.0 * beta * D * D * T / m) * math.log(4.0 * T / sigma))
    return base + (2.0 * G * D * T / math.sqrt(m)) * math.sqrt(2.0 * math.log(2.0 * T / sigma))


def comparator_correction(config: ExperimentConfig) -> float:
    """Certified error of the hindsight comparator: 0.0, since ``best_in_hindsight`` is exact.

    Nothing in pfol calls it; it stays for the benchmark (``perfbench/workloads.py``),
    which adds it to each bound it checks.
    """
    config.validate()
    return 0.0


# ---------------------------------------------------------------------------
# multi-seed experiments and sweeps
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    """Aggregate of one config across its seeds.

    ``wall_clock_s`` is the seconds spent in the config's games, summed over
    its seeds: a batch of seeds played side by side (see ``_play_all``)
    splits its seconds evenly over them, so the sum is still the seconds
    spent. Batches played in parallel overlap in time. A sweep cell that
    does not resolve keeps its ``T`` as given, which need not be an int.
    """

    config_hash: str
    learner: str
    T: int | object
    delta: float | None
    overrides: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = ()
    final_regrets: tuple[float, ...] = ()
    mean_regret: float = float("nan")
    regret_std: float = float("nan")
    quantiles: dict = field(default_factory=dict)
    theoretical_bound: float | None = None
    oracle_calls: int = 0
    grad_evals: int = 0
    wall_clock_s: float = 0.0
    errors: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return asdict(self)


_QUANTS = {"q05": 0.05, "q25": 0.25, "q50": 0.50, "q75": 0.75, "q95": 0.95}


LOCKSTEP_CAP = 16  # most seeds in a batch: a game's cost stops falling near 5, memory grows with S
LOCKSTEP_VALUES = 2**22  # most S*T*d entries in a batch's (S, T, d) action array (32 MB), so long games batch fewer


def _play(config: ExperimentConfig, problem: _Problem,
          seeds: tuple[int, ...]) -> list[tuple[float | None, str | None, float]]:
    """Per seed of a resolved config: the final regret or None, the error or None, and seconds.

    A batch's seconds are split evenly over its seeds. A batch that raises
    replays its seeds one at a time, so that each error names its seed.
    """
    start = time.perf_counter()
    try:
        regrets = [trace.final_regret for trace in _play_games(config, problem, seeds)]
    except Exception as exc:  # noqa: BLE001 - reported per (cell, seed)
        lost = (time.perf_counter() - start) / len(seeds)
        if len(seeds) == 1:
            return [(None, f"seed {seeds[0]}: {type(exc).__name__}: {exc}", lost)]
        return [(regret, error, seconds + lost)
                for seed in seeds for regret, error, seconds in _play(config, problem, (seed,))]
    seconds = (time.perf_counter() - start) / len(seeds)
    return [(regret, None, seconds) for regret in regrets]


def _play_all(cells: Sequence[tuple[ExperimentConfig, _Problem]], jobs: int) -> list[dict]:
    """Outcomes of every seed of every resolved config, as one {seed: outcome} per config.

    A task is a batch of one config's seeds, cut into
    max(ceil(jobs / configs), ceil(seeds / LOCKSTEP_CAP),
    ceil(seeds * T * d / LOCKSTEP_VALUES)) near-equal batches, whatever the
    learner. With jobs > 1 one process pool plays all tasks, longest T
    first, so that no long game starts last. Each game is a pure function
    of (config, seed), so the outcomes do not depend on jobs, the batches or
    the order.
    """
    tasks = []
    for i, (config, problem) in enumerate(cells):
        n = len(config.seeds)
        values = n * config.T * problem.set.dim
        parts = min(n, max(-(-jobs // len(cells)), -(-n // LOCKSTEP_CAP), -(-values // LOCKSTEP_VALUES)))
        tasks += [(i, tuple(config.seeds[j] for j in batch)) for batch in np.array_split(range(n), parts)]
    tasks.sort(key=lambda task: -cells[task[0]][0].T)
    args = ([cells[i][0] for i, _ in tasks], [cells[i][1] for i, _ in tasks], [batch for _, batch in tasks])
    outcomes = None
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures  # here, not at module level, so serial runs start without it
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(min(jobs, len(tasks)), mp_context=ctx) as pool:
                outcomes = list(pool.map(_play, *args))
    if outcomes is None:
        outcomes = list(map(_play, *args))
    per_config = [{} for _ in cells]
    for (i, batch), batch_outcomes in zip(tasks, outcomes):
        per_config[i].update(zip(batch, batch_outcomes))
    return per_config


def _summarize(config: ExperimentConfig, problem: _Problem, outcomes: dict,
               overrides: dict | None = None) -> RunSummary:
    """The summary of a config's outcomes; its budgets are ``expected_budgets``, which ``_play_games`` checked."""
    summary = RunSummary(
        config_hash=config_hash(config),
        learner=config.learner,
        T=config.T,
        delta=problem.delta,
        overrides=dict(overrides or {}),
        wall_clock_s=sum(seconds for _, _, seconds in outcomes.values()),
        errors=tuple(outcomes[s][1] for s in config.seeds if outcomes[s][1] is not None),
    )
    ordered = [s for s in config.seeds if outcomes[s][0] is not None]
    if not ordered:
        return summary

    regrets = np.array([outcomes[s][0] for s in ordered])
    summary.seeds = tuple(ordered)
    summary.final_regrets = tuple(float(r) for r in regrets)
    summary.mean_regret = float(regrets.mean())
    summary.regret_std = float(regrets.std(ddof=1)) if len(regrets) > 1 else 0.0
    summary.quantiles = {name: float(np.quantile(regrets, q)) for name, q in _QUANTS.items()}
    summary.quantiles["max"] = float(regrets.max())
    summary.theoretical_bound = None if problem.leader_shape is None else _expected_bound(config, problem)
    summary.oracle_calls, summary.grad_evals = expected_budgets(config, problem.k)
    return summary


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunSummary:
    """Run every seed of a config and aggregate.

    A config that does not resolve raises ConfigError before any game is
    played; a seed whose game fails is recorded in the summary's ``errors``.
    ``jobs`` below 1 is a ConfigError.
    """
    return _experiment(config, _resolve(config), jobs)


def _experiment(config: ExperimentConfig, problem: _Problem, jobs: int) -> RunSummary:
    """``run_experiment`` of a resolved config."""
    _check_count("jobs", jobs)
    return _summarize(config, problem, _play_all([(config, problem)], jobs)[0])


def sweep(template: ExperimentConfig, vary: dict[str, list | tuple], jobs: int = 1) -> list[RunSummary]:
    """Cartesian product of ``vary`` values applied to the template.

    Every key of ``vary`` must be a config field and every value a list (or
    tuple) of at least one value, and ``jobs`` at least 1, else ConfigError.
    An empty ``vary`` is the product of no axes: one cell, the template.
    Every (cell, seed) game runs in one pool (see ``_play_all``). A cell
    that does not resolve plays no game; it and any failing cell contribute
    a summary whose ``errors`` field explains what happened (with the cell's
    T as given), and the sweep continues.
    Aggregation order is the grid order regardless of execution order.
    """
    template.validate()
    _check_count("jobs", jobs)
    for key, values in vary.items():
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ConfigError(f"vary names unknown config field {key!r}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"vary[{key!r}] must be a list of at least one value, got {values!r}")
    cells: list[tuple[dict, tuple[ExperimentConfig, _Problem] | Exception]] = []
    for combo in itertools.product(*vary.values()):
        overrides = dict(zip(vary, combo))
        try:
            cell = replace(template, **overrides)
            resolved = (cell, _resolve(cell))
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            resolved = exc
        cells.append((overrides, resolved))
    valid = [resolved for _, resolved in cells if not isinstance(resolved, Exception)]
    outcomes = iter(_play_all(valid, jobs))
    summaries: list[RunSummary] = []
    for overrides, resolved in cells:
        try:
            if isinstance(resolved, Exception):
                raise resolved
            summaries.append(_summarize(*resolved, next(outcomes), overrides))
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            summaries.append(RunSummary(
                config_hash="invalid",
                learner=template.learner,
                T=overrides.get("T", template.T),
                delta=None,
                overrides=overrides,
                errors=(f"{type(exc).__name__}: {exc}",),
            ))
    return summaries


# ---------------------------------------------------------------------------
# statistics over summaries
# ---------------------------------------------------------------------------


def quantile_check(summary: RunSummary, sigma: float, config: ExperimentConfig) -> dict:
    """Compare the empirical (1-sigma) regret quantile to the matching bound; passes when at most it."""
    if not 0 < sigma <= 1:
        raise ConfigError("sigma must lie in (0, 1]")
    regrets = np.asarray(summary.final_regrets, dtype=float)
    if regrets.size == 0:
        raise ConfigError("summary holds no successful runs")
    enough = regrets.size >= 1.0 / sigma
    if not enough:
        warnings.warn(
            f"only {regrets.size} seeds for sigma={sigma}; the empirical quantile is coarse",
            stacklevel=2,
        )
    quantile = float(np.quantile(regrets, 1.0 - sigma))
    bound = high_probability_bound(config, sigma)
    return {
        "sigma": sigma,
        "seeds": int(regrets.size),
        "sufficient_seeds": bool(enough),
        "quantile": quantile,
        "bound": bound,
        "pass": bool(quantile <= bound),
    }


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    points_used: int


def fit_exponent(T_grid: Sequence[float], regrets: Sequence[float]) -> ExponentFit:
    """Least-squares slope of log(regret) against log(T).

    Every T must be positive and finite and every regret finite, else
    ConfigError. Nonpositive regrets cannot be log-transformed; they are
    dropped with a warning, and fewer than 4 usable points, or usable points
    at fewer than 2 distinct T, is a config error.
    """
    T_grid = list(T_grid)
    regrets = list(regrets)
    if len(T_grid) != len(regrets):
        raise ConfigError("T grid and regrets must have equal length")
    bad = [t for t in T_grid if not (math.isfinite(t) and t > 0)]
    if bad:
        raise ConfigError(f"every T of a fit must be positive and finite, got {bad}")
    bad = [r for r in regrets if not math.isfinite(r)]
    if bad:
        raise ConfigError(f"every regret of a fit must be finite, got {bad}")
    usable = [(t, r) for t, r in zip(T_grid, regrets) if r > 0]
    dropped = len(regrets) - len(usable)
    if dropped:
        warnings.warn(f"excluded {dropped} nonpositive regret point(s) from the fit", stacklevel=2)
    if len(usable) < 4:
        raise ConfigError(f"need >= 4 positive points for a power-law fit, have {len(usable)}")
    if len({t for t, _ in usable}) < 2:
        raise ConfigError(f"a power-law fit needs at least 2 distinct T, got only T = {usable[0][0]}")
    x = np.log([t for t, _ in usable])
    y = np.log([r for _, r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(float(slope), float(intercept), float(r2), len(usable))


def bound_check(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Mean final regret over the config's seeds versus its expected-regret bound; passes when at most it."""
    problem = _resolve(config)
    bound = _expected_bound(config, problem)  # raises for a baseline before any game is played
    summary = _experiment(config, problem, jobs)
    if not summary.final_regrets:
        raise ConfigError(f"all runs failed: {summary.errors}")
    return {
        "seeds": len(summary.final_regrets),
        "mean_regret": summary.mean_regret,
        "bound": bound,
        "pass": bool(summary.mean_regret <= bound),
        "errors": list(summary.errors),
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trace_to_csv(trace: RegretTrace, path) -> None:
    """Write the fixed-schema per-round CSV; run_id is ``algorithm-seed``, each float is ``format(x, ".17g")``."""
    prefix = f"{trace.algorithm}-{trace.seed},{trace.algorithm},{trace.seed},".encode()
    columns = (np.arange(1, trace.horizon + 1), trace.losses, trace.cum_loss, trace.cum_regret,
               trace.oracle_calls, trace.grad_evals)
    with open(path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        write_rows(fh, prefix, columns)


def sweep_regrets_csv(summaries: Sequence[RunSummary], path) -> None:
    """Per-(cell, seed) final regrets, ready for the exponent-fit command."""
    with open(path, "w", newline="") as fh:
        fh.write("T,seed,regret\n")
        for summary in summaries:
            for seed, regret in zip(summary.seeds, summary.final_regrets):
                fh.write(f"{summary.T},{seed},{regret:.17g}\n")
