"""Experiment orchestration: game loop, regret accounting, sweeps, bounds.

A run is fully described by (ExperimentConfig, seed) and replays to identical
CSV bytes. One game loop serves every learner and adversary. Each round the
learner acts, the adversary emits the round's loss parameters (a centre or a
direction) having seen only past actions, and the loop evaluates the loss and
its one gradient at the action and feeds the gradient back. The (T, d)
parameter array then goes to the hindsight solver and the trace gains its
comparator column; the final cumulative regret equals the summed losses
minus the comparator value by construction. Sweeps and multi-seed runs play
all their (cell, seed) games in one process pool.

Expected-regret bounds and their high-probability counterparts are evaluated
from the config (never fitted). The comparator is exact on every set kind
(see ``best_in_hindsight``), so a bound check compares the computed regret
with the bound directly; its certified error ``comparator_correction`` is 0.
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
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .adversaries import make_adversary
from .errors import ConfigError, is_int
from .learners import (
    OFW,
    OGD,
    InstrumentedSet,
    PerturbedLeader,
    blocking_delta,
    blocking_params,
    default_delta,
)
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
    "comparator_correction",
    "bound_check",
    "quantile_check",
    "fit_exponent",
    "trace_to_csv",
    "summaries_to_json",
    "sweep_regrets_csv",
    "CSV_HEADER",
]

logger = logging.getLogger("pfol")

LEARNER_NAMES = ("sampled_fpl", "ospf", "expected_fpl_mc", "ogd", "ofw")

CSV_HEADER = "run_id,algorithm,seed,t,loss,cum_loss,cum_regret,oracle_calls,grad_evals"


def _check_count(name: str, value) -> None:
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark cell: learner, set, adversary, horizon, and knobs.

    ``delta`` and ``k`` accept "auto": delta resolves to the theory-optimal
    value for the learner, and k (blocked learner only) to the horizon-based
    blocking schedule. ``fw_budget`` is accepted and validated so that older
    configs still load, and is not read: the hindsight comparator is exact and
    needs no iteration budget.
    """

    learner: str
    set: dict
    adversary: dict
    T: int
    m: int = 1
    k: int | str = 1
    eval_samples: int = 10_000
    delta: float | str = "auto"
    seeds: tuple[int, ...] = (0,)
    fw_budget: int | None = None
    output_path: str | None = None

    def validate(self) -> None:
        if self.learner not in LEARNER_NAMES:
            raise ConfigError(f"unknown learner {self.learner!r}; supported: {LEARNER_NAMES}")
        for name in ("T", "m", "eval_samples") + (() if self.k == "auto" else ("k",)):
            _check_count(name, getattr(self, name))
        if self.fw_budget is not None:
            _check_count("fw_budget", self.fw_budget)
        if isinstance(self.delta, str):
            if self.delta != "auto":
                raise ConfigError(f"delta must be a positive number or 'auto', got {self.delta!r}")
        elif isinstance(self.delta, bool) or not isinstance(self.delta, numbers.Real) or not self.delta > 0:
            raise ConfigError(f"delta must be a positive number or 'auto', got {self.delta!r}")
        if not isinstance(self.seeds, (tuple, list)) or not all(is_int(s) for s in self.seeds):
            raise ConfigError(f"seeds must be a list of integers, got {self.seeds!r}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")

    @staticmethod
    def from_json(spec: dict) -> "ExperimentConfig":
        if not isinstance(spec, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(spec) - known - {"vary"}
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
        return {
            "learner": self.learner,
            "set": self.set,
            "adversary": self.adversary,
            "T": self.T,
            "m": self.m,
            "k": self.k,
            "eval_samples": self.eval_samples,
            "delta": self.delta,
            "seeds": list(self.seeds),
            "fw_budget": self.fw_budget,
            "output_path": self.output_path,
        }


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# parameter resolution
# ---------------------------------------------------------------------------


def _problem_constants(config: ExperimentConfig):
    """(set, G, beta) for a config; the adversary certifies G and beta."""
    set_ = set_from_json(config.set)
    adversary = make_adversary(config.adversary, horizon=config.T, seed=0,
                               norm_bound=set_.norm_bound, dim=set_.dim)
    G, beta = adversary.constants()
    return set_, G, beta


def resolve_block(config: ExperimentConfig, beta: float) -> int:
    """Concrete block length k; 'auto' follows the horizon-based schedule."""
    if config.k == "auto":
        mode = "smooth" if beta > 0 else "general"
        _, k = blocking_params(config.T, mode)
        return k
    return int(config.k)


def leader_shape(config: ExperimentConfig, k: int) -> tuple[int, int] | None:
    """(samples, block) of the PerturbedLeader a config plays, None for a baseline.

    ``k`` is the resolved block length; this is the one place that tells the
    perturbed-leader config names apart.
    """
    return {
        "sampled_fpl": (config.m, 1),
        "expected_fpl_mc": (config.eval_samples, 1),
        "ospf": (k, k),
    }.get(config.learner)


def resolve_delta(config: ExperimentConfig, G: float, dim: int, k: int) -> float | None:
    """Concrete perturbation scale, or None for learners that take none.

    The blocked learner's "auto" value is ``blocking_delta``; it equals
    ``default_delta(G*k, d, n)`` up to the last bit, and keeps its own
    arithmetic so that traces do not move.
    """
    if leader_shape(config, k) is None:
        return None
    if config.delta != "auto":
        return float(config.delta)
    if config.learner == "ospf":
        n = math.ceil(config.T / k)
        value = blocking_delta(G, dim, n, k)
    else:
        value = default_delta(G, dim, config.T)
    logger.info("resolved delta=%.6g for learner=%s T=%d", value, config.learner, config.T)
    return value


def _make_learner(config: ExperimentConfig, set_, delta, k, seed, grad_bound):
    name = config.learner
    shape = leader_shape(config, k)
    if shape is not None:
        samples, block = shape
        return PerturbedLeader(set_, delta=delta, samples=samples, block=block, seed=seed)
    if name == "ogd":
        return OGD(set_, grad_bound=grad_bound, seed=seed)
    if name == "ofw":
        return OFW(set_, grad_bound=grad_bound, seed=seed)
    raise ConfigError(f"unknown learner {name!r}")


def expected_budgets(config: ExperimentConfig, k: int) -> tuple[int, int]:
    """(oracle calls, gradient evaluations) a full run must consume exactly.

    ofw, and a perturbed leader with block > 1, make one extra call for
    their start point."""
    T = config.T
    shape = leader_shape(config, k)
    if shape is not None:
        samples, block = shape
        return samples * (T // block) + int(block > 1), T
    return {"ofw": T + 1, "ogd": 0}[config.learner], T


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
    grad_norms: np.ndarray
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
    """Play one full game and return its trace; deterministic in (config, seed)."""
    config.validate()
    set_ = set_from_json(config.set)
    adversary = make_adversary(config.adversary, horizon=config.T, seed=seed,
                               norm_bound=set_.norm_bound, dim=set_.dim)
    G, beta = adversary.constants()
    k = resolve_block(config, beta)
    delta = resolve_delta(config, G, set_.dim, k)
    oracle = InstrumentedSet(set_)
    learner = _make_learner(config, oracle, delta, k, seed, G)
    quadratic = adversary.quadratic
    T, d = config.T, set_.dim
    actions = np.empty((T, d))
    params = np.empty((T, d))
    losses = np.empty(T)
    grad_norms = np.empty(T)
    oracle_calls = np.empty(T, dtype=np.int64)

    for i in range(T):
        action = learner.act()
        p = adversary.emit(i + 1)
        # the round's one gradient evaluation, at the action played
        g = action - p if quadratic else p
        learner.observe(g)
        adversary.observe(action)
        gg = float(np.dot(g, g))
        actions[i] = action
        params[i] = p
        losses[i] = 0.5 * gg if quadratic else float(np.dot(p, action))
        grad_norms[i] = math.sqrt(gg)
        oracle_calls[i] = oracle.oracle_calls

    comparator_point = best_in_hindsight(params, set_, quadratic)
    if quadratic:
        comparator_losses = [0.5 * float(np.dot(diff, diff)) for diff in comparator_point - params]
    else:
        comparator_losses = [float(np.dot(row, comparator_point)) for row in params]
    cum_loss = np.cumsum(losses)
    cum_comparator = np.cumsum(comparator_losses)
    return RegretTrace(
        algorithm=config.learner,
        seed=int(seed),
        delta=delta,
        actions=actions,
        losses=losses,
        grad_norms=grad_norms,
        cum_loss=cum_loss,
        comparator_point=comparator_point,
        comparator_value=float(cum_comparator[-1]),
        cum_regret=cum_loss - cum_comparator,
        oracle_calls=oracle_calls,
        grad_evals=np.arange(1, T + 1, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def theoretical_bound(config: ExperimentConfig) -> float:
    """Expected-regret guarantee (excess over the comparator) for the config.

    A perturbed leader with (samples, block) plays FPL on n = ceil(T/block)
    block losses with gradient bound G*block and smoothness beta*block, so
    every one is priced by the sampled-FPL bound on those constants:
    2D/delta + delta*D*G^2*d*n/2 plus the sampling term (2GDn/sqrt(m)
    general, 4*beta*D^2*n/m smooth), with m = samples. The blocked game is
    this bound on (n, G*k, beta*k, k). Baselines have no bound here.
    """
    config.validate()
    set_, G, beta = _problem_constants(config)
    D, d, T = set_.norm_bound, set_.dim, config.T
    k = resolve_block(config, beta)
    shape = leader_shape(config, k)
    if shape is None:
        raise ConfigError(f"no closed-form regret bound for learner {config.learner!r}")
    m, block = shape
    delta = resolve_delta(config, G, d, k)
    n = math.ceil(T / block)
    G, beta = G * block, beta * block
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
    config.validate()
    if not 0 < sigma <= 1:
        raise ConfigError("sigma must lie in (0, 1]")
    set_, G, beta = _problem_constants(config)
    D, d, T = set_.norm_bound, set_.dim, config.T
    k = resolve_block(config, beta)
    shape = leader_shape(config, k)
    if shape is None or shape[1] > 1:
        raise ConfigError(
            f"high-probability bound is only available for unblocked perturbed-leader learners, "
            f"not {config.learner!r}"
        )
    m = shape[0]
    delta = resolve_delta(config, G, d, k)
    base = 2.0 * D / delta + delta * d * D * G * G * T / 2.0
    if beta > 0:
        return (base
                + 2.0 * G * D * math.sqrt(2.0 * T * math.log(4.0 / sigma))
                + (8.0 * beta * D * D * T / m) * math.log(4.0 * T / sigma))
    return base + (2.0 * G * D * T / math.sqrt(m)) * math.sqrt(2.0 * math.log(2.0 * T / sigma))


def comparator_correction(config: ExperimentConfig) -> float:
    """Certified error of the hindsight comparator: 0.0, since ``best_in_hindsight`` is exact."""
    config.validate()
    return 0.0


def _verdict(regret: float, bound: float, correction: float) -> dict:
    """``pass``: regret <= bound; ``certified``: regret + correction <= bound.

    The comparator is at least the true minimum, so the true regret lies in
    [regret, regret + correction]: failing proves a violation, certifying rules one out.
    """
    return {"pass": bool(regret <= bound), "certified": bool(regret + correction <= bound)}


# ---------------------------------------------------------------------------
# multi-seed experiments and sweeps
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    """Aggregate of one config across its seeds.

    ``wall_clock_s`` is the seconds spent in the config's games, summed over
    its seeds; games played in parallel overlap in time.
    """

    config_hash: str
    learner: str
    T: int
    delta: float | None
    overrides: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = ()
    final_regrets: tuple[float, ...] = ()
    mean_regret: float = float("nan")
    regret_std: float = float("nan")
    quantiles: dict = field(default_factory=dict)
    theoretical_bound: float | None = None
    correction_band: float | None = None
    oracle_calls: int = 0
    grad_evals: int = 0
    wall_clock_s: float = 0.0
    errors: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "learner": self.learner,
            "T": self.T,
            "delta": self.delta,
            "overrides": self.overrides,
            "seeds": list(self.seeds),
            "final_regrets": list(self.final_regrets),
            "mean_regret": self.mean_regret,
            "regret_std": self.regret_std,
            "quantiles": self.quantiles,
            "theoretical_bound": self.theoretical_bound,
            "correction_band": self.correction_band,
            "oracle_calls": self.oracle_calls,
            "grad_evals": self.grad_evals,
            "wall_clock_s": self.wall_clock_s,
            "errors": list(self.errors),
        }


_QUANTS = {"q05": 0.05, "q25": 0.25, "q50": 0.50, "q75": 0.75, "q95": 0.95}


def _play(config: ExperimentConfig, seed: int) -> tuple[tuple | None, str | None, float]:
    """(final regret, oracle calls, gradient evaluations) or None, the error or None, and seconds."""
    start = time.perf_counter()
    try:
        trace = run_game(config, seed)
        payload = (trace.final_regret, int(trace.oracle_calls[-1]), int(trace.grad_evals[-1]))
        return payload, None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - reported per (cell, seed)
        return None, f"seed {seed}: {type(exc).__name__}: {exc}", time.perf_counter() - start


def _play_all(configs: Sequence[ExperimentConfig], jobs: int) -> list[dict]:
    """Outcomes of every seed of every config, as one {seed: outcome} per config.

    With jobs > 1 one process pool plays all (config, seed) games, longest T
    first, so that no long game starts last. Each game is a pure function of
    (config, seed), so the outcomes do not depend on jobs or on the order.
    """
    tasks = sorted(((i, seed) for i, config in enumerate(configs) for seed in config.seeds),
                   key=lambda task: -configs[task[0]].T)
    args = ([configs[i] for i, _ in tasks], [seed for _, seed in tasks])
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
    per_config = [{} for _ in configs]
    for (i, seed), outcome in zip(tasks, outcomes):
        per_config[i][seed] = outcome
    return per_config


def _summarize(config: ExperimentConfig, outcomes: dict, overrides: dict | None) -> RunSummary:
    set_, G, beta = _problem_constants(config)
    k = resolve_block(config, beta)
    delta = resolve_delta(config, G, set_.dim, k)
    summary = RunSummary(
        config_hash=config_hash(config),
        learner=config.learner,
        T=config.T,
        delta=delta,
        overrides=dict(overrides or {}),
        wall_clock_s=sum(seconds for _, _, seconds in outcomes.values()),
        errors=tuple(outcomes[s][1] for s in config.seeds if outcomes[s][1] is not None),
    )
    ordered = [s for s in config.seeds if outcomes[s][0] is not None]
    if not ordered:
        return summary

    results = {s: outcomes[s][0] for s in ordered}
    regrets = np.array([results[s][0] for s in ordered])
    oracle_counts = {results[s][1] for s in ordered}
    grad_counts = {results[s][2] for s in ordered}
    want_oracle, want_grads = expected_budgets(config, k)
    if oracle_counts != {want_oracle} or grad_counts != {want_grads}:
        raise RuntimeError(
            f"budget accounting mismatch: oracle {oracle_counts} (want {want_oracle}), "
            f"gradients {grad_counts} (want {want_grads})"
        )
    try:
        bound = theoretical_bound(config)
        band = comparator_correction(config)
    except ConfigError:
        bound, band = None, None

    summary.seeds = tuple(ordered)
    summary.final_regrets = tuple(float(r) for r in regrets)
    summary.mean_regret = float(regrets.mean())
    summary.regret_std = float(regrets.std(ddof=1)) if len(regrets) > 1 else 0.0
    summary.quantiles = {name: float(np.quantile(regrets, q)) for name, q in _QUANTS.items()}
    summary.quantiles["max"] = float(regrets.max())
    summary.theoretical_bound = bound
    summary.correction_band = band
    summary.oracle_calls = want_oracle
    summary.grad_evals = want_grads
    return summary


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   overrides: dict | None = None) -> RunSummary:
    """Run every seed of a config and aggregate; failures recorded, not raised."""
    config.validate()
    return _summarize(config, _play_all([config], jobs)[0], overrides)


def sweep(template: ExperimentConfig, vary: dict[str, Sequence], jobs: int = 1) -> list[RunSummary]:
    """Cartesian product of ``vary`` values applied to the template.

    Every (cell, seed) game runs in one pool (see ``_play_all``). A failing
    cell contributes a summary whose ``errors`` field explains what happened,
    and the sweep continues. Aggregation order is the grid order regardless
    of execution order.
    """
    template.validate()
    if not vary:
        return []
    keys = list(vary.keys())
    cells: list[tuple[dict, ExperimentConfig | Exception]] = []
    for combo in itertools.product(*(list(vary[key]) for key in keys)):
        overrides = dict(zip(keys, combo))
        try:
            cell = replace(template, **overrides)
            cell.validate()
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            cell = exc
        cells.append((overrides, cell))
    valid = [cell for _, cell in cells if isinstance(cell, ExperimentConfig)]
    outcomes = iter(_play_all(valid, jobs))
    summaries: list[RunSummary] = []
    for overrides, cell in cells:
        try:
            if isinstance(cell, Exception):
                raise cell
            summaries.append(_summarize(cell, next(outcomes), overrides))
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            summaries.append(RunSummary(
                config_hash="invalid",
                learner=template.learner,
                T=int(overrides.get("T", template.T)),
                delta=None,
                overrides=overrides,
                errors=(f"{type(exc).__name__}: {exc}",),
            ))
    return summaries


# ---------------------------------------------------------------------------
# statistics over summaries
# ---------------------------------------------------------------------------


def quantile_check(summary: RunSummary, sigma: float, config: ExperimentConfig) -> dict:
    """Compare the empirical (1-sigma) regret quantile to the matching bound (see ``_verdict``)."""
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
    band = comparator_correction(config)
    return {
        "sigma": sigma,
        "seeds": int(regrets.size),
        "sufficient_seeds": bool(enough),
        "quantile": quantile,
        "bound": bound,
        "correction_band": band,
        **_verdict(quantile, bound, band),
    }


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    points_used: int


def fit_exponent(T_grid: Sequence[float], regrets: Sequence[float]) -> ExponentFit:
    """Least-squares slope of log(regret) against log(T).

    Nonpositive regrets cannot be log-transformed; they are dropped with a
    warning, and fewer than 4 usable points is a config error.
    """
    T_grid = list(T_grid)
    regrets = list(regrets)
    if len(T_grid) != len(regrets):
        raise ConfigError("T grid and regrets must have equal length")
    usable = [(t, r) for t, r in zip(T_grid, regrets) if r > 0]
    dropped = len(regrets) - len(usable)
    if dropped:
        warnings.warn(f"excluded {dropped} nonpositive regret point(s) from the fit", stacklevel=2)
    if len(usable) < 4:
        raise ConfigError(f"need >= 4 positive points for a power-law fit, have {len(usable)}")
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
    """Mean final regret over the config's seeds versus its expected-regret bound (see ``_verdict``)."""
    summary = run_experiment(config, jobs=jobs)
    if not summary.final_regrets:
        raise ConfigError(f"all runs failed: {summary.errors}")
    bound = theoretical_bound(config)
    band = comparator_correction(config)
    return {
        "seeds": len(summary.final_regrets),
        "mean_regret": summary.mean_regret,
        "bound": bound,
        "correction_band": band,
        **_verdict(summary.mean_regret, bound, band),
        "errors": list(summary.errors),
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trace_to_csv(trace: RegretTrace, path, run_id: str | None = None) -> None:
    """Write the fixed-schema per-round CSV; floats carry 17 significant digits."""
    if run_id is None:
        run_id = f"{trace.algorithm}-{trace.seed}"
    prefix = f"{run_id},{trace.algorithm},{trace.seed}"
    columns = (trace.losses, trace.cum_loss, trace.cum_regret, trace.oracle_calls, trace.grad_evals)
    rows = zip(range(1, trace.horizon + 1), *(c.tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(f"{prefix},{t},{loss:.17g},{cum:.17g},{regret:.17g},{calls},{grads}\n"
                      for t, loss, cum, regret, calls, grads in rows)


def summaries_to_json(summaries: Sequence[RunSummary], path) -> None:
    with open(path, "w") as fh:
        json.dump([s.to_json() for s in summaries], fh, indent=2)
        fh.write("\n")


def sweep_regrets_csv(summaries: Sequence[RunSummary], path) -> None:
    """Per-(cell, seed) final regrets, ready for the exponent-fit command."""
    with open(path, "w", newline="") as fh:
        fh.write("T,seed,regret\n")
        for summary in summaries:
            for seed, regret in zip(summary.seeds, summary.final_regrets):
                fh.write(f"{summary.T},{seed},{regret:.17g}\n")
