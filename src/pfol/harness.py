"""Experiment orchestration: game loop, regret accounting, sweeps, bounds.

A run is fully described by (ExperimentConfig, seed) and replays to identical
CSV bytes. The game loop drives learner and adversary simultaneously: the
adversary sees only past actions, the learner only revealed losses. After T
rounds the realized losses are handed to the hindsight solver and the trace
gains its comparator column; the final cumulative regret equals the summed
losses minus the comparator value by construction.

Expected-regret bounds and their high-probability counterparts are evaluated
from the config (never fitted). The comparator is exact wherever a closed
form exists (see ``hindsight``); on vertex polytopes it is a Frank-Wolfe
iterate whose certified error epsilon is the a-priori gap bound at the
``fw_budget`` iteration cap. Its value is at least the true minimum, so the
computed regret R^ satisfies R^ <= R <= R^ + epsilon: a bound check fails when
R^ exceeds the bound, and is ``certified`` when R^ + epsilon stays below it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .adversaries import make_adversary
from .errors import ConfigError
from .hindsight import best_in_hindsight, frank_wolfe_gap_bound, has_projection
from .learners import (
    OFW,
    OGD,
    OSPF,
    ExpectedFPLMC,
    GradientCounter,
    InstrumentedLoss,
    InstrumentedSet,
    SampledFPL,
    blocking_delta,
    blocking_params,
    default_delta,
)
from .sets import set_from_json

__all__ = [
    "ExperimentConfig",
    "RegretTrace",
    "RunSummary",
    "ExponentFit",
    "run_game",
    "run_experiment",
    "sweep",
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark cell: learner, set, adversary, horizon, and knobs.

    ``delta`` and ``k`` accept "auto": delta resolves to the theory-optimal
    value for the learner, and k (blocked learner only) to the horizon-based
    blocking schedule. ``fw_budget`` caps the hindsight Frank-Wolfe iterations
    (default 10*T); it matters only where no exact comparator exists.
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
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.eval_samples < 1:
            raise ConfigError("eval_samples must be >= 1")
        if isinstance(self.k, str):
            if self.k != "auto":
                raise ConfigError(f"k must be an integer or 'auto', got {self.k!r}")
        elif self.k < 1:
            raise ConfigError("k must be >= 1")
        if isinstance(self.delta, str):
            if self.delta != "auto":
                raise ConfigError(f"delta must be a positive number or 'auto', got {self.delta!r}")
        elif not self.delta > 0:
            raise ConfigError("delta must be positive")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.fw_budget is not None and self.fw_budget < 1:
            raise ConfigError("fw_budget must be >= 1")

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
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(int(s) for s in kwargs["seeds"])
        if "T" in kwargs:
            kwargs["T"] = int(kwargs["T"])
        for int_field in ("m", "eval_samples", "fw_budget"):
            if kwargs.get(int_field) is not None:
                kwargs[int_field] = int(kwargs[int_field])
        if "k" in kwargs and not isinstance(kwargs["k"], str):
            kwargs["k"] = int(kwargs["k"])
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


def resolve_delta(config: ExperimentConfig, G: float, dim: int, k: int) -> float | None:
    """Concrete perturbation scale, or None for learners that take none."""
    if config.learner in ("ogd", "ofw"):
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


def _fw_budget(config: ExperimentConfig) -> int:
    return config.fw_budget if config.fw_budget is not None else 10 * config.T


def _make_learner(config: ExperimentConfig, set_, delta, k, seed, grad_bound):
    name = config.learner
    if name == "sampled_fpl":
        return SampledFPL(set_, delta=delta, samples=config.m, seed=seed)
    if name == "expected_fpl_mc":
        return ExpectedFPLMC(set_, delta=delta, eval_samples=config.eval_samples, seed=seed)
    if name == "ospf":
        return OSPF(set_, delta=delta, block=k, seed=seed)
    if name == "ogd":
        return OGD(set_, grad_bound=grad_bound, seed=seed)
    if name == "ofw":
        return OFW(set_, grad_bound=grad_bound, seed=seed)
    raise ConfigError(f"unknown learner {name!r}")


def expected_budgets(config: ExperimentConfig, k: int) -> tuple[int, int]:
    """(oracle calls, gradient evaluations) a full run must consume exactly.

    ofw, and ospf with k > 1, make one extra call for their start point."""
    T = config.T
    oracle = {
        "sampled_fpl": config.m * T,
        "expected_fpl_mc": config.eval_samples * T,
        "ospf": k * (T // k) + int(k > 1),
        "ofw": T + 1,
        "ogd": 0,
    }[config.learner]
    return oracle, T


# ---------------------------------------------------------------------------
# one game
# ---------------------------------------------------------------------------


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
    learner = _make_learner(config, set_, delta, k, seed, G)

    oracle = InstrumentedSet(set_)
    grads = GradientCounter()
    T, d = config.T, set_.dim
    actions = np.empty((T, d))
    losses = np.empty(T)
    grad_norms = np.empty(T)
    oracle_calls = np.empty(T, dtype=np.int64)
    grad_evals = np.empty(T, dtype=np.int64)
    realized = []
    history: list[np.ndarray] = []

    for i in range(T):
        action = learner.act(oracle)
        loss = adversary.next_loss(history)
        observed = InstrumentedLoss(loss, grads)
        learner.observe(observed)
        g = observed.last_gradient
        actions[i] = action
        losses[i] = loss.evaluate(action)
        grad_norms[i] = math.sqrt(float(np.dot(g, g)))
        oracle_calls[i] = oracle.oracle_calls
        grad_evals[i] = grads.count
        history.append(action)
        realized.append(loss)

    comparator_point, _ = best_in_hindsight(realized, set_, _fw_budget(config))
    comparator_losses = np.array([loss.evaluate(comparator_point) for loss in realized])
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
        grad_evals=grad_evals,
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def theoretical_bound(config: ExperimentConfig) -> float:
    """Expected-regret guarantee (excess over the comparator) for the config.

    Perturbed-leader learners: 2D/delta + delta*D*G^2*d*T/2 plus the sampling
    term (2GDT/sqrt(m) general, 4*beta*D^2*T/m smooth). The blocked learner
    with auto delta uses the closed blocking forms
    2DG*sqrt(d)*sqrt(n)*k + 2DGn*sqrt(k) (general) and
    2DG*sqrt(d)*sqrt(n)*k + 4*beta*D^2*n (smooth); with an explicit delta the
    blocked game is priced directly with G' = G*k, beta' = beta*k over n
    super-rounds. Baselines have no bound here.
    """
    config.validate()
    set_, G, beta = _problem_constants(config)
    D, d, T = set_.norm_bound, set_.dim, config.T

    if config.learner in ("sampled_fpl", "expected_fpl_mc"):
        m = config.m if config.learner == "sampled_fpl" else config.eval_samples
        delta = resolve_delta(config, G, d, 1)
        base = 2.0 * D / delta + delta * D * G * G * d * T / 2.0
        if beta > 0:
            return base + 4.0 * beta * D * D * T / m
        return base + 2.0 * G * D * T / math.sqrt(m)

    if config.learner == "ospf":
        k = resolve_block(config, beta)
        n = math.ceil(T / k)
        if config.delta == "auto":
            bias = 2.0 * D * G * math.sqrt(d) * math.sqrt(n) * k
            if beta > 0:
                return bias + 4.0 * beta * D * D * n
            return bias + 2.0 * D * G * n * math.sqrt(k)
        delta = float(config.delta)
        Gb = G * k
        base = 2.0 * D / delta + delta * D * Gb * Gb * d * n / 2.0
        if beta > 0:
            return base + 4.0 * (beta * k) * D * D * n / k
        return base + 2.0 * Gb * D * n / math.sqrt(k)

    raise ConfigError(f"no closed-form regret bound for learner {config.learner!r}")


def high_probability_bound(config: ExperimentConfig, sigma: float) -> float:
    """Regret level exceeded with probability at most sigma.

    Only defined for the sampled perturbed-leader learner. Uses the larger
    derivation constants: sqrt(2 log(2T/sigma)) on the general sampling term;
    in the smooth case 2GD*sqrt(2T log(4/sigma)) + (8 beta D^2 T / m) log(4T/sigma).
    """
    config.validate()
    if not 0 < sigma <= 1:
        raise ConfigError("sigma must lie in (0, 1]")
    if config.learner not in ("sampled_fpl", "expected_fpl_mc"):
        raise ConfigError(
            f"high-probability bound is only available for sampled perturbed-leader learners, "
            f"not {config.learner!r}"
        )
    set_, G, beta = _problem_constants(config)
    D, d, T = set_.norm_bound, set_.dim, config.T
    m = config.m if config.learner == "sampled_fpl" else config.eval_samples
    delta = resolve_delta(config, G, d, 1)
    base = 2.0 * D / delta + delta * d * D * G * G * T / 2.0
    if beta > 0:
        return (base
                + 2.0 * G * D * math.sqrt(2.0 * T * math.log(4.0 / sigma))
                + (8.0 * beta * D * D * T / m) * math.log(4.0 * T / sigma))
    return base + (2.0 * G * D * T / math.sqrt(m)) * math.sqrt(2.0 * math.log(2.0 * T / sigma))


def comparator_correction(config: ExperimentConfig) -> float:
    """Certified error of the hindsight comparator: 0 where it is exact, else the Frank-Wolfe bound.

    Exact are linear streams (beta = 0) and, since every smooth adversary
    emits squared-distance losses, any stream on a set with a projection.
    """
    config.validate()
    set_, _, beta = _problem_constants(config)
    if has_projection(set_):
        return 0.0
    return frank_wolfe_gap_bound(beta * config.T, set_.norm_bound, _fw_budget(config))


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
    """Aggregate of one config across its seeds."""

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


def _seed_payload(config: ExperimentConfig, seed: int) -> tuple[float, int, int]:
    trace = run_game(config, seed)
    return trace.final_regret, int(trace.oracle_calls[-1]), int(trace.grad_evals[-1])


def _pool_worker(args):  # pragma: no cover - exercised via process pools
    spec, seed = args
    config = ExperimentConfig.from_json(spec)
    try:
        return seed, _seed_payload(config, seed), None
    except Exception as exc:  # noqa: BLE001 - reported per cell
        return seed, None, f"{type(exc).__name__}: {exc}"


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   overrides: dict | None = None) -> RunSummary:
    """Run every seed of a config and aggregate; failures recorded, not raised."""
    config.validate()
    start = time.perf_counter()
    results: dict[int, tuple[float, int, int]] = {}
    errors: list[str] = []

    if jobs > 1 and len(config.seeds) > 1:
        import concurrent.futures
        import multiprocessing

        spec = config.to_json()
        try:
            ctx = multiprocessing.get_context("fork")
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
                for seed, payload, err in pool.map(_pool_worker, [(spec, s) for s in config.seeds]):
                    if err is None:
                        results[seed] = payload
                    else:
                        errors.append(f"seed {seed}: {err}")
        except (ValueError, OSError):  # fork unavailable: fall back to serial
            jobs = 1
    if jobs <= 1 or (not results and not errors):
        results.clear()
        errors.clear()
        for seed in config.seeds:
            try:
                results[seed] = _seed_payload(config, seed)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")

    wall = time.perf_counter() - start
    set_, G, beta = _problem_constants(config)
    k = resolve_block(config, beta)
    delta = resolve_delta(config, G, set_.dim, k)
    summary = RunSummary(
        config_hash=config_hash(config),
        learner=config.learner,
        T=config.T,
        delta=delta,
        overrides=dict(overrides or {}),
        wall_clock_s=wall,
        errors=tuple(errors),
    )
    ordered = [s for s in config.seeds if s in results]
    if not ordered:
        return summary

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


def sweep(template: ExperimentConfig, vary: dict[str, Sequence], jobs: int = 1) -> list[RunSummary]:
    """Cartesian product of ``vary`` values applied to the template.

    Cells run independently; a failing cell contributes a summary whose
    ``errors`` field explains what happened, and the sweep continues.
    Aggregation order is the grid order regardless of execution order.
    """
    template.validate()
    if not vary:
        return []
    keys = list(vary.keys())
    grids = [list(vary[key]) for key in keys]
    summaries: list[RunSummary] = []
    for combo in itertools.product(*grids):
        overrides = dict(zip(keys, combo))
        try:
            cell = replace(template, **overrides)
            summaries.append(run_experiment(cell, jobs=jobs, overrides=overrides))
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
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(trace.horizon):
            fh.write(
                f"{run_id},{trace.algorithm},{trace.seed},{i + 1},"
                f"{trace.losses[i]:.17g},{trace.cum_loss[i]:.17g},{trace.cum_regret[i]:.17g},"
                f"{trace.oracle_calls[i]},{trace.grad_evals[i]}\n"
            )


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
