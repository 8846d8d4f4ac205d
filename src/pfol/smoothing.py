"""Monte-Carlo diagnostics for the stochastic-smoothing machinery.

The learners implicitly optimize a smoothed support function
h(y) = E_v[max_{x in K} <y + v/delta, x>] with v uniform on the unit ball.
Its gradient has two independent unbiased representations: the ball-averaged
oracle answer E_v[argmax(y + v/delta)], and the boundary (divergence-theorem)
form delta * d * E_s[max(y + s/delta) * s] with s uniform on the unit sphere.
This module estimates both, plus the value itself, sampling variance of
bounded vector means, and the Lipschitz/smoothness inequalities the regret
analysis leans on. Every estimator reports a standard error so audits can
use k-sigma tolerances instead of hard-coded slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, is_int
from .learners import perturbed_leader_points
from .losses import LossFunction
from .sets import FeasibleSet, sample_unit_ball_batch, sample_unit_sphere_batch

__all__ = [
    "SmoothedOracleEstimate",
    "MSEEstimate",
    "smoothed_value_mc",
    "smoothed_gradient_stokes",
    "expected_fpl_point_mc",
    "oracle_output_sampler",
    "empirical_mse",
    "lipschitz_audit",
    "smooth_inequality_audit",
    "run_audit_suite",
]

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SmoothedOracleEstimate:
    """Monte-Carlo estimate of the smoothed value oracle and its gradient.

    value_* summarize the scalar support values seen by the estimator and
    gradient_* the vector estimate; stderr entries are sample standard
    deviations divided by sqrt(sample_count).
    """

    value_mean: float
    value_stderr: float
    gradient_mean: np.ndarray
    gradient_stderr: np.ndarray
    sample_count: int
    delta: float


class MSEEstimate(NamedTuple):
    value: float
    stderr: float


def _chunks(n: int, size: int = _CHUNK):
    done = 0
    while done < n:
        take = min(size, n - done)
        yield take
        done += take


def _smoothing_mc(set_: FeasibleSet, y, delta: float, n: int, rng: np.random.Generator, *,
                  sphere: bool) -> SmoothedOracleEstimate:
    """Support values at y + v/delta and their gradient estimates, as means with standard errors.

    v is uniform on the unit ball, whose gradient estimate is the oracle
    answer itself, or on the unit sphere, whose estimate is the boundary form
    delta * d * value * v. The moment sums are streamed over chunks of at
    most _CHUNK samples.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if not delta > 0:
        raise ValueError("delta must be positive")
    y = np.asarray(y, dtype=float)
    d = set_.dim
    val_sum = val_sq = 0.0
    vec_sum, vec_sq = np.zeros(d), np.zeros(d)
    for take in _chunks(n):
        v = sample_unit_sphere_batch(rng, take, d) if sphere else sample_unit_ball_batch(rng, take, d)
        queries = y + v / delta
        points = set_.support_argmax_many(queries)
        values = np.einsum("ij,ij->i", queries, points)
        vectors = delta * d * values[:, None] * v if sphere else points
        val_sum += float(values.sum())
        val_sq += float(np.dot(values, values))
        vec_sum += vectors.sum(axis=0)
        vec_sq += np.einsum("ij,ij->j", vectors, vectors)
    val_mean, vec_mean = val_sum / n, vec_sum / n
    val_var = max(0.0, (val_sq - n * val_mean**2) / (n - 1))
    vec_var = np.maximum(0.0, (vec_sq - n * vec_mean**2) / (n - 1))
    return SmoothedOracleEstimate(
        value_mean=float(val_mean),
        value_stderr=float(np.sqrt(val_var / n)),
        gradient_mean=vec_mean,
        gradient_stderr=np.sqrt(vec_var / n),
        sample_count=n,
        delta=float(delta),
    )


def smoothed_value_mc(set_: FeasibleSet, y, delta: float, n: int,
                      rng: np.random.Generator) -> SmoothedOracleEstimate:
    """Estimate E_v[M(y + v/delta)] over ball perturbations.

    The same samples also yield the gradient estimate E_v[argmax(y + v/delta)]
    since the support value's gradient is the maximizer itself.
    """
    return _smoothing_mc(set_, y, delta, n, rng, sphere=False)


def smoothed_gradient_stokes(set_: FeasibleSet, y, delta: float, n: int,
                             rng: np.random.Generator) -> SmoothedOracleEstimate:
    """Boundary-form gradient estimate: delta * d * E_s[M(y + s/delta) * s].

    Samples s uniformly on the unit sphere. gradient_* is the estimate of the
    smoothed oracle's gradient; value_* summarize the raw sphere-sampled
    support values (a boundary average, not the ball-smoothed value).
    """
    return _smoothing_mc(set_, y, delta, n, rng, sphere=True)


def expected_fpl_point_mc(set_: FeasibleSet, cum_grad, delta: float, n: int,
                          rng: np.random.Generator) -> SmoothedOracleEstimate:
    """Mean perturbed-leader point E_v[argmax(-cum_grad + v/delta)].

    This is the action the idealized expected-leader learner would play, and
    equals the smoothed oracle's gradient at -cum_grad; value_* carry the
    matching support values.
    """
    return _smoothing_mc(set_, -np.asarray(cum_grad, dtype=float), delta, n, rng, sphere=False)


def oracle_output_sampler(set_: FeasibleSet, cum_grad, delta: float) -> Callable:
    """Batch sampler (rng, count) -> oracle answers at (-cum_grad + v/delta).

    Outputs live in the set, hence are bounded by its norm bound; handy as the
    canonical bounded-vector source for variance audits.
    """
    cum_grad = np.asarray(cum_grad, dtype=float)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        return perturbed_leader_points(set_, cum_grad, delta, count, rng)

    return draw


def empirical_mse(sampler: Callable, m: int, trials: int, rng: np.random.Generator, *,
                  bound: float, reference_mean) -> MSEEstimate:
    """Estimate E||mean of m draws - reference_mean||^2 for a bounded vector sampler.

    ``sampler(rng, count)`` must return (count, d) arrays with row norms at
    most ``bound``, and ``reference_mean`` is its exact mean: the ball
    oracle's answers at cum_grad 0 are v/||v||, whose mean is 0 by symmetry.
    Returns the MSE estimate with the standard error over trials.
    """
    if m < 1 or trials < 1:
        raise ValueError("need m >= 1 and trials >= 1")
    tol = bound * (1.0 + 1e-9) + 1e-12
    reference_mean = np.asarray(reference_mean, dtype=float)
    sq_errors = np.empty(trials)
    done = 0
    for take in _chunks(trials, max(1, _CHUNK // m)):
        z = sampler(rng, take * m)
        _check_bound(z, tol)
        diff = z.reshape(take, m, -1).mean(axis=1) - reference_mean
        sq_errors[done:done + take] = np.einsum("ij,ij->i", diff, diff)
        done += take
    value = float(sq_errors.mean())
    stderr = float(sq_errors.std(ddof=1) / np.sqrt(trials)) if trials >= 2 else float("nan")
    return MSEEstimate(value, stderr)


def _check_bound(z: np.ndarray, tol: float) -> None:
    worst = float(np.max(np.einsum("ij,ij->i", z, z)))
    if worst > tol * tol:
        raise ValueError(
            f"sampler emitted a vector of norm {np.sqrt(worst):.6g}, above the declared bound"
        )


def lipschitz_audit(set_: FeasibleSet, pairs: int, rng: np.random.Generator) -> float:
    """Max observed |M(y1) - M(y2)| / ||y1 - y2|| over random pairs.

    Pairs mix Gaussian anchors at varied scales with both nearby and far
    partners, which is where the ratio gets tight. The value oracle is
    norm_bound-Lipschitz, so the result should not exceed D.
    """
    if pairs < 1:
        raise ValueError("need pairs >= 1")
    worst = 0.0
    for take in _chunks(pairs):
        scales = 10.0 ** rng.uniform(-1.0, 1.5, size=take)
        y1 = scales[:, None] * rng.standard_normal((take, set_.dim))
        step = scales * 10.0 ** rng.uniform(-3.0, 0.0, size=take)
        y2 = y1 + step[:, None] * rng.standard_normal((take, set_.dim))
        gaps = np.sqrt(np.einsum("ij,ij->i", y1 - y2, y1 - y2))
        m1 = np.einsum("ij,ij->i", y1, set_.support_argmax_many(y1))
        m2 = np.einsum("ij,ij->i", y2, set_.support_argmax_many(y2))
        keep = gaps > 1e-12
        if keep.any():
            worst = max(worst, float(np.max(np.abs(m1 - m2)[keep] / gaps[keep])))
    return worst


def smooth_inequality_audit(loss: LossFunction, set_: FeasibleSet, pairs: int,
                            rng: np.random.Generator) -> float:
    """Max violation of <grad f(y), x-y> <= <grad f(x), x-y> + beta ||x-y||^2.

    Checked over random feasible pairs; a correct smoothness constant keeps
    the violation at floating-point noise.
    """
    if pairs < 1:
        raise ValueError("need pairs >= 1")
    xs = set_.sample_points(rng, pairs)
    ys = set_.sample_points(rng, pairs)
    beta = loss.smoothness
    worst = -np.inf
    for x, y in zip(xs, ys):
        diff = x - y
        lhs = float(np.dot(loss.gradient(y), diff))
        rhs = float(np.dot(loss.gradient(x), diff)) + beta * float(np.dot(diff, diff))
        worst = max(worst, lhs - rhs)
    return float(worst)


# ---------------------------------------------------------------------------
# audit battery for the CLI
# ---------------------------------------------------------------------------


def run_audit_suite(seed: int = 0, *, samples: int = 20_000) -> list[dict]:
    """Run the standard audits and return JSON-ready reports.

    Each report is {"audit_name", "estimate", "stderr", "bound", "pass"}.
    Statistical checks use 4-standard-error tolerances. A negative ``seed``,
    or ``samples`` below 2, is a ConfigError.
    """
    if not (is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    from .losses import quadratic_loss
    from .sets import Ball, Box, L1Ball, Simplex

    rng = np.random.default_rng(seed)
    reports: list[dict] = []

    def report(name, estimate, stderr, bound, ok):
        reports.append({
            "audit_name": name,
            "estimate": float(estimate),
            "stderr": float(stderr) if stderr is not None else None,
            "bound": float(bound),
            "pass": bool(ok),
        })

    sets = {
        "ball": Ball(dim=3, radius=1.0),
        "box": Box(lower=-np.ones(3), upper=np.ones(3)),
        "simplex": Simplex(dim=3, scale=1.0),
        "l1_ball": L1Ball(dim=3, radius=1.0),
    }
    for name, s in sets.items():
        ratio = lipschitz_audit(s, max(1000, samples // 4), rng)
        bound = s.norm_bound * (1.0 + 1e-9)
        report(f"lipschitz_{name}", ratio, None, bound, ratio <= bound)

    ball = sets["ball"]
    delta = 0.5
    est = smoothed_value_mc(ball, np.zeros(3), delta, samples, rng)
    bound = ball.norm_bound / delta
    report("smoothed_value_at_zero", est.value_mean, est.value_stderr,
           bound, est.value_mean <= bound + 4 * est.value_stderr)

    anchor = np.array([0.3, -0.2, 0.5])
    stokes = smoothed_gradient_stokes(ball, anchor, delta, samples, rng)
    direct = expected_fpl_point_mc(ball, -anchor, delta, samples, rng)
    gap = np.abs(stokes.gradient_mean - direct.gradient_mean)
    tol = 4.0 * np.sqrt(stokes.gradient_stderr**2 + direct.gradient_stderr**2)
    report("gradient_representations_agree", float(np.max(gap)),
           float(np.max(tol)) / 4.0, float(np.max(tol)), bool(np.all(gap <= tol)))

    sampler = oracle_output_sampler(ball, np.zeros(3), 1.0)
    for m in (1, 10):
        mse = empirical_mse(sampler, m, max(500, samples // 10), rng, bound=1.0,
                            reference_mean=np.zeros(3))
        bound = 4.0 / m
        report(f"mean_mse_m{m}", mse.value, mse.stderr, bound,
               mse.value <= bound + 4 * mse.stderr)

    quad = quadratic_loss(np.array([0.2, 0.1, -0.3]), grad_bound=2.0)
    violation = smooth_inequality_audit(quad, ball, 500, rng)
    report("smooth_inequality_quadratic", violation, None, 1e-9, violation <= 1e-9)

    return reports
