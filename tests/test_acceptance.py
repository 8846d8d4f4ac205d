"""Acceptance gate: end-to-end checks of the package's headline guarantees.

Each test prints one pass/fail line (run with -s or check captured output).
Statistical tolerances follow the 4-standard-error convention; regret checks
compare the computed regret, against an exact hindsight comparator, with the
closed-form guarantees.
"""

import os
import time

import numpy as np

from pfol import (
    Ball,
    Box,
    ExperimentConfig,
    L1Ball,
    Polytope,
    Simplex,
    brute_force_argmax,
    empirical_mse,
    expected_fpl_point_mc,
    fit_exponent,
    linear_argmax,
    lipschitz_audit,
    oracle_output_sampler,
    quantile_check,
    run_experiment,
    run_game,
    smoothed_gradient_stokes,
    smoothed_value_mc,
    sweep,
    theoretical_bound,
)
from pfol.harness import expected_budgets

JOBS = min(4, os.cpu_count() or 1)

BALL5 = {"kind": "ball", "dim": 5, "radius": 1.0}
ADAPTIVE_QUAD = {"kind": "quadratic_adaptive", "center_scale": 1.0}
T_GRID = [2**e for e in range(10, 17)]


def report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status} {name}: {detail} [{elapsed:.1f}s / {limit:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit: {elapsed:.1f}s"


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    mismatches = 0
    for _ in range(50):
        vertices = rng.standard_normal((20, 6))
        poly = Polytope(vertices=vertices)
        for y in rng.standard_normal((1000, 6)):
            fast = linear_argmax(poly, y)
            slow = brute_force_argmax(vertices, y)
            if not np.array_equal(fast, slow):
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(1, "oracle equivalence", mismatches == 0,
           f"{mismatches} mismatches over 50 polytopes x 1000 queries", elapsed, 5.0)


def test_criterion_02_value_oracle_lipschitz():
    start = time.perf_counter()
    sets = [Ball(dim=4, radius=1.0),
            Box(lower=-np.ones(4), upper=np.ones(4)),
            Simplex(dim=4, scale=1.0),
            L1Ball(dim=4, radius=1.5)]
    rng = np.random.default_rng(1002)
    worst_excess = -np.inf
    details = []
    for s in sets:
        ratio = lipschitz_audit(s, 10_000, rng)
        worst_excess = max(worst_excess, ratio - s.norm_bound * (1 + 1e-9))
        details.append(f"{s.kind}:{ratio:.6f}/{s.norm_bound:.4f}")
    elapsed = time.perf_counter() - start
    report(2, "value-oracle Lipschitz audit", worst_excess <= 0,
           "max ratio per set " + ", ".join(details), elapsed, 5.0)


def test_criterion_03_mean_squared_error_rate(ball_oracle_reference):
    start = time.perf_counter()
    sampler = oracle_output_sampler(Ball(dim=3, radius=1.0), np.zeros(3), 1.0)
    rng = np.random.default_rng(1003)
    results = []
    ok = True
    for m in (1, 10, 100):
        est = empirical_mse(sampler, m, 10_000, rng, bound=1.0,
                            reference_mean=ball_oracle_reference)
        bound = 4.0 / m
        ok &= est.value <= bound + 4.0 * est.stderr
        results.append(f"m={m}: {est.value:.4f}<={bound:.2f}+{4 * est.stderr:.1e}")
    elapsed = time.perf_counter() - start
    report(3, "sample-mean MSE rate", ok, "; ".join(results), elapsed, 30.0)


def test_criterion_04_gradient_representations_cross_check():
    start = time.perf_counter()
    ball = Ball(dim=3, radius=1.0)
    delta, n = 0.5, 100_000
    rng = np.random.default_rng(1004)
    ok = True
    worst_ratio = 0.0
    for i in range(5):
        y = 0.8 * rng.standard_normal(3)
        stokes = smoothed_gradient_stokes(ball, y, delta, n, np.random.default_rng(2000 + i))
        direct = expected_fpl_point_mc(ball, -y, delta, n, np.random.default_rng(3000 + i))
        gap = np.abs(stokes.gradient_mean - direct.gradient_mean)
        tol = 4.0 * np.sqrt(stokes.gradient_stderr**2 + direct.gradient_stderr**2)
        ok &= bool(np.all(gap <= tol))
        worst_ratio = max(worst_ratio, float(np.max(gap / tol)))

        h = 1e-2
        shift = np.array([h, 0.0, 0.0])
        hi = smoothed_value_mc(ball, y + shift, delta, 1_000_000, np.random.default_rng(4000 + i))
        lo = smoothed_value_mc(ball, y - shift, delta, 1_000_000, np.random.default_rng(5000 + i))
        fd = (hi.value_mean - lo.value_mean) / (2 * h)
        fd_se = np.sqrt(hi.value_stderr**2 + lo.value_stderr**2) / (2 * h)
        fd_tol = 4.0 * np.sqrt(fd_se**2 + stokes.gradient_stderr[0] ** 2)
        ok &= abs(fd - stokes.gradient_mean[0]) <= fd_tol
        worst_ratio = max(worst_ratio, abs(fd - stokes.gradient_mean[0]) / fd_tol)
    elapsed = time.perf_counter() - start
    report(4, "boundary vs ball-average gradient", ok,
           f"5 anchors, worst |gap|/tolerance = {worst_ratio:.2f}", elapsed, 60.0)


def test_criterion_05_expected_regret_bound():
    start = time.perf_counter()
    config = ExperimentConfig(
        learner="sampled_fpl", set=BALL5, adversary=ADAPTIVE_QUAD,
        T=2**12, m=64, delta="auto", seeds=tuple(range(50)),
    )
    summary = run_experiment(config, jobs=JOBS)
    bound = theoretical_bound(config)
    ok = not summary.errors and summary.mean_regret <= bound
    elapsed = time.perf_counter() - start
    report(5, "smooth expected-regret bound", ok,
           f"mean regret {summary.mean_regret:.1f} <= {bound:.1f} (50 seeds)", elapsed, 180.0)


def test_criterion_06_blocked_learner_scaling():
    start = time.perf_counter()
    template = ExperimentConfig(
        learner="ospf", set=BALL5, adversary=ADAPTIVE_QUAD,
        T=T_GRID[0], k="auto", delta="auto", seeds=tuple(range(20)), fw_budget=20_000,
    )
    summaries = sweep(template, {"T": T_GRID}, jobs=JOBS)
    ok = all(not s.errors for s in summaries)
    means = []
    for s in summaries:
        means.append(s.mean_regret)
        ok &= s.mean_regret <= s.theoretical_bound
    fit = fit_exponent(T_GRID, means)
    # a bootstrap over the 20 seeds (4,000 resamples) puts the slope in [0.653, 0.666]; the window keeps
    # room around that and excludes the T^(3/4) rate of earlier projection-free learners
    slope_ok = 0.60 <= fit.slope <= 0.72
    elapsed = time.perf_counter() - start
    report(6, "blocked-learner regret scaling", ok and slope_ok,
           f"slope {fit.slope:.3f} in [0.60, 0.72] (theory 2/3 ~= 0.667, r2={fit.r_squared:.3f}); "
           f"all {len(summaries)} means below bound", elapsed, 600.0)


def test_criterion_07_linear_loss_scaling():
    start = time.perf_counter()
    template = ExperimentConfig(
        learner="sampled_fpl", set=BALL5,
        adversary={"kind": "linear_stochastic", "direction_norm": 1.0},
        T=T_GRID[0], m=1, delta="auto", seeds=tuple(range(20)), fw_budget=64,
    )
    summaries = sweep(template, {"T": T_GRID}, jobs=JOBS)
    ok = all(not s.errors for s in summaries)
    fit = fit_exponent(T_GRID, [s.mean_regret for s in summaries])
    slope_ok = 0.40 <= fit.slope <= 0.62
    elapsed = time.perf_counter() - start
    report(7, "single-sample linear-loss scaling", ok and slope_ok,
           f"slope {fit.slope:.3f} in [0.40, 0.62] (theory 0.5, r2={fit.r_squared:.3f})",
           elapsed, 180.0)


def test_criterion_08_high_probability_quantile():
    start = time.perf_counter()
    config = ExperimentConfig(
        learner="sampled_fpl", set=BALL5, adversary=ADAPTIVE_QUAD,
        T=2**12, m=64, delta="auto", seeds=tuple(range(200)),
    )
    summary = run_experiment(config, jobs=JOBS)
    check = quantile_check(summary, 0.05, config)
    ok = not summary.errors and check["pass"]
    elapsed = time.perf_counter() - start
    report(8, "high-probability quantile bound", ok,
           f"95th pct {check['quantile']:.1f} <= {check['bound']:.1f} (200 seeds)", elapsed, 600.0)


def test_criterion_09_budget_invariants():
    start = time.perf_counter()
    T = 1000
    base = dict(set=BALL5, adversary={"kind": "quadratic_stochastic", "center_scale": 1.0},
                T=T, delta=0.05, fw_budget=8)
    checks = []
    ok = True

    # true counts, start-point calls included: ospf makes 7*floor(T/7) + 1, ofw T + 1
    for learner, want_oracle, knobs in [("sampled_fpl", 4 * T, {"m": 4}),
                                        ("ospf", 7 * (T // 7) + 1, {"k": 7}),
                                        ("expected_fpl_mc", 8 * T, {"eval_samples": 8}),
                                        ("ofw", T + 1, {}),
                                        ("ogd", 0, {})]:
        config = ExperimentConfig(learner=learner, **knobs, **base)
        trace = run_game(config, 0)
        ok &= expected_budgets(config, config.k) == (want_oracle, T)
        ok &= trace.oracle_calls[-1] == want_oracle and trace.grad_evals[-1] == T
        checks.append(f"{learner} {trace.oracle_calls[-1]} calls, {trace.grad_evals[-1]} grads")

    elapsed = time.perf_counter() - start
    report(9, "oracle and gradient budgets", bool(ok), "; ".join(checks), elapsed, 1.0)


def test_criterion_10_blocked_and_sampled_equivalence():
    start = time.perf_counter()
    T = 1000
    base = dict(set=BALL5, adversary=ADAPTIVE_QUAD, T=T, delta=0.02, fw_budget=2000)
    fpl = run_game(ExperimentConfig(learner="sampled_fpl", m=1, **base), 42)
    ospf = run_game(ExperimentConfig(learner="ospf", k=1, **base), 42)
    same = all(
        np.array_equal(getattr(fpl, name), getattr(ospf, name))
        for name in ("actions", "losses", "cum_loss", "cum_regret",
                     "comparator_point", "oracle_calls", "grad_evals")
    ) and fpl.comparator_value == ospf.comparator_value
    elapsed = time.perf_counter() - start
    report(10, "blocked(k=1) equals sampled(m=1)", same,
           f"all numeric trace fields bit-identical over T={T}", elapsed, 1.0)
