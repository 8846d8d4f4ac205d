"""Game loop, regret accounting, bounds, sweeps, and exponent fits."""

import math
import warnings

import numpy as np
import pytest

from pfol import (
    Ball,
    ConfigError,
    ExperimentConfig,
    bound_check,
    comparator_correction,
    fit_exponent,
    high_probability_bound,
    linear_argmax,
    quantile_check,
    run_experiment,
    run_game,
    sweep,
    theoretical_bound,
    trace_to_csv,
)
from pfol.harness import CSV_HEADER, _verdict, config_hash, expected_budgets, resolve_block

BALL5 = {"kind": "ball", "dim": 5, "radius": 1.0}
BALL1 = {"kind": "ball", "dim": 1, "radius": 1.0}
QUAD_ADAPTIVE = {"kind": "quadratic_adaptive", "center_scale": 1.0}
LIN_STOCH = {"kind": "linear_stochastic", "direction_norm": 1.0}
DIAMOND = {"kind": "polytope", "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}


def cfg(**overrides):
    base = dict(learner="sampled_fpl", set=BALL5, adversary=QUAD_ADAPTIVE,
                T=64, m=2, delta="auto", seeds=(0,), fw_budget=256)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTheoreticalBound:
    def test_general_convex_arithmetic(self):
        # 2/0.2 + 0.2*100/2 + 2*100/5 = 60 at D=G=d=1, T=100, m=25, delta=0.2
        config = cfg(set=BALL1, adversary=LIN_STOCH, T=100, m=25, delta=0.2)
        assert theoretical_bound(config) == pytest.approx(60.0, rel=1e-15)

    def test_smooth_arithmetic(self):
        # same base terms with smooth tail 4*100/25 = 16: total 36
        config = cfg(set=BALL1,
                     adversary={"kind": "quadratic_stochastic", "center_scale": 0.0},
                     T=100, m=25, delta=0.2)
        assert theoretical_bound(config) == pytest.approx(36.0, rel=1e-15)

    def test_blocked_smooth_arithmetic(self):
        # 2*sqrt(100)*10 + 4*100 = 600 at D=G=d=beta=1, n=100, k=10
        config = cfg(learner="ospf", set=BALL1,
                     adversary={"kind": "quadratic_stochastic", "center_scale": 0.0},
                     T=1000, k=10, delta="auto")
        assert theoretical_bound(config) == pytest.approx(600.0, rel=1e-15)

    def test_blocked_general_uses_blocked_constants(self):
        config = cfg(learner="ospf", set=BALL1, adversary=LIN_STOCH, T=16, k=4, delta="auto")
        # n = 4: 2*D*G*sqrt(d)*sqrt(n)*k + 2*D*G*n*sqrt(k) = 16 + 16
        assert theoretical_bound(config) == pytest.approx(32.0, rel=1e-15)

    def test_baselines_have_no_bound(self):
        for learner in ("ogd", "ofw"):
            with pytest.raises(ConfigError, match="bound"):
                theoretical_bound(cfg(learner=learner))

    def test_high_probability_smooth_formula(self):
        config = cfg(set=BALL1,
                     adversary={"kind": "quadratic_stochastic", "center_scale": 0.0},
                     T=100, m=25, delta=0.2)
        sigma = 0.05
        base = 2.0 / 0.2 + 0.2 * 100 / 2
        want = (base + 2.0 * math.sqrt(2 * 100 * math.log(4 / sigma))
                + (8.0 * 100 / 25) * math.log(4 * 100 / sigma))
        assert high_probability_bound(config, sigma) == pytest.approx(want, rel=1e-15)

    def test_high_probability_general_uses_larger_constant(self):
        config = cfg(set=BALL1, adversary=LIN_STOCH, T=100, m=25, delta=0.2)
        sigma = 0.1
        want = (2.0 / 0.2 + 0.2 * 100 / 2
                + (2.0 * 100 / 5) * math.sqrt(2 * math.log(2 * 100 / sigma)))
        assert high_probability_bound(config, sigma) == pytest.approx(want, rel=1e-15)

    def test_high_probability_rejects_blocked_learner(self):
        with pytest.raises(ConfigError):
            high_probability_bound(cfg(learner="ospf", k=4), 0.05)

    def test_correction_band_formula(self):
        # every comparator is exact, the vertex polytope's included, whatever fw_budget says
        quad = {"kind": "quadratic_stochastic", "center_scale": 1.0}
        sets = [BALL5, DIAMOND,
                {"kind": "box", "lower": [-1.0, 0.0], "upper": [1.0, 2.0]},
                {"kind": "simplex", "dim": 3, "scale": 1.0},
                {"kind": "l1_ball", "dim": 4, "radius": 0.5}]
        for set_ in sets:
            for adversary in (quad, LIN_STOCH):
                for fw_budget in (None, 1, 1000):
                    config = cfg(set=set_, adversary=adversary, T=100, fw_budget=fw_budget)
                    assert comparator_correction(config) == 0.0


class TestFitExponent:
    def test_exact_power_laws(self):
        T = [10, 100, 1000, 10_000, 100_000]
        for exponent in (2.0 / 3.0, 0.5):
            fit = fit_exponent(T, [3.0 * t**exponent for t in T])
            assert fit.slope == pytest.approx(exponent, abs=1e-12)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_has_zero_slope(self):
        fit = fit_exponent([10, 100, 1000, 10_000], [5.0, 5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_nonpositive_points_are_dropped_with_warning(self):
        T = [10, 100, 1000, 10_000, 100_000]
        r = [1.0, -2.0, 3.0, 4.0, 5.0]
        with pytest.warns(UserWarning, match="nonpositive"):
            fit = fit_exponent(T, r)
        assert fit.points_used == 4

    def test_too_few_points_is_a_config_error(self):
        with pytest.raises(ConfigError, match=">= 4"):
            fit_exponent([10, 100, 1000], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            fit_exponent([1, 2], [1.0])


class TestRunGame:
    def test_single_round_linear_regret_nonnegative(self):
        config = cfg(set=BALL5, adversary=LIN_STOCH, T=1, m=1, fw_budget=4)
        trace = run_game(config, 3)
        assert trace.final_regret >= -1e-12

    def test_replay_is_bit_identical(self, tmp_path):
        config = cfg(T=40)
        a, b = run_game(config, 5), run_game(config, 5)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.cum_regret, b.cum_regret)
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        trace_to_csv(a, fa)
        trace_to_csv(b, fb)
        assert fa.read_bytes() == fb.read_bytes()

    def test_accounting_identity_exact(self):
        trace = run_game(cfg(T=50), 1)
        assert trace.cum_regret[-1] == trace.cum_loss[-1] - trace.comparator_value

    def test_counter_columns_are_cumulative_budgets(self):
        config = cfg(T=30, m=3)
        trace = run_game(config, 0)
        np.testing.assert_array_equal(trace.oracle_calls, 3 * np.arange(1, 31))
        np.testing.assert_array_equal(trace.grad_evals, np.arange(1, 31))

    def test_auto_delta_is_resolved_and_recorded(self):
        config = cfg(T=64)
        trace = run_game(config, 0)
        G = 2.0  # ball radius 1 plus center scale 1
        assert trace.delta == pytest.approx(2.0 / (G * math.sqrt(5 * 64)), rel=1e-12)

    def test_ospf_auto_block_resolution(self):
        config = cfg(learner="ospf", T=1000, k="auto")
        assert resolve_block(config, beta=1.0) == 10
        assert resolve_block(config, beta=0.0) == 32
        trace = run_game(config, 0)
        assert trace.oracle_calls[-1] == 10 * (1000 // 10) + 1

    def test_regret_per_round_shrinks_on_constant_linear_stream(self):
        # fixed direction: the leader locks on and regret/T must decay
        direction = [0.6, -0.8, 0.0, 0.0, 0.0]
        adversary = {"kind": "linear_stochastic", "direction": direction}
        rates = {}
        for T in (2048, 4096):
            config = cfg(adversary=adversary, T=T, m=1, fw_budget=16)
            finals = [run_game(config, s).final_regret for s in range(20)]
            rates[T] = np.median(finals) / T
        assert rates[4096] < rates[2048]

    def test_actions_follow_comparator_geometry(self):
        # fixed linear stream: comparator value = T * <g, argmax(-g)>
        direction = np.array([1.0, -2.0, 0.0, 0.0, 0.0])
        adversary = {"kind": "linear_stochastic", "direction": direction.tolist()}
        config = cfg(adversary=adversary, T=32, m=1, fw_budget=8)
        trace = run_game(config, 0)
        ball = Ball(dim=5, radius=1.0)
        assert trace.comparator_value == pytest.approx(
            -32.0 * float(np.dot(-direction, linear_argmax(ball, -direction))), rel=1e-12)


class TestRunExperimentAndSweep:
    def test_budget_bookkeeping_matches_expected(self):
        for learner, kw in [("sampled_fpl", {"m": 3}), ("ospf", {"k": 4}),
                            ("ofw", {}), ("ogd", {}),
                            ("expected_fpl_mc", {"eval_samples": 5})]:
            config = cfg(learner=learner, T=21, **kw)
            summary = run_experiment(config)
            want_oracle, want_grads = expected_budgets(config, resolve_block(config, 1.0))
            assert summary.oracle_calls == want_oracle
            assert summary.grad_evals == want_grads

    def test_summary_statistics(self):
        config = cfg(T=32, seeds=tuple(range(5)))
        summary = run_experiment(config)
        assert len(summary.final_regrets) == 5
        assert summary.mean_regret == pytest.approx(np.mean(summary.final_regrets))
        assert summary.quantiles["max"] == max(summary.final_regrets)
        assert summary.theoretical_bound == pytest.approx(theoretical_bound(config))
        assert summary.config_hash == config_hash(config)

    def test_parallel_equals_serial(self):
        config = cfg(T=32, seeds=(0, 1, 2, 3))
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert serial.final_regrets == parallel.final_regrets

    def test_sweep_is_the_same_for_any_jobs(self):
        # one pool plays every (cell, seed) game, longest T first; summaries keep grid order
        template = cfg(T=8, seeds=(0, 1, 2))
        serial = sweep(template, {"T": [8, 24, 16]}, jobs=1)
        pooled = sweep(template, {"T": [8, 24, 16]}, jobs=2)
        assert [s.T for s in pooled] == [8, 24, 16]
        assert [s.final_regrets for s in pooled] == [s.final_regrets for s in serial]
        assert [s.oracle_calls for s in pooled] == [s.oracle_calls for s in serial]

    def test_sweep_counts_cells(self):
        template = cfg(T=16, seeds=(0, 1))
        out = sweep(template, {"T": [8, 16], "m": [1, 2]})
        assert len(out) == 4
        assert [s.overrides for s in out] == [
            {"T": 8, "m": 1}, {"T": 8, "m": 2}, {"T": 16, "m": 1}, {"T": 16, "m": 2}]

    def test_sweep_empty_grid(self):
        assert sweep(cfg(), {}) == []
        assert sweep(cfg(), {"T": []}) == []

    def test_sweep_single_cell(self):
        out = sweep(cfg(T=8), {"m": [2]})
        assert len(out) == 1
        assert out[0].final_regrets

    def test_sweep_records_partial_failures(self):
        # the first cell's adversary declares dim 3 on a 2-dimensional set, which make_adversary rejects
        template = cfg(learner="ogd", T=8,
                       set={"kind": "polytope", "vertices": [[0.0, 0.0], [1.0, 0.0]]},
                       adversary={"kind": "linear_stochastic", "direction_norm": 1.0, "dim": 2})
        bad = dict(template.adversary, dim=3)
        out = sweep(template, {"adversary": [bad, template.adversary]})
        assert len(out) == 2
        assert out[0].errors and not out[0].final_regrets
        assert not out[1].errors and out[1].final_regrets

    def test_bound_check_passes_at_moderate_scale(self):
        config = cfg(T=256, m=8, seeds=tuple(range(5)), fw_budget=2560)
        report = bound_check(config, jobs=1)
        assert report["pass"] and report["certified"]
        assert report["correction_band"] == 0.0
        assert report["mean_regret"] <= report["bound"]


class TestQuantileCheck:
    def test_warns_when_seeds_are_too_few(self):
        config = cfg(T=64, m=4, seeds=(0, 1, 2))
        summary = run_experiment(config)
        with pytest.warns(UserWarning, match="seeds"):
            report = quantile_check(summary, 0.05, config)
        assert not report["sufficient_seeds"]

    def test_sigma_one_uses_minimum(self):
        config = cfg(T=64, m=4, seeds=tuple(range(4)))
        summary = run_experiment(config)
        report = quantile_check(summary, 1.0, config)
        assert report["quantile"] == pytest.approx(min(summary.final_regrets))
        assert np.isfinite(report["bound"])

    def test_deterministic_learner_degenerates_gracefully(self):
        # deterministic learner plus a seed-free loss stream: every run is
        # identical, so all quantiles coincide and the check still works
        adversary = {"kind": "linear_stochastic", "direction": [0.6, -0.8, 0.0, 0.0, 0.0]}
        config = cfg(learner="ogd", adversary=adversary, T=64, seeds=(0, 1, 2, 3), fw_budget=16)
        summary = run_experiment(config)
        assert summary.regret_std == pytest.approx(0.0, abs=1e-12)
        assert summary.quantiles["q05"] == pytest.approx(summary.quantiles["q95"], rel=1e-12)

    def test_moderate_scale_quantile_passes(self):
        config = cfg(T=256, m=8, seeds=tuple(range(8)), fw_budget=2560)
        summary = run_experiment(config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = quantile_check(summary, 0.25, config)
        assert report["pass"]

    def test_verdict_puts_the_correction_on_the_strict_side(self):
        # with a comparator at least the true minimum, R^ <= R <= R^ + eps:
        # R^ above the bound fails even when R^ - eps lies below it
        bound, eps = 10.0, 0.5

        def check(regret):
            report = _verdict(regret, bound, eps)
            return report["pass"], report["certified"]

        assert check(bound + eps / 2) == (False, False)
        assert check(bound + eps) == (False, False)
        assert check(bound - eps / 2) == (True, False)
        assert check(bound - 2 * eps) == (True, True)

    def test_sigma_validation(self):
        config = cfg(T=8)
        summary = run_experiment(config)
        with pytest.raises(ConfigError):
            quantile_check(summary, 0.0, config)


class TestConfigHandling:
    def test_from_json_round_trip(self):
        config = cfg(T=12, m=3, k=2, delta=0.5)
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_json({"learner": "sampled_fpl"})

    def test_unknown_fields_rejected(self):
        bad = cfg().to_json()
        bad["horizon"] = 10
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_json(bad)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            cfg(learner="sgd").validate()
        with pytest.raises(ConfigError):
            cfg(T=0).validate()
        with pytest.raises(ConfigError):
            cfg(delta=-1.0).validate()
        with pytest.raises(ConfigError):
            cfg(delta="later").validate()
        with pytest.raises(ConfigError):
            cfg(k="half").validate()
        with pytest.raises(ConfigError):
            cfg(seeds=()).validate()

    def test_csv_header_is_fixed(self):
        assert CSV_HEADER == "run_id,algorithm,seed,t,loss,cum_loss,cum_regret,oracle_calls,grad_evals"

    def test_csv_floats_round_trip(self, tmp_path):
        trace = run_game(cfg(T=8), 2)
        path = tmp_path / "t.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        loss_back = float(lines[3].split(",")[4])
        assert loss_back == trace.losses[2]
