"""Learner step rules, budgets, determinism, and parameter schedules."""

import numpy as np
import pytest

from pfol import (
    OFW,
    OGD,
    OSPF,
    Ball,
    Box,
    ConfigError,
    ExpectedFPLMC,
    GradientCounter,
    InstrumentedLoss,
    InstrumentedSet,
    LEARNER_STREAM,
    Polytope,
    ProtocolError,
    SampledFPL,
    Simplex,
    blocking_delta,
    blocking_params,
    default_delta,
    euclidean_project,
    expected_fpl_point_mc,
    linear_argmax,
    linear_loss,
    perturbed_leader_points,
    quadratic_loss,
    round_rng,
)

BALL = Ball(dim=3, radius=1.0)


def drive(learner, losses, set_=None):
    """Feed a fixed loss sequence; returns the played actions."""
    actions = []
    for loss in losses:
        actions.append(learner.act(set_))
        learner.observe(loss)
    return np.array(actions)


class TestSampledFPL:
    def test_first_round_plays_normalized_perturbation(self):
        # with zero cumulative gradient the ball oracle normalizes v/delta
        learner = SampledFPL(BALL, delta=0.5, samples=1, seed=3)
        action = learner.act()
        rng = round_rng(3, LEARNER_STREAM, 1)
        v = perturbed_leader_points(BALL, np.zeros(3), 0.5, 1, rng)[0]
        np.testing.assert_array_equal(action, v)
        assert np.linalg.norm(action) == pytest.approx(1.0, abs=1e-12)

    def test_actions_are_feasible_convex_combinations(self):
        for set_ in (BALL, Simplex(dim=4, scale=2.0),
                     Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])):
            learner = SampledFPL(set_, delta=0.3, samples=8, seed=0)
            losses = [quadratic_loss(np.zeros(set_.dim), 5.0)] * 20
            actions = drive(learner, losses)
            assert max(set_.feasibility_gap(a) for a in actions) <= 1e-9

    def test_observe_accumulates_gradients(self):
        learner = SampledFPL(BALL, delta=1.0, samples=1, seed=0)
        g = np.array([0.5, -1.0, 0.0])
        drive(learner, [linear_loss(g), linear_loss(g)])
        np.testing.assert_allclose(learner._cum_grad, 2 * g, atol=1e-15)

    def test_quadratic_gradient_taken_at_played_point(self):
        learner = SampledFPL(BALL, delta=1.0, samples=2, seed=1)
        a = learner.act()
        c = np.array([0.1, 0.2, 0.3])
        learner.observe(quadratic_loss(c, 3.0))
        np.testing.assert_allclose(learner._cum_grad, a - c, atol=1e-15)

    def test_mean_action_matches_mc_reference(self):
        # frozen history of linear losses; the re-sampled action mean must sit
        # at the smoothed-oracle point within 3 * (2D / sqrt(total samples))
        cum = np.array([0.8, -0.4, 0.2]) * 3
        delta = 0.4
        groups, per_group = 100, 1000
        total = np.zeros(3)
        for g in range(groups):
            rng = round_rng(1000 + g, LEARNER_STREAM, 1)
            total += perturbed_leader_points(BALL, cum, delta, per_group, rng).mean(axis=0)
        mean_action = total / groups
        ref = expected_fpl_point_mc(BALL, cum, delta, 2_000_000, np.random.default_rng(99))
        tol = 3.0 * 2.0 * BALL.norm_bound / np.sqrt(groups * per_group)
        assert np.linalg.norm(mean_action - ref.gradient_mean) <= tol

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            SampledFPL(BALL, delta=0.0, samples=1)
        with pytest.raises(ConfigError):
            SampledFPL(BALL, delta=0.5, samples=0)

    def test_protocol_enforced(self):
        learner = SampledFPL(BALL, delta=0.5, samples=1, seed=0)
        with pytest.raises(ProtocolError):
            learner.observe(linear_loss([1.0, 0.0, 0.0]))
        learner.act()
        with pytest.raises(ProtocolError):
            learner.act()

    def test_round_randomness_independent_of_sample_count(self):
        # round 2 sees identical perturbations whether round 1 drew 1 or 64
        losses = [linear_loss([1.0, 0.0, 0.0])]
        small = SampledFPL(BALL, delta=0.5, samples=1, seed=5)
        big = SampledFPL(BALL, delta=0.5, samples=64, seed=5)
        drive(small, losses)
        drive(big, losses)
        r_small = round_rng(5, LEARNER_STREAM, 2)
        r_big = round_rng(5, LEARNER_STREAM, 2)
        np.testing.assert_array_equal(r_small.standard_normal(6), r_big.standard_normal(6))


class TestOSPF:
    def test_holds_start_point_before_first_boundary(self):
        learner = OSPF(BALL, delta=0.5, block=4, seed=0)
        x0 = linear_argmax(BALL, [1.0, 0.0, 0.0])
        for _ in range(3):
            np.testing.assert_array_equal(learner.act(), x0)
            learner.observe(linear_loss([0.1, 0.0, 0.0]))

    def test_updates_at_multiples_of_k_with_k_calls_each(self):
        # T=9, k=3: the start point at t=1, refreshes at t in {3, 6, 9}; 10 calls
        inst = InstrumentedSet(BALL)
        learner = OSPF(BALL, delta=0.5, block=3, seed=2)
        calls_before = []
        for t in range(1, 10):
            before = inst.oracle_calls
            learner.act(inst)
            calls_before.append(inst.oracle_calls - before)
            learner.observe(linear_loss([0.2, -0.1, 0.0]))
        assert calls_before == [1, 0, 3, 0, 0, 3, 0, 0, 3]
        assert inst.oracle_calls == 10

    def test_k1_equals_sampled_fpl_m1_bitwise(self):
        losses = [quadratic_loss(np.array([0.3, -0.2, 0.1]) * (i % 3), 3.0) for i in range(100)]
        fpl = SampledFPL(BALL, delta=0.25, samples=1, seed=11)
        ospf = OSPF(BALL, delta=0.25, block=1, seed=11)
        a = drive(fpl, losses)
        b = drive(ospf, losses)
        np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            OSPF(BALL, delta=-1.0, block=2)
        with pytest.raises(ConfigError):
            OSPF(BALL, delta=0.5, block=0)


class TestExpectedFPLMC:
    def test_equals_sampled_fpl_with_same_budget(self):
        losses = [linear_loss([0.4, 0.1, -0.2])] * 5
        a = drive(ExpectedFPLMC(BALL, delta=0.5, eval_samples=16, seed=7), losses)
        b = drive(SampledFPL(BALL, delta=0.5, samples=16, seed=7), losses)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_under_seed(self):
        a = drive(ExpectedFPLMC(BALL, delta=0.5, eval_samples=8, seed=1),
                  [linear_loss([1.0, 0.0, 0.0])] * 3)
        b = drive(ExpectedFPLMC(BALL, delta=0.5, eval_samples=8, seed=1),
                  [linear_loss([1.0, 0.0, 0.0])] * 3)
        np.testing.assert_array_equal(a, b)

    def test_large_budget_approximates_symmetry_point(self):
        # zero cumulative gradient on a ball: the expected play is the origin
        learner = ExpectedFPLMC(BALL, delta=0.5, eval_samples=50_000, seed=0)
        action = learner.act()
        assert np.linalg.norm(action) <= 3.0 * 2.0 / np.sqrt(50_000)


class TestOGD:
    def test_zero_gradient_keeps_action(self):
        learner = OGD(BALL, grad_bound=1.0)
        a0 = learner.act()
        learner.observe(linear_loss(np.zeros(3)))
        np.testing.assert_array_equal(learner.act(), a0)

    def test_interior_step_skips_projection(self):
        box = Box(lower=[-5.0, -5.0], upper=[5.0, 5.0])
        learner = OGD(box, grad_bound=10.0)
        learner.act()
        learner.observe(linear_loss([1.0, -1.0]))
        eta = box.norm_bound / (10.0 * 1.0)
        np.testing.assert_allclose(learner.act(), [-eta, eta], atol=1e-12)

    def test_converges_to_linear_minimizer(self):
        g = np.array([2.0, -1.0, 2.0])
        learner = OGD(BALL, grad_bound=3.0)
        loss = linear_loss(g)
        for _ in range(10_000):
            learner.act()
            learner.observe(loss)
        target = -g / np.linalg.norm(g)
        assert np.linalg.norm(learner.act() - target) < 0.05

    def test_polytope_unsupported(self):
        poly = Polytope(vertices=[[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NotImplementedError):
            OGD(poly, grad_bound=1.0)


class TestOFW:
    def test_first_action_is_zero_objective_oracle_point(self):
        # at t=1 the surrogate gradient vanishes, so the oracle sees zero
        learner = OFW(BALL, grad_bound=1.0)
        np.testing.assert_array_equal(learner.act(), linear_argmax(BALL, np.zeros(3)))

    def test_actions_stay_feasible(self):
        for set_ in (BALL, Simplex(dim=3, scale=1.0)):
            learner = OFW(set_, grad_bound=2.0)
            losses = [quadratic_loss(np.full(set_.dim, 0.1 * i), 4.0) for i in range(30)]
            actions = drive(learner, losses)
            assert max(set_.feasibility_gap(a) for a in actions) <= 1e-9

    def test_one_oracle_call_per_round(self):
        # plus the start point, asked for on the first round
        inst = InstrumentedSet(BALL)
        learner = OFW(BALL, grad_bound=1.0)
        for t in range(1, 8):
            learner.act(inst)
            learner.observe(linear_loss([0.3, 0.0, 0.0]))
            assert inst.oracle_calls == t + 1


class TestParameterSchedules:
    def test_default_delta_values(self):
        assert default_delta(1.0, 1, 4) == 1.0
        assert default_delta(2.0, 4, 100) == pytest.approx(0.05, rel=1e-15)

    def test_blocking_delta_value(self):
        assert blocking_delta(1.0, 1, 4, 2) == pytest.approx(0.5, rel=1e-15)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            default_delta(0.0, 1, 4)
        with pytest.raises(ConfigError):
            default_delta(1.0, 0, 4)
        with pytest.raises(ConfigError):
            blocking_delta(1.0, 1, 0, 2)

    def test_blocking_params_examples(self):
        assert blocking_params(1000, "smooth") == (100, 10)
        assert blocking_params(16, "general") == (4, 4)
        assert blocking_params(1, "smooth") == (1, 1)
        assert blocking_params(1, "general") == (1, 1)

    def test_blocking_params_cover_horizon(self):
        for T in [1, 2, 3, 7, 10, 100, 1023, 1024, 65536, 999_983]:
            for mode in ("smooth", "general"):
                n, k = blocking_params(T, mode)
                assert n * k >= T
                assert n >= 1 and k >= 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            blocking_params(10, "strict")


class TestInstrumentation:
    def test_oracle_counter_counts_batch_rows(self):
        inst = InstrumentedSet(BALL)
        inst.support_argmax(np.array([1.0, 0.0, 0.0]))
        inst.support_argmax_many(np.zeros((5, 3)))
        assert inst.oracle_calls == 6

    def test_projection_not_counted(self):
        inst = InstrumentedSet(BALL)
        inst.project(np.array([3.0, 0.0, 0.0]))
        assert inst.oracle_calls == 0

    def test_gradient_counter_and_cache(self):
        counter = GradientCounter()
        loss = InstrumentedLoss(quadratic_loss([1.0, 0.0, 0.0], 2.0), counter)
        x = np.array([0.5, 0.0, 0.0])
        g = loss.gradient(x)
        assert counter.count == 1
        np.testing.assert_array_equal(loss.last_gradient, g)
        assert loss.evaluate(x) == pytest.approx(0.125)
        assert counter.count == 1


def test_euclidean_projection_keeps_ogd_feasible_under_big_steps():
    learner = OGD(Simplex(dim=3, scale=1.0), grad_bound=0.1)
    losses = [linear_loss([5.0, -5.0, 1.0])] * 50
    actions = drive(learner, losses)
    for a in actions:
        assert Simplex(dim=3, scale=1.0).feasibility_gap(a) <= 1e-9


def test_projection_helper_used_by_ogd_start():
    learner = OGD(Box(lower=[1.0, 1.0], upper=[2.0, 2.0]), grad_bound=1.0)
    np.testing.assert_array_equal(
        learner.act(), euclidean_project(Box(lower=[1.0, 1.0], upper=[2.0, 2.0]), np.zeros(2)))
