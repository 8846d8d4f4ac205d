"""Learner step rules, budgets, determinism, and parameter schedules."""

import numpy as np
import pytest

import pfol.learners
from pfol import (
    OFW,
    OGD,
    Ball,
    Box,
    ConfigError,
    ExperimentConfig,
    InstrumentedSet,
    LEARNER_STREAM,
    PerturbedLeader,
    Polytope,
    ProtocolError,
    Simplex,
    blocking_delta,
    blocking_params,
    default_delta,
    euclidean_project,
    expected_fpl_point_mc,
    linear_argmax,
    linear_loss,
    make_adversary,
    perturbed_leader_points,
    quadratic_loss,
    round_rng,
    run_game,
)
from pfol.learners import BLOCK_ROWS

BALL = Ball(dim=3, radius=1.0)


def game_config(learner, **knobs):
    """A 100-round game on the 3-ball against quadratic_adaptive with delta 0.25."""
    return ExperimentConfig(learner=learner, set={"kind": "ball", "dim": 3, "radius": 1.0},
                            adversary={"kind": "quadratic_adaptive"}, T=100, delta=0.25, **knobs)


def drive(learner, losses):
    """Feed a fixed loss sequence, each as its gradient at the played action; returns the actions."""
    actions = []
    for loss in losses:
        action = learner.act()
        actions.append(action)
        learner.observe(loss.gradient(action))
    return np.array(actions)


class TestSampledFPL:
    """PerturbedLeader with block 1: the sampled_fpl config."""

    def test_first_round_plays_normalized_perturbation(self):
        # with zero cumulative gradient the ball oracle normalizes v/delta
        learner = PerturbedLeader(BALL, delta=0.5, samples=1, seed=3)
        action = learner.act()
        rng = round_rng(3, LEARNER_STREAM, 1)
        v = perturbed_leader_points(BALL, np.zeros(3), 0.5, 1, rng)[0]
        np.testing.assert_array_equal(action, v)
        assert np.linalg.norm(action) == pytest.approx(1.0, abs=1e-12)

    def test_actions_are_feasible_convex_combinations(self):
        for set_ in (BALL, Simplex(dim=4, scale=2.0),
                     Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])):
            learner = PerturbedLeader(set_, delta=0.3, samples=8, seed=0)
            losses = [quadratic_loss(np.zeros(set_.dim), 5.0)] * 20
            actions = drive(learner, losses)
            assert max(set_.feasibility_gap(a) for a in actions) <= 1e-9

    def test_observe_accumulates_gradients(self):
        learner = PerturbedLeader(BALL, delta=1.0, samples=1, seed=0)
        g = np.array([0.5, -1.0, 0.0])
        drive(learner, [linear_loss(g), linear_loss(g)])
        np.testing.assert_allclose(learner._cum_grad, 2 * g, atol=1e-15)

    def test_quadratic_gradient_taken_at_played_point(self):
        learner = PerturbedLeader(BALL, delta=1.0, samples=2, seed=1)
        a = learner.act()
        c = np.array([0.1, 0.2, 0.3])
        learner.observe(quadratic_loss(c, 3.0).gradient(a))
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
            PerturbedLeader(BALL, delta=0.0, samples=1)
        with pytest.raises(ConfigError):
            PerturbedLeader(BALL, delta=0.5, samples=0)

    def test_protocol_enforced(self):
        learner = PerturbedLeader(BALL, delta=0.5, samples=1, seed=0)
        with pytest.raises(ProtocolError):
            learner.observe(np.array([1.0, 0.0, 0.0]))
        learner.act()
        with pytest.raises(ProtocolError):
            learner.act()

    def test_round_randomness_independent_of_sample_count(self):
        # with zero gradients the action at a refresh round t is the mean of round
        # t's own perturbed-leader points, drawn by numpy's own generator, bit for
        # bit, whatever the sample count and block; the horizons with small sample
        # counts run past the cap on play's draw blocks
        zero = np.zeros(BALL.dim)
        start = linear_argmax(BALL, [1.0, 0.0, 0.0])
        for samples, block, T in ((1, 1, 2 * BLOCK_ROWS + 8), (4, 1, BLOCK_ROWS // 2 + 1100), (64, 1, 200),
                                  (2, 2, 2 * BLOCK_ROWS + 8), (20, 20, 200)):
            learner = PerturbedLeader(BALL, delta=0.5, samples=samples, block=block, seed=5)
            expected = start  # until the first refresh
            for t in range(1, T + 1):
                if t % block == 0:
                    points = perturbed_leader_points(BALL, zero, 0.5, samples, round_rng(5, LEARNER_STREAM, t))
                    expected = points.mean(axis=0)
                np.testing.assert_array_equal(learner.act(), expected)
                learner.observe(zero)

    def test_act_draws_each_refresh_once_when_it_plays_it(self, monkeypatch):
        # a hand-played leader draws each refresh's round alone, in the round it plays it, and nothing
        # past the last refresh played
        drawn, draw = [], pfol.learners.round_rows

        def recording(stream, rounds, *args, **kwargs):
            drawn.append(list(rounds))
            return draw(stream, rounds, *args, **kwargs)

        monkeypatch.setattr(pfol.learners, "round_rows", recording)
        learner = PerturbedLeader(BALL, delta=0.5, samples=16, block=2, seed=1)
        for t in range(1, 1402):  # 700 refreshes, then a round that is none
            learner.act()
            assert len(drawn) == t // 2 and (t % 2 or drawn[-1] == [t])
            learner.observe(np.zeros(BALL.dim))
        assert drawn == [[t] for t in range(2, 1401, 2)]


class TestOSPF:
    """PerturbedLeader with samples = block = k: the ospf config."""

    def test_holds_start_point_before_first_boundary(self):
        learner = PerturbedLeader(BALL, delta=0.5, samples=4, block=4, seed=0)
        x0 = linear_argmax(BALL, [1.0, 0.0, 0.0])
        for _ in range(3):
            np.testing.assert_array_equal(learner.act(), x0)
            learner.observe(np.array([0.1, 0.0, 0.0]))

    def test_updates_at_multiples_of_k_with_k_calls_each(self):
        # T=9, k=3: the start point at t=1, refreshes at t in {3, 6, 9}; 10 calls
        inst = InstrumentedSet(BALL)
        learner = PerturbedLeader(inst, delta=0.5, samples=3, block=3, seed=2)
        calls_before = []
        for t in range(1, 10):
            before = inst.oracle_calls
            learner.act()
            calls_before.append(inst.oracle_calls - before)
            learner.observe(np.array([0.2, -0.1, 0.0]))
        assert calls_before == [1, 0, 3, 0, 0, 3, 0, 0, 3]
        assert inst.oracle_calls == 10

    def test_k1_equals_sampled_fpl_m1_bitwise(self):
        a = run_game(game_config("sampled_fpl", m=1), 11).actions
        b = run_game(game_config("ospf", k=1), 11).actions
        np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            PerturbedLeader(BALL, delta=-1.0, samples=2, block=2)
        with pytest.raises(ConfigError):
            PerturbedLeader(BALL, delta=0.5, samples=1, block=0)


class TestExpectedFPLMC:
    """PerturbedLeader with block 1 and a large sample count: sampled_fpl as the Monte-Carlo expected leader."""

    def test_config_game_is_the_class_under_act_and_observe(self):
        config = game_config("sampled_fpl", m=16)
        adversary = make_adversary(config.adversary, horizon=config.T, seed=7, norm_bound=1.0, dim=3)
        learner = PerturbedLeader(BALL, delta=0.25, samples=16, seed=7)
        played = []
        for _ in range(config.T):
            action = learner.act()
            loss = adversary.next_loss(played)
            played.append(action)
            learner.observe(loss.gradient(action))
        np.testing.assert_array_equal(run_game(config, 7).actions, np.array(played))

    def test_deterministic_under_seed(self):
        a = drive(PerturbedLeader(BALL, delta=0.5, samples=8, seed=1),
                  [linear_loss([1.0, 0.0, 0.0])] * 3)
        b = drive(PerturbedLeader(BALL, delta=0.5, samples=8, seed=1),
                  [linear_loss([1.0, 0.0, 0.0])] * 3)
        np.testing.assert_array_equal(a, b)

    def test_large_budget_approximates_symmetry_point(self):
        # zero cumulative gradient on a ball: the expected play is the origin
        learner = PerturbedLeader(BALL, delta=0.5, samples=50_000, seed=0)
        action = learner.act()
        assert np.linalg.norm(action) <= 3.0 * 2.0 / np.sqrt(50_000)


class TestOGD:
    def test_zero_gradient_keeps_action(self):
        learner = OGD(BALL, grad_bound=1.0)
        a0 = learner.act()
        learner.observe(np.zeros(3))
        np.testing.assert_array_equal(learner.act(), a0)

    def test_interior_step_skips_projection(self):
        box = Box(lower=[-5.0, -5.0], upper=[5.0, 5.0])
        learner = OGD(box, grad_bound=10.0)
        learner.act()
        learner.observe(np.array([1.0, -1.0]))
        eta = box.norm_bound / (10.0 * 1.0)
        np.testing.assert_allclose(learner.act(), [-eta, eta], atol=1e-12)

    def test_converges_to_linear_minimizer(self):
        g = np.array([2.0, -1.0, 2.0])
        learner = OGD(BALL, grad_bound=3.0)
        for _ in range(10_000):
            learner.act()
            learner.observe(g)
        target = -g / np.linalg.norm(g)
        assert np.linalg.norm(learner.act() - target) < 0.05

    def test_polytope_actions_stay_feasible(self):
        # a pentagon through its min-norm-point projection; steps push toward (5, -5)
        angles = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        poly = Polytope(vertices=np.column_stack([np.cos(angles), np.sin(angles)]))
        inst = InstrumentedSet(poly)
        learner = OGD(inst, grad_bound=1.0)
        actions = drive(learner, [quadratic_loss([5.0, -5.0], grad_bound=9.0)] * 200)
        assert max(poly.feasibility_gap(a) for a in actions) <= 1e-12
        np.testing.assert_allclose(actions[-1], poly.project(np.array([5.0, -5.0])), atol=1e-9)
        assert inst.oracle_calls == 0


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
        learner = OFW(inst, grad_bound=1.0)
        for t in range(1, 8):
            learner.act()
            learner.observe(np.array([0.3, 0.0, 0.0]))
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

    @pytest.mark.parametrize("build,match", [
        (lambda: blocking_params(0), "horizon must be >= 1"),
        (lambda: blocking_params(-3, "general"), "horizon must be >= 1"),
        (lambda: OGD(BALL, grad_bound=0.0), "grad_bound must be positive"),
        (lambda: OGD(BALL, grad_bound=np.nan), "grad_bound must be positive"),
        (lambda: OFW(BALL, grad_bound=-1.0), "grad_bound must be positive"),
        (lambda: OFW(BALL, grad_bound=0.0), "grad_bound must be positive"),
    ], ids=["blocking_T_0", "blocking_T_negative", "ogd_G_0", "ogd_G_nan", "ofw_G_negative", "ofw_G_0"])
    def test_bad_parameters_are_config_errors(self, build, match):
        with pytest.raises(ConfigError, match=match):
            build()


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
