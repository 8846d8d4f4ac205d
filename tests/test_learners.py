"""Learner step rules, budgets, determinism, and parameter checks."""

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


def round_major_philox(seed, draw, blocks):
    """numpy's Philox at the first round-major counter of a narrow round of the learner stream (see pfol.rng)."""
    return np.random.Philox(key=np.array([seed, LEARNER_STREAM], dtype=np.uint64),
                            counter=np.array([draw * blocks, 0, 0, 1], dtype=np.uint64))


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
        rng = np.random.Generator(round_major_philox(3, 1, 2))  # draw 1 of 4-word rounds, 2 blocks each
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
        # t's own perturbed-leader points, whatever the sample count and block. A
        # wide round (samples * (d + 1) above 32 words) draws them by numpy's own
        # per-round generator; a narrow one by numpy's generator at the first
        # round-major counter of draw t // block, with (words + 1) // 4 + 1 blocks
        # a draw, unless its draws read past those blocks (test_rng checks those).
        # The horizons with small sample counts run past the cap on play's draw blocks
        zero = np.zeros(BALL.dim)
        start = linear_argmax(BALL, [1.0, 0.0, 0.0])
        for samples, block, T in ((1, 1, 2 * BLOCK_ROWS + 8), (4, 1, BLOCK_ROWS // 2 + 1100), (64, 1, 200),
                                  (2, 2, 2 * BLOCK_ROWS + 8), (20, 20, 200)):
            learner = PerturbedLeader(BALL, delta=0.5, samples=samples, block=block, seed=5)
            words = samples * (BALL.dim + 1)
            blocks, checked, refreshes = (words + 1) // 4 + 1, 0, T // block
            expected = start  # until the first refresh
            for t in range(1, T + 1):
                action = learner.act()
                if t % block == 0:
                    bitgen = round_rng(5, LEARNER_STREAM, t).bit_generator if words > 32 else \
                        round_major_philox(5, t // block, blocks)
                    expected = perturbed_leader_points(BALL, zero, 0.5, samples, np.random.Generator(bitgen))
                    expected = expected.mean(axis=0)
                    read = 4 * (int(bitgen.state["state"]["counter"][0]) - t // block * blocks - 1) \
                        + bitgen.state["buffer_pos"]
                    if words > 32 or read <= 4 * blocks:
                        checked += 1
                    else:  # a round that reads on; the rounds of its segment replay its action
                        expected = action
                np.testing.assert_array_equal(action, expected)
                learner.observe(zero)
            assert checked >= 0.98 * refreshes

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
    @pytest.mark.parametrize("build,match", [
        (lambda: OGD(BALL, grad_bound=0.0), "grad_bound must be positive"),
        (lambda: OGD(BALL, grad_bound=np.nan), "grad_bound must be positive"),
        (lambda: OFW(BALL, grad_bound=-1.0), "grad_bound must be positive"),
        (lambda: OFW(BALL, grad_bound=0.0), "grad_bound must be positive"),
    ], ids=["ogd_G_0", "ogd_G_nan", "ofw_G_negative", "ofw_G_0"])
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
