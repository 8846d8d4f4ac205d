"""Losses, adversaries, block sums, and the hindsight solver."""

import numpy as np
import pytest

from pfol import (
    Ball,
    Box,
    ConfigError,
    InstrumentedSet,
    L1Ball,
    Polytope,
    ProtocolError,
    Simplex,
    best_in_hindsight,
    block_sum,
    frank_wolfe_gap_bound,
    linear_argmax,
    linear_loss,
    linear_max,
    make_adversary,
    offline_frank_wolfe,
    quadratic_loss,
)

BALL = Ball(dim=2, radius=1.0)


def adv(kind, T=16, seed=0, set_=BALL, **params):
    return make_adversary({"kind": kind, **params}, horizon=T, seed=seed,
                          norm_bound=set_.norm_bound, dim=set_.dim)


def hindsight(losses, set_, budget):
    """best_in_hindsight on the parameter array of an all-quadratic or all-linear loss list."""
    quadratic = losses[0].center is not None
    rows = np.stack([loss.center if quadratic else loss.direction for loss in losses])
    return best_in_hindsight(rows, set_, budget, quadratic)


def realized(kind, set_, T, seed=0):
    """Losses an adversary emits against T random feasible actions."""
    a = adv(kind, T=T, seed=seed, set_=set_)
    rng = np.random.default_rng(seed)
    losses, history = [], []
    for _ in range(T):
        losses.append(a.next_loss(history))
        history.append(set_.sample_points(rng, 1)[0])
    return losses


class TestLossConstructors:
    def test_linear_loss_fields(self):
        loss = linear_loss([3.0, 4.0])
        assert loss.grad_bound == 5.0
        assert loss.smoothness == 0.0
        assert loss.evaluate(np.array([1.0, 1.0])) == 7.0
        np.testing.assert_array_equal(loss.gradient(np.zeros(2)), [3.0, 4.0])

    def test_quadratic_loss_fields(self):
        loss = quadratic_loss([1.0, 0.0], grad_bound=3.0)
        assert loss.smoothness == 1.0
        assert loss.evaluate(np.array([0.0, 0.0])) == 0.5
        np.testing.assert_array_equal(loss.gradient(np.array([2.0, 1.0])), [1.0, 1.0])

    def test_quadratic_gradient_bound_on_feasible_points(self):
        rng = np.random.default_rng(0)
        a = adv("quadratic_adaptive", T=64, center_scale=1.0)
        G, beta = a.constants()
        assert beta == 1.0
        history = []
        for _ in range(64):
            loss = a.next_loss(history)
            x = BALL.sample_points(rng, 1)[0]
            assert np.linalg.norm(loss.gradient(x)) <= G + 1e-12
            history.append(x)

    def test_midpoint_convexity_and_gradient_lipschitz(self):
        rng = np.random.default_rng(1)
        for loss in (linear_loss([0.5, -2.0]), quadratic_loss([0.3, 0.3], grad_bound=2.0)):
            x = rng.standard_normal((200, 2))
            y = rng.standard_normal((200, 2))
            for xi, yi in zip(x, y):
                mid = 0.5 * (xi + yi)
                assert loss.evaluate(mid) <= 0.5 * (loss.evaluate(xi) + loss.evaluate(yi)) + 1e-9
                if loss.smoothness > 0:
                    lhs = np.linalg.norm(loss.gradient(xi) - loss.gradient(yi))
                    assert lhs <= loss.smoothness * np.linalg.norm(xi - yi) * (1 + 1e-9)


class TestBlockSum:
    def test_single_loss_is_identity(self):
        loss = quadratic_loss([0.1, 0.2], grad_bound=2.0)
        assert block_sum([loss]) is loss

    def test_two_linear_losses_sum_directions(self):
        total = block_sum([linear_loss([1.0, 0.0]), linear_loss([0.0, 2.0])])
        np.testing.assert_array_equal(total.direction, [1.0, 2.0])
        assert total.evaluate(np.array([1.0, 1.0])) == 3.0

    def test_three_quadratics_gradient(self):
        # symbolic: grad of sum of 0.5||x - c_i||^2 is 3x - sum(c_i)
        centers = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([-1.0, 1.0])]
        total = block_sum([quadratic_loss(c, grad_bound=2.0) for c in centers])
        x = np.array([0.5, -0.5])
        np.testing.assert_allclose(total.gradient(x), 3.0 * x - sum(centers), atol=1e-15)

    def test_constants_add_exactly(self):
        losses = [quadratic_loss([0.1, 0.0], 2.0), linear_loss([1.0, 1.0]),
                  quadratic_loss([0.0, 0.3], 1.5)]
        total = block_sum(losses)
        assert total.grad_bound == 2.0 + np.sqrt(2.0) + 1.5
        assert total.smoothness == 2.0

    def test_generic_sum_matches_pointwise(self):
        losses = [quadratic_loss([0.1, 0.2], 2.0), linear_loss([0.5, -0.5])]
        total = block_sum(losses)
        rng = np.random.default_rng(2)
        for x in rng.standard_normal((20, 2)):
            want = sum(l.evaluate(x) for l in losses)
            assert total.evaluate(x) == pytest.approx(want, rel=1e-14)
            np.testing.assert_allclose(total.gradient(x),
                                       sum(l.gradient(x) for l in losses), atol=1e-14)

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError, match="at least one"):
            block_sum([])
        with pytest.raises(ValueError, match="dimension"):
            block_sum([linear_loss([1.0]), linear_loss([1.0, 2.0])])


class TestOfflineFrankWolfe:
    def test_rate_bound_on_interior_quadratic(self):
        loss = quadratic_loss([0.2, -0.3], grad_bound=2.0)
        for iters in (4, 16, 64):
            _, value = offline_frank_wolfe(loss, BALL, iters)
            assert value <= 0.0 + frank_wolfe_gap_bound(1.0, BALL.norm_bound, iters)

    def test_linear_objective_solved_in_one_step(self):
        g = np.array([1.0, -2.0])
        point, _ = offline_frank_wolfe(linear_loss(g), BALL, 1)
        np.testing.assert_array_equal(point, linear_argmax(BALL, -g))

    def test_exterior_center_projects_to_boundary(self):
        # analytic: min of 0.5||x-(2,0)||^2 over the unit ball is at (1,0), value 0.5
        loss = quadratic_loss([2.0, 0.0], grad_bound=3.0)
        point, value = offline_frank_wolfe(loss, BALL, 4000)
        np.testing.assert_allclose(point, [1.0, 0.0], atol=2e-3)
        assert value == pytest.approx(0.5, abs=frank_wolfe_gap_bound(1.0, 1.0, 4000))

    def test_requires_at_least_one_iteration(self):
        with pytest.raises(ValueError):
            offline_frank_wolfe(linear_loss([1.0, 0.0]), BALL, 0)

    def test_non_finite_gradient_aborts(self):
        from pfol import LossFunction
        bad = LossFunction(evaluate=lambda x: 0.0,
                           gradient=lambda x: np.array([np.nan, 0.0]),
                           grad_bound=1.0)
        with pytest.raises(FloatingPointError):
            offline_frank_wolfe(bad, BALL, 3)


class TestBestInHindsight:
    def test_identical_linear_losses(self):
        g = np.array([1.0, -2.0])
        losses = [linear_loss(g)] * 4
        point, value = hindsight(losses, BALL, budget=8)
        expect = 4.0 * float(np.dot(g, linear_argmax(BALL, -g)))
        assert value == pytest.approx(expect, rel=1e-12)
        assert value == pytest.approx(-4.0 * linear_max(BALL, -g), rel=1e-12)

    def test_interior_mean_center_is_exact(self):
        centers = [np.array([0.2, 0.1]), np.array([-0.1, 0.3]), np.array([0.2, -0.1])]
        losses = [quadratic_loss(c, 2.0) for c in centers]
        point, _ = hindsight(losses, BALL, budget=50)
        np.testing.assert_allclose(point, np.mean(centers, axis=0), atol=1e-12)

    def test_projected_mean_center_hand_computed(self):
        # centers (2,0),(0,2),(-2,0): mean (0, 2/3) interior, total value 16/3
        centers = [np.array([2.0, 0.0]), np.array([0.0, 2.0]), np.array([-2.0, 0.0])]
        losses = [quadratic_loss(c, 4.0) for c in centers]
        point, value = hindsight(losses, BALL, budget=200)
        np.testing.assert_allclose(point, [0.0, 2.0 / 3.0], atol=1e-12)
        assert value == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_never_beaten_by_random_probes(self):
        rng = np.random.default_rng(3)
        for set_ in (BALL, Simplex(dim=3, scale=1.0), Box(lower=[-1.0, 0.0], upper=[1.0, 2.0])):
            a = adv("quadratic_stochastic", T=12, set_=set_)
            losses = []
            history = []
            for _ in range(12):
                losses.append(a.next_loss(history))
                history.append(set_.sample_points(rng, 1)[0])
            total = block_sum(losses)
            _, value = hindsight(losses, set_, budget=2000)
            probes = set_.sample_points(rng, 100)
            tol = frank_wolfe_gap_bound(total.smoothness, set_.norm_bound, 2000)
            assert all(value <= total.evaluate(p) + tol for p in probes)

    def test_projectable_quadratic_streams_return_the_projected_mean_center(self):
        for set_ in (Box(lower=[-1.0, 0.0], upper=[1.0, 2.0]), Simplex(dim=3, scale=1.0),
                     L1Ball(dim=3, radius=0.5)):
            losses = realized("quadratic_stochastic", set_, T=40)
            inst = InstrumentedSet(set_)
            point, value = hindsight(losses, inst, budget=400)
            want = set_.project(np.mean(np.stack([loss.center for loss in losses]), axis=0))
            np.testing.assert_array_equal(point, want)
            assert inst.oracle_calls == 0
            assert value == pytest.approx(block_sum(losses).evaluate(want), rel=1e-9)

    def test_linear_stream_returns_the_oracle_answer(self):
        square = Polytope(vertices=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        for set_ in (BALL, Simplex(dim=3, scale=1.0), square):
            losses = realized("linear_stochastic", set_, T=40)
            inst = InstrumentedSet(set_)
            point, value = hindsight(losses, inst, budget=400)
            direction_sum = np.sum([loss.direction for loss in losses], axis=0)
            np.testing.assert_array_equal(point, linear_argmax(set_, -direction_sum))
            assert inst.oracle_calls <= 3
            assert value == pytest.approx(block_sum(losses).evaluate(point), rel=1e-12)

    def test_polytope_stops_on_the_certified_duality_gap(self):
        rng = np.random.default_rng(8)
        vertices = rng.standard_normal((32, 8))
        poly = Polytope(vertices=vertices / np.linalg.norm(vertices, axis=1, keepdims=True))
        T = 200
        losses = realized("quadratic_stochastic", poly, T=T)
        total = block_sum(losses)
        inst = InstrumentedSet(poly)
        point, value = hindsight(losses, inst, budget=10 * T)
        assert inst.oracle_calls < 10 * T
        grad = total.gradient(point)
        gap = float(np.dot(grad, point - linear_argmax(poly, -grad)))
        assert gap <= frank_wolfe_gap_bound(total.smoothness, poly.norm_bound, 10 * T)
        assert value == total.evaluate(point)

    def test_polytope_stream_skips_projection_shortcut(self):
        # the shared center (0.2, 0.2) lies inside the triangle, so the
        # minimum is 0 and only the oracle-driven route can find it
        poly = Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        losses = [quadratic_loss([0.2, 0.2], 2.0)] * 3
        point, value = hindsight(losses, poly, budget=3000)
        assert poly.feasibility_gap(point) <= 1e-9
        assert 0.0 <= value <= frank_wolfe_gap_bound(3.0, poly.norm_bound, 3000)


class TestAdversaries:
    def test_stochastic_replay_is_bitwise(self):
        a1 = adv("quadratic_stochastic", seed=9)
        a2 = adv("quadratic_stochastic", seed=9)
        hist = [np.zeros(2)] * 5
        for t in range(5):
            l1 = a1.next_loss(hist[:t])
            l2 = a2.next_loss(hist[:t])
            np.testing.assert_array_equal(l1.center, l2.center)

    def test_stochastic_depends_only_on_seed_and_round(self):
        a1 = adv("linear_stochastic", seed=4)
        a2 = adv("linear_stochastic", seed=4)
        rng = np.random.default_rng(5)
        h1 = [rng.standard_normal(2) for _ in range(3)]
        h2 = [rng.standard_normal(2) for _ in range(3)]
        np.testing.assert_array_equal(a1.next_loss(h1).direction, a2.next_loss(h2).direction)

    def test_adaptive_first_round_uses_seed_stream(self):
        a1 = adv("quadratic_adaptive", seed=11)
        a2 = adv("quadratic_adaptive", seed=11)
        np.testing.assert_array_equal(a1.next_loss([]).center, a2.next_loss([]).center)

    def test_adaptive_center_pushes_against_mean(self):
        a = adv("quadratic_adaptive", center_scale=1.0)
        history = [np.array([0.5, -0.25]), np.array([0.3, -0.15])]
        loss = a.next_loss(history)
        np.testing.assert_allclose(loss.center, [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_linear_adaptive_aims_at_mean(self):
        a = adv("linear_adaptive", direction_norm=2.0)
        history = [np.array([0.0, 0.5])]
        loss = a.next_loss(history)
        np.testing.assert_allclose(loss.direction, [0.0, 2.0], atol=1e-15)

    def test_fixed_direction_linear(self):
        a = adv("linear_stochastic", direction=[0.6, -0.8])
        loss = a.next_loss([])
        np.testing.assert_array_equal(loss.direction, [0.6, -0.8])
        assert a.constants() == (pytest.approx(1.0), 0.0)

    def test_horizon_overrun_rejected(self):
        a = adv("quadratic_stochastic", T=2)
        hist = [np.zeros(2), np.zeros(2)]
        with pytest.raises(ProtocolError, match="horizon"):
            a.next_loss(hist)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown adversary"):
            make_adversary({"kind": "bandit"}, horizon=4, seed=0, norm_bound=1.0, dim=2)

    def test_declared_constants_cover_emitted_losses(self):
        for kind in ("quadratic_stochastic", "quadratic_adaptive",
                     "linear_stochastic", "linear_adaptive"):
            a = adv(kind, T=32)
            G, beta = a.constants()
            rng = np.random.default_rng(6)
            history = []
            for _ in range(32):
                loss = a.next_loss(history)
                assert loss.grad_bound <= G + 1e-12
                assert loss.smoothness == beta
                history.append(BALL.sample_points(rng, 1)[0])

    def test_smooth_inequality_on_quadratics(self):
        # <grad f(y), x-y> <= <grad f(x), x-y> + beta ||x-y||^2, exact for quadratics
        rng = np.random.default_rng(7)
        loss = quadratic_loss([0.2, -0.4], 2.0)
        for _ in range(200):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            lhs = np.dot(loss.gradient(y), x - y)
            rhs = np.dot(loss.gradient(x), x - y) + loss.smoothness * np.dot(x - y, x - y)
            assert lhs <= rhs + 1e-9

    def test_emit_and_observe_equal_next_loss(self):
        rng = np.random.default_rng(4)
        actions = BALL.sample_points(rng, 12)
        for kind in ("quadratic_stochastic", "quadratic_adaptive", "linear_stochastic", "linear_adaptive"):
            engine, replay = adv(kind, T=12, seed=2), adv(kind, T=12, seed=2)
            for t, action in enumerate(actions, start=1):
                loss = replay.next_loss(actions[:t - 1])
                np.testing.assert_array_equal(engine.emit(t), loss.center if engine.quadratic else loss.direction)
                engine.observe(action)

    def test_constants_need_no_draws(self):
        # the stochastic tables are drawn on the first emit, never for constants()
        for kind, G in (("quadratic_stochastic", 2.0), ("linear_stochastic", 1.0)):
            assert adv(kind, T=2**47).constants() == (G, float(kind.startswith("quadratic")))

    def test_json_round_trip(self):
        a = adv("quadratic_adaptive", T=8, seed=3, center_scale=0.5)
        spec = a.to_json()
        assert spec["kind"] == "quadratic_adaptive"
        clone = make_adversary(spec, horizon=8, seed=3, norm_bound=1.0, dim=2)
        np.testing.assert_array_equal(clone.next_loss([]).center, a.next_loss([]).center)
