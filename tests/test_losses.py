"""Losses, adversaries, and the hindsight comparator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pfol.adversaries
from pfol import (
    Ball,
    Box,
    ConfigError,
    ExperimentConfig,
    InstrumentedSet,
    L1Ball,
    LossFunction,
    Polytope,
    ProtocolError,
    Simplex,
    best_in_hindsight,
    linear_argmax,
    linear_loss,
    make_adversary,
    quadratic_loss,
    run_game,
    smooth_inequality_audit,
)
from pfol.adversaries import emit_lockstep
from pfol.rng import round_rows

from conftest import CallableLoss

BALL = Ball(dim=2, radius=1.0)


def adv(kind, T=16, seed=0, set_=BALL, **params):
    return make_adversary({"kind": kind, **params}, horizon=T, seed=seed,
                          norm_bound=set_.norm_bound, dim=set_.dim)


def hindsight(losses, set_):
    """best_in_hindsight on the parameter array of an all-quadratic or all-linear loss list."""
    quadratic = losses[0].center is not None
    rows = np.stack([loss.center if quadratic else loss.direction for loss in losses])
    return best_in_hindsight(rows, set_, quadratic)


def total_loss(losses, x):
    return sum(loss.evaluate(x) for loss in losses)


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


def generic_quadratic(center):
    """0.5 * ||x - center||^2 built from two callables, without the closed-form shortcut."""
    return CallableLoss(evaluate=lambda x: 0.5 * float(np.dot(x - center, x - center)),
                        gradient=lambda x: x - center, grad_bound=2.0, smoothness=1.0)


class TestSlottedLosses:
    """A loss is a slotted object that holds its parameter row; no closure, no per-instance dict."""

    @pytest.mark.parametrize("build", [linear_loss, lambda row: quadratic_loss(row, 2.0)], ids=["linear", "quadratic"])
    def test_bytes_per_loss(self, build):
        rows = np.random.default_rng(0).standard_normal((16_384, 5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            losses = [build(row) for row in rows]
            per_loss = (tracemalloc.get_traced_memory()[0] - before) / len(losses)
        finally:
            tracemalloc.stop()
        assert per_loss <= 256, f"{per_loss:.0f} B per loss"

    @pytest.mark.parametrize("dim", [1, 5])
    def test_values_equal_the_closed_forms_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        rows, xs = rng.standard_normal((2, 300, dim))
        rows[:10], xs[5:15] = -0.0, 0.0  # signed zeros, alone and against nonzero rows
        for row, x in zip(rows, xs):
            lin, quad = linear_loss(row), quadratic_loss(row, 3.0)
            for got, want in ((lin.evaluate(x), float(np.dot(row, x))),
                              (quad.evaluate(x), 0.5 * float(np.dot(x - row, x - row)))):
                assert type(got) is float and got.hex() == want.hex()
            assert lin.gradient(x).tobytes() == row.tobytes()
            assert quad.gradient(x).tobytes() == (x - row).tobytes()

    @pytest.mark.parametrize("build", [lambda: linear_loss([3.0, 4.0]), lambda: quadratic_loss([1.0, 2.0], 3.0),
                                       lambda: generic_quadratic(np.array([1.0, 2.0]))],
                             ids=["linear", "quadratic", "generic"])
    def test_losses_are_immutable(self, build):
        loss = build()
        assert not hasattr(loss, "__dict__")
        for name in ("grad_bound", "smoothness", "center", "direction", "evaluate", "gradient", "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(loss, name, 0.0)
        with pytest.raises(AttributeError, match="immutable"):
            del loss.grad_bound
        for row in (loss.center, loss.direction):
            if row is not None:
                with pytest.raises(ValueError):
                    row[0] = 9.0

    def test_rows_are_read_only_copies(self):
        row = np.array([3.0, 4.0])
        held = [linear_loss(row).direction, quadratic_loss(row, 3.0).center]
        row[0] = 9.0
        for kept in held:
            assert not kept.flags.writeable and not np.shares_memory(kept, row)
            np.testing.assert_array_equal(kept, [3.0, 4.0])

    def test_a_loss_from_two_callables_drives_the_smoothness_audit(self):
        center = np.array([0.2, 0.1])
        generic = generic_quadratic(center)
        assert isinstance(generic, LossFunction)
        assert (generic.center, generic.direction, generic.smoothness, generic.grad_bound) == (None, None, 1.0, 2.0)
        audits = [smooth_inequality_audit(loss, BALL, 300, np.random.default_rng(3))
                  for loss in (generic, quadratic_loss(center, 2.0))]
        assert audits[0] == audits[1] <= 1e-12
        positional = CallableLoss(generic.evaluate, generic.gradient, 2.0)
        assert (positional.smoothness, positional.center, positional.direction) == (0.0, None, None)

    @pytest.mark.parametrize("args,kwargs", [((lambda x: 0.0, lambda x: x, 2.0), {}), ((2.0,), {}),
                                             ((), {"evaluate": lambda x: 0.0, "gradient": lambda x: x,
                                                   "grad_bound": 2.0})],
                             ids=["positional", "grad_bound", "keywords"])
    def test_the_base_class_builds_no_loss(self, args, kwargs):
        with pytest.raises(TypeError, match="abstract"):
            LossFunction(*args, **kwargs)

    @pytest.mark.parametrize("kind", ["quadratic_stochastic", "quadratic_adaptive", "linear_stochastic",
                                      "linear_adaptive"])
    def test_next_loss_builds_slotted_losses(self, kind):
        for loss in realized(kind, BALL, 8):
            assert isinstance(loss, LossFunction) and not hasattr(loss, "__dict__")
            row = loss.center if kind.startswith("quadratic") else loss.direction
            assert (loss.center is None) != (loss.direction is None)
            assert not row.flags.writeable


class TestOfflineFrankWolfe:
    """The offline problem a conditional-gradient comparator would solve iteratively.

    The exact comparator must do no worse than that loop's worst-case gap
    8 L D^2 / (k + 2) at any iteration count k, and answer a linear objective
    with the single oracle call that is the loop's first step.
    """

    def test_rate_bound_on_interior_quadratic(self):
        loss = quadratic_loss([0.2, -0.3], grad_bound=2.0)
        value = total_loss([loss], hindsight([loss], BALL))
        for iters in (4, 16, 64):
            assert value <= 0.0 + 8.0 * loss.smoothness * BALL.norm_bound ** 2 / (iters + 2.0)
        assert value == 0.0

    def test_linear_objective_solved_in_one_step(self):
        g = np.array([1.0, -2.0])
        inst = InstrumentedSet(BALL)
        point = hindsight([linear_loss(g)], inst)
        np.testing.assert_array_equal(point, linear_argmax(BALL, -g))
        assert inst.oracle_calls == 1


class TestBestInHindsight:
    def test_identical_linear_losses(self):
        g = np.array([1.0, -2.0])
        losses = [linear_loss(g)] * 4
        value = total_loss(losses, hindsight(losses, BALL))
        expect = 4.0 * float(np.dot(g, linear_argmax(BALL, -g)))
        assert value == pytest.approx(expect, rel=1e-12)
        assert value == pytest.approx(-4.0 * np.sqrt(5.0), rel=1e-12)

    def test_interior_mean_center_is_exact(self):
        centers = [np.array([0.2, 0.1]), np.array([-0.1, 0.3]), np.array([0.2, -0.1])]
        losses = [quadratic_loss(c, 2.0) for c in centers]
        point = hindsight(losses, BALL)
        np.testing.assert_allclose(point, np.mean(centers, axis=0), atol=1e-12)

    def test_projected_mean_center_hand_computed(self):
        # centers (2,0),(0,2),(-2,0): mean (0, 2/3) interior, total value 16/3
        centers = [np.array([2.0, 0.0]), np.array([0.0, 2.0]), np.array([-2.0, 0.0])]
        losses = [quadratic_loss(c, 4.0) for c in centers]
        point = hindsight(losses, BALL)
        np.testing.assert_allclose(point, [0.0, 2.0 / 3.0], atol=1e-12)
        assert total_loss(losses, point) == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_exterior_center_projects_to_boundary(self):
        # analytic: min of 0.5||x-(2,0)||^2 over the unit ball is at (1,0), value 0.5
        point = hindsight([quadratic_loss([2.0, 0.0], grad_bound=3.0)], BALL)
        np.testing.assert_array_equal(point, [1.0, 0.0])

    def test_never_beaten_by_random_probes(self):
        rng = np.random.default_rng(3)
        angles = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        pentagon = Polytope(vertices=np.column_stack([np.cos(angles), np.sin(angles)]))
        for set_ in (BALL, Simplex(dim=3, scale=1.0), Box(lower=[-1.0, 0.0], upper=[1.0, 2.0]), pentagon):
            for kind in ("quadratic_stochastic", "linear_stochastic"):
                losses = realized(kind, set_, T=12, seed=int(rng.integers(100)))
                value = total_loss(losses, hindsight(losses, set_))
                probes = set_.sample_points(rng, 100)
                assert all(value <= total_loss(losses, p) + 1e-12 for p in probes)

    def test_projectable_quadratic_streams_return_the_projected_mean_center(self):
        poly = Polytope(vertices=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
        for set_ in (Box(lower=[-1.0, 0.0], upper=[1.0, 2.0]), Simplex(dim=3, scale=1.0),
                     L1Ball(dim=3, radius=0.5), poly):
            losses = realized("quadratic_stochastic", set_, T=40)
            inst = InstrumentedSet(set_)
            point = hindsight(losses, inst)
            want = set_.project(np.mean(np.stack([loss.center for loss in losses]), axis=0))
            np.testing.assert_array_equal(point, want)
            assert inst.oracle_calls == 0

    def test_linear_stream_returns_the_oracle_answer(self):
        square = Polytope(vertices=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        for set_ in (BALL, Simplex(dim=3, scale=1.0), square):
            losses = realized("linear_stochastic", set_, T=40)
            inst = InstrumentedSet(set_)
            point = hindsight(losses, inst)
            direction_sum = np.sum([loss.direction for loss in losses], axis=0)
            np.testing.assert_array_equal(point, linear_argmax(set_, -direction_sum))
            assert inst.oracle_calls == 1

    def test_polytope_stops_on_the_certified_duality_gap(self):
        # the benchmark's polytope game: 64 unit vertices in d=16, T=2^13; the
        # sum objective's gap T <x - mean, x - v> must meet the benchmark's relative tolerance
        rng = np.random.default_rng(8)
        vertices = rng.standard_normal((64, 16))
        poly = Polytope(vertices=vertices / np.linalg.norm(vertices, axis=1, keepdims=True))
        T = 2**13
        for seed in (1, 2):
            a = adv("quadratic_stochastic", T=T, seed=seed, set_=poly)
            centers = np.stack([a.emit(t) for t in range(1, T + 1)])
            point = best_in_hindsight(centers, poly, True)
            value = 0.5 * float(np.sum((centers - point) ** 2))
            grad = T * point - centers.sum(axis=0)
            gap = float(np.dot(grad, point - linear_argmax(poly, -grad)))
            assert poly.feasibility_gap(point) <= 1e-12
            assert gap <= 1e-9 * (1.0 + value)

    def test_polytope_interior_mean_center_is_exact(self):
        # the shared center (0.2, 0.2) lies inside the triangle, so the minimum is 0
        poly = Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        losses = [quadratic_loss([0.2, 0.2], 2.0)] * 3
        point = hindsight(losses, poly)
        np.testing.assert_allclose(point, [0.2, 0.2], rtol=0, atol=1e-15)
        assert total_loss(losses, point) <= 1e-30


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

    @pytest.mark.parametrize("kind", ["quadratic_stochastic", "quadratic_adaptive",
                                      "linear_stochastic", "linear_adaptive"])
    def test_emit_rejects_rounds_outside_the_horizon(self, kind):
        a = adv(kind, T=5)
        for t in (0, -1, 6):
            with pytest.raises(ProtocolError, match="outside"):
                a.emit(t)
        a.observe(np.array([0.5, 0.5]))
        for t in (0, 6):
            with pytest.raises(ProtocolError, match="outside"):
                a.emit(t)
        assert a.emit(5).shape == (2,)

    def test_next_loss_rejects_a_history_shorter_than_observed(self):
        a = adv("quadratic_adaptive")
        history = [np.array([0.5, 0.0]), np.array([0.0, 0.5])]
        a.next_loss(history)
        with pytest.raises(ProtocolError, match="shorter"):
            a.next_loss(history[:1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown adversary"):
            make_adversary({"kind": "bandit"}, horizon=4, seed=0, norm_bound=1.0, dim=2)

    @pytest.mark.parametrize("spec,horizon,match", [
        ({"kind": "quadratic_stochastic"}, 0, "horizon must be >= 1"),
        ({"kind": "quadratic_stochastic", "center_scale": -1.0}, 8, "center_scale"),
        ({"kind": "quadratic_stochastic", "center_scale": np.nan}, 8, "center_scale"),
        ({"kind": "quadratic_adaptive", "center_scale": np.inf}, 8, "center_scale"),
        ({"kind": "linear_stochastic", "direction": [1.0, 0.0, 0.0]}, 8, "match the set dimension"),
        ({"kind": "linear_stochastic", "direction": [np.nan, 1.0]}, 8, "finite"),
        ({"kind": "linear_stochastic", "direction": [np.inf, 0.0]}, 8, "finite"),
        pytest.param({"kind": "linear_stochastic", "direction": [1e300, 1e300]}, 8, "finite norm",
                     marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
        ({"kind": "linear_stochastic", "direction_norm": 0.0}, 8, "direction_norm"),
        ({"kind": "linear_stochastic", "direction_norm": np.inf}, 8, "direction_norm"),
        ({"kind": "linear_adaptive", "direction_norm": -1.0}, 8, "direction_norm"),
        ({"kind": "linear_adaptive", "direction_norm": np.inf}, 8, "direction_norm"),
        ({"kind": "linear_adaptive", "direction_norm": np.nan}, 8, "direction_norm"),
        ({"kind": "linear_stochastic", "direction": [1.0, 0.0], "direction_norm": 5.0}, 8, "direction_norm"),
        ({"kind": "linear_stochastic", "direction": [1.0, 0.0], "direction_norm": 1.0}, 8, "direction_norm"),
        ({"kind": "quadratic_stochastic", "horizon": 131072}, 8, r"\['horizon'\]"),
        ({"kind": "linear_adaptive", "horizon": 8}, 8, r"\['horizon'\]"),
        ({"kind": "linear_stochastic", "norm_bound": 1.0}, 8, r"\['norm_bound'\]"),
        ({"kind": "linear_stochastic", "direction": [1.0, 0.0], "seed": 123}, 8, r"\['seed'\]"),
        ({"kind": "quadratic_adaptive", "seed": 5}, 8, r"\['seed'\]"),
        ({"kind": "linear_adaptive", "dim": 2}, 8, r"\['dim'\]"),
        ({"kind": "quadratic_stochastic", "dim": 3, "seed": 0}, 8, r"\['dim', 'seed'\]"),
        (["linear_stochastic"], 8, "must be an object"),
        ({"direction_norm": 1.0}, 8, "'kind' field"),
    ])
    def test_bad_parameters_are_config_errors(self, spec, horizon, match):
        with pytest.raises(ConfigError, match=match):
            make_adversary(spec, horizon=horizon, seed=0, norm_bound=1.0, dim=2)

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

    @pytest.mark.parametrize("kind", ["quadratic_adaptive", "linear_adaptive"])
    @pytest.mark.parametrize("schedule", ["segment-first", "round-first"])
    def test_emit_lockstep_equals_each_adversary_emit_and_observe(self, kind, schedule):
        # three games in segments of 1 to 6 rounds, the first round in a segment of 3 or of 1; game 1's actions
        # and their negations (signed zeros kept) bring its sum back to exactly 0, so its linear_adaptive rows
        # draw after the first round while the other games, whose sums are never 0, aim
        x, w, zero = np.array([0.75, -0.0]), np.array([0.5, -0.125]), np.array([-0.0, 0.0])
        lengths, game1 = {
            "segment-first": ([3, 3, 1, 1, 6, 2, 2, 1, 1], [x, -x, x, -x, zero, w, -w, x, -x]),
            "round-first": ([1, 1, 1, 3, 3, 6, 2, 2, 1], [x, -x, zero, x, -x, zero, w, -w, x]),
        }[schedule]
        stepped = [adv(kind, T=20, seed=seed) for seed in (7, 8, 9)]
        lockstep = [adv(kind, T=20, seed=seed) for seed in (7, 8, 9)]
        sums, t, zeros = None, 1, 0
        for i, n in enumerate(lengths):
            actions = np.array([[0.25 * (i + 1), 0.5 - 0.125 * i], game1[i], [-0.5, 0.25 * i - 0.5]])
            zeros += sums is not None and not sums[1].any()
            rows, sums = emit_lockstep(lockstep, t, n, actions, sums)
            assert rows.shape == (3, n, 2)
            for j in range(n):
                for s, adversary in enumerate(stepped):
                    assert rows[s, j].tobytes() == adversary.emit(t + j).tobytes()
                    adversary.observe(actions[s])
            t += n
            for s, adversary in enumerate(stepped):
                assert sums[s].tobytes() == adversary._action_sum.tobytes()
        assert t == 21 and zeros >= 3
        assert all(adversary._seen == 0 and adversary._action_sum is None for adversary in lockstep)

    def test_constants_need_no_draws(self):
        # the stochastic tables are drawn on the first emit, never for constants()
        for kind, G in (("quadratic_stochastic", 2.0), ("linear_stochastic", 1.0)):
            assert adv(kind, T=2**47).constants() == (G, float(kind.startswith("quadratic")))

    def test_spec_horizon_above_T_draws_only_the_run(self, monkeypatch):
        # the run sets the horizon: a spec that names one is refused, and a 16-round game draws rows 1..16 only
        drawn = []

        def counting(stream, rounds, *args, **kwargs):
            drawn.extend(rounds)
            return round_rows(stream, rounds, *args, **kwargs)

        monkeypatch.setattr(pfol.adversaries, "round_rows", counting)
        for kind in ("quadratic_stochastic", "linear_stochastic"):
            config = ExperimentConfig(learner="sampled_fpl", set={"kind": "ball", "dim": 2, "radius": 1.0},
                                      adversary={"kind": kind, "horizon": 2**17}, T=16)
            with pytest.raises(ConfigError, match=r"may not set \['horizon'\]"):
                run_game(config, 5)
            assert drawn == []
            run_game(replace(config, adversary={"kind": kind}), 5)
            assert drawn == list(range(1, 17))
            drawn.clear()
