"""Game loop, regret accounting, bounds, sweeps, and exponent fits."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import pfol.learners
from pfol import (
    Ball,
    ConfigError,
    ExperimentConfig,
    bound_check,
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
from pfol import (
    OFW,
    OGD,
    InstrumentedSet,
    OnlineLearner,
    PerturbedLeader,
    ProtocolError,
    harness,
    make_adversary,
    set_from_json,
)
from pfol.harness import (
    CSV_HEADER,
    best_in_hindsight,
    comparator_correction,
    config_hash,
    expected_budgets,
    resolve_block,
    row_dots,
)
from pfol.learners import BLOCK_ROWS

BALL5 = {"kind": "ball", "dim": 5, "radius": 1.0}
BALL1 = {"kind": "ball", "dim": 1, "radius": 1.0}
BALL2 = {"kind": "ball", "dim": 2, "radius": 1.0}
QUAD_ADAPTIVE = {"kind": "quadratic_adaptive", "center_scale": 1.0}
LIN_STOCH = {"kind": "linear_stochastic", "direction_norm": 1.0}
DIAMOND = {"kind": "polytope", "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}


def cfg(**overrides):
    # m is sampled_fpl's knob alone, so only a sampled_fpl config gets m=2 unless it sets m
    base = dict(learner="sampled_fpl", set=BALL5, adversary=QUAD_ADAPTIVE, T=64, seeds=(0,), fw_budget=256)
    base.update(overrides)
    if base["learner"] == "sampled_fpl":
        base.setdefault("m", 2)
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

    @pytest.mark.parametrize("T, regrets", [
        ([10, 10, 10, 10], [1.0, 2.0, 3.0, 4.0]),
        ([10, 100, 10, 10, 10], [1.0, -2.0, 3.0, 4.0, 5.0]),  # the one other T is dropped with its regret
    ])
    def test_fewer_than_two_distinct_T_is_a_config_error(self, T, regrets):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dropped point's warning
            with pytest.raises(ConfigError, match="2 distinct T"):
                fit_exponent(T, regrets)

    @pytest.mark.parametrize("T", [0, -10, math.inf, -math.inf, math.nan])
    def test_a_nonpositive_or_nonfinite_T_is_a_config_error(self, T):
        with pytest.raises(ConfigError, match="positive and finite"):
            fit_exponent([10, 100, T, 1000, 10_000], [1.0, 2.0, 3.0, 4.0, 5.0])

    @pytest.mark.parametrize("regret", [math.inf, -math.inf, math.nan])
    def test_a_nonfinite_regret_is_a_config_error(self, regret):
        with pytest.raises(ConfigError, match="finite"):
            fit_exponent([10, 100, 1000, 10_000, 100_000], [1.0, 2.0, regret, 4.0, 5.0])


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


_VERTS12 = np.random.default_rng(12).standard_normal((12, 5))
ROUTE_SETS = {
    "ball": BALL5,
    "box": {"kind": "box", "lower": [-1.0, -0.5, 0.0], "upper": [1.0, 2.0, 0.5]},
    "simplex": {"kind": "simplex", "dim": 4, "scale": 1.0},
    "l1_ball": {"kind": "l1_ball", "dim": 4, "radius": 1.5},
    "polytope": {"kind": "polytope", "vertices": (_VERTS12 / np.linalg.norm(_VERTS12, axis=1, keepdims=True)).tolist()},
}
ROUTE_LEARNERS = {
    "sampled_fpl-m1": {"learner": "sampled_fpl", "m": 1},
    "sampled_fpl-m4": {"learner": "sampled_fpl", "m": 4},
    "sampled_fpl-m64": {"learner": "sampled_fpl", "m": 64},
    "ospf-k7": {"learner": "ospf", "k": 7},
    "ospf-auto": {"learner": "ospf", "k": "auto"},
    "sampled_fpl-m8": {"learner": "sampled_fpl", "m": 8},
}
# one round, either side of ospf's k = 7, and past the 4096-row draw cap for every learner
ROUTE_T = (1, 6, 7, 8200)
FIXED_DIRECTION = {"kind": "linear_stochastic", "direction": [0.6, -0.8, 0.0, 0.25, -0.0]}


def route_cases():
    for set_name, set_spec in ROUTE_SETS.items():
        for learner_name, knobs in ROUTE_LEARNERS.items():
            for T in ROUTE_T:
                yield f"{set_name}/{learner_name}/T{T}", ExperimentConfig(
                    set=set_spec, adversary={"kind": "linear_stochastic", "direction_norm": 2.5}, T=T, **knobs)
    for learner_name, knobs in ROUTE_LEARNERS.items():
        for T in (7, 8200):
            yield f"ball-fixed/{learner_name}/T{T}", ExperimentConfig(
                set=BALL5, adversary=FIXED_DIRECTION, T=T, **knobs)


def hand_played(config, seed):
    """A config's game played round by round through act and observe and priced with per-row np.dot.

    Returns the actions, losses, oracle-call column, comparator point and
    value, and the final count of the instrumented set.
    """
    problem = harness._resolve(config)
    set_ = problem.set
    adversary = make_adversary(config.adversary, horizon=config.T, seed=seed,
                               norm_bound=set_.norm_bound, dim=set_.dim)
    oracle = InstrumentedSet(set_)
    learner = harness._make_learner(config, problem, oracle, seed)
    quadratic = adversary.quadratic
    actions, rows, losses, calls = [], [], [], []
    for t in range(1, config.T + 1):
        action = learner.act()
        p = adversary.emit(t)
        g = action - p if quadratic else p
        learner.observe(g)
        adversary.observe(action)
        actions.append(np.array(action))
        rows.append(np.array(p))
        losses.append(0.5 * float(np.dot(g, g)) if quadratic else float(np.dot(p, action)))
        calls.append(oracle.oracle_calls)
    point = best_in_hindsight(np.array(rows), set_, quadratic)
    comparator = [0.5 * float(np.dot(point - p, point - p)) if quadratic else float(np.dot(p, point)) for p in rows]
    value = float(np.cumsum(comparator)[-1])
    return np.array(actions), np.array(losses), np.array(calls), point, value, oracle.oracle_calls


class Overcounting(InstrumentedSet):
    """An instrumented set that counts one call too many per query or batch."""

    def support_argmax(self, y):
        self.oracle_calls += 1
        return super().support_argmax(y)

    def support_argmax_many(self, queries):
        self.oracle_calls += 1
        return super().support_argmax_many(queries)


SEGMENT_SETS = dict(ROUTE_SETS, ball1=BALL1)
SEGMENT_ADVERSARIES = {
    "quadratic_adaptive": QUAD_ADAPTIVE,
    "quadratic_stochastic": {"kind": "quadratic_stochastic", "center_scale": 1.5},
    "linear_adaptive": {"kind": "linear_adaptive", "direction_norm": 2.5},
}


def segment_cases():
    # T = 1 and 5 lie below k = 7; k = 2 and 7 divide 14 but not 5, and 7 does not divide 200. The auto k
    # is 2 at T = 5, 2 (quadratic) or 4 (linear) at 14 and 6 or 14 at 200; at T = 1 it is 1, which the
    # unblocked cases cover, so that case is left out
    for set_name, set_spec in SEGMENT_SETS.items():
        for adversary_name, adversary in SEGMENT_ADVERSARIES.items():
            for k in (2, 7, "auto"):
                for T in (1, 5, 14, 200)[k == "auto":]:
                    yield f"{set_name}/{adversary_name}/k{k}/T{T}", ExperimentConfig(
                        learner="ospf", k=k, set=set_spec, adversary=adversary, T=T)
    for adversary_name, adversary in SEGMENT_ADVERSARIES.items():
        # 2250 refreshes, past the 2048 a draw block holds at k = 2
        yield f"ball/{adversary_name}/k2/T4500", ExperimentConfig(
            learner="ospf", k=2, set=BALL5, adversary=adversary, T=4500)


LOCKSTEP_LEARNERS = {
    "sampled_fpl-m1": {"learner": "sampled_fpl", "m": 1},
    "sampled_fpl-m64": {"learner": "sampled_fpl", "m": 64},
    "sampled_fpl-m8": {"learner": "sampled_fpl", "m": 8},
    "ospf-k1": {"learner": "ospf", "k": 1},
}
LOCKSTEP_SEEDS = (3, 4, 5, 6, 7)
LOCKSTEP_BATCHES = ((3,), (4, 5), LOCKSTEP_SEEDS)


def lockstep_cases():
    # T = 1 and 2 end inside the first draw; a game's last draw is cut short at its last refresh, and at
    # m = 64 (64 refreshes a draw) 65 and 300 take full draws before it
    for set_name, set_spec in SEGMENT_SETS.items():
        for adversary_name, adversary in SEGMENT_ADVERSARIES.items():
            for T in (1, 2, 65, 300):
                yield f"{set_name}/{adversary_name}/sampled_fpl-m4/T{T}", ExperimentConfig(
                    learner="sampled_fpl", m=4, set=set_spec, adversary=adversary, T=T)
    for learner_name, knobs in LOCKSTEP_LEARNERS.items():
        for adversary_name, adversary in SEGMENT_ADVERSARIES.items():
            for T in (65, 300):
                yield f"ball/{adversary_name}/{learner_name}/T{T}", ExperimentConfig(
                    set=BALL5, adversary=adversary, T=T, **knobs)
    # in d = 1 np.add.reduce sums 8 or more samples pairwise, not one by one
    for adversary_name, adversary in SEGMENT_ADVERSARIES.items():
        yield f"ball1/{adversary_name}/sampled_fpl-m64/T65", ExperimentConfig(
            learner="sampled_fpl", m=64, set=BALL1, adversary=adversary, T=65)


def block_of(config):
    """The resolved block length of a config."""
    set_ = set_from_json(config.set)
    adversary = make_adversary(config.adversary, horizon=config.T, seed=0, norm_bound=set_.norm_bound, dim=set_.dim)
    return resolve_block(config, adversary.constants()[1])


def baseline_cases():
    # T = 1 is the start point alone; 65 rounds on every set, and 300 on the ball, against every family
    for set_name, set_spec in SEGMENT_SETS.items():
        for adversary_name, adversary in ENGINE_ADVERSARIES.items():
            for learner in ("ogd", "ofw"):
                for T in (1, 2, 65, 300)[:3 + (set_name == "ball")]:
                    yield f"{set_name}/{adversary_name}/{learner}/T{T}", ExperimentConfig(
                        learner=learner, set=set_spec, adversary=adversary, T=T)


def engine_cases():
    """(key, config, seed batches) of every engine case: fixed streams, blocked and unblocked leaders, baselines.

    Each seed is hand-played once, however many batches it is in. A short
    game plays seed 3 alone and then with seed 4 (the unblocked leaders and
    the baselines play ``LOCKSTEP_BATCHES``). A long game (a few thousand
    rounds, past the draw cap) plays seed 3 alone, except for one case of
    each family, which also plays (3, 4) past the cap.
    """
    batched = ("ball-fixed/sampled_fpl-m64/T8200", "ball/quadratic_adaptive/k2/T4500")
    for key, config in itertools.chain(route_cases(), segment_cases()):
        yield key, config, ((3,),) if config.T > 1000 and key not in batched else ((3,), (3, 4))
    for key, config in itertools.chain(lockstep_cases(), baseline_cases()):
        yield key, config, LOCKSTEP_BATCHES


def refuse(*args):
    raise AssertionError("refused route")


def played_in_batches(config, seeds, monkeypatch):
    """harness._play_games on a batch of seeds with a leader's per-round protocol refused, and the set's final count."""
    sets = []

    class Recorded(InstrumentedSet):
        def __init__(self, inner):
            super().__init__(inner)
            sets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "InstrumentedSet", Recorded)
        patch.setattr(PerturbedLeader, "act", refuse)
        patch.setattr(PerturbedLeader, "observe", refuse)
        traces = list(harness._play_games(config, harness._resolve(config), seeds))
    (oracle,) = sets
    return traces, oracle.oracle_calls


def stepped(leader, adversary, t):
    """One round of act, emit, observe and the adversary's observe; the action and the row."""
    action = leader.act()
    p = adversary.emit(t)
    leader.observe(action - p if adversary.quadratic else p)
    adversary.observe(action)
    return action, p


ENGINE_ADVERSARIES = dict(SEGMENT_ADVERSARIES, linear_stochastic=LIN_STOCH)


class TestLeaderEngine:
    @pytest.mark.parametrize("key,config,batches", list(engine_cases()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_every_seed_equals_act_observe_bit_for_bit(self, key, config, batches, monkeypatch):
        want = {seed: hand_played(config, seed) for seed in sorted(set(sum(batches, ())))}
        budget = expected_budgets(config, block_of(config))[0]
        for seeds in batches:
            traces, counted = played_in_batches(config, seeds, monkeypatch)
            assert counted == len(seeds) * budget
            for seed, trace in zip(seeds, traces, strict=True):
                actions, losses, calls, point, value, alone = want[seed]
                assert trace.seed == seed
                assert trace.actions.tobytes() == actions.tobytes()
                assert trace.losses.tobytes() == losses.tobytes()
                np.testing.assert_array_equal(trace.oracle_calls, calls)
                assert trace.comparator_point.tobytes() == point.tobytes()
                assert repr(trace.comparator_value) == repr(value)
                assert trace.oracle_calls[-1] == alone == budget

    def test_a_zero_mean_in_one_seed_draws_for_that_seed_alone(self, monkeypatch):
        # on a 1-d ball two samples answer +-1, so an action is -1, 0 or 1 and a mean is often exactly 0
        config = ExperimentConfig(learner="sampled_fpl", m=2, set=BALL1,
                                  adversary={"kind": "linear_adaptive", "direction_norm": 2.5}, T=65)
        traces, _ = played_in_batches(config, (0, 1), monkeypatch)
        zero = [np.cumsum(trace.actions[:-1, 0]) == 0 for trace in traces]  # mean before round t + 2 is 0
        assert (zero[0] & ~zero[1]).any() and (zero[1] & ~zero[0]).any()
        for seed, trace in zip((0, 1), traces):
            actions, losses = hand_played(config, seed)[:2]
            assert trace.actions.tobytes() == actions.tobytes()
            assert trace.losses.tobytes() == losses.tobytes()

    @pytest.mark.parametrize("config", [cfg(adversary=LIN_STOCH, T=50, m=1), cfg(learner="ospf", k=5, T=50),
                                        cfg(T=50), cfg(learner="ofw", T=50)],
                             ids=["fixed", "blocked", "unblocked", "ofw"])
    def test_engine_raises_when_the_counter_disagrees(self, config, monkeypatch):
        monkeypatch.setattr(harness, "InstrumentedSet", Overcounting)
        for seeds in ((0,), (0, 1, 2)):
            with pytest.raises(RuntimeError, match="oracle calls counted"):
                harness._play_games(config, harness._resolve(config), seeds)

    def test_every_learner_plays_through_its_play(self, monkeypatch):
        monkeypatch.setattr(PerturbedLeader, "play", refuse)
        monkeypatch.setattr(OnlineLearner, "play", refuse)
        for learner, knobs in (("sampled_fpl", {"m": 2}), ("sampled_fpl", {"m": 4}), ("ospf", {"k": 3}),
                               ("ogd", {}), ("ofw", {})):
            for adversary in ENGINE_ADVERSARIES.values():
                with pytest.raises(AssertionError, match="refused route"):
                    run_game(cfg(learner=learner, adversary=adversary, T=8, **knobs), 0)

    @pytest.mark.parametrize("adversary", list(ENGINE_ADVERSARIES.values()), ids=list(ENGINE_ADVERSARIES))
    @pytest.mark.parametrize("learner", [1, 7, "ogd", "ofw"])  # a perturbed leader's block, or a baseline
    @pytest.mark.parametrize("seeds", [(4,), (4, 5)])
    def test_leaders_end_as_after_the_last_round(self, adversary, learner, seeds):
        set_ = set_from_json(ROUTE_SETS["polytope"])
        spec = adversary

        def make(seed):
            if learner in ("ogd", "ofw"):
                return {"ogd": OGD, "ofw": OFW}[learner](set_, grad_bound=2.5)
            return PerturbedLeader(set_, delta=0.3, samples=3, block=learner, seed=seed)

        def games():
            return ([make(seed) for seed in seeds],
                    [make_adversary(spec, horizon=150, seed=seed - 2, norm_bound=set_.norm_bound,
                                    dim=set_.dim) for seed in seeds])

        (played, played_adversaries), (want, want_adversaries) = games(), games()
        actions, params = type(played[0]).play(played, played_adversaries, 100)  # two rounds into a block of 7
        assert actions.shape == params.shape == (len(seeds), 100, set_.dim)
        assert all(a._seen == 0 for a in played_adversaries)  # the adversaries observe nothing
        for s, (leader, adversary) in enumerate(zip(want, want_adversaries)):
            for t in range(1, 101):
                action, p = stepped(leader, adversary, t)
                assert actions[s, t - 1].tobytes() == action.tobytes() and params[s, t - 1].tobytes() == p.tobytes()
        state = ("_cum_grad", "_x") if learner in ("ogd", "ofw") else ("_cum_grad", "_current")
        for leader, other, adversary in zip(played, want, want_adversaries):
            assert leader.round == other.round == 101
            for name in state:
                assert getattr(leader, name).tobytes() == getattr(other, name).tobytes()
            for t in range(101, 151):  # the played leader goes on with the stepped game's gradients
                action, p = stepped(other, adversary, t)
                assert leader.act().tobytes() == action.tobytes()
                leader.observe(action - p if adversary.quadratic else p)
        with pytest.raises(ProtocolError, match="fresh"):
            type(played[0]).play(played, games()[1], 100)

    @pytest.mark.parametrize("adversary", list(ENGINE_ADVERSARIES.values()), ids=list(ENGINE_ADVERSARIES))
    @pytest.mark.parametrize("samples", [2, 16])  # 2048 or 256 refreshes a full draw
    @pytest.mark.parametrize("block,T", [(1, 700), (3, 2000), (3, 2002)])
    def test_play_draws_no_refresh_past_the_last(self, adversary, samples, block, T, monkeypatch):
        drawn, draw = {4: [], 5: []}, pfol.learners.round_rows

        def recording(stream, rounds, *args, **kwargs):
            drawn[stream.seed].append(list(rounds))
            return draw(stream, rounds, *args, **kwargs)

        monkeypatch.setattr(pfol.learners, "round_rows", recording)
        set_ = set_from_json(BALL2)
        leaders = [PerturbedLeader(set_, delta=0.3, samples=samples, block=block, seed=seed) for seed in (4, 5)]
        adversaries = [make_adversary(adversary, horizon=T, seed=seed, norm_bound=1.0, dim=2) for seed in (4, 5)]
        PerturbedLeader.play(leaders, adversaries, T)
        # each leader draws every refresh round once and in order, up to the last refresh, in full draws from
        # refresh 1 on; only the last draw may be shorter
        refreshes, full = list(range(block, T // block * block + 1, block)), BLOCK_ROWS // samples
        for draws in drawn.values():
            assert sum(draws, []) == refreshes
            assert [len(rounds) for rounds in draws[:-1]] == [full] * (len(draws) - 1)
            assert 0 < len(draws[-1]) <= full
        assert max(len(rounds) for draws in drawn.values() for rounds in draws) >= 256

    @pytest.mark.parametrize("adversary", list(ENGINE_ADVERSARIES.values()), ids=list(ENGINE_ADVERSARIES))
    def test_play_rejects_T_outside_the_horizon(self, adversary):
        set_ = set_from_json(BALL2)
        learners = [PerturbedLeader(set_, delta=0.3, samples=2, block=block, seed=0) for block in (1, 3)]
        learners += [OGD(set_, grad_bound=1.0), OFW(set_, grad_bound=1.0)]
        adversaries = [make_adversary(adversary, horizon=5, seed=0, norm_bound=1.0, dim=2)]
        for learner in learners:
            for T in (0, -1, 6):
                with pytest.raises(ProtocolError, match="horizon"):
                    type(learner).play([learner], adversaries, T)
            assert learner.round == 1 and adversaries[0]._seen == 0 and adversaries[0]._action_sum is None
            assert type(learner).play([learner], adversaries, 5)[0].shape == (1, 5, 2)


class TestRowDots:
    """``row_dots`` must equal per-row ``np.dot``; a numpy whose matmul sums in another order fails here first."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 16, 31, 64])
    def test_equals_per_row_np_dot(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((257, d)) * 10.0 ** rng.integers(-8, 9, (257, d))
        b = rng.standard_normal((257, d)) * 10.0 ** rng.integers(-8, 9, (257, d))
        b[:64] = -a[:64] * (1.0 + 2.0 ** -40)  # large entries that cancel
        a[64:72], b[72:80] = 0.0, -0.0  # signed zeros, kept by np.dot at d = 1
        b[80:88] = -b[80:88]
        for left, right in ((a, b), (a, a), (b, a)):
            want = np.array([np.dot(x, y) for x, y in zip(left, right)])
            assert row_dots(left, right).tobytes() == want.tobytes()
            # the comparator row, broadcast against every row
            want = np.array([np.dot(x, right[3]) for x in left])
            assert row_dots(left, right[3]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 5])
    def test_memory_layout_does_not_change_the_bits(self, d):
        rng = np.random.default_rng(20 + d)
        a = rng.standard_normal((2000, d))
        b = rng.standard_normal((2000, d))
        want = np.array([np.dot(x, y) for x, y in zip(a, b)])
        assert row_dots(a, b).tobytes() == want.tobytes()
        wide_a, wide_b = np.zeros((2000, 2 * d)), np.zeros((2000, 2 * d))
        wide_a[:, ::2], wide_b[:, ::2] = a, b
        for left, right in ((np.asfortranarray(a), np.asfortranarray(b)), (wide_a[:, ::2], wide_b[:, ::2]),
                            (np.asfortranarray(a), b), (a, wide_b[:, ::2])):
            if d > 1:
                assert not (left.flags.c_contiguous and right.flags.c_contiguous)
            assert row_dots(left, right).tobytes() == want.tobytes()


    @pytest.mark.parametrize("d", [1, 5, 16])
    def test_square_root_equals_per_row_linalg_norm(self, d):
        # linear_adaptive's segment norms; running means built from a broadcast block come out F-ordered
        rng = np.random.default_rng(40 + d)
        start, x = rng.standard_normal(d), rng.standard_normal(d)
        means = np.cumsum(np.concatenate([start[None], np.broadcast_to(x, (300, d))]), axis=0) / np.arange(1, 302)[:, None]
        means[::50] = 0.0
        assert means.flags.c_contiguous == (d == 1)
        rows = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-100, 100, (300, d))
        rows[:20], rows[20:25] = 0.0, -0.0
        for m in (means, rows, np.asfortranarray(rows)):
            want = np.array([np.linalg.norm(row) for row in m])
            assert np.sqrt(row_dots(m, m)).tobytes() == want.tobytes()


class TestRunExperimentAndSweep:
    def test_budget_bookkeeping_matches_expected(self):
        for learner, kw in [("sampled_fpl", {"m": 3}), ("ospf", {"k": 4}),
                            ("ofw", {}), ("ogd", {}),
                            ("sampled_fpl", {"m": 5})]:
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

    @pytest.mark.parametrize("m", [2, 8])  # 12 and 48 words a round: a narrow and a wide draw
    def test_parallel_equals_serial(self, m):
        config = cfg(T=32, seeds=(0, 1, 2, 3), m=m)
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

    @pytest.mark.parametrize("m", [2, 8])  # a narrow and a wide draw
    @pytest.mark.parametrize("count", [3, harness.LOCKSTEP_CAP, 2 * harness.LOCKSTEP_CAP + 1])
    def test_lockstep_batches_do_not_change_the_results(self, count, m):
        # seed counts below, at and above the cap on a lockstep batch, cut differently for each jobs value
        config = cfg(T=16, seeds=tuple(range(count)), m=m)
        alone = {T: tuple(run_game(replace(config, T=T), seed).final_regret for seed in config.seeds) for T in (8, 16)}
        for jobs in (1, 2, 3):
            assert run_experiment(config, jobs=jobs).final_regrets == alone[16]
            assert [s.final_regrets for s in sweep(config, {"T": [16, 8]}, jobs=jobs)] == [alone[16], alone[8]]

    @pytest.mark.parametrize("seeds, cells, jobs, T, sizes", [
        (3, 3, 2, 8, [3, 3, 3]),  # the benchmark's sweep: one batch a cell
        (200, 1, 2, 8, [16] * 5 + [15] * 8),  # criterion 8: 13 batches
        (50, 1, 2, 8, [13, 13, 12, 12]),
        (3, 1, 4, 8, [1, 1, 1]),  # no more batches than seeds
        (16, 1, 1, 8, [16]),
        (17, 1, 1, 8, [9, 8]),
        (16, 1, 1, 2**17, [6, 5, 5]),  # 16 * 2^17 * 5 values is 2.5 times LOCKSTEP_VALUES
        (2, 1, 1, 2**20, [1, 1]),
    ])
    def test_lockstep_cells_are_cut_into_near_equal_batches(self, seeds, cells, jobs, T, sizes, monkeypatch):
        played = []

        def play(config, problem, batch):
            played.append(batch)
            return [(None, "not played", 0.0)] * len(batch)

        monkeypatch.setattr(harness, "_play", play)
        config = cfg(T=T, seeds=tuple(range(seeds)))
        problem = harness._resolve(config)
        with monkeypatch.context() as patch:
            patch.setattr("multiprocessing.get_all_start_methods", lambda: [])  # serial, so that play records
            harness._play_all([(replace(config, T=T + i), problem) for i in range(cells)], jobs)
        assert [len(batch) for batch in played] == sizes
        assert sorted(sum(played, ())) == sorted(list(range(seeds)) * cells)

    @pytest.mark.parametrize("seeds, jobs, T", [(3, 1, 8), (3, 2, 8), (17, 1, 8), (40, 3, 8), (16, 1, 2**17)])
    def test_baselines_are_cut_like_leaders(self, seeds, jobs, T, monkeypatch):
        played = []
        monkeypatch.setattr(harness, "_play",
                            lambda config, problem, batch: played.append(batch) or [(None, "", 0.0)] * len(batch))
        monkeypatch.setattr("multiprocessing.get_all_start_methods", lambda: [])  # serial, so that _play records
        cuts = []
        for knobs in ({}, {"learner": "ospf", "k": 2}, {"adversary": LIN_STOCH}, {"learner": "ofw"}, {"learner": "ogd"}):
            config = cfg(T=T, seeds=tuple(range(seeds)), **knobs)
            harness._play_all([(config, harness._resolve(config))], jobs)
            cuts.append(played[:])
            played.clear()
        assert all(cut == cuts[0] for cut in cuts)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_seed_in_a_batch_is_reported_alone(self, jobs, monkeypatch):
        make = harness._make_learner

        def failing(config, problem, oracle, seed):
            if seed == 5:
                raise RuntimeError("seed five fails")
            return make(config, problem, oracle, seed)

        monkeypatch.setattr(harness, "_make_learner", failing)
        for learner in ("sampled_fpl", "ogd"):
            config = cfg(learner=learner, T=16, seeds=tuple(range(20)))
            summary = run_experiment(config, jobs=jobs)
            assert summary.errors == ("seed 5: RuntimeError: seed five fails",)
            assert summary.seeds == tuple(seed for seed in range(20) if seed != 5)
            assert summary.final_regrets == tuple(run_game(config, seed).final_regret for seed in summary.seeds)
            assert summary.wall_clock_s > 0
            (cell,) = sweep(config, {"T": [16]}, jobs=jobs)
            assert cell.errors == summary.errors and cell.final_regrets == summary.final_regrets

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
        # the first cell's adversary has a negative direction_norm, which make_adversary rejects
        template = cfg(learner="ogd", T=8,
                       set={"kind": "polytope", "vertices": [[0.0, 0.0], [1.0, 0.0]]},
                       adversary={"kind": "linear_stochastic", "direction_norm": 1.0})
        bad = dict(template.adversary, direction_norm=-1.0)
        out = sweep(template, {"adversary": [bad, template.adversary]})
        assert len(out) == 2
        assert out[0].errors and not out[0].final_regrets
        assert not out[1].errors and out[1].final_regrets

    @pytest.mark.parametrize("values", [5, "abc"])
    def test_sweep_rejects_a_vary_value_that_is_not_a_list(self, values):
        with pytest.raises(ConfigError, match="must be a list"):
            sweep(cfg(learner="ospf", set=BALL2, T=8), {"T": values})

    def test_sweep_rejects_a_vary_key_that_is_not_a_config_field(self):
        with pytest.raises(ConfigError, match="unknown config field 'TT'"):
            sweep(cfg(learner="ospf", set=BALL2, T=8), {"TT": [8, 16]})

    @pytest.mark.parametrize("bad", ["x", None])
    def test_sweep_records_a_bad_T_and_plays_the_rest(self, bad):
        out = sweep(cfg(learner="ospf", set=BALL2, T=8, seeds=(0, 1)), {"T": [4, bad]})
        assert [s.T for s in out] == [4, bad]
        assert out[0].final_regrets and not out[0].errors
        assert not out[1].final_regrets and "T must be an integer" in out[1].errors[0]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_config_error(self, jobs):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            sweep(cfg(T=8), {"T": [8]}, jobs=jobs)
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            run_experiment(cfg(T=8), jobs=jobs)

    def test_bound_check_passes_at_moderate_scale(self):
        config = cfg(T=256, m=8, seeds=tuple(range(5)), fw_budget=2560)
        report = bound_check(config, jobs=1)
        assert report["pass"]
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

    def test_checks_pass_at_the_bound_and_fail_above_it(self, monkeypatch):
        # both checks pass exactly when regret <= bound; pin the bound to the measured regret
        config = cfg(T=64, m=4, seeds=tuple(range(4)))
        summary = run_experiment(config)
        quantile = float(np.quantile(summary.final_regrets, 0.75))
        for regret, attr, check in (
            (summary.mean_regret, "_expected_bound", lambda: bound_check(config)),
            (quantile, "high_probability_bound", lambda: quantile_check(summary, 0.25, config)),
        ):
            for bound, want in ((regret, True), (np.nextafter(regret, -np.inf), False)):
                monkeypatch.setattr(harness, attr, lambda *args, bound=bound: bound)
                report = check()
                assert report["bound"] == bound and report["pass"] is want

    def test_sigma_validation(self):
        config = cfg(T=8)
        summary = run_experiment(config)
        with pytest.raises(ConfigError):
            quantile_check(summary, 0.0, config)

    @pytest.mark.parametrize("check,match", [
        (lambda config: high_probability_bound(config, 0.0), r"sigma must lie in \(0, 1\]"),
        (lambda config: high_probability_bound(config, 1.5), r"sigma must lie in \(0, 1\]"),
        (lambda config: high_probability_bound(config, float("nan")), r"sigma must lie in \(0, 1\]"),
        (lambda config: bound_check(config), "all runs failed"),
        (lambda config: quantile_check(run_experiment(config), 0.5, config), "no successful runs"),
        (lambda config: ExperimentConfig.from_json([config.to_json()]), "config must be a JSON object"),
    ], ids=["sigma_0", "sigma_1.5", "sigma_nan", "bound_check", "quantile_check", "from_json_list"])
    def test_bad_input_and_all_seeds_failing_are_config_errors(self, monkeypatch, check, match):
        def fail(cls, leaders, adversaries, T):
            raise FloatingPointError("no game plays")

        monkeypatch.setattr(PerturbedLeader, "play", classmethod(fail))
        config = cfg(T=8, seeds=(0, 1))
        summary = run_experiment(config)  # every seed fails: the summary holds its errors and nothing else
        assert summary.seeds == () and summary.final_regrets == () and math.isnan(summary.mean_regret)
        assert summary.quantiles == {} and summary.theoretical_bound is None
        assert summary.errors == ("seed 0: FloatingPointError: no game plays",
                                  "seed 1: FloatingPointError: no game plays")
        with pytest.raises(ConfigError, match=match):
            check(config)


class TestConfigHandling:
    def test_from_json_round_trip(self):
        for config in (cfg(T=12, m=3, delta=0.5), cfg(learner="ospf", T=12, k=2, delta=0.5)):
            clone = ExperimentConfig.from_json(config.to_json())
            assert clone == config

    def test_config_hash_is_pinned(self):
        # the JSON of every field, defaults included; a schema change moves these hashes
        full = ExperimentConfig(learner="ospf", set={"kind": "polytope", "vertices": DIAMOND["vertices"][:3]},
                                adversary={"kind": "quadratic_stochastic", "center_scale": 0.5},
                                T=100, k="auto", delta=0.25, seeds=(4, 1, 7), fw_budget=32)
        full.validate()
        assert config_hash(full) == "fb4573d1c9b3"
        assert config_hash(cfg(set=BALL5, adversary={"kind": "linear_stochastic"}, m=1, fw_budget=None)) \
            == "8704cbb662a0"

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_json({"learner": "sampled_fpl"})

    def test_unknown_fields_rejected(self):
        bad = cfg().to_json()
        bad["horizon"] = 10
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_json(bad)

    def test_vary_is_not_a_config_field(self):
        # a sweep's grid belongs to sweep(); from_json would otherwise run the template alone
        spec = dict(cfg().to_json(), vary={"T": [8, 16]})
        with pytest.raises(ConfigError, match=r"unknown config fields: \['vary'\]"):
            ExperimentConfig.from_json(spec)

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

    @pytest.mark.parametrize("seeds,pair", [
        ((0, 2**64, 5, 5, -1, 2**64 - 1), "0 and 18446744073709551616"),
        ((3, 5, 5), "5 and 5"),
        ((-1, 7, 2**64 - 1), "-1 and 18446744073709551615"),
    ])
    def test_seeds_equal_modulo_2_64_are_rejected(self, seeds, pair):
        # a seed keys its streams modulo 2^64, so such seeds play one game, which the summary would count twice
        seed, alias = (run_game(cfg(T=8), s).actions.tobytes() for s in (seeds[-1], seeds[-1] % 2**64))
        assert seed == alias
        config = cfg(T=8, seeds=seeds)
        for call in (config.validate, lambda: run_experiment(config)):
            with pytest.raises(ConfigError, match=rf"seeds {pair} are equal modulo 2\^64"):
                call()
        assert len(run_experiment(cfg(T=8, seeds=(0, 2**64 + 1, -2, 2**64 - 1))).final_regrets) == 4

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
