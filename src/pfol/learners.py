"""Online learners driven by linear-optimization oracles.

The perturbed-leader family shares one primitive: draw uniform unit-ball
perturbations v, scale them by 1/delta, and average the oracle answers at
(-cumulative_gradient + v/delta). Per-round randomness comes from a
substream keyed by (seed, round), so trajectories replay bit-identically and
the amount of randomness one round consumes never shifts any other round.

Learners follow a strict act/observe protocol: ``act`` returns the action
for the current round, ``observe`` feeds back the revealed loss (exactly one
gradient evaluation) and advances the round. InstrumentedSet and
InstrumentedLoss count oracle calls and gradient evaluations so the
per-iteration budgets can be asserted exactly.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .errors import ConfigError, ProtocolError
from .losses import LossFunction
from .rng import LEARNER_STREAM, RoundStream
from .sets import FeasibleSet, euclidean_project, linear_argmax, sample_unit_ball_batch

__all__ = [
    "OnlineLearner",
    "SampledFPL",
    "OSPF",
    "ExpectedFPLMC",
    "OGD",
    "OFW",
    "InstrumentedSet",
    "InstrumentedLoss",
    "GradientCounter",
    "perturbed_leader_points",
    "default_delta",
    "blocking_delta",
    "blocking_params",
]


def default_delta(grad_bound: float, dim: int, horizon: int) -> float:
    """Perturbation scale 2 / (G * sqrt(d*T)) balancing bias against drift."""
    if not (grad_bound > 0 and dim >= 1 and horizon >= 1):
        raise ConfigError("default_delta needs G > 0, d >= 1, T >= 1")
    return 2.0 / (grad_bound * math.sqrt(dim * horizon))


def blocking_delta(grad_bound: float, dim: int, blocks: int, block_len: int) -> float:
    """Perturbation scale 2 / (G * sqrt(d) * sqrt(n) * k) for the blocked game."""
    if not (grad_bound > 0 and dim >= 1 and blocks >= 1 and block_len >= 1):
        raise ConfigError("blocking_delta needs G > 0, d >= 1, n >= 1, k >= 1")
    return 2.0 / (grad_bound * math.sqrt(dim) * math.sqrt(blocks) * block_len)


def blocking_params(horizon: int, mode: str = "smooth") -> tuple[int, int]:
    """Block count n and block length k for a horizon T, with n*k >= T.

    smooth mode: k ~ T^(1/3), n ~ T^(2/3); general mode: k ~ n ~ sqrt(T).
    The final block may be partial when k does not divide T.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if mode == "smooth":
        k = max(1, round(horizon ** (1.0 / 3.0)))
    elif mode == "general":
        k = max(1, round(math.sqrt(horizon)))
    else:
        raise ConfigError(f"unknown blocking mode {mode!r}; use 'smooth' or 'general'")
    n = math.ceil(horizon / k)
    return n, k


def perturbed_leader_points(set_, cum_grad: np.ndarray, delta: float,
                            count: int, rng: np.random.Generator) -> np.ndarray:
    """count oracle answers at (-cum_grad + v/delta), v uniform on the unit ball."""
    v = sample_unit_ball_batch(rng, count, set_.dim)
    return set_.support_argmax_many(v / delta - cum_grad)


class OnlineLearner(abc.ABC):
    """Strictly alternating act/observe protocol over one game run."""

    name: str

    def __init__(self, set_: FeasibleSet):
        self._set = set_
        self.round = 1
        self._awaiting_loss = False
        self._last_action: np.ndarray | None = None

    def act(self, set_=None) -> np.ndarray:
        """Action for the current round; pass an instrumented set to count calls."""
        if self._awaiting_loss:
            raise ProtocolError(f"act called twice in round {self.round}")
        action = self._act(self._set if set_ is None else set_)
        self._last_action = action
        self._awaiting_loss = True
        return action

    def observe(self, loss: LossFunction) -> None:
        """Reveal the round's loss; exactly one gradient evaluation."""
        if not self._awaiting_loss:
            raise ProtocolError(f"observe called before act in round {self.round}")
        self._observe(loss)
        self.round += 1
        self._awaiting_loss = False

    @abc.abstractmethod
    def _act(self, set_) -> np.ndarray:
        ...

    @abc.abstractmethod
    def _observe(self, loss: LossFunction) -> None:
        ...


class SampledFPL(OnlineLearner):
    """Follow-the-perturbed-leader with an m-sample empirical average.

    Each round draws m fresh ball perturbations, asks the oracle at
    (-cumulative_gradient + v/delta) for each, and plays their average
    (a convex combination, hence feasible). Exactly m oracle calls per round.
    """

    name = "sampled_fpl"

    def __init__(self, set_: FeasibleSet, *, delta: float, samples: int = 1, seed: int = 0):
        super().__init__(set_)
        if not delta > 0:
            raise ConfigError("delta must be positive")
        if samples < 1:
            raise ConfigError("samples must be >= 1")
        self.delta = float(delta)
        self.samples = int(samples)
        self.seed = int(seed)
        self._rounds = RoundStream(self.seed, LEARNER_STREAM)
        self._cum_grad = np.zeros(set_.dim)

    def _act(self, set_):
        rng = self._rounds.at(self.round)
        points = perturbed_leader_points(set_, self._cum_grad, self.delta, self.samples, rng)
        return points.mean(axis=0)

    def _observe(self, loss):
        self._cum_grad += loss.gradient(self._last_action)


class ExpectedFPLMC(SampledFPL):
    """Monte-Carlo stand-in for the exact expected-perturbed-leader play.

    The idealized learner plays E_v[oracle(-cum_grad + v/delta)] exactly; that
    expectation has no closed form, so this reference learner approximates it
    with ``eval_samples`` oracle calls per round (default 10^4). Useful for
    comparison runs; its regret is never asserted against a bound.
    """

    name = "expected_fpl_mc"

    def __init__(self, set_: FeasibleSet, *, delta: float, eval_samples: int = 10_000, seed: int = 0):
        super().__init__(set_, delta=delta, samples=eval_samples, seed=seed)


class OSPF(OnlineLearner):
    """Blocked perturbed leader: refresh the action once every k rounds.

    Off-boundary rounds replay the previous action with zero oracle calls; at
    rounds divisible by k the learner draws k perturbations and plays the
    average of the k oracle answers, so oracle cost is amortized one call per
    round. Before the first boundary it plays the oracle answer on the first
    basis direction, fixed for determinism and asked for on the first round;
    a game thus makes k * floor(T/k) calls, plus one for k > 1.
    """

    name = "ospf"

    def __init__(self, set_: FeasibleSet, *, delta: float, block: int = 1, seed: int = 0):
        super().__init__(set_)
        if not delta > 0:
            raise ConfigError("delta must be positive")
        if block < 1:
            raise ConfigError("block must be >= 1")
        self.delta = float(delta)
        self.block = int(block)
        self.seed = int(seed)
        self._rounds = RoundStream(self.seed, LEARNER_STREAM)
        self._cum_grad = np.zeros(set_.dim)
        self._current: np.ndarray | None = None

    def _act(self, set_):
        if self.round % self.block == 0:
            rng = self._rounds.at(self.round)
            points = perturbed_leader_points(set_, self._cum_grad, self.delta, self.block, rng)
            self._current = points.mean(axis=0)
        elif self._current is None:
            self._current = linear_argmax(set_, np.eye(set_.dim)[0])
        return self._current

    def _observe(self, loss):
        self._cum_grad += loss.gradient(self._last_action)


class OGD(OnlineLearner):
    """Projected online gradient descent baseline with step D / (G * sqrt(t)).

    Projection-based, so it needs a set kind that supports Euclidean
    projection; it makes no oracle calls and serves as the regret yardstick.
    """

    name = "ogd"

    def __init__(self, set_: FeasibleSet, *, grad_bound: float, seed: int = 0):
        super().__init__(set_)
        if not grad_bound > 0:
            raise ConfigError("grad_bound must be positive")
        self.grad_bound = float(grad_bound)
        self._x = euclidean_project(set_, np.zeros(set_.dim))

    def _act(self, set_):
        return self._x

    def _observe(self, loss):
        g = loss.gradient(self._last_action)
        eta = self._set.norm_bound / (self.grad_bound * math.sqrt(self.round))
        self._x = self._set.project(self._x - eta * g)


class OFW(OnlineLearner):
    """Online Frank-Wolfe baseline: one oracle call per round.

    Plays the conditional-gradient update x <- x + sigma_t (v - x) with
    sigma_t = min(1, 2/sqrt(t)), where v is the oracle answer on the negated
    gradient of a running surrogate: the averaged observed gradients plus a
    quadratic pull toward the starting point with weight ``reg_scale``
    (default G / (2D)). The starting point is the oracle answer on the first
    basis direction, asked for on the first round, so a game makes T + 1
    calls. Baseline-only internals; nothing downstream asserts a bound for it.
    """

    name = "ofw"

    def __init__(self, set_: FeasibleSet, *, grad_bound: float,
                 reg_scale: float | None = None, seed: int = 0):
        super().__init__(set_)
        if not grad_bound > 0:
            raise ConfigError("grad_bound must be positive")
        self.grad_bound = float(grad_bound)
        if reg_scale is None:
            reg_scale = grad_bound / (2.0 * set_.norm_bound)
        self.reg_scale = float(reg_scale)
        self._anchor: np.ndarray | None = None
        self._cum_grad = np.zeros(set_.dim)

    def _act(self, set_):
        if self._anchor is None:
            self._anchor = self._x = linear_argmax(set_, np.eye(set_.dim)[0])
        t = self.round
        surrogate_grad = self._cum_grad / t + 2.0 * self.reg_scale * (self._x - self._anchor)
        v = set_.support_argmax(-surrogate_grad)
        sigma = min(1.0, 2.0 / math.sqrt(t))
        self._x = self._x + sigma * (v - self._x)
        return self._x

    def _observe(self, loss):
        self._cum_grad += loss.gradient(self._last_action)


# ---------------------------------------------------------------------------
# budget instrumentation
# ---------------------------------------------------------------------------


class InstrumentedSet:
    """Set proxy counting every linear-optimization call routed through it."""

    def __init__(self, inner: FeasibleSet):
        self.inner = inner
        self.oracle_calls = 0

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def norm_bound(self) -> float:
        return self.inner.norm_bound

    def support_argmax(self, y):
        self.oracle_calls += 1
        return self.inner.support_argmax(y)

    def support_argmax_many(self, queries):
        self.oracle_calls += int(len(queries))
        return self.inner.support_argmax_many(queries)

    def project(self, x):
        # projections are not oracle calls in this accounting
        return self.inner.project(x)


class GradientCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class InstrumentedLoss:
    """Loss proxy counting gradient evaluations and caching the last one."""

    __slots__ = ("inner", "counter", "last_gradient")

    def __init__(self, inner: LossFunction, counter: GradientCounter):
        self.inner = inner
        self.counter = counter
        self.last_gradient: np.ndarray | None = None

    def gradient(self, x):
        self.counter.count += 1
        g = self.inner.gradient(x)
        self.last_gradient = g
        return g

    def evaluate(self, x):
        return self.inner.evaluate(x)

    @property
    def grad_bound(self):
        return self.inner.grad_bound

    @property
    def smoothness(self):
        return self.inner.smoothness
