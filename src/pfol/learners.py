"""Online learners driven by linear-optimization oracles.

One class, ``PerturbedLeader(samples, block)``, is the perturbed-leader
family: draw uniform unit-ball perturbations v, scale them by 1/delta, and
average the oracle answers at (-cumulative_gradient + v/delta), refreshing
the action every ``block`` rounds from ``samples`` answers. The config
learners map onto it: ``sampled_fpl`` is (m, 1), the Monte-Carlo expected
play ``expected_fpl_mc`` is (eval_samples, 1) and the blocked ``ospf`` is
(k, k), FPL played on ceil(T/k) block losses. Per-round randomness comes
from a substream keyed by (seed, round), so trajectories replay
bit-identically and the amount of randomness one round consumes never
shifts any other round.

Perturbations never depend on the losses, so they are drawn ahead: one
``round_rows`` call fills the next r refresh rounds, each round's rows from
that round's own substream, with r the number of refreshes so far (at least
1, at most BLOCK_ROWS // samples), so draws double up to the cap. Round t's
perturbations are therefore the same bits whatever the sample count, the
draw length or the rounds drawn before it, and every trace replays as if
each round had been drawn alone. A game draws at most one block past T.

Learners follow a strict act/observe protocol: ``act`` returns the action
for the current round, ``observe`` feeds back the gradient of the revealed
loss at that action and advances the round. The game engine evaluates that
gradient once per round and counts it, and builds each learner on an
InstrumentedSet that counts its oracle calls, so the per-iteration budgets
can be asserted exactly.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .errors import ConfigError, ProtocolError
from .rng import LEARNER_STREAM, RoundStream
from .sets import FeasibleSet, euclidean_project, linear_argmax, round_rows, sample_unit_ball_batch

__all__ = [
    "OnlineLearner",
    "PerturbedLeader",
    "OGD",
    "OFW",
    "InstrumentedSet",
    "perturbed_leader_points",
    "default_delta",
    "blocking_delta",
    "blocking_params",
]

BLOCK_ROWS = 4096  # cap on the perturbation rows PerturbedLeader draws ahead at once


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
    """Strictly alternating act/observe protocol over one game run.

    A learner asks its oracle questions of the set it is built on; build it on
    an ``InstrumentedSet`` to count them. By default a learner keeps the
    running sum of observed gradients.
    """

    def __init__(self, set_: FeasibleSet):
        self._set = set_
        self.round = 1
        self._awaiting_loss = False
        self._cum_grad = np.zeros(set_.dim)

    def act(self) -> np.ndarray:
        """Action for the current round."""
        if self._awaiting_loss:
            raise ProtocolError(f"act called twice in round {self.round}")
        action = self._act()
        self._awaiting_loss = True
        return action

    def observe(self, gradient: np.ndarray) -> None:
        """Reveal the gradient of the round's loss at the action played."""
        if not self._awaiting_loss:
            raise ProtocolError(f"observe called before act in round {self.round}")
        self._observe(gradient)
        self.round += 1
        self._awaiting_loss = False

    @abc.abstractmethod
    def _act(self) -> np.ndarray:
        ...

    def _observe(self, gradient: np.ndarray) -> None:
        self._cum_grad += gradient


class PerturbedLeader(OnlineLearner):
    """Follow-the-perturbed-leader refreshed every ``block`` rounds from ``samples`` oracle answers.

    At each round t divisible by ``block`` the learner asks the oracle at
    (-cumulative_gradient + v/delta) for ``samples`` fresh ball perturbations
    v and plays their average (a convex combination, hence feasible); every
    other round replays the current action with no oracle call. Before the
    first refresh (block > 1 only) it plays the oracle answer on the first
    basis direction, asked for on the first round. A game thus makes
    samples * floor(T/block) calls, plus one for block > 1. Round t's
    perturbations are ``perturbed_leader_points``' draws from round t's
    substream, drawn ahead in blocks (see the module docstring).
    """

    def __init__(self, set_: FeasibleSet, *, delta: float, samples: int = 1, block: int = 1, seed: int = 0):
        super().__init__(set_)
        if not delta > 0:
            raise ConfigError("delta must be positive")
        if samples < 1:
            raise ConfigError("samples must be >= 1")
        if block < 1:
            raise ConfigError("block must be >= 1")
        self.delta = float(delta)
        self.samples = int(samples)
        self.block = int(block)
        self.seed = int(seed)
        self._rounds = RoundStream(self.seed, LEARNER_STREAM)
        self._rows = np.empty((0, self.samples, set_.dim))  # v/delta rows of refreshes _first, _first+1, ...
        self._first = 1
        self._current: np.ndarray | None = None

    def _act(self):
        refresh, offset = divmod(self.round, self.block)
        if offset:
            if self._current is None:
                self._current = linear_argmax(self._set, np.eye(self._set.dim)[0])
            return self._current
        i = refresh - self._first
        if i == len(self._rows):  # rows used up: draw as many refreshes as so far, up to the cap
            count = min(max(1, refresh - 1), max(1, BLOCK_ROWS // self.samples))
            rounds = range(self.round, self.round + count * self.block, self.block)
            rows = round_rows(self._rounds, rounds, self.samples, self._set.dim, ball=True)
            self._rows, self._first, i = rows / self.delta, refresh, 0
        points = self._set.support_argmax_many(self._rows[i] - self._cum_grad)
        self._current = points.sum(axis=0) / self.samples  # np.mean's arithmetic, without its per-call overhead
        return self._current


class OGD(OnlineLearner):
    """Projected online gradient descent baseline with step D / (G * sqrt(t)).

    Projection-based: it makes no oracle calls (on a polytope the projection
    asks the set's own oracle, which the instrumented set does not count) and
    serves as the regret yardstick.
    """

    def __init__(self, set_: FeasibleSet, *, grad_bound: float, seed: int = 0):
        super().__init__(set_)
        if not grad_bound > 0:
            raise ConfigError("grad_bound must be positive")
        self.grad_bound = float(grad_bound)
        self._x = euclidean_project(set_, np.zeros(set_.dim))

    def _act(self):
        return self._x

    def _observe(self, gradient):
        eta = self._set.norm_bound / (self.grad_bound * math.sqrt(self.round))
        self._x = self._set.project(self._x - eta * gradient)


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

    def _act(self):
        if self._anchor is None:
            self._anchor = self._x = linear_argmax(self._set, np.eye(self._set.dim)[0])
        t = self.round
        surrogate_grad = self._cum_grad / t + 2.0 * self.reg_scale * (self._x - self._anchor)
        v = self._set.support_argmax(-surrogate_grad)
        sigma = min(1.0, 2.0 / math.sqrt(t))
        self._x = self._x + sigma * (v - self._x)
        return self._x


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

