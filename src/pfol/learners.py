"""Online learners driven by linear-optimization oracles.

One class, ``PerturbedLeader(samples, block)``, is the perturbed-leader
family: draw uniform unit-ball perturbations v, scale them by 1/delta, and
average the oracle answers at (-cumulative_gradient + v/delta), refreshing
the action every ``block`` rounds from ``samples`` answers. The config
learners map onto it: ``sampled_fpl`` is (m, 1), with a large m a
Monte-Carlo estimate of the expected leader, and the blocked ``ospf`` is
(k, k), FPL played on ceil(T/k) block losses. Per-round randomness comes
from words keyed by (seed, round), so trajectories replay bit-identically
and the amount of randomness one round consumes never shifts any other
round.

Perturbations never depend on the losses, so ``play`` draws them ahead:
one ``round_rows`` call fills the next r = BLOCK_ROWS // samples (at least
1) refresh rounds, each round's rows from that round's own words, from the
first refresh on and no refresh past the game's last. ``act`` draws only
the refresh it plays, through the same ``round_rows``. A round's draws
never depend on the call that draws it (``pfol.rng`` says which words they
read), so every trace replays as if each round had been drawn alone.

Learners follow a strict act/observe protocol: ``act`` returns the action
for the current round, ``observe`` feeds back the gradient of the revealed
loss at that action and advances the round. The game engine evaluates that
gradient once per round and counts it, and builds each learner on an
InstrumentedSet that counts its oracle calls, so the per-iteration budgets
can be asserted exactly.

Every learner class plays the games of S seeds side by side through its
``play(learners, adversaries, T)``, each game bit for bit its game of
``act`` and ``observe``. The base ``OnlineLearner.play``, which the
baselines ``OGD`` and ``OFW`` use, has every learner act and observe each
round; the rows come from the adversaries' tables or from one
``emit_lockstep`` of all S games. ``PerturbedLeader.play`` steps from
refresh to refresh without the per-round protocol. Against gradients fixed
before the game (``linear_stochastic`` tables) a refresh reads only its
perturbations and the sum of the earlier gradients, so every refresh of a
draw block is one oracle batch through the same refresh step
(``_refresh``) as ``act``. Against any other stream each refresh is one
oracle batch of every seed's samples, followed by the rounds of its
constant-action segment: ``block`` rounds whose rows come from the tables
or from ``emit_lockstep``, and whose gradients are added in ``observe``'s
order. An unblocked leader's segments are single rounds.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .adversaries import emit_lockstep
from .errors import ConfigError, ProtocolError
from .rng import LEARNER_STREAM, RoundStream, round_rows
from .sets import FeasibleSet, euclidean_project, linear_argmax, sample_unit_ball_batch

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

BLOCK_ROWS = 4096  # cap on the perturbation rows PerturbedLeader.play draws ahead at once


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

    @classmethod
    def play(cls, learners, adversaries, T: int) -> tuple[np.ndarray, np.ndarray]:
        """(S, T, d) actions and parameter rows of S games, one per fresh learner and adversary, side by side.

        Game s is T rounds of ``learners[s].act``, ``adversaries[s].emit``,
        ``observe`` and ``adversaries[s].observe``: each round every learner
        acts and observes the gradient at its action. The adversaries share
        one family, and their rows come from their tables or from one
        ``emit_lockstep`` of all S games. The learners end as after round T;
        the adversaries observe nothing.
        """
        params = _game_rows(learners, adversaries, T)
        adaptive, quadratic = adversaries[0].adaptive, adversaries[0].quadratic
        actions, sums = np.empty(params.shape), None
        for t in range(1, T + 1):
            x = actions[:, t - 1] = np.array([learner.act() for learner in learners])
            if adaptive:
                params[:, t - 1:t], sums = emit_lockstep(adversaries, t, 1, x, sums)
            p = params[:, t - 1]
            for learner, gradient in zip(learners, x - p if quadratic else p):
                learner.observe(gradient)
        return actions, params


def _game_rows(learners, adversaries, T: int) -> np.ndarray:
    """The (S, T, d) parameter rows that ``play`` returns: the adversaries' tables, or an array for it to fill.

    Raises ProtocolError unless every learner is fresh and 1 <= T <= the
    adversaries' horizon.
    """
    if any(learner.round != 1 or learner._awaiting_loss for learner in learners):
        raise ProtocolError("play needs fresh learners")
    adversary = adversaries[0]
    if not 1 <= T <= adversary.horizon:
        raise ProtocolError(f"play needs 1 <= T <= {adversary.horizon}, the adversaries' horizon, not T={T}")
    if adversary.adaptive:
        return np.empty((len(learners), T, learners[0]._set.dim))
    # a single game reads its table in place
    return adversary.table()[None, :T] if len(adversaries) == 1 else np.stack([a.table()[:T] for a in adversaries])


class PerturbedLeader(OnlineLearner):
    """Follow-the-perturbed-leader refreshed every ``block`` rounds from ``samples`` oracle answers.

    At each round t divisible by ``block`` the learner asks the oracle at
    (-cumulative_gradient + v/delta) for ``samples`` fresh ball perturbations
    v and plays their average (a convex combination, hence feasible); every
    other round replays the current action with no oracle call. Before the
    first refresh (block > 1 only) it plays the oracle answer on the first
    basis direction, asked for on the first round. A game thus makes
    samples * floor(T/block) calls, plus one for block > 1. Round t's
    perturbations are ``round_rows``' draws of round t, draw t // block
    (``pfol.rng`` says which words they read).
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
        self._current: np.ndarray | None = None

    def _act(self):
        refresh, offset = divmod(self.round, self.block)
        if offset:
            if self._current is None:
                self._current = self._start()
            return self._current
        rows = np.empty((1, self.samples, self._set.dim))
        self._draw(refresh, rows)
        self._current = self._refresh(rows[0], self._cum_grad)
        return self._current

    def _start(self) -> np.ndarray:
        """The point played before the first refresh: the oracle answer on the first basis direction."""
        return linear_argmax(self._set, np.eye(self._set.dim)[0])

    def _draw(self, refresh: int, out: np.ndarray) -> None:
        """Fill ``out`` with the v/delta rows of refreshes refresh, refresh+1, ..., one (samples, d) block each."""
        rounds = range(refresh * self.block, (refresh + len(out)) * self.block, self.block)
        np.divide(round_rows(self._rounds, rounds, self.samples, self._set.dim, ball=True), self.delta, out=out)

    def _refresh(self, rows: np.ndarray, cum_grads: np.ndarray) -> np.ndarray:
        """Points played from refreshes: (samples, ..., d) v/delta rows against their (..., d) gradient sums.

        Each point is the mean of the oracle answers at rows - cum_grad; all
        refreshes are asked for in one batch.
        """
        queries = rows - cum_grads
        points = self._set.support_argmax_many(queries.reshape(-1, queries.shape[-1])).reshape(queries.shape)
        # np.mean's arithmetic, without its per-call overhead: np.add.reduce adds a refresh's samples in order,
        # but sums a single column pairwise, so in d = 1 each refresh's samples are laid out together first
        if points.shape[-1] == 1:
            return np.add.reduce(np.moveaxis(points, 0, -2).copy(), axis=-2) / self.samples
        return np.add.reduce(points, axis=0) / self.samples

    @classmethod
    def play(cls, leaders, adversaries, T: int) -> tuple[np.ndarray, np.ndarray]:
        """(S, T, d) actions and parameter rows of S games, one per fresh leader and adversary, side by side.

        Game s is bit for bit T rounds of ``leaders[s].act``,
        ``adversaries[s].emit``, ``observe`` and ``adversaries[s].observe``,
        with the same draws and oracle calls. The leaders share one set,
        samples, block and delta, and the adversaries one family. Each leader
        draws its own perturbations (``_draw``) into one shared block, on a
        schedule that depends only on the refresh. Against gradients fixed
        before the game (linear streams' tables) a refresh reads only its
        perturbations and the sum of the earlier gradients, so every refresh
        of a draw block is one oracle batch. Otherwise each refresh is one
        oracle batch of every game's samples (``_refresh``), followed by the
        rows of its constant-action segment (a slice of the tables, or
        ``emit_lockstep`` on the (S, d) action sums) and their gradient sums.
        The leaders end as after round T; the adversaries observe nothing.
        """
        params = _game_rows(leaders, adversaries, T)
        lead, S, d, block = leaders[0], len(leaders), leaders[0]._set.dim, leaders[0].block
        adaptive, quadratic = adversaries[0].adaptive, adversaries[0].quadratic
        refreshes, rows = T // block, np.empty(0)
        points = np.empty((S, refreshes + 1, d))  # points[:, r]: played from refresh r on
        if block > 1:
            points[:, 0] = [leader._start() for leader in leaders]
        if not (adaptive or quadratic):  # gradients fixed before the game
            sums = np.zeros((S, T + 1, d))  # sums[:, t-1]: before round t, added in ``_observe``'s order
            sums[:, 1:] = params
            sums = sums.cumsum(axis=1)
            for refresh in range(1, refreshes + 1, max(1, BLOCK_ROWS // lead.samples)):
                rows = cls._draw_all(leaders, refresh, rows, refreshes)
                drawn = np.arange(refresh, refresh + len(rows))
                points[:, drawn] = lead._refresh(rows.transpose(1, 2, 0, 3), sums[:, drawn * block - 1])
            cum_grads = sums[:, -1].copy()
        else:
            cum_grads, action_sums, first = np.zeros((S, d)), None, 1  # rows[i]: refresh first + i
            segment = np.empty((S, block + 1, d))  # a refresh's gradient sum, then its segment's gradients
            for refresh in range(block == 1, refreshes + 1):
                t, last = refresh * block or 1, min(T, refresh * block + block - 1)
                if refresh:
                    if refresh - first == len(rows):
                        rows, first = cls._draw_all(leaders, refresh, rows, refreshes), refresh
                    x = points[:, refresh] = lead._refresh(rows[refresh - first], cum_grads)
                else:
                    x = points[:, 0]
                n = last + 1 - t
                if adaptive:
                    params[:, t - 1:last], action_sums = emit_lockstep(adversaries, t, n, x, action_sums)
                if n == 1:
                    p = params[:, t - 1]
                    cum_grads += x - p if quadratic else p
                else:  # [sum, gradients...] added one round at a time, as ``observe`` adds them
                    seg, p = segment[:, :n + 1], params[:, t - 1:last]
                    seg[:, 0] = cum_grads
                    if quadratic:
                        np.subtract(x[:, None], p, out=seg[:, 1:])
                    else:
                        seg[:, 1:] = p
                    # np.add.reduce adds rows in order for d >= 2, but sums a single column pairwise
                    cum_grads = np.add.reduce(seg, axis=1) if d > 1 else seg.cumsum(axis=1)[:, -1]
        # an unblocked leader plays refresh t's point in round t
        actions = points[:, 1:] if block == 1 else np.take(points, np.arange(1, T + 1) // block, axis=1)
        for s, leader in enumerate(leaders):
            leader._cum_grad, leader._current, leader.round = cum_grads[s], actions[s, -1], T + 1
        return actions, params

    @staticmethod
    def _draw_all(leaders, refresh: int, rows: np.ndarray, last: int) -> np.ndarray:
        """Every leader's ``_draw`` at ``refresh``, up to refresh ``last``, into one (ahead, samples, S, d) block.

        The block holds as many refreshes as the cap allows. It is ``rows`` if
        that fits, as ``play`` no longer needs its earlier rows.
        """
        lead = leaders[0]
        ahead = min(max(1, BLOCK_ROWS // lead.samples), last + 1 - refresh)
        if len(rows) != ahead:
            rows = np.empty((ahead, lead.samples, len(leaders), lead._set.dim))
        for s, leader in enumerate(leaders):
            leader._draw(refresh, rows[:, :, s])
        return rows


class OGD(OnlineLearner):
    """Projected online gradient descent baseline with step D / (G * sqrt(t)).

    Projection-based: it makes no oracle calls (on a polytope the projection
    asks the set's own oracle, which the instrumented set does not count) and
    serves as the regret yardstick.
    """

    def __init__(self, set_: FeasibleSet, *, grad_bound: float):
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
    quadratic pull toward the starting point with weight G / (2D). The
    starting point is the oracle answer on the first basis direction, asked
    for on the first round, so a game makes T + 1 calls. Baseline-only
    internals; nothing downstream asserts a bound for it.
    """

    def __init__(self, set_: FeasibleSet, *, grad_bound: float):
        super().__init__(set_)
        if not grad_bound > 0:
            raise ConfigError("grad_bound must be positive")
        self.grad_bound = float(grad_bound)
        self.reg_scale = self.grad_bound / (2.0 * set_.norm_bound)
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

