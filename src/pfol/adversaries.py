"""Loss-stream generators for the online game.

An adversary emits round t's loss as its parameter vector: the centre c_t of
f_t(x) = 0.5 ||x - c_t||^2 (quadratic families) or the direction g_t of
f_t(x) = <g_t, x> (linear ones). The per-round engine calls ``emit(t)`` and
then ``observe(action)``, which keeps the running action sum the adaptive
families read. A blocked perturbed leader holds its action between
refreshes, so its engine route (``PerturbedLeader.play``) calls
``emit_segment(t, action, n)`` instead: the rows of the n rounds t..t+n-1 in
which it plays ``action``, which it observes n times, bit for bit the rows
and state of n rounds of ``emit`` and ``observe`` (a table slice for the
stochastic families, running means from ``np.cumsum`` for the adaptive ones). ``next_loss(history)`` wraps ``emit``'s row as a LossFunction for
callers that replay a game from its actions.

Two stochastic families draw i.i.d. loss parameters from per-round seed
substreams, so a stream replays bitwise from (seed, t) alone; they draw the
whole (T, d) table on the first emit. Two adaptive families react to the
player's past actions, and only those: the protocol is simultaneous play, so
the current action and current-round randomness are never visible to the
adversary. Every emitted loss declares the exact gradient-norm bound of its
family over the given action-set norm bound and its smoothness constant.
"""

from __future__ import annotations

import abc

import numpy as np

from .errors import ConfigError, ProtocolError, is_int
from .losses import LossFunction, linear_loss, quadratic_loss, row_dots
from .rng import ADVERSARY_STREAM, RoundStream
from .sets import round_rows

__all__ = [
    "Adversary",
    "QuadraticStochastic",
    "QuadraticAdaptive",
    "LinearStochastic",
    "LinearAdaptive",
    "make_adversary",
]


class Adversary(abc.ABC):
    """Emits round-t loss parameters given the player's past actions.

    ``quadratic``: the rows are centres (drawn on a ball), else directions (drawn on a sphere).
    """

    kind: str
    quadratic: bool
    dim: int

    def __init__(self, horizon: int, seed: int, norm_bound: float):
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.horizon = int(horizon)
        self.seed = int(seed)
        self.norm_bound = float(norm_bound)
        self._stream = RoundStream(self.seed, ADVERSARY_STREAM)
        self._seen = 0
        self._action_sum: np.ndarray | None = None
        self._table: np.ndarray | None = None

    def emit(self, t: int) -> np.ndarray:
        """Round t's centre or direction, 1 <= t <= horizon; adaptive families read the observed actions.

        A round outside [1, horizon] raises ProtocolError.
        """
        if not 1 <= t <= self.horizon:
            raise ProtocolError(f"round {t} is outside [1, {self.horizon}], the declared horizon")
        return self._emit(t)

    @abc.abstractmethod
    def _emit(self, t: int) -> np.ndarray:
        """``emit`` for a round already checked."""

    def emit_segment(self, t: int, action: np.ndarray, n: int) -> np.ndarray:
        """The (n, d) rows of rounds t..t+n-1 in which the player plays ``action``; observes it n times.

        Bit for bit the rows and the state of n rounds of ``emit`` then
        ``observe(action)``: the running sums are ``np.cumsum`` of [sum,
        action, ..., action], which adds in ``observe``'s order. Rounds
        outside [1, horizon] raise ProtocolError.
        """
        if not (n >= 1 and t >= 1 and t + n - 1 <= self.horizon):
            raise ProtocolError(f"rounds {t}..{t + n - 1} are outside [1, {self.horizon}], the declared horizon")
        first = self._action_sum is None  # a first round has no history, and no sum before it
        sums = np.empty((n + 1 - first, self.dim))
        sums[:] = action
        if not first:
            sums[0] = self._action_sum
        sums = sums.cumsum(axis=0)
        self._action_sum, self._seen = sums[-1], self._seen + n
        return self._emit_segment(t, n, sums[:-1])

    @abc.abstractmethod
    def _emit_segment(self, t: int, n: int, sums: np.ndarray) -> np.ndarray:
        """``emit_segment``'s rows; ``sums`` holds the action sums before its last len(sums) rounds, all but a first round."""

    def _means(self, sums: np.ndarray) -> np.ndarray:
        """The mean actions before the last len(sums) rounds observed, from their action sums."""
        return sums / np.arange(self._seen - len(sums), self._seen)[:, None]

    def observe(self, action: np.ndarray) -> None:
        """Add a played action to the running sum."""
        if self._action_sum is None:
            self._action_sum = np.array(action, dtype=float)
        else:
            self._action_sum += action
        self._seen += 1

    def next_loss(self, history) -> LossFunction:
        """Loss for round t = len(history) + 1; sees only past actions.

        Each call's history must extend the previous one: only the actions
        not yet observed are added, and a history shorter than the actions
        already observed raises ProtocolError.
        """
        if len(history) < self._seen:
            raise ProtocolError(f"history of {len(history)} actions is shorter than the "
                                f"{self._seen} already observed")
        for action in history[self._seen:]:
            self.observe(action)
        params = self.emit(len(history) + 1)
        return quadratic_loss(params, self.constants()[0]) if self.quadratic else linear_loss(params)

    @abc.abstractmethod
    def constants(self) -> tuple[float, float]:
        """(G, beta) certified for every loss this adversary emits."""

    def gradient_table(self) -> np.ndarray | None:
        """The (horizon, d) loss gradients of every round if they do not depend on the actions, else None."""
        return None

    def _draws(self, first: int, rounds: int) -> np.ndarray:
        """Unit-ball (quadratic) or unit-sphere (linear) rows of rounds first, first+1, ..., one substream each.

        Row by row this equals ``sample_unit_ball_batch(round rng, 1, d)`` or
        ``sample_unit_sphere_batch(round rng, 1, d)`` bit for bit.
        """
        return round_rows(self._stream, range(first, first + rounds), 1, self.dim, ball=self.quadratic)[:, 0]

    def _rows(self, scale: float) -> np.ndarray:
        """Rows 1..horizon of the stochastic stream, drawn on first use."""
        if self._table is None:
            self._table = scale * self._draws(1, self.horizon)
        return self._table

    def _mean_action(self) -> np.ndarray | None:
        return None if self._action_sum is None else self._action_sum / self._seen


class QuadraticStochastic(Adversary):
    """f_t(x) = 0.5 ||x - c_t||^2 with c_t uniform on a ball of given radius."""

    kind = "quadratic_stochastic"
    quadratic = True

    def __init__(self, horizon, seed, norm_bound, *, dim: int, center_scale: float = 1.0):
        super().__init__(horizon, seed, norm_bound)
        if center_scale < 0:
            raise ConfigError("center_scale must be >= 0")
        self.dim = int(dim)
        self.center_scale = float(center_scale)

    def constants(self):
        return self.norm_bound + self.center_scale, 1.0

    def _emit(self, t):
        return self._rows(self.center_scale)[t - 1]

    def _emit_segment(self, t, n, sums):
        return self._rows(self.center_scale)[t - 1:t - 1 + n]


class QuadraticAdaptive(QuadraticStochastic):
    """Quadratic losses whose center pushes against the player's mean action.

    c_t = -scale * sign(mean of past actions) / sqrt(d), which penalizes any
    learner that keeps its actions stable; the first round falls back to the
    stochastic draw since there is no history yet.
    """

    kind = "quadratic_adaptive"

    def _emit(self, t):
        mean = self._mean_action()
        if mean is None:
            return self.center_scale * self._draws(t, 1)[0]
        return -self.center_scale * np.sign(mean) / np.sqrt(self.dim)

    def _emit_segment(self, t, n, sums):
        rows = -self.center_scale * np.sign(self._means(sums)) / np.sqrt(self.dim)
        if len(sums) < n:  # the first round has no history
            rows = np.concatenate([self.center_scale * self._draws(t, 1), rows])
        return rows


class LinearStochastic(Adversary):
    """f_t(x) = <g_t, x>; g_t i.i.d. uniform on a sphere, or one fixed vector."""

    kind = "linear_stochastic"
    quadratic = False

    def __init__(self, horizon, seed, norm_bound, *, dim: int,
                 direction_norm: float = 1.0, direction=None):
        super().__init__(horizon, seed, norm_bound)
        self.dim = int(dim)
        if direction is not None:
            self.direction = np.asarray(direction, dtype=float)
            if self.direction.shape != (self.dim,):
                raise ConfigError("fixed direction must match the set dimension")
            self.direction_norm = float(np.linalg.norm(self.direction))
        else:
            if not direction_norm > 0:
                raise ConfigError("direction_norm must be positive")
            self.direction = None
            self.direction_norm = float(direction_norm)

    def constants(self):
        return self.direction_norm, 0.0

    def _emit(self, t):
        return self.direction if self.direction is not None else self._rows(self.direction_norm)[t - 1]

    def _emit_segment(self, t, n, sums):
        return self.gradient_table()[t - 1:t - 1 + n]

    def gradient_table(self):
        if self.direction is not None:
            return np.tile(self.direction, (self.horizon, 1))
        return self._rows(self.direction_norm)


class LinearAdaptive(Adversary):
    """Linear losses aimed at the player's mean action.

    g_t = norm * mean / ||mean||, so loss is largest where the player has
    been; rounds with no usable history draw a sphere direction instead.
    """

    kind = "linear_adaptive"
    quadratic = False

    def __init__(self, horizon, seed, norm_bound, *, dim: int, direction_norm: float = 1.0):
        super().__init__(horizon, seed, norm_bound)
        if not direction_norm > 0:
            raise ConfigError("direction_norm must be positive")
        self.dim = int(dim)
        self.direction_norm = float(direction_norm)

    def constants(self):
        return self.direction_norm, 0.0

    def _emit(self, t):
        mean = self._mean_action()
        if mean is not None:
            n = float(np.linalg.norm(mean))
            if n > 0:
                return self.direction_norm * mean / n
        return self.direction_norm * self._draws(t, 1)[0]

    def _emit_segment(self, t, n, sums):
        # a round with no history draws, as one whose mean has norm 0 does; np.linalg.norm of a row
        # is sqrt(np.dot(row, row)), and so is sqrt(row_dots) of it, whatever the layout of ``means``
        means = np.concatenate([np.zeros((n - len(sums), self.dim)), self._means(sums)])
        norms = np.sqrt(row_dots(means, means))
        rows = self.direction_norm * means / np.where(norms > 0, norms, 1.0)[:, None]
        for i in np.flatnonzero(~(norms > 0)):
            rows[i] = self.direction_norm * self._draws(t + i, 1)[0]
        return rows


_KINDS = {
    cls.kind: cls
    for cls in (QuadraticStochastic, QuadraticAdaptive, LinearStochastic, LinearAdaptive)
}


def make_adversary(spec: dict, *, horizon: int, seed: int, norm_bound: float, dim: int) -> Adversary:
    """Build an adversary from a JSON-style spec; horizon/seed/dim come from the run.

    A spec may override the seed with an integer, and may repeat the set's
    dimension. It may also name a horizon, an integer of at least the run's;
    that is checked and not read, since the adversary serves the run's rounds
    and its rows are keyed by round. Anything else is a ConfigError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"adversary spec must be an object with a 'kind' field, got {spec!r}")
    kind = spec["kind"]
    if kind not in _KINDS:
        raise ConfigError(f"unknown adversary kind {kind!r}; supported: {sorted(_KINDS)}")
    params = {k: v for k, v in spec.items() if k not in ("kind", "horizon", "seed", "dim")}
    spec_horizon, seed = spec.get("horizon", horizon), spec.get("seed", seed)
    if not (is_int(spec_horizon) and is_int(seed) and spec_horizon >= horizon):
        raise ConfigError(f"adversary horizon must be an integer >= the run's T={horizon} and seed "
                          f"an integer, got horizon={spec_horizon!r}, seed={seed!r}")
    if "dim" in spec and not (is_int(spec["dim"]) and spec["dim"] == dim):
        raise ConfigError(f"adversary dim must equal the set's dim {dim}, got {spec['dim']!r}")
    try:
        return _KINDS[kind](horizon, seed, norm_bound, dim=dim, **params)
    except TypeError as exc:
        raise ConfigError(f"invalid parameters for adversary {kind!r}: {exc}") from exc

