"""Loss-stream generators for the online game.

An adversary emits round t's loss as its parameter vector: the centre c_t of
f_t(x) = 0.5 ||x - c_t||^2 (quadratic families) or the direction g_t of
f_t(x) = <g_t, x> (linear ones). The per-round protocol is ``emit(t)`` then
``observe(action)``; only the adaptive families keep the running action sum
that their rows read. The game engines (``pfol.learners`` describes them)
take the rows of an adaptive family's n rounds t..t+n-1 of S games side by
side from ``emit_lockstep``: each game plays one action in all n rounds,
and its running action sums
come from ``np.cumsum``, bit for bit the rows of n rounds of ``emit`` and
``observe`` per game, on action sums the caller keeps. Both reach an
adaptive family's rows through one ``_aim`` of mean actions.
``next_loss(history)`` wraps ``emit``'s row as a LossFunction, a slotted
object holding a read-only copy of the row, for callers that replay a game
from its actions.

Two stochastic families draw i.i.d. loss parameters from per-round words
(``rng.round_rows``), so a stream replays bitwise from (seed, t) alone; they draw the
whole (T, d) table on the first emit. Two adaptive families react to the
player's past actions, and only those: the protocol is simultaneous play, so
the current action and current-round randomness are never visible to the
adversary. Every emitted loss declares the exact gradient-norm bound of its
family over the given action-set norm bound and its smoothness constant.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from .errors import ConfigError, ProtocolError, real, real_array
from .losses import LossFunction, linear_loss, quadratic_loss, row_dots
from .rng import ADVERSARY_STREAM, RoundStream, round_rows

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

    ``quadratic``: the rows are centres (drawn on a ball), else directions
    (drawn on a sphere). ``adaptive``: the rows read the player's past actions,
    and only then does the adversary keep their running sum; the other
    families serve rows from a table drawn before the game (``table``).
    """

    kind: str
    quadratic: bool
    adaptive = False
    dim: int

    def __init__(self, horizon: int, seed: int, norm_bound: float, scale: float):
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.horizon = int(horizon)
        self.seed = int(seed)
        self.norm_bound = float(norm_bound)
        self._scale = scale  # of the drawn rows
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
        if not self.adaptive:
            return self.table()[t - 1]
        if self._action_sum is None:
            return self._drawn(t)
        return self._aim((self._action_sum / self._seen)[None], lambda i: self._drawn(t))[0]

    def _aim(self, means: np.ndarray, drawn) -> np.ndarray:
        """An adaptive family's (n, d) rows against (n, d) mean actions; ``drawn(i)`` is row i where it draws."""
        raise NotImplementedError

    def observe(self, action: np.ndarray) -> None:
        """Count a played action; an adaptive family adds it to its running sum."""
        if self.adaptive:
            if self._action_sum is None:
                self._action_sum = np.array(action, dtype=float)
            else:
                self._action_sum += action
        self._seen += 1

    def next_loss(self, history) -> LossFunction:
        """Loss for round t = len(history) + 1, from ``linear_loss`` or ``quadratic_loss``; sees only past actions.

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

    def table(self) -> np.ndarray | None:
        """The (horizon, d) rows of every round if they do not read the actions, else None; drawn on first use."""
        if self.adaptive:
            return None
        if self._table is None:
            self._table = self._scale * self._draws(1, self.horizon)
        return self._table

    def _draws(self, first: int, rounds: int) -> np.ndarray:
        """Unit-ball (quadratic) or unit-sphere (linear) rows of rounds first, first+1, ..., each from its own words.

        Row t is ``round_rows``' row of round t, whether drawn alone or in a
        table (``pfol.rng`` says which words it reads).
        """
        return round_rows(self._stream, range(first, first + rounds), 1, self.dim, ball=self.quadratic)[:, 0]

    def _drawn(self, t: int) -> np.ndarray:
        """Round t's drawn row, which an adaptive family emits where it has no usable history."""
        return self._scale * self._draws(t, 1)[0]


def emit_lockstep(adversaries: Sequence[Adversary], t: int, n: int, actions: np.ndarray,
                  sums: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n, d) rows of rounds t..t+n-1 of S adaptive adversaries of one family, and the new action sums.

    Game s plays ``actions[s]`` in each of the n rounds. ``sums`` holds the
    (S, d) sums of each game's actions in rounds 1..t-1 (None at t = 1),
    which the caller keeps; the adversaries observe nothing. Bit for bit
    each adversary's n rounds of ``emit`` then ``observe``: the running sums
    are ``np.cumsum`` of [sum, action, ..., action], which adds in
    ``observe``'s order. A row that draws comes from its own adversary's
    stream.
    """
    if n == 1 and sums is not None:  # one round: one mean and one addition
        return adversaries[0]._aim(sums / (t - 1), lambda s: adversaries[s]._drawn(t))[:, None], sums + actions
    first = sums is None  # a first round has no history, and no sum before it
    S, d = actions.shape
    running = np.empty((S, n + 1 - first, d))
    running[:] = actions[:, None]
    if not first:
        running[:, 0] = sums
    running = running.cumsum(axis=1)
    # the mean actions before rounds t+first, ..., t+n-1, each game's rounds together
    means = (running[:, :-1] / np.arange(t - 1 + first, t + n - 1)[:, None]).reshape(-1, d)
    m = n - first
    rows = adversaries[0]._aim(means, lambda i: adversaries[i // m]._drawn(t + first + i % m)).reshape(S, m, d)
    if first:
        rows = np.concatenate([np.array([adversary._drawn(t) for adversary in adversaries])[:, None], rows], axis=1)
    return rows, running[:, -1]


class QuadraticStochastic(Adversary):
    """f_t(x) = 0.5 ||x - c_t||^2 with c_t uniform on a ball of given radius."""

    kind = "quadratic_stochastic"
    quadratic = True

    def __init__(self, horizon, seed, norm_bound, *, dim: int, center_scale: float = 1.0):
        center_scale = real(center_scale, "center_scale")
        if not 0 <= center_scale < np.inf:
            raise ConfigError(f"center_scale must be finite and >= 0, got {center_scale}")
        super().__init__(horizon, seed, norm_bound, center_scale)
        self.dim = int(dim)
        self.center_scale = center_scale
        self._root_dim = float(np.sqrt(self.dim))  # read by the adaptive family's _aim

    def constants(self):
        return self.norm_bound + self.center_scale, 1.0


class QuadraticAdaptive(QuadraticStochastic):
    """Quadratic losses whose center pushes against the player's mean action.

    c_t = -scale * sign(mean of past actions) / sqrt(d), which penalizes any
    learner that keeps its actions stable; the first round falls back to the
    stochastic draw since there is no history yet.
    """

    kind = "quadratic_adaptive"
    adaptive = True

    def _aim(self, means, drawn):
        return -self.center_scale * np.sign(means) / self._root_dim


class LinearStochastic(Adversary):
    """f_t(x) = <g_t, x>; g_t i.i.d. uniform on a sphere, or one fixed vector."""

    kind = "linear_stochastic"
    quadratic = False

    def __init__(self, horizon, seed, norm_bound, *, dim: int,
                 direction_norm: float | None = None, direction=None):
        self.dim = int(dim)
        if direction is not None:
            if direction_norm is not None:
                raise ConfigError("direction_norm must not be given with a fixed direction, whose norm it is")
            self.direction = real_array(direction, "direction")
            if self.direction.shape != (self.dim,):
                raise ConfigError("fixed direction must match the set dimension")
            self.direction_norm = float(np.linalg.norm(self.direction))
            if not np.isfinite(self.direction_norm):
                raise ConfigError("fixed direction must have finite entries and a finite norm")
        else:
            direction_norm = 1.0 if direction_norm is None else real(direction_norm, "direction_norm")
            if not 0 < direction_norm < np.inf:
                raise ConfigError(f"direction_norm must be positive and finite, got {direction_norm}")
            self.direction = None
            self.direction_norm = direction_norm
        super().__init__(horizon, seed, norm_bound, self.direction_norm)

    def constants(self):
        return self.direction_norm, 0.0

    def table(self):
        if self._table is None and self.direction is not None:
            self._table = np.tile(self.direction, (self.horizon, 1))
        return super().table()


class LinearAdaptive(Adversary):
    """Linear losses aimed at the player's mean action.

    g_t = norm * mean / ||mean||, so loss is largest where the player has
    been; rounds with no usable history draw a sphere direction instead.
    """

    kind = "linear_adaptive"
    quadratic = False
    adaptive = True

    def __init__(self, horizon, seed, norm_bound, *, dim: int, direction_norm: float = 1.0):
        direction_norm = real(direction_norm, "direction_norm")
        if not 0 < direction_norm < np.inf:
            raise ConfigError(f"direction_norm must be positive and finite, got {direction_norm}")
        super().__init__(horizon, seed, norm_bound, direction_norm)
        self.dim = int(dim)
        self.direction_norm = direction_norm

    def constants(self):
        return self.direction_norm, 0.0

    def _aim(self, means, drawn):
        # a mean of norm 0 draws; np.linalg.norm of a row is sqrt(np.dot(row, row)), and so is
        # sqrt(row_dots) of it, whatever the layout of ``means``
        norms = np.sqrt(row_dots(means, means))
        rows = self.direction_norm * means / np.where(norms > 0, norms, 1.0)[:, None]
        for i in np.flatnonzero(~(norms > 0)):
            rows[i] = drawn(i)
        return rows


_KINDS = {
    cls.kind: cls
    for cls in (QuadraticStochastic, QuadraticAdaptive, LinearStochastic, LinearAdaptive)
}


def make_adversary(spec: dict, *, horizon: int, seed: int, norm_bound: float, dim: int) -> Adversary:
    """Build an adversary from a JSON-style spec; horizon, seed, norm bound and dim come from the run.

    A spec names its kind and that family's parameters, and nothing else:
    the run sets the horizon (its T), the seed (the game's) and the norm
    bound and dim (its set's), so a spec that names any of them is refused.
    Anything else the family does not take is a ConfigError too.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"adversary spec must be an object with a 'kind' field, got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown adversary kind {kind!r}; supported: {sorted(_KINDS)}")
    if fixed := sorted({"horizon", "seed", "norm_bound", "dim"} & set(spec)):
        raise ConfigError(f"adversary spec may not set {fixed}: the run's T is the horizon, its seed the seed, "
                          f"and its set the norm bound and dim")
    params = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return _KINDS[kind](horizon, seed, norm_bound, dim=dim, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters for adversary {kind!r}: {exc}") from exc
