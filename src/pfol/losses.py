"""Convex loss objects and block sums.

A LossFunction bundles value/gradient callables with the two constants the
regret accounting consumes: a gradient-norm bound G valid on the action set,
and a smoothness constant (Lipschitz constant of the gradient; 0 for linear
losses). Pure squared-distance and pure linear losses additionally carry
their parameter vector, which unlocks closed forms downstream: O(d) block
gradients, the exact hindsight minimizer for quadratic streams, and CSV
replay dumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["LossFunction", "linear_loss", "quadratic_loss", "block_sum"]


@dataclass(frozen=True)
class LossFunction:
    """Convex differentiable loss with its certified constants.

    ``center`` is set iff the loss is exactly 0.5 * ||x - center||^2 and
    ``direction`` iff it is exactly <direction, x>; generic losses leave both
    unset and forgo the closed-form shortcuts.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    grad_bound: float
    smoothness: float = 0.0
    center: np.ndarray | None = None
    direction: np.ndarray | None = None

    @property
    def dim(self) -> int | None:
        if self.center is not None:
            return self.center.size
        if self.direction is not None:
            return self.direction.size
        return None


def _frozen(vec) -> np.ndarray:
    out = np.array(vec, dtype=float)
    out.setflags(write=False)
    return out


def linear_loss(direction) -> LossFunction:
    """f(x) = <g, x> with G = ||g|| and zero smoothness."""
    g = _frozen(direction)

    return LossFunction(
        evaluate=lambda x: float(np.dot(g, x)),
        gradient=lambda x: g,
        grad_bound=float(np.linalg.norm(g)),
        smoothness=0.0,
        direction=g,
    )


def quadratic_loss(center, grad_bound: float) -> LossFunction:
    """f(x) = 0.5 * ||x - c||^2, 1-smooth; the caller certifies G over its set."""
    c = _frozen(center)

    def evaluate(x):
        diff = x - c
        return 0.5 * float(np.dot(diff, diff))

    return LossFunction(
        evaluate=evaluate,
        gradient=lambda x: x - c,
        grad_bound=float(grad_bound),
        smoothness=1.0,
        center=c,
    )


def block_sum(losses: Sequence[LossFunction]) -> LossFunction:
    """Pointwise sum of losses; G and smoothness add exactly.

    All-quadratic and all-linear blocks collapse to O(d) closed forms so the
    hindsight solver never pays a per-round loop inside its iterations.
    """
    losses = list(losses)
    if not losses:
        raise ValueError("block_sum needs at least one loss")
    dims = {loss.dim for loss in losses if loss.dim is not None}
    if len(dims) > 1:
        raise ValueError(f"losses disagree on dimension: {sorted(dims)}")
    if len(losses) == 1:
        return losses[0]

    grad_bound = float(sum(loss.grad_bound for loss in losses))
    smoothness = float(sum(loss.smoothness for loss in losses))

    if all(loss.center is not None for loss in losses):
        k = float(len(losses))
        centers = np.stack([loss.center for loss in losses])
        center_sum = _frozen(centers.sum(axis=0))
        sq_sum = float(np.einsum("ij,ij->", centers, centers))

        def evaluate(x):
            return 0.5 * (k * float(np.dot(x, x)) - 2.0 * float(np.dot(center_sum, x)) + sq_sum)

        return LossFunction(
            evaluate=evaluate,
            gradient=lambda x: k * x - center_sum,
            grad_bound=grad_bound,
            smoothness=smoothness,
        )

    if all(loss.direction is not None for loss in losses):
        direction_sum = _frozen(np.sum([loss.direction for loss in losses], axis=0))
        return LossFunction(
            evaluate=lambda x: float(np.dot(direction_sum, x)),
            gradient=lambda x: direction_sum,
            grad_bound=grad_bound,
            smoothness=smoothness,
            direction=direction_sum,
        )

    parts = tuple(losses)

    def evaluate(x):
        return float(sum(loss.evaluate(x) for loss in parts))

    def gradient(x):
        total = np.zeros_like(np.asarray(x, dtype=float))
        for loss in parts:
            total += loss.gradient(x)
        return total

    return LossFunction(evaluate=evaluate, gradient=gradient, grad_bound=grad_bound, smoothness=smoothness)
