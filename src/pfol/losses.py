"""Convex loss objects.

A LossFunction bundles value/gradient callables with the two constants the
regret accounting consumes: a gradient-norm bound G valid on the action set,
and a smoothness constant (Lipschitz constant of the gradient; 0 for linear
losses). Pure squared-distance and pure linear losses additionally carry
their parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LossFunction", "linear_loss", "quadratic_loss"]


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
