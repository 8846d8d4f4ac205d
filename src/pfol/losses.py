"""Convex loss objects.

A LossFunction bundles value/gradient callables with the two constants the
regret accounting consumes: a gradient-norm bound G valid on the action set,
and a smoothness constant (Lipschitz constant of the gradient; 0 for linear
losses). Pure squared-distance and pure linear losses additionally carry
their parameter vector. ``row_dots`` takes row-wise dot products equal to
per-row ``np.dot`` bit for bit; the engine prices a game's losses with it and
``linear_adaptive`` takes the norms of its mean actions with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LossFunction", "linear_loss", "quadratic_loss", "row_dots"]


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


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (T, d) ``a`` with (T, d) or (d,) ``b``, equal to per-row ``np.dot`` bit for bit.

    numpy's stacked matmul takes each (1, d) @ (d, 1) product as a vector dot;
    a 2-D ``a @ b`` (a matrix-vector product) and ``einsum`` sum in other orders.
    ``np.dot`` takes one-element vectors as scalars, so at d = 1 it is the bare
    product, whose zero keeps its sign where the vector dot's is +0. The vector
    dot's order also depends on the memory layout, so both inputs are read in
    C order: an F-ordered or strided copy gives the same bits as its C copy.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape[1] == 1:
        return (a * b)[:, 0]
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]
