"""Convex loss objects.

A LossFunction holds the two constants the regret accounting consumes: a
gradient-norm bound G valid on the action set, and a smoothness constant
(Lipschitz constant of the gradient; 0 for linear losses), with ``evaluate``
and ``gradient`` as methods. ``linear_loss`` and ``quadratic_loss`` build
slotted losses that hold their parameter row, a read-only copy, and no
closure, so a replayed game of T rounds holds T small objects. A custom
loss subclasses LossFunction. Every loss refuses attribute assignment.
``row_dots`` takes row-wise dot products equal to per-row ``np.dot`` bit for
bit; the engine prices a game's losses with it and ``linear_adaptive`` takes
the norms of its mean actions with it.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["LossFunction", "linear_loss", "quadratic_loss", "row_dots"]


class LossFunction(abc.ABC):
    """Convex differentiable loss with its certified constants: the abstract base of every loss.

    A subclass defines ``evaluate`` and ``gradient`` and slots for the fields
    its ``__init__`` passes on to this one. ``center`` is set iff the loss is
    exactly 0.5 * ||x - center||^2 and ``direction`` iff it is exactly
    <direction, x>; other losses leave both unset and forgo the closed-form
    shortcuts.
    """

    __slots__ = ("grad_bound",)
    smoothness = 0.0
    center = direction = None

    def __init__(self, grad_bound, **fields):
        for name, value in (("grad_bound", grad_bound), *fields.items()):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("a LossFunction is immutable")

    __delattr__ = __setattr__

    @abc.abstractmethod
    def evaluate(self, x) -> float:
        ...

    @abc.abstractmethod
    def gradient(self, x) -> np.ndarray:
        ...


class _Linear(LossFunction):
    """<direction, x>; ``linear_loss`` builds it."""

    __slots__ = ("direction",)

    def evaluate(self, x) -> float:
        return float(np.dot(self.direction, x))

    def gradient(self, x) -> np.ndarray:
        return self.direction


class _Quadratic(LossFunction):
    """0.5 * ||x - center||^2; ``quadratic_loss`` builds it."""

    __slots__ = ("center",)
    smoothness = 1.0

    def evaluate(self, x) -> float:
        diff = x - self.center
        return 0.5 * float(np.dot(diff, diff))

    def gradient(self, x) -> np.ndarray:
        return x - self.center


def _frozen(vec) -> np.ndarray:
    out = np.array(vec, dtype=float)
    out.setflags(write=False)
    return out


def linear_loss(direction) -> LossFunction:
    """f(x) = <g, x> with G = ||g|| and zero smoothness."""
    g = _frozen(direction)
    return _Linear(float(np.linalg.norm(g)), direction=g)


def quadratic_loss(center, grad_bound: float) -> LossFunction:
    """f(x) = 0.5 * ||x - c||^2, 1-smooth; the caller certifies G over its set."""
    return _Quadratic(float(grad_bound), center=_frozen(center))


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
