"""Offline minimization of realized loss sequences.

The regret comparator is exact wherever it can be:

- squared-distance streams on a set with a Euclidean projection (ball, box,
  simplex, l1 ball): the projection of the mean center;
- everything else (vertex polytopes, linear streams): a
  conditional-gradient loop with the classic 2/(s+2) step, stopped at the
  first iterate whose duality gap <grad F(x), x - v> certifies the a-priori
  accuracy 8 * beta * D^2 / (budget+2) (Jaggi 2013). ``budget`` caps its
  iterations. A linear stream has beta = 0, so the loop stops, exactly, at
  the oracle answer on the negated gradient sum after one step.
"""

from __future__ import annotations

import numpy as np

from .losses import LossFunction, linear_sum, quadratic_sum
from .sets import FeasibleSet

__all__ = ["offline_frank_wolfe", "best_in_hindsight", "frank_wolfe_gap_bound", "has_projection"]


def frank_wolfe_gap_bound(smoothness: float, norm_bound: float, iterations: int) -> float:
    """Worst-case suboptimality of the conditional-gradient loop."""
    return 8.0 * smoothness * norm_bound * norm_bound / (iterations + 2.0)


def has_projection(set_) -> bool:
    """Whether the set (or an instrumented proxy of one) has an exact Euclidean projection."""
    try:
        set_.project(np.zeros(set_.dim))
    except NotImplementedError:
        return False
    return True


def offline_frank_wolfe(objective: LossFunction, set_: FeasibleSet,
                        iterations: int) -> tuple[np.ndarray, float]:
    """Minimize a smooth convex objective over the set with oracle calls only.

    Returns (iterate, objective value there): the first iterate whose duality
    gap <g, x - v> is at most ``frank_wolfe_gap_bound(smoothness, D,
    iterations)``, or the last one after ``iterations`` steps. The gap bounds
    the iterate's suboptimality. Starts from the oracle's zero-objective
    answer so the whole run is deterministic.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    gap_tol = frank_wolfe_gap_bound(objective.smoothness, set_.norm_bound, iterations)
    x = set_.support_argmax(np.zeros(set_.dim))
    for s in range(int(iterations)):
        g = np.asarray(objective.gradient(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient inside Frank-Wolfe")
        v = set_.support_argmax(-g)
        if float(np.dot(g, x - v)) <= gap_tol:
            break
        step = 2.0 / (s + 2.0)
        x = (1.0 - step) * x + step * v
    return x, float(objective.evaluate(x))


def best_in_hindsight(params: np.ndarray, set_: FeasibleSet, budget: int,
                      quadratic: bool) -> tuple[np.ndarray, float]:
    """Best fixed action against a realized loss stream, and its total loss.

    ``params`` holds the stream's (T, d) rows: the centres of squared-distance
    losses when ``quadratic``, else the directions of linear ones. Exact for
    quadratic streams on a set with a projection and for linear streams;
    otherwise within ``frank_wolfe_gap_bound(T, D, budget)`` of the minimum
    (see ``offline_frank_wolfe``). The sum's certified G is summed from the
    rows: ||c|| + D per squared-distance loss, ||g|| per linear one.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", params, params))
    if quadratic:
        total = quadratic_sum(params, float(np.sum(norms + set_.norm_bound)))
        if has_projection(set_):
            point = set_.project(params.mean(axis=0))
            return point, float(total.evaluate(point))
    else:
        total = linear_sum(params, float(np.sum(norms)))
    return offline_frank_wolfe(total, set_, budget)
