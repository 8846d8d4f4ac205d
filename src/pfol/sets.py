"""Convex feasible sets with exact linear-optimization and value oracles.

Each set kind answers argmax_{x in K} <y, x> in closed form and reports the
tight norm bound D = max_{x in K} ||x||_2. That oracle is the only access the
perturbed-leader learners get. Every kind also has an exact Euclidean
projection, for the projection-based baseline and the hindsight comparator:
closed forms, and on a vertex polytope Wolfe's min-norm-point algorithm,
which asks the oracle for vertices and solves small least-squares problems.

Determinism contract: argmax ties break toward the lowest coordinate or
vertex index, and a zero objective returns a fixed documented point (first
basis direction scaled to the boundary for ball and l1 kinds, lower corner
for boxes, first vertex otherwise), so replays see identical oracle answers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigError, is_int, real, real_array
from .rng import unit_ball_rows, unit_sphere_rows

__all__ = [
    "FeasibleSet",
    "Ball",
    "Box",
    "Simplex",
    "L1Ball",
    "Polytope",
    "linear_argmax",
    "euclidean_project",
    "brute_force_argmax",
    "sample_unit_ball_batch",
    "sample_unit_sphere_batch",
    "set_from_json",
]


def _as_vector(y, dim: int, name: str = "y") -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({dim},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


def _frozen(arr, name: str) -> np.ndarray:
    out = real_array(arr, name)
    out.setflags(write=False)
    return out


def _check_norm(set_: "FeasibleSet") -> None:
    """Raise ValueError if the set's norm bound overflows, as finite entries near the float limit can, or is 0.

    A set of the origin alone (or of no coordinates) has norm bound 0, which
    the learners' step sizes divide by.
    """
    with np.errstate(over="ignore"):
        if not np.isfinite(set_.norm_bound):
            raise ValueError(f"{set_.kind} norm bound overflows; its entries must have a finite norm")
    if set_.norm_bound == 0:
        raise ValueError(f"{set_.kind} norm bound is 0: the set must hold a point other than the origin")


def _check_sized(set_: "FeasibleSet", size: str) -> None:
    """Check a set given by its dim and a size, and store the size as a float; raise TypeError or ValueError."""
    if not is_int(set_.dim):
        raise TypeError(f"dim must be an integer, got {set_.dim!r}")
    if set_.dim < 1:
        raise ValueError("dim must be >= 1")
    value = real(getattr(set_, size), size)
    if not 0 < value < np.inf:
        raise ValueError(f"{size} must be positive and finite, got {value}")
    object.__setattr__(set_, size, value)


class FeasibleSet(abc.ABC):
    """A convex compact action set together with its linear oracle."""

    kind: ClassVar[str]
    dim: int

    @property
    @abc.abstractmethod
    def norm_bound(self) -> float:
        """Tight D = max_{x in K} ||x||_2."""

    @abc.abstractmethod
    def support_argmax_many(self, queries: np.ndarray) -> np.ndarray:
        """Row-wise argmax_{x in K} <y, x> for a query matrix of shape (n, d)."""

    def support_argmax(self, y: np.ndarray) -> np.ndarray:
        return self.support_argmax_many(np.asarray(y, dtype=float)[None, :])[0]

    @abc.abstractmethod
    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection argmin_{z in K} ||z - x||."""

    @abc.abstractmethod
    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Feasible points spread over the set (exact uniformity not promised)."""

    @abc.abstractmethod
    def feasibility_gap(self, x: np.ndarray) -> float:
        """How far x sits outside the set; 0 (up to fp noise) means feasible."""


_NORMAL_NORM = 2.0**-511  # the smallest norm whose square is a normal float


@dataclass(frozen=True, eq=False)
class Ball(FeasibleSet):
    """Euclidean ball {||x|| <= radius}."""

    dim: int
    radius: float
    kind: ClassVar[str] = "ball"

    def __post_init__(self):
        _check_sized(self, "radius")

    @property
    def norm_bound(self) -> float:
        return float(self.radius)

    def support_argmax_many(self, queries: np.ndarray) -> np.ndarray:
        norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
        if (norms >= _NORMAL_NORM).all():
            return queries * (self.radius / norms)[:, None]
        zero = norms == 0.0
        if zero.any():  # a nonzero row whose squared norm underflows to 0 is scaled by 2^600 (exactly) first
            queries = queries.copy()
            queries[zero] *= 2.0**600
            norms[zero] = np.sqrt(np.einsum("ij,ij->i", queries[zero], queries[zero]))
            zero = norms == 0.0
        norms[zero] = 1.0
        out = queries * (self.radius / norms)[:, None]
        # a tiny row's squared norm is subnormal and lost bits, so its scaled row is scaled once more
        tiny = norms < _NORMAL_NORM
        out[tiny] *= (self.radius / np.sqrt(np.einsum("ij,ij->i", out[tiny], out[tiny])))[:, None]
        out[zero] = 0.0
        out[zero, 0] = self.radius
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        n = np.sqrt(float(np.dot(x, x)))
        if n <= self.radius:
            return np.array(x, dtype=float)
        return x * (self.radius / n)

    def sample_points(self, rng, count):
        return self.radius * sample_unit_ball_batch(rng, count, self.dim)

    def feasibility_gap(self, x) -> float:
        return max(0.0, float(np.linalg.norm(x)) - self.radius)


@dataclass(frozen=True, eq=False)
class Box(FeasibleSet):
    """Axis-aligned box {lower <= x <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray
    kind: ClassVar[str] = "box"

    def __post_init__(self):
        lo = np.atleast_1d(_frozen(self.lower, "lower"))
        hi = np.atleast_1d(_frozen(self.upper, "upper"))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower/upper must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        _check_norm(self)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def norm_bound(self) -> float:
        # farthest corner: per coordinate the larger of |lower|, |upper|
        corner = np.maximum(np.abs(self.lower), np.abs(self.upper))
        return float(np.linalg.norm(corner))

    def support_argmax_many(self, queries: np.ndarray) -> np.ndarray:
        return np.where(queries > 0, self.upper, self.lower)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def sample_points(self, rng, count):
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))

    def feasibility_gap(self, x) -> float:
        below = float(np.max(self.lower - x, initial=0.0))
        above = float(np.max(x - self.upper, initial=0.0))
        return max(0.0, below, above)


@dataclass(frozen=True, eq=False)
class Simplex(FeasibleSet):
    """Scaled probability simplex {x >= 0, sum x = scale}."""

    dim: int
    scale: float
    kind: ClassVar[str] = "simplex"

    def __post_init__(self):
        _check_sized(self, "scale")

    @property
    def norm_bound(self) -> float:
        return float(self.scale)

    def support_argmax_many(self, queries: np.ndarray) -> np.ndarray:
        idx = np.argmax(queries, axis=1)
        out = np.zeros_like(queries)
        out[np.arange(len(queries)), idx] = self.scale
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        return _project_scaled_simplex(np.asarray(x, dtype=float), self.scale)

    def sample_points(self, rng, count):
        return self.scale * rng.dirichlet(np.ones(self.dim), size=count)

    def feasibility_gap(self, x) -> float:
        neg = float(np.max(-np.asarray(x), initial=0.0))
        return max(0.0, neg, abs(float(np.sum(x)) - self.scale))


@dataclass(frozen=True, eq=False)
class L1Ball(FeasibleSet):
    """Cross-polytope {||x||_1 <= radius}."""

    dim: int
    radius: float
    kind: ClassVar[str] = "l1_ball"

    def __post_init__(self):
        _check_sized(self, "radius")

    @property
    def norm_bound(self) -> float:
        return float(self.radius)

    def support_argmax_many(self, queries: np.ndarray) -> np.ndarray:
        idx = np.argmax(np.abs(queries), axis=1)
        rows = np.arange(len(queries))
        signs = np.sign(queries[rows, idx])
        signs[signs == 0.0] = 1.0
        out = np.zeros_like(queries)
        out[rows, idx] = signs * self.radius
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if float(np.sum(np.abs(x))) <= self.radius:
            return x.copy()
        w = _project_scaled_simplex(np.abs(x), self.radius)
        return np.sign(x) * w

    def sample_points(self, rng, count):
        weights = rng.dirichlet(np.ones(self.dim), size=count)
        signs = rng.integers(0, 2, size=(count, self.dim)) * 2.0 - 1.0
        radial = rng.uniform(size=count) ** (1.0 / self.dim)
        return self.radius * radial[:, None] * signs * weights

    def feasibility_gap(self, x) -> float:
        return max(0.0, float(np.sum(np.abs(x))) - self.radius)


@dataclass(frozen=True, eq=False)
class Polytope(FeasibleSet):
    """Convex hull of an explicit vertex list; the oracle scans vertices."""

    vertices: np.ndarray
    kind: ClassVar[str] = "polytope"

    def __post_init__(self):
        verts = np.atleast_2d(_frozen(self.vertices, "vertices"))
        if verts.size == 0:
            raise ValueError("polytope needs at least one vertex")
        if verts.ndim != 2:
            raise ValueError("vertices must form a (n, d) array")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", verts)
        _check_norm(self)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def norm_bound(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def support_argmax_many(self, queries: np.ndarray) -> np.ndarray:
        scores = queries @ self.vertices.T
        return self.vertices[np.argmax(scores, axis=1)]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection by Wolfe's min-norm-point algorithm (Math. Programming 11, 1976).

        Finds the point y of least norm in the hull of the vertices shifted by
        -x, starting from the shifted vertex nearest the origin. Each major
        cycle asks the oracle for the shifted vertex s minimizing <y, s> and
        adds it to an active set; each minor cycle moves y to the affine
        minimizer of that set (an lstsq on its KKT system, the sum-to-one
        weight constraint eliminated), dropping vertices until every weight is
        positive. Stops once the duality gap <y, y - s> is at most 1e-14 times
        the largest squared norm of a shifted vertex, and returns x + y.
        Raises FloatingPointError if rounding stalls it before that.
        """
        x = np.asarray(x, dtype=float)
        shifted = self.vertices - x
        sq = np.einsum("ij,ij->i", shifted, shifted)
        tol = 1e-14 * float(sq.max())
        active = shifted[[int(np.argmin(sq))]]
        weights = np.ones(1)
        y = active[0]
        while True:
            s = self.support_argmax(-y) - x
            if float(np.dot(y, y - s)) <= tol:
                return x + y
            if (active == s).all(axis=1).any():
                raise FloatingPointError("min-norm point: the oracle returned an active vertex above the gap")
            active, weights = np.vstack([active, s]), np.append(weights, 0.0)
            while True:
                base = active[0]
                c = np.linalg.lstsq((active[1:] - base).T, -base, rcond=None)[0]
                mu = np.concatenate([[1.0 - c.sum()], c])
                if np.all(mu > 0):
                    weights = mu
                    break
                # step from weights toward mu until the first weight reaches zero, then drop it
                out = np.flatnonzero(mu <= 0)
                ratios = weights[out] / np.maximum(weights[out] - mu[out], np.finfo(float).tiny)
                j = int(np.argmin(ratios))
                weights = weights + ratios[j] * (mu - weights)
                weights[out[j]] = 0.0
                keep = weights > 0
                active, weights = active[keep], weights[keep]
            previous, y = y, weights @ active
            if float(np.dot(y, y)) >= float(np.dot(previous, previous)):
                raise FloatingPointError("min-norm point: the norm stopped decreasing above the gap")

    def sample_points(self, rng, count):
        weights = rng.dirichlet(np.ones(len(self.vertices)), size=count)
        return weights @ self.vertices

    def feasibility_gap(self, x) -> float:
        # support-function certificate over a fixed direction battery; exact
        # membership would need an LP, which the oracle model does not assume
        rng = np.random.default_rng(0x5E7C0DE)
        dirs = rng.standard_normal((256, self.dim))
        dirs = np.vstack([dirs, np.eye(self.dim), -np.eye(self.dim)])
        margins = dirs @ x - np.max(dirs @ self.vertices.T, axis=1)
        return max(0.0, float(np.max(margins)))


def _project_scaled_simplex(v: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = s} by sort and threshold."""
    if v.sum() == s and np.all(v >= 0):
        return v.copy()
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > (css - s))[0][-1]
    theta = (css[rho] - s) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# free-function oracle API (validating wrappers)
# ---------------------------------------------------------------------------


def linear_argmax(set_: FeasibleSet, y) -> np.ndarray:
    """Exact maximizer of <y, x> over the set; lowest-index tie-break."""
    y = _as_vector(y, set_.dim)
    return set_.support_argmax(y)


def euclidean_project(set_: FeasibleSet, x) -> np.ndarray:
    """argmin_{z in K} ||z - x||, after checking the shape and finiteness of x."""
    x = _as_vector(x, set_.dim, name="x")
    return set_.project(x)


def brute_force_argmax(vertices: Sequence, y) -> np.ndarray:
    """Reference scan maximizing <y, v> over a vertex list, ties to lowest index.

    Kept independent of the closed-form oracles on purpose: it is the
    cross-check the polytope oracle is validated against.
    """
    verts = [np.asarray(v, dtype=float) for v in vertices]
    if not verts:
        raise ValueError("vertex list is empty")
    y = np.asarray(y, dtype=float)
    if y.shape != verts[0].shape:
        raise ValueError(f"y has shape {y.shape}, expected {verts[0].shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains NaN or Inf")
    best_i = 0
    best = float(np.dot(y, verts[0]))
    for i, v in enumerate(verts[1:], start=1):
        score = float(np.dot(y, v))
        if score > best:
            best, best_i = score, i
    return verts[best_i].copy()


# ---------------------------------------------------------------------------
# uniform samplers
# ---------------------------------------------------------------------------


def sample_unit_ball_batch(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count i.i.d. points uniform on {||v|| <= 1}: Gaussian direction x U^(1/d)."""
    z = rng.standard_normal((count, dim))
    return unit_ball_rows(z, rng.random(count))


def sample_unit_sphere_batch(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count i.i.d. points uniform on {||v|| = 1}."""
    return unit_sphere_rows(rng.standard_normal((count, dim)))


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

_KINDS = {cls.kind: cls for cls in (Ball, Box, Simplex, L1Ball, Polytope)}


def set_from_json(spec: dict) -> FeasibleSet:
    """Build a set from {"kind": ..., <the kind's own fields>}.

    The fields are the set class's: ``dim`` and ``radius`` (ball, l1_ball),
    ``dim`` and ``scale`` (simplex), ``lower`` and ``upper`` (box),
    ``vertices`` (polytope). A box's or a polytope's dim follows from its
    data and is not a field. A missing or unknown field, or a bad value, is
    a ConfigError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"set spec must be an object with a 'kind' field, got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown set kind {kind!r}; supported: {sorted(_KINDS)}")
    try:
        return _KINDS[kind](**{name: value for name, value in spec.items() if name != "kind"})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind!r} set spec: {exc}") from exc
