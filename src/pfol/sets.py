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
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ._ziggurat import FI, INV_R, KI, R, WI
from .errors import ConfigError, is_int, real, real_array

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
    "unit_ball_rows",
    "unit_sphere_rows",
    "round_rows",
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
    """Raise ValueError if the set's norm bound overflows, as finite entries near the float limit can."""
    with np.errstate(over="ignore"):
        if not np.isfinite(set_.norm_bound):
            raise ValueError(f"{set_.kind} norm bound overflows; its entries must have a finite norm")


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

# round_rows' cut between the round-major decode and numpy's per-round generator. The cut
# is part of what a round's draws are: moving it changes the traces. Timed over 4096 rounds
# (2 cores, numpy 2.4.6, two runs), the decode costs 0.07-0.09x numpy's per-round draws at 4
# words a round, 0.19x at 16, 0.36-0.42x at 32 and 0.48-0.55x at 40, but 2.5-2.6x at 340 words
# (20 samples in d = 16) and 3.6-3.7x at 384 (64 in d = 5). One round alone costs about 30 us,
# or 75-150 us when it misses the fast path (numpy's per-round draws: 12-20 us). Chunks of 8192
# blocks ran fastest (2048, 32768 and unchunked tried) and keep each pass's words at 256 KiB.
_VECTOR_MAX_WORDS = 32  # widest narrow round, in raw 64-bit words
_VECTOR_CHUNK_BLOCKS = 8192  # round-major Philox blocks per pass


def unit_ball_rows(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Uniform unit-ball points from standard normal rows z and uniforms u: z/||z|| x u^(1/d)."""
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0.0] = 1.0
    return z * (u ** (1.0 / z.shape[1]) / norms)[:, None]


def unit_sphere_rows(z: np.ndarray) -> np.ndarray:
    """Uniform unit-sphere points from standard normal rows z: z/||z||."""
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


# the fast path's tables indexed by a word's low 9 bits, its layer i and sign bit 8: +-WI[i], and KI[i] as int64
_SIGNED_WI = np.concatenate((WI, -WI))
_KI_TWICE = np.tile(KI.view(np.int64), 2)


def _fast_normals(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Decode (n, k) raw words into ``out`` by the ziggurat's fast path; True for each word that misses.

    Word w's layer is i = w & 0xff and its value r * WI[i], with
    r = (w >> 9) & (2^52 - 1), negated when bit 8 is set; r >= KI[i] misses.
    The product with -WI[i] is the negated one bit for bit, and r = 0 gives -0.0.
    """
    idx = (words & np.uint64(0x1FF)).astype(np.intp)
    rabs = ((words >> np.uint64(9)) & np.uint64((1 << 52) - 1)).view(np.int64)
    np.multiply(rabs, _SIGNED_WI[idx], out=out)
    return rabs >= _KI_TWICE[idx]  # int64 against uint64 would compare as float64


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's uniform doubles (w >> 11) * 2^-53 from raw words."""
    return (words >> np.uint64(11)) * 2.0**-53


_TIE = 2.0**-40  # relative gap below which a wedge test is settled by libm's exp


def _wedge_accepts(layer: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """numpy's wedge test for misses x in layers i > 0: FI[i] + (FI[i-1] - FI[i]) * u < exp(-x*x/2).

    np.exp may differ by an ulp from libm's exp, which numpy's C code calls,
    so tests within ``_TIE`` of a tie are settled by ``math.exp``, libm's.
    """
    lhs = (FI[layer - 1] - FI[layer]) * u + FI[layer]
    rhs = np.exp(-0.5 * x * x)
    accept = lhs < rhs
    for i in np.flatnonzero(np.abs(lhs - rhs) <= _TIE * rhs):
        accept[i] = float(lhs[i]) < math.exp(-0.5 * float(x[i]) * float(x[i]))
    return accept


def _missed_draws(words: np.ndarray, vals: np.ndarray, miss: np.ndarray, normals: int, uniforms: int):
    """(normals, uniforms, short) of rounds with a fast-path miss, decoded from their raw words ``words``.

    ``vals`` and ``miss`` are ``_fast_normals`` of the first words. Each
    round's draws follow numpy's ``random_standard_normal`` (Marsaglia & Tsang
    2000). A normal is the next word's fast-path value unless that word
    misses. A miss in layer i > 0 reads the next word as a uniform for the
    wedge test (``_wedge_accepts``) and, if rejected, draws the normal again
    from the word after. A miss in layer 0 draws from the tail, two uniforms
    an attempt, with ``math.log1p`` as numpy's C code does. The uniforms
    follow the last normal. The outcome of every miss is found for all rounds
    at once; then the rounds step through their misses in lockstep, one miss
    each a step, and a miss read as a test's uniform is passed over.
    ``short`` indexes the rounds that need more words than ``words`` holds;
    their draws are not valid.
    """
    m, width = words.shape
    rest = np.empty((m, width - vals.shape[1]))
    miss = np.hstack((miss, _fast_normals(words[:, vals.shape[1]:], rest)))
    vals = np.hstack((vals, rest))
    flat_words, flat_vals = words.ravel(), vals.ravel()
    at = np.flatnonzero(miss)  # flat indices; 2-d fancy indexing is several times slower
    mr, mq = np.divmod(at, width)
    # each miss's outcome were it a normal's draw: accepted or not, and the word after its test, or
    # ``past`` if the test runs past the words
    past = 2 * width
    layer = (flat_words[at] & np.uint64(0xFF)).astype(np.intp)
    accept, after = np.zeros(len(at), dtype=bool), np.where(mq + 1 < width, mq + 2, past)
    wedge = np.flatnonzero((layer > 0) & (after < past))
    accept[wedge] = _wedge_accepts(layer[wedge], flat_vals[at[wedge]], _doubles(flat_words[at[wedge] + 1]))
    for i in np.flatnonzero(layer == 0).tolist():
        r, q, after[i] = int(mr[i]), int(mq[i]), past
        for a in range(q + 1, width - 1, 2):
            xx = -INV_R * math.log1p(-(int(words[r, a]) >> 11) * 2.0**-53)
            yy = -math.log1p(-(int(words[r, a + 1]) >> 11) * 2.0**-53)
            if yy + yy > xx * xx:  # the sign is bit 8 of the miss's r, bit 17 of its word
                vals[r, q] = -(R + xx) if int(words[r, q]) >> 17 & 1 else R + xx
                accept[i], after[i] = True, a + 2
                break
    skip = after - mq - accept  # how far the normal after a drawn miss moves: past the test's words
    # walk every round through its misses in order, one miss each a step: p is the next word to read and
    # count the normals drawn so far; a miss before p was read as a test's uniform, one at or past the
    # last normal's word is not drawn
    p, count = np.zeros((2, m), dtype=np.intp)
    step = np.zeros((normals + 1, m), dtype=np.intp)  # how far each normal's word moves from the last one's
    rank = np.arange(len(mr)) - np.searchsorted(mr, mr)  # a miss's place among its round's misses
    order = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank[order], np.arange(rank.max(initial=0) + 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        i = order[lo:hi]
        r = mr[i]
        run = mq[i] - p[r]
        drawn = (run >= 0) & (run < normals - count[r])
        i, r = i[drawn], r[drawn]
        count[r] += run[drawn] + accept[i]  # a rejected miss draws its normal again from the word after
        step[count[r], r] += skip[i]
        p[r] = after[i]
    first_uniform = p + normals - count
    rows = np.arange(0, m * width, width)
    for k in range(1, normals):  # np.cumsum along either axis is several times slower here
        step[k] += step[k - 1]
    at = np.minimum(np.arange(normals)[:, None] + step[:normals], width - 1)
    z = flat_vals[at.T + rows[:, None]]
    u = _doubles(flat_words[np.minimum(first_uniform[:, None] + np.arange(uniforms), width - 1) + rows[:, None]])
    return z, u, np.flatnonzero(first_uniform + uniforms > width)


def round_rows(stream, rounds: range, count: int, dim: int, *, ball: bool) -> np.ndarray:
    """(len(rounds), count, dim) unit-ball (or unit-sphere) rows for the given rounds of a RoundStream.

    Each round draws count * dim standard normals, then count uniforms for
    the ball, and turns them into rows by one row-wise transform over the
    whole block, as ``sample_unit_ball_batch`` (or
    ``sample_unit_sphere_batch``) does. ``rounds`` steps up; round t's draws
    depend on t and that step only, never on the other rounds of the call.
    Where a round's words come from depends on its width, count * dim
    normals plus the uniforms, in raw 64-bit words. The cut at
    ``_VECTOR_MAX_WORDS`` (32) is part of what a round's draws are:

    - A narrow round, of at most 32 words, reads B = (words + 1) // 4 + 1
      round-major Philox blocks (``stream.words``; two spare words at
      least), all rounds of a chunk of about ``_VECTOR_CHUNK_BLOCKS``
      blocks in one call. It decodes them as numpy does: a normal by the
      fast path of numpy's 256-layer ziggurat (Marsaglia & Tsang 2000;
      tables in ``_ziggurat``), a uniform as (w >> 11) * 2^-53. A round with
      a normal outside the fast path (the tail layer, or a wedge test; about
      1 round in 5 at d = 16) is decoded again from its words by
      ``_missed_draws``. The few rounds whose walk needs more words than
      their blocks hold (under 1% of rounds up to 16 words, up to 6% at 30)
      read on from the first words of their per-round generator,
      ``stream.at(t)``. So a narrow round's draws are numpy's
      ``standard_normal`` and ``random`` on a generator set to its first
      round-major counter, whenever its walk stays within its blocks.
    - A wider round draws from ``stream.at(t)`` by numpy's own generator:
      numpy's C ziggurat beats the decode there.

    A perturbed leader's rounds are narrow when samples * (d + 1) is at most
    32 (samples = 1 up to d = 31), and so are the stochastic adversaries'
    rows up to d = 31 (ball) and d = 32 (sphere), whether a call draws one
    round or a table of thousands.
    """
    z = np.empty((len(rounds), count, dim))
    u = np.empty(z.shape[:2])
    normals = count * dim
    words = normals + count * ball
    if words <= _VECTOR_MAX_WORDS:
        blocks = (words + 1) // 4 + 1  # two spare words at least: with fewer, 2-26% of rounds run out of words
        passes = max(1, round(len(rounds) * blocks / _VECTOR_CHUNK_BLOCKS))
        flat = z.reshape(len(rounds), normals)
        missed, spare, hits = [], [], []
        for k in range(passes):
            lo, hi = len(rounds) * k // passes, len(rounds) * (k + 1) // passes
            w = stream.words(rounds[lo:hi], blocks)
            part = slice(lo, hi)
            hit = _fast_normals(w[:, :normals], flat[part])
            rows = np.flatnonzero(hit.any(axis=1))
            if ball:
                u[part] = _doubles(w[:, normals:words])
            missed.append(lo + rows)
            spare.append(w[rows])
            hits.append(hit[rows])
        missed = np.concatenate(missed)
        if len(missed):
            w, vals, hit = np.concatenate(spare), flat[missed], np.concatenate(hits)
            z_missed, u_missed, short = _missed_draws(w, vals, hit, normals, count * ball)
            more = w.shape[1]
            while len(short):  # read on from the first per-round words: 4B of them, then twice as many each time
                t = [rounds[i] for i in missed[short].tolist()]
                extra = np.stack([stream.at(r).bit_generator.random_raw(more) for r in t])
                z_missed[short], u_missed[short], again = _missed_draws(
                    np.hstack((w[short], extra)), vals[short], hit[short], normals, count * ball)
                short, more = short[again], 2 * more
            flat[missed] = z_missed
            if ball:
                u[missed] = u_missed
    else:
        for i, t in enumerate(rounds):
            rng = stream.at(t)
            rng.standard_normal(out=z[i])
            if ball:
                rng.random(out=u[i])
    flat = z.reshape(-1, dim)
    return (unit_ball_rows(flat, u.ravel()) if ball else unit_sphere_rows(flat)).reshape(z.shape)


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
    if kind not in _KINDS:
        raise ConfigError(f"unknown set kind {kind!r}; supported: {sorted(_KINDS)}")
    try:
        return _KINDS[kind](**{name: value for name, value in spec.items() if name != "kind"})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind!r} set spec: {exc}") from exc
