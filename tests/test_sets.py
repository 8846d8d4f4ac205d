"""Oracle geometry: closed-form argmax/max, projections, samplers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfol import (
    Ball,
    Box,
    ConfigError,
    L1Ball,
    Polytope,
    Simplex,
    brute_force_argmax,
    euclidean_project,
    linear_argmax,
    sample_unit_ball_batch,
    sample_unit_sphere_batch,
    set_from_json,
)

ALL_SETS = [
    Ball(dim=3, radius=1.0),
    Ball(dim=2, radius=2.0),
    Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
    Box(lower=[0.0, -2.0, 1.0], upper=[0.5, -1.0, 4.0]),
    Simplex(dim=3, scale=1.0),
    Simplex(dim=4, scale=2.5),
    L1Ball(dim=3, radius=1.0),
    L1Ball(dim=5, radius=0.7),
    Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    Polytope(vertices=[[1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [-2.0, 1.0, 1.0], [3.0, -1.0, 0.5]]),
]


class TestLinearArgmax:
    def test_ball_normalizes_direction(self):
        out = linear_argmax(Ball(dim=2, radius=1.0), [3.0, 4.0])
        np.testing.assert_allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_simplex_picks_max_coordinate_vertex(self):
        out = linear_argmax(Simplex(dim=3, scale=1.0), [1.0, 5.0, 2.0])
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    def test_polytope_matches_vertex_scan(self):
        # independent oracle: evaluate all three inner products by hand
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        y = np.array([2.0, 3.0])
        scores = [0.0, 2.0, 3.0]
        assert int(np.argmax(scores)) == 2
        out = linear_argmax(Polytope(vertices=verts), y)
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_box_selects_active_corner(self):
        box = Box(lower=[-1.0, -2.0], upper=[3.0, 4.0])
        np.testing.assert_array_equal(linear_argmax(box, [1.0, -1.0]), [3.0, -2.0])

    def test_l1_ball_signed_basis_vector(self):
        out = linear_argmax(L1Ball(dim=3, radius=2.0), [1.0, -5.0, 2.0])
        np.testing.assert_array_equal(out, [0.0, -2.0, 0.0])

    def test_zero_objective_is_deterministic_and_feasible(self):
        for s in ALL_SETS:
            a = linear_argmax(s, np.zeros(s.dim))
            b = linear_argmax(s, np.zeros(s.dim))
            np.testing.assert_array_equal(a, b)
            assert s.feasibility_gap(a) <= 1e-12

    def test_zero_objective_ball_returns_first_axis_point(self):
        out = linear_argmax(Ball(dim=3, radius=2.0), np.zeros(3))
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])

    def test_ball_tiny_queries_stay_on_the_sphere(self):
        # squared norms below the smallest normal float lose bits; a power of 2 rescales them exactly
        queries = np.array([[0.0, 0.0, 5.837251477872647e-159], [1e-160, -3e-160, 2e-155],
                            [0.6, 0.8, 0.0], [0.0, 0.0, 0.0]])
        out = Ball(dim=3, radius=2.0).support_argmax_many(queries)
        scaled = queries[:2] * 2.0**600
        np.testing.assert_allclose(out[:2], 2.0 * scaled / np.linalg.norm(scaled, axis=1)[:, None], rtol=1e-15)
        assert out[2].tobytes() == linear_argmax(Ball(dim=3, radius=2.0), queries[2]).tobytes()
        np.testing.assert_array_equal(out[3], [2.0, 0.0, 0.0])

    def test_ball_queries_whose_squared_norm_underflows_point_along_them(self):
        # every entry below ~1e-162 squares to 0; such a row is scaled by a power of 2 before its norm
        ball = Ball(dim=3, radius=1.0)
        assert linear_argmax(ball, [0.0, 0.0, -1e-170]).tolist() == [0.0, 0.0, -1.0]
        queries = np.array([[0.0, 0.0, -1e-170], [5e-324, -5e-324, 0.0], [3e-200, 4e-200, 0.0],
                            [0.0, -0.0, 0.0], [1.0, 2.0, 2.0]])
        out = ball.support_argmax_many(queries)
        np.testing.assert_allclose(out[1], [2**-0.5, -(2**-0.5), 0.0], rtol=1e-15)
        np.testing.assert_allclose(out[2], [0.6, 0.8, 0.0], rtol=1e-15)
        np.testing.assert_array_equal(out[3], [1.0, 0.0, 0.0])
        for y, row in zip(queries, out):
            assert linear_argmax(ball, y).tobytes() == row.tobytes()
            assert ball.support_argmax_many(y[None, :])[0].tobytes() == row.tobytes()

    def test_ball_scales_only_the_underflowing_rows(self):
        # 1e150 * 2^600 overflows, so scaling that row too would warn
        queries = np.array([[1e150, 0.0, 0.0], [0.0, 0.0, -1e-170]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Ball(dim=3, radius=1.0).support_argmax_many(queries)
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(queries, [[1e150, 0.0, 0.0], [0.0, 0.0, -1e-170]])

    def test_ball_batch_with_zero_rows(self):
        ball = Ball(dim=3, radius=2.0)
        ys = np.array([[0.0, 0.0, 0.0], [3.0, -4.0, 0.5], [0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]])
        batch = ball.support_argmax_many(ys)
        np.testing.assert_array_equal(batch[[0, 2]], [[2.0, 0.0, 0.0]] * 2)
        for y, row in zip(ys, batch):
            np.testing.assert_array_equal(ball.support_argmax_many(y[None, :])[0], row)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            linear_argmax(Ball(dim=3, radius=1.0), [1.0, 2.0])

    def test_non_finite_rejected(self):
        for bad in ([np.nan, 0.0], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="NaN or Inf"):
                linear_argmax(Ball(dim=2, radius=1.0), bad)

    def test_output_norm_within_bound(self):
        rng = np.random.default_rng(0)
        for s in ALL_SETS:
            ys = rng.standard_normal((200, s.dim)) * 10.0 ** rng.uniform(-2, 2, size=(200, 1))
            out = s.support_argmax_many(ys)
            norms = np.linalg.norm(out, axis=1)
            assert np.all(norms <= s.norm_bound + 1e-12)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(1)
        for s in ALL_SETS:
            ys = rng.standard_normal((50, s.dim))
            batch = s.support_argmax_many(ys)
            for y, row in zip(ys, batch):
                np.testing.assert_array_equal(linear_argmax(s, y), row)


class TestLinearMax:
    def test_box_equals_weighted_absolute_sum(self):
        y = np.array([2.0, -3.0])
        assert np.dot(y, linear_argmax(Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]), y)) == 5.0

    def test_zero_vector_gives_zero(self):
        for s in ALL_SETS:
            assert np.dot(np.zeros(s.dim), linear_argmax(s, np.zeros(s.dim))) == 0.0

    def test_ball_value_is_radius_times_norm(self):
        # maximize <y, x> over ||x|| <= 2 analytically: 2 * ||y||
        y = np.array([1.0, 1.0])
        val = np.dot(y, linear_argmax(Ball(dim=2, radius=2.0), y))
        assert val == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)

    def test_lipschitz_in_the_query(self):
        # |M(y1) - M(y2)| <= D ||y1 - y2|| over 1000 random pairs per set
        rng = np.random.default_rng(2)
        for s in ALL_SETS:
            y1 = rng.standard_normal((1000, s.dim)) * 10.0 ** rng.uniform(-1, 1, size=(1000, 1))
            y2 = y1 + rng.standard_normal((1000, s.dim)) * 10.0 ** rng.uniform(-3, 1, size=(1000, 1))
            m1 = np.einsum("ij,ij->i", y1, s.support_argmax_many(y1))
            m2 = np.einsum("ij,ij->i", y2, s.support_argmax_many(y2))
            gaps = np.linalg.norm(y1 - y2, axis=1)
            keep = gaps > 1e-12
            ratio = np.abs(m1 - m2)[keep] / gaps[keep]
            assert np.max(ratio) <= s.norm_bound * (1 + 1e-9)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(3)
        for s in ALL_SETS:
            y1 = rng.standard_normal((500, s.dim))
            y2 = rng.standard_normal((500, s.dim))
            mid = 0.5 * (y1 + y2)
            m1 = np.einsum("ij,ij->i", y1, s.support_argmax_many(y1))
            m2 = np.einsum("ij,ij->i", y2, s.support_argmax_many(y2))
            mm = np.einsum("ij,ij->i", mid, s.support_argmax_many(mid))
            assert np.all(mm <= 0.5 * (m1 + m2) + 1e-9)


class TestBruteForceArgmax:
    def test_tie_breaks_to_lowest_index(self):
        out = brute_force_argmax([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_evaluates_both_inner_products(self):
        # <(1,-3),(0,0)> = 0 beats <(1,-3),(2,1)> = -1
        out = brute_force_argmax([[0.0, 0.0], [2.0, 1.0]], [1.0, -3.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_single_vertex(self):
        out = brute_force_argmax([[5.0, -1.0]], [0.3, 0.9])
        np.testing.assert_array_equal(out, [5.0, -1.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            brute_force_argmax([], [1.0])

    def test_polytope_oracle_agrees_on_random_queries(self):
        rng = np.random.default_rng(4)
        verts = rng.standard_normal((12, 4))
        poly = Polytope(vertices=verts)
        for _ in range(300):
            y = rng.standard_normal(4) * 10.0 ** rng.uniform(-1, 1)
            np.testing.assert_array_equal(linear_argmax(poly, y), brute_force_argmax(verts, y))


class TestEuclideanProject:
    def test_ball_radial(self):
        np.testing.assert_allclose(
            euclidean_project(Ball(dim=2, radius=1.0), [3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_box_clamps(self):
        out = euclidean_project(Box(lower=[0.0, 0.0], upper=[1.0, 1.0]), [-2.0, 0.5])
        np.testing.assert_array_equal(out, [0.0, 0.5])

    def test_simplex_threshold(self):
        # KKT by hand: mass 1.6 over two active coordinates, theta = 0.3
        out = euclidean_project(Simplex(dim=3, scale=1.0), [0.8, 0.8, 0.0])
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-12)

    def test_polytope_segment(self):
        # a segment in R^2: the foot of the perpendicular from (0.5, 0.5)
        poly = Polytope(vertices=[[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(euclidean_project(poly, [0.5, 0.5]), [0.5, 0.0], atol=1e-15)

    def test_variational_inequality(self):
        # <x - p, z - p> <= 0 for all feasible z characterizes the projection
        rng = np.random.default_rng(5)
        for s in ALL_SETS:
            for _ in range(5):
                x = rng.standard_normal(s.dim) * 3.0
                p = euclidean_project(s, x)
                assert s.feasibility_gap(p) <= 1e-9
                zs = s.sample_points(rng, 100)
                inner = (zs - p) @ (x - p)
                assert np.max(inner) <= 1e-9

    def test_interior_point_is_fixed(self):
        for s in ALL_SETS:
            z = s.sample_points(np.random.default_rng(6), 1)[0] * 0.5 if s.kind != "box" else s.sample_points(np.random.default_rng(6), 1)[0]
            p = euclidean_project(s, euclidean_project(s, z))
            np.testing.assert_allclose(p, euclidean_project(s, z), atol=1e-12)


def min_norm_gap(poly, x, p):
    """Duality gap <p - x, p - v> of the projection problem at p, v the oracle answer at x - p."""
    v = linear_argmax(poly, x - p)
    return float(np.dot(p - x, p - v))


class TestPolytopeProject:
    """Wolfe's min-norm point against the closed-form projections of the same sets."""

    @staticmethod
    def check(poly, closed, rng, scale=3.0, tries=40):
        for _ in range(tries):
            x = rng.standard_normal(poly.dim) * scale
            np.testing.assert_allclose(poly.project(x), closed.project(x), rtol=0, atol=1e-12)

    def test_simplex_vertices(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 6):
            simplex = Simplex(dim=d, scale=1.5)
            self.check(Polytope(vertices=1.5 * np.eye(d)), simplex, rng)

    def test_box_corners(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 4):
            lower = rng.uniform(-2.0, 0.0, d)
            upper = lower + rng.uniform(0.5, 2.0, d)
            corners = np.array(np.meshgrid(*zip(lower, upper), indexing="ij")).reshape(d, -1).T
            assert len(corners) == 2**d
            self.check(Polytope(vertices=corners), Box(lower=lower, upper=upper), rng)

    def test_cross_polytope_vertices(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 5):
            vertices = np.vstack([0.7 * np.eye(d), -0.7 * np.eye(d)])
            self.check(Polytope(vertices=vertices), L1Ball(dim=d, radius=0.7), rng)

    def test_interior_point_is_returned(self):
        poly = Polytope(vertices=[[1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [-2.0, 1.0, 1.0], [3.0, -1.0, 0.5]])
        x = poly.vertices.T @ np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(poly.project(x), x, rtol=0, atol=1e-15)

    def test_duplicated_vertices(self):
        rng = np.random.default_rng(14)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        doubled = Polytope(vertices=np.vstack([corners, corners[::-1], corners[:2]]))
        self.check(doubled, Box(lower=[0.0, 0.0], upper=[1.0, 1.0]), rng)

    def test_affinely_dependent_vertices(self):
        # the unit square in the z = 0 plane of R^3: clamp x and y, zero z
        square = Polytope(vertices=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        rng = np.random.default_rng(15)
        for x in rng.standard_normal((40, 3)) * 3.0:
            want = [min(max(x[0], 0.0), 1.0), min(max(x[1], 0.0), 1.0), 0.0]
            np.testing.assert_allclose(square.project(x), want, rtol=0, atol=1e-12)
        segment = Polytope(vertices=[[-1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
        np.testing.assert_allclose(segment.project([2.0, 2.0]), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(segment.project([3.0, -1.0]), [1.0, -1.0], atol=1e-15)

    def test_single_vertex(self):
        point = Polytope(vertices=[[0.5, -2.0, 1.0]])
        np.testing.assert_array_equal(point.project(np.array([9.0, 9.0, 9.0])), [0.5, -2.0, 1.0])

    def test_far_point_stops_on_the_gap(self):
        rng = np.random.default_rng(16)
        vertices = rng.standard_normal((40, 6))
        poly = Polytope(vertices=vertices)
        for scale in (1e-2, 1.0, 1e3, 1e6):
            for x in rng.standard_normal((10, 6)) * scale:
                p = poly.project(x)
                assert poly.feasibility_gap(p) <= 1e-9 * (1.0 + scale)
                tol = 1e-14 * float(np.max(np.sum((vertices - x) ** 2, axis=1)))
                assert min_norm_gap(poly, x, p) <= tol

    def test_an_affine_step_without_progress_raises(self, monkeypatch):
        # an affine solve that returns the current point stalls the norm above the gap tolerance
        def no_step(a, b, rcond=None):
            return np.zeros(a.shape[1]), None, None, None

        monkeypatch.setattr(np.linalg, "lstsq", no_step)
        poly = Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FloatingPointError, match="norm stopped decreasing"):
            poly.project(np.array([1.0, 1.0]))

    def test_an_inexact_affine_step_raises(self, monkeypatch):
        # half of each affine step leaves the point off the affine minimizer, so the
        # oracle answers with an active vertex while the gap is still open
        lstsq = np.linalg.lstsq

        def half_step(a, b, rcond=None):
            c, *rest = lstsq(a, b, rcond=rcond)
            return (0.5 * c, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", half_step)
        poly = Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FloatingPointError, match="active vertex"):
            poly.project(np.array([1.0, 1.0]))


class TestSamplers:
    def test_ball_support(self):
        rng = np.random.default_rng(7)
        v = sample_unit_ball_batch(rng, 5000, 5)
        assert np.max(np.linalg.norm(v, axis=1)) <= 1.0 + 1e-12

    def test_ball_determinism(self):
        a = sample_unit_ball_batch(np.random.default_rng(123), 3, 4)
        b = sample_unit_ball_batch(np.random.default_rng(123), 3, 4)
        np.testing.assert_array_equal(a, b)

    def test_ball_mean_is_centered(self):
        # CLT tolerance 3 sigma / sqrt(n) with per-coordinate variance 1/(d+2)
        rng = np.random.default_rng(8)
        v = sample_unit_ball_batch(rng, 100_000, 3)
        tol = 3.0 * np.sqrt(1.0 / 5.0) / np.sqrt(100_000)
        assert tol < 0.02
        assert np.max(np.abs(v.mean(axis=0))) < 0.02

    def test_sphere_norm_exact(self):
        rng = np.random.default_rng(9)
        v = sample_unit_sphere_batch(rng, 2000, 6)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)

    def test_sphere_isotropy(self):
        # E[v v^T] = I/d for the uniform sphere measure
        rng = np.random.default_rng(10)
        v = sample_unit_sphere_batch(rng, 100_000, 2)
        second = v.T @ v / len(v)
        np.testing.assert_allclose(second, np.eye(2) / 2.0, atol=0.02)

    def test_sphere_determinism(self):
        a = sample_unit_sphere_batch(np.random.default_rng(77), 3, 3)
        b = sample_unit_sphere_batch(np.random.default_rng(77), 3, 3)
        np.testing.assert_array_equal(a, b)

    def test_ball_coordinate_variance(self):
        rng = np.random.default_rng(11)
        v = sample_unit_ball_batch(rng, 200_000, 3)
        np.testing.assert_allclose(v.var(axis=0), 1.0 / 5.0, atol=0.01)


class TestNormBound:
    def test_exact_values(self):
        assert Ball(dim=7, radius=2.5).norm_bound == 2.5
        assert Simplex(dim=4, scale=3.0).norm_bound == 3.0
        assert L1Ball(dim=2, radius=0.4).norm_bound == 0.4
        box = Box(lower=[-3.0, 0.0], upper=[1.0, 2.0])
        assert box.norm_bound == pytest.approx(np.sqrt(9.0 + 4.0), rel=1e-15)
        poly = Polytope(vertices=[[1.0, 0.0], [3.0, 4.0]])
        assert poly.norm_bound == 5.0

    def test_sampled_points_respect_bound(self):
        rng = np.random.default_rng(12)
        for s in ALL_SETS:
            pts = s.sample_points(rng, 500)
            assert np.max(np.linalg.norm(pts, axis=1)) <= s.norm_bound + 1e-9
            assert max(s.feasibility_gap(p) for p in pts[:50]) <= 1e-9


class TestValidationAndJson:
    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            Ball(dim=0, radius=1.0)
        with pytest.raises(ValueError):
            Ball(dim=2, radius=0.0)
        with pytest.raises(ValueError):
            Box(lower=[1.0], upper=[0.0])
        with pytest.raises(ValueError):
            Polytope(vertices=np.empty((0, 2)))

    @pytest.mark.parametrize("spec,want", [
        ({"kind": "ball", "dim": 3, "radius": 2.0}, Ball(dim=3, radius=2.0)),
        ({"kind": "box", "lower": [0.0, -2.0, 1.0], "upper": [0.5, -1.0, 4.0]},
         Box(lower=[0.0, -2.0, 1.0], upper=[0.5, -1.0, 4.0])),
        ({"kind": "simplex", "dim": 4, "scale": 2.5}, Simplex(dim=4, scale=2.5)),
        ({"kind": "l1_ball", "dim": 5, "radius": 0.7}, L1Ball(dim=5, radius=0.7)),
        ({"kind": "polytope", "vertices": [[1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [-2.0, 1.0, 1.0]]},
         Polytope(vertices=[[1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [-2.0, 1.0, 1.0]])),
    ], ids=["ball", "box", "simplex", "l1_ball", "polytope"])
    def test_set_from_json_parses_each_kind(self, spec, want):
        got = set_from_json(spec)
        assert type(got) is type(want)
        assert got.dim == want.dim
        assert got.norm_bound == want.norm_bound
        for y in np.random.default_rng(0).standard_normal((8, want.dim)):
            assert linear_argmax(got, y).tobytes() == linear_argmax(want, y).tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown set kind"):
            set_from_json({"kind": "torus", "dim": 2})

    @pytest.mark.parametrize("build,match", [
        (lambda: Ball(dim=2, radius=np.inf), "radius must be positive and finite"),
        (lambda: Ball(dim=2, radius=np.nan), "radius must be positive and finite"),
        (lambda: Box(lower=[[0.0]], upper=[[1.0]]), "1-D vectors of equal length"),
        (lambda: Box(lower=[0.0, 0.0], upper=[1.0]), "1-D vectors of equal length"),
        (lambda: Box(lower=[-np.inf], upper=[1.0]), "finite"),
        (lambda: Box(lower=[1.0], upper=[0.0]), "lower <= upper"),
        (lambda: Simplex(dim=0, scale=1.0), "dim must be >= 1"),
        (lambda: Simplex(dim=2, scale=0.0), "scale must be positive and finite"),
        (lambda: Simplex(dim=2, scale=np.inf), "scale must be positive and finite"),
        (lambda: L1Ball(dim=0, radius=1.0), "dim must be >= 1"),
        (lambda: L1Ball(dim=2, radius=-1.0), "radius must be positive and finite"),
        (lambda: L1Ball(dim=2, radius=np.inf), "radius must be positive and finite"),
        (lambda: Polytope(vertices=[]), "at least one vertex"),
        (lambda: Polytope(vertices=np.ones((2, 2, 2))), r"\(n, d\) array"),
        (lambda: Polytope(vertices=[[0.0, np.nan]]), "finite"),
        (lambda: Polytope(vertices=[[1e200, 0.0], [0.0, 1e200]]), "polytope norm bound overflows"),
        (lambda: Box(lower=[-1e308, -1e308], upper=[1e308, 1e308]), "box norm bound overflows"),
        (lambda: brute_force_argmax([[1.0, 0.0]], [1.0, 0.0, 0.0]), "shape"),
        (lambda: brute_force_argmax([[1.0, 0.0]], [np.nan, 0.0]), "NaN or Inf"),
        (lambda: set_from_json(["ball"]), "must be an object"),
        (lambda: set_from_json({"kind": "ball"}), "invalid 'ball' set spec"),
        (lambda: set_from_json({"kind": "simplex", "dim": 2, "scale": np.inf}), "invalid 'simplex' set spec"),
        (lambda: set_from_json({"kind": "box", "lower": [-1e308] * 2, "upper": [1e308] * 2}), "norm bound overflows"),
        (lambda: set_from_json({"kind": "ball", "dim": 2, "radius": 1.0, "raduis": 9}), "'raduis'"),
        (lambda: set_from_json({"kind": "box", "lower": [0.0], "upper": [1.0], "radius": 1.0}), "'radius'"),
        (lambda: set_from_json({"kind": "simplex", "dim": 2, "scale": 1.0, "radius": 1.0}), "'radius'"),
        (lambda: set_from_json({"kind": "l1_ball", "dim": 2, "radius": 1.0, "scale": 1.0}), "'scale'"),
        (lambda: set_from_json({"kind": "polytope", "vertices": [[1.0, 0.0]], "radius": 1.0}), "'radius'"),
        (lambda: set_from_json({"kind": "box", "dim": 1, "lower": [0.0], "upper": [1.0]}), "'dim'"),
        (lambda: set_from_json({"kind": "box", "dim": 3, "lower": [0.0], "upper": [1.0]}), "'dim'"),
        (lambda: set_from_json({"kind": "polytope", "dim": 2, "vertices": [[1.0, 0.0]]}), "'dim'"),
        (lambda: set_from_json({"kind": "ball", "dim": 2.0, "radius": 1.0}), "dim must be an integer"),
        (lambda: set_from_json({"kind": "simplex", "dim": "3", "scale": 1.0}), "dim must be an integer"),
        (lambda: set_from_json({"kind": "l1_ball", "dim": True, "radius": 1.0}), "dim must be an integer"),
    ], ids=["ball_radius_inf", "ball_radius_nan", "box_2d", "box_unequal", "box_inf", "box_crossed",
            "simplex_dim_0", "simplex_scale_0", "simplex_scale_inf", "l1_dim_0", "l1_radius_negative",
            "l1_radius_inf", "polytope_empty", "polytope_3d", "polytope_nan", "polytope_norm_overflow",
            "box_norm_overflow", "brute_force_y_shape",
            "brute_force_y_nan", "json_not_object", "json_missing_field", "json_scale_inf",
            "json_box_norm_overflow", "json_ball_unknown_key", "json_box_unknown_key", "json_simplex_unknown_key",
            "json_l1_ball_unknown_key", "json_polytope_unknown_key", "json_box_dim", "json_box_wrong_dim",
            "json_polytope_dim", "json_ball_dim_float", "json_simplex_dim_str", "json_l1_ball_dim_bool"])
    def test_bad_input_is_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


@settings(max_examples=60, deadline=None)
@given(
    y=st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
               min_size=3, max_size=3),
    radius=st.floats(0.1, 10.0),
)
def test_ball_argmax_is_support_maximizer(y, radius):
    ball = Ball(dim=3, radius=radius)
    out = linear_argmax(ball, y)
    assert np.linalg.norm(out) <= radius + 1e-9
    probe = np.random.default_rng(0).standard_normal((20, 3))
    probe = radius * probe / np.maximum(np.linalg.norm(probe, axis=1, keepdims=True), 1e-12)
    assert np.dot(y, out) >= np.max(probe @ np.asarray(y)) - 1e-6 * max(1.0, np.abs(y).max())


@settings(max_examples=60, deadline=None)
@given(x=st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=4))
def test_l1_projection_is_idempotent_and_feasible(x):
    s = L1Ball(dim=4, radius=1.0)
    p = euclidean_project(s, x)
    assert s.feasibility_gap(p) <= 1e-9
    np.testing.assert_allclose(euclidean_project(s, p), p, atol=1e-12)
