"""Monte-Carlo smoothing diagnostics: values, gradients, variance, audits."""

import numpy as np
import pytest

from pfol import (
    Ball,
    Box,
    ConfigError,
    L1Ball,
    Simplex,
    empirical_mse,
    expected_fpl_point_mc,
    linear_argmax,
    linear_loss,
    lipschitz_audit,
    oracle_output_sampler,
    quadratic_loss,
    run_audit_suite,
    smooth_inequality_audit,
    smoothed_gradient_stokes,
    smoothed_value_mc,
)

from conftest import CallableLoss

BALL3 = Ball(dim=3, radius=1.0)


def combined_4sigma(a, b):
    return 4.0 * np.sqrt(np.asarray(a) ** 2 + np.asarray(b) ** 2)


class TestSmoothedValue:
    def test_value_at_zero_matches_radial_integral(self):
        # E ||v|| over the unit ball is d/(d+1) (integrate r * d r^(d-1) dr),
        # so the smoothed value at 0 is (d/(d+1)) / delta for a unit ball set
        delta = 0.5
        est = smoothed_value_mc(BALL3, np.zeros(3), delta, 100_000, np.random.default_rng(0))
        want = (3.0 / 4.0) / delta
        assert abs(est.value_mean - want) <= 4.0 * est.value_stderr

    def test_value_at_zero_below_norm_bound_over_delta(self):
        delta = 0.25
        est = smoothed_value_mc(BALL3, np.zeros(3), delta, 50_000, np.random.default_rng(1))
        assert est.value_mean <= BALL3.norm_bound / delta + 4.0 * est.value_stderr

    def test_huge_delta_recovers_plain_support_value(self):
        y = np.array([0.3, -0.7, 0.2])
        delta = 1e6
        est = smoothed_value_mc(BALL3, y, delta, 1000, np.random.default_rng(2))
        drift = BALL3.norm_bound / delta
        assert abs(est.value_mean - np.dot(y, linear_argmax(BALL3, y))) <= drift + 4.0 * est.value_stderr

    def test_independent_streams_agree(self):
        y = np.array([0.2, 0.1, -0.4])
        a = smoothed_value_mc(BALL3, y, 0.5, 40_000, np.random.default_rng(10))
        b = smoothed_value_mc(BALL3, y, 0.5, 40_000, np.random.default_rng(11))
        assert abs(a.value_mean - b.value_mean) <= combined_4sigma(a.value_stderr, b.value_stderr)

    def test_monotone_in_set_inclusion(self):
        y = np.array([0.5, 0.0, 0.1])
        small = smoothed_value_mc(Ball(dim=3, radius=1.0), y, 0.5, 40_000, np.random.default_rng(3))
        big = smoothed_value_mc(Ball(dim=3, radius=2.0), y, 0.5, 40_000, np.random.default_rng(4))
        assert small.value_mean <= big.value_mean + combined_4sigma(small.value_stderr,
                                                                    big.value_stderr)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            smoothed_value_mc(BALL3, np.zeros(3), 0.5, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            smoothed_value_mc(BALL3, np.zeros(3), 0.0, 10, np.random.default_rng(0))


class TestGradientEstimators:
    def test_stokes_estimate_stays_near_the_set(self):
        # the true gradient is a mean of feasible points, so its norm is <= D
        est = smoothed_gradient_stokes(BALL3, np.array([0.4, 0.2, -0.1]), 0.5, 50_000,
                                       np.random.default_rng(5))
        slack = 4.0 * float(np.linalg.norm(est.gradient_stderr))
        assert np.linalg.norm(est.gradient_mean) <= BALL3.norm_bound + slack

    def test_two_gradient_representations_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(2):
            y = 0.6 * rng.standard_normal(3)
            stokes = smoothed_gradient_stokes(BALL3, y, 0.5, 60_000, np.random.default_rng(7))
            direct = expected_fpl_point_mc(BALL3, -y, 0.5, 60_000, np.random.default_rng(8))
            gap = np.abs(stokes.gradient_mean - direct.gradient_mean)
            tol = combined_4sigma(stokes.gradient_stderr, direct.gradient_stderr)
            assert np.all(gap <= tol)

    def test_stokes_matches_finite_difference(self):
        y = np.array([0.4, -0.1, 0.2])
        h, delta = 1e-2, 0.5
        e1 = np.array([h, 0.0, 0.0])
        hi = smoothed_value_mc(BALL3, y + e1, delta, 200_000, np.random.default_rng(9))
        lo = smoothed_value_mc(BALL3, y - e1, delta, 200_000, np.random.default_rng(10))
        fd = (hi.value_mean - lo.value_mean) / (2 * h)
        fd_se = np.sqrt(hi.value_stderr**2 + lo.value_stderr**2) / (2 * h)
        stokes = smoothed_gradient_stokes(BALL3, y, delta, 100_000, np.random.default_rng(11))
        assert abs(fd - stokes.gradient_mean[0]) <= combined_4sigma(fd_se,
                                                                    stokes.gradient_stderr[0])

    def test_perturbed_leader_mean_symmetry(self):
        est = expected_fpl_point_mc(BALL3, np.zeros(3), 0.5, 40_000, np.random.default_rng(12))
        tol = 3.0 * 2.0 * BALL3.norm_bound / np.sqrt(40_000)
        assert np.linalg.norm(est.gradient_mean) <= tol

    def test_tiny_delta_is_still_symmetric_on_a_ball(self):
        est = expected_fpl_point_mc(BALL3, np.array([0.4, 0.1, 0.0]), 1e-6, 40_000,
                                    np.random.default_rng(13))
        tol = 3.0 * 2.0 * BALL3.norm_bound / np.sqrt(40_000)
        assert np.linalg.norm(est.gradient_mean) <= tol + 1e-4

    def test_huge_delta_recovers_unperturbed_leader(self):
        g = np.array([0.8, -0.2, 0.4])
        est = expected_fpl_point_mc(BALL3, g, 1e9, 100, np.random.default_rng(14))
        np.testing.assert_allclose(est.gradient_mean, linear_argmax(BALL3, -g), atol=1e-6)


class TestEmpiricalMSE:
    def test_single_draw_below_worst_case(self):
        sampler = oracle_output_sampler(BALL3, np.zeros(3), 1.0)
        mse = empirical_mse(sampler, 1, 4000, np.random.default_rng(15), bound=1.0,
                            reference_samples=400_000)
        assert mse.value <= 4.0 + 4.0 * mse.stderr

    def test_hundred_draws_meet_one_over_m_rate(self):
        sampler = oracle_output_sampler(BALL3, np.zeros(3), 1.0)
        mse = empirical_mse(sampler, 100, 2000, np.random.default_rng(16), bound=1.0,
                            reference_samples=400_000)
        assert mse.value <= 4.0 / 100.0 + 4.0 * mse.stderr

    def test_deterministic_sampler_has_zero_error(self):
        point = np.array([0.25, -0.5, 0.1])

        def constant(rng, count):
            return np.tile(point, (count, 1))

        mse = empirical_mse(constant, 5, 100, np.random.default_rng(17), bound=1.0,
                            reference_samples=1000)
        assert mse.value <= 1e-24

    def test_bound_violation_detected(self):
        def too_big(rng, count):
            return np.full((count, 2), 10.0)

        with pytest.raises(ValueError, match="above the declared bound"):
            empirical_mse(too_big, 2, 10, np.random.default_rng(18), bound=1.0,
                          reference_samples=100)

    def test_invalid_parameters(self):
        sampler = oracle_output_sampler(BALL3, np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            empirical_mse(sampler, 0, 10, np.random.default_rng(0), bound=1.0)


class TestLipschitzAudit:
    def test_unit_sets_stay_at_one(self):
        rng = np.random.default_rng(19)
        assert lipschitz_audit(Ball(dim=3, radius=1.0), 4000, rng) <= 1.0 + 1e-9
        assert lipschitz_audit(Simplex(dim=3, scale=1.0), 4000, rng) <= 1.0 + 1e-9
        assert lipschitz_audit(L1Ball(dim=3, radius=1.0), 4000, rng) <= 1.0 + 1e-9

    def test_box_corner_norm_is_the_constant(self):
        box = Box(lower=-np.ones(4), upper=np.ones(4))
        ratio = lipschitz_audit(box, 4000, np.random.default_rng(20))
        assert ratio <= 2.0 * (1 + 1e-9)

    def test_ratio_gets_close_to_the_constant_on_a_ball(self):
        # radially aligned pairs achieve |dM| = D ||dy||, so the max approaches D
        ratio = lipschitz_audit(Ball(dim=2, radius=1.0), 8000, np.random.default_rng(21))
        assert 0.9 <= ratio <= 1.0 + 1e-9


class TestSmoothInequalityAudit:
    def test_quadratic_never_violates(self):
        loss = quadratic_loss([0.2, -0.1, 0.3], 2.0)
        violation = smooth_inequality_audit(loss, BALL3, 1000, np.random.default_rng(22))
        assert max(0.0, violation) == 0.0

    def test_linear_slack_is_exactly_zero(self):
        loss = linear_loss([1.0, -2.0, 0.5])
        violation = smooth_inequality_audit(loss, BALL3, 500, np.random.default_rng(23))
        assert violation == 0.0

    def test_psd_quadratic_with_eigenvalue_constant(self):
        rng = np.random.default_rng(24)
        root = rng.standard_normal((3, 3))
        mat = root.T @ root
        top = float(np.linalg.eigvalsh(mat)[-1])
        center = np.array([0.1, 0.0, -0.2])
        loss = CallableLoss(
            evaluate=lambda x: 0.5 * float((x - center) @ mat @ (x - center)),
            gradient=lambda x: mat @ (x - center),
            grad_bound=top * (BALL3.norm_bound + float(np.linalg.norm(center))),
            smoothness=top,
        )
        violation = smooth_inequality_audit(loss, BALL3, 1000, np.random.default_rng(25))
        assert violation <= 1e-9

    def test_understated_smoothness_is_caught(self):
        # convex losses satisfy the inequality for any declared constant
        # (gradient monotonicity), so sensitivity is probed with a concave
        # quadratic whose true gradient Lipschitz constant is understated
        bad = CallableLoss(
            evaluate=lambda x: -0.5 * float(np.dot(x, x)),
            gradient=lambda x: -x,
            grad_bound=BALL3.norm_bound,
            smoothness=0.1,
        )
        violation = smooth_inequality_audit(bad, BALL3, 2000, np.random.default_rng(27))
        assert violation > 0.0


@pytest.mark.parametrize("seed", [-1, 2.0, "0"])
def test_audit_suite_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        run_audit_suite(seed, samples=2)


def test_audit_suite_reports_and_passes():
    reports = run_audit_suite(seed=0, samples=4000)
    assert reports, "audit battery produced no reports"
    for rep in reports:
        assert set(rep) == {"audit_name", "estimate", "stderr", "bound", "pass"}
        assert rep["pass"], f"audit {rep['audit_name']} failed: {rep}"
