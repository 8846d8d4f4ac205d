"""Projection-free online convex optimization toolkit.

Feasible sets with exact linear-optimization oracles, one perturbed-leader
learner (sampled, blocked, or a Monte-Carlo expected-play reference),
projection-based baselines, stochastic-smoothing diagnostics, and a
deterministic benchmark harness with regret bounds and power-law fits.
"""

from .adversaries import (
    Adversary,
    LinearAdaptive,
    LinearStochastic,
    QuadraticAdaptive,
    QuadraticStochastic,
    make_adversary,
)
from .errors import ConfigError, ProtocolError
from .harness import (
    ExperimentConfig,
    ExponentFit,
    RegretTrace,
    RunSummary,
    best_in_hindsight,
    bound_check,
    fit_exponent,
    high_probability_bound,
    quantile_check,
    run_experiment,
    run_game,
    sweep,
    theoretical_bound,
    trace_to_csv,
)
from .learners import (
    OFW,
    OGD,
    InstrumentedSet,
    OnlineLearner,
    PerturbedLeader,
    blocking_delta,
    blocking_params,
    default_delta,
    perturbed_leader_points,
)
from .losses import LossFunction, linear_loss, quadratic_loss
from .rng import ADVERSARY_STREAM, LEARNER_STREAM, RoundStream, round_rng
from .sets import (
    Ball,
    Box,
    FeasibleSet,
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
from .smoothing import (
    MSEEstimate,
    SmoothedOracleEstimate,
    empirical_mse,
    expected_fpl_point_mc,
    lipschitz_audit,
    oracle_output_sampler,
    run_audit_suite,
    smooth_inequality_audit,
    smoothed_gradient_stokes,
    smoothed_value_mc,
)

__version__ = "0.1.0"
