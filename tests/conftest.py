import numpy as np
import pytest
from hypothesis import settings

from pfol import Ball, LossFunction, oracle_output_sampler

# The gate draws the same Hypothesis examples on every run, so a PASS is repeatable and no failing
# example saved from an earlier run can turn it red; `pytest --hypothesis-profile=default` draws new ones.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

REFERENCE_SEED = 20_240_611


class CallableLoss(LossFunction):
    """A loss from two callables, for tests of code that takes any LossFunction."""

    __slots__ = ("evaluate", "gradient", "smoothness", "center", "direction")

    def __init__(self, evaluate, gradient, grad_bound, smoothness=0.0, center=None, direction=None):
        super().__init__(grad_bound, evaluate=evaluate, gradient=gradient, smoothness=smoothness,
                         center=center, direction=direction)


@pytest.fixture(scope="session")
def ball_oracle_reference(pytestconfig):
    """High-accuracy mean of the d=3 ball-oracle-output sampler (10^7 draws).

    Cached across runs with its seed recorded so audits replay identically;
    computed afresh when the cache plugin is off (``-p no:cacheprovider``).
    """
    key = "pfol/ball_oracle_reference_d3"
    cache = getattr(pytestconfig, "cache", None)
    cached = cache.get(key, None) if cache is not None else None
    if cached is not None and cached.get("seed") == REFERENCE_SEED:
        return np.asarray(cached["mean"])
    sampler = oracle_output_sampler(Ball(dim=3, radius=1.0), np.zeros(3), 1.0)
    rng = np.random.default_rng(REFERENCE_SEED)
    total = np.zeros(3)
    remaining = 10_000_000
    while remaining:
        take = min(1 << 19, remaining)
        total += sampler(rng, take).sum(axis=0)
        remaining -= take
    mean = total / 10_000_000
    if cache is not None:
        cache.set(key, {"seed": REFERENCE_SEED, "mean": mean.tolist()})
    return mean
