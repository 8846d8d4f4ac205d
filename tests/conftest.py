import numpy as np
import pytest

from pfol import Ball, oracle_output_sampler

REFERENCE_SEED = 20_240_611


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
