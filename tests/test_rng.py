"""Per-round stream derivation: the in-place re-key equals a fresh generator."""

import numpy as np
import pytest

from pfol import RoundStream, round_rng


def draws(rng):
    return rng.bit_generator.random_raw(6), rng.standard_normal(3), rng.uniform(size=2)


def assert_same(a, b):
    for x, y in zip(draws(a), draws(b)):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1])
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("t", [1, 2**48 - 1])
def test_at_equals_round_rng(seed, stream, t):
    assert_same(RoundStream(seed, stream).at(t), round_rng(seed, stream, t))


def test_interleaved_streams_stay_independent():
    learner, adversary = RoundStream(7, 0), RoundStream(7, 1)
    for t in (1, 2, 3, 1, 5, 2**40):
        assert_same(learner.at(t), round_rng(7, 0, t))
        assert_same(adversary.at(t), round_rng(7, 1, t))


def test_round_index_out_of_range_raises():
    stream = RoundStream(0, 0)
    with pytest.raises(ValueError):
        stream.at(2**48)
    with pytest.raises(ValueError):
        round_rng(0, 0, 2**48)
