"""Deterministic random-stream derivation.

One master seed fans out into independent per-round generators keyed by
(seed, stream, round). Every round owns a fresh counter-based stream, so a
round may consume any amount of randomness without shifting what any other
round sees; changing the per-round sample count therefore never perturbs
the rest of the trajectory. Streams are Philox-based: the (seed, stream, t)
triple is packed into the 128-bit cipher key, which makes derivation cheap
and platform-stable.
"""

from __future__ import annotations

import numpy as np

LEARNER_STREAM = 0
ADVERSARY_STREAM = 1

_MASK64 = (1 << 64) - 1


def _key(seed: int, stream: int, t: int) -> np.ndarray:
    if not 0 <= t < (1 << 48):
        raise ValueError(f"round index {t} out of the supported range [0, 2^48)")
    return np.array([int(seed) & _MASK64, (int(stream) << 48) | int(t)], dtype=np.uint64)


def round_rng(seed: int, stream: int, t: int) -> np.random.Generator:
    """Fresh generator for round ``t`` of logical stream ``stream``."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, t)))


class RoundStream:
    """Reusable per-round generator for hot loops.

    ``at(t)`` re-keys one shared Philox in place and returns a generator whose
    output is bit-identical to ``round_rng(seed, stream, t)``. The stream keeps
    one state dict whose key array it rewrites in its round word only; setting
    the state copies it into the generator and resets the counter and buffer.
    The returned generator is only valid until the next ``at`` call, so a
    RoundStream must never be shared between concurrent consumers; one
    instance per logical stream, exactly like a plain generator.
    """

    def __init__(self, seed: int, stream: int):
        self.seed = int(seed)
        self.stream = int(stream)
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._key = self._state["state"]["key"] = _key(self.seed, self.stream, 0)
        self._stream_word = int(self._key[1])

    def at(self, t: int) -> np.random.Generator:
        if not 0 <= t < (1 << 48):
            raise ValueError(f"round index {t} out of the supported range [0, 2^48)")
        self._key[1] = self._stream_word | t
        self._bitgen.state = self._state
        return self._gen
