"""Deterministic random-stream derivation.

One master seed fans out into independent per-round generators keyed by
(seed, stream, round). Every round owns a fresh counter-based stream, so a
round may consume any amount of randomness without shifting what any other
round sees; changing the per-round sample count therefore never perturbs
the rest of the trajectory. Streams are Philox-based: the (seed, stream, t)
triple is packed into the 128-bit cipher key, which makes derivation cheap
and platform-stable.

Two ways reach the same bits. ``RoundStream.at(t)`` re-keys one numpy
Philox in place and hands out numpy's generator, for any draw. For many
rounds at once, ``philox_words`` computes the Philox4x64-10 words of every
(round, counter) pair in one vectorized numpy pass, and ``sets.round_rows``
decodes them as numpy's normal and uniform draws would; its docstring says
which calls and rounds it draws through ``RoundStream.at`` instead.
"""

from __future__ import annotations

import numpy as np

LEARNER_STREAM = 0
ADVERSARY_STREAM = 1

_MASK64 = (1 << 64) - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # Philox4x64 multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Philox4x64 key increments (Weyl constants)
_LO32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _key(seed: int, stream: int, t: int) -> np.ndarray:
    if not 0 <= t < (1 << 48):
        raise ValueError(f"round index {t} out of the supported range [0, 2^48)")
    return np.array([int(seed) & _MASK64, (int(stream) << 48) | int(t)], dtype=np.uint64)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products a * m, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    mid = a_hi * m_lo + ((a_lo * m_lo) >> _SHIFT32)
    carry = a_lo * m_hi + (mid & _LO32)
    return a * np.uint64(m), a_hi * m_hi + (mid >> _SHIFT32) + (carry >> _SHIFT32)


def philox_words(seed: int, stream: int, rounds: range, blocks: int) -> np.ndarray:
    """(len(rounds), 4 * blocks) uint64: the first raw words of every round's generator.

    Row i equals ``round_rng(seed, stream, rounds[i]).bit_generator.random_raw(4 * blocks)``
    bit for bit: Philox4x64-10 (Salmon et al., SC'11) under the key
    ``_key(seed, stream, t)`` at counters 1, 2, ..., blocks, computed for
    every (round, counter) pair at once. As in ``_key``, the seed is masked
    to 64 bits and a round outside [0, 2^48) raises ``ValueError``.
    """
    if not len(rounds):
        return np.empty((0, 4 * blocks), dtype=np.uint64)
    # _key at both ends of the range checks every round and masks the seed
    k0 = int(_key(seed, stream, min(rounds[0], rounds[-1]))[0])
    _key(seed, stream, max(rounds[0], rounds[-1]))
    k1 = np.uint64(int(stream) << 48) | np.arange(rounds.start, rounds.stop, rounds.step, dtype=np.uint64)[:, None]
    # counter (j, 0, 0, 0); broadcasting keeps the first two rounds on the small shapes
    v0, v1, v2, v3 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :], *np.zeros((3, 1, 1), dtype=np.uint64)
    for r in range(10):
        lo0, hi0 = _mulhilo(v0, _M0)
        lo1, hi1 = _mulhilo(v2, _M1)
        key0 = np.array((k0 + r * _W0) & _MASK64, dtype=np.uint64)
        v0, v1, v2, v3 = hi1 ^ v1 ^ key0, lo1, hi0 ^ v3 ^ (k1 + np.uint64(r * _W1 & _MASK64)), lo0
    return np.stack((v0, v1, v2, v3), axis=-1).reshape(len(rounds), 4 * blocks)  # full shapes from round 3 on


def round_rng(seed: int, stream: int, t: int) -> np.random.Generator:
    """Fresh generator for round ``t`` of logical stream ``stream``."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, t)))


class RoundStream:
    """Reusable per-round generator for hot loops.

    ``at(t)`` re-keys one shared Philox in place and returns a generator whose
    output is bit-identical to ``round_rng(seed, stream, t)``. The stream keeps
    one state dict whose key it rewrites in its round word only; setting the
    state copies it into the generator and resets the counter and buffer. The
    dict holds Python ints, which the setter reads faster than numpy scalars.
    The returned generator is only valid until the next ``at`` call, so a
    RoundStream must never be shared between concurrent consumers; one
    instance per logical stream, exactly like a plain generator.
    """

    def __init__(self, seed: int, stream: int):
        self.seed = int(seed)
        self.stream = int(stream)
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._key = [int(word) for word in _key(self.seed, self.stream, 0)]
        self._state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._stream_word = self._key[1]

    def at(self, t: int) -> np.random.Generator:
        if not 0 <= t < (1 << 48):
            raise ValueError(f"round index {t} out of the supported range [0, 2^48)")
        self._key[1] = self._stream_word | t
        self._bitgen.state = self._state
        return self._gen
