"""Deterministic random-stream derivation.

One master seed fans out into independent random words keyed by
(seed, stream, round). Each round owns its words, so a round may consume
any amount of randomness without shifting what any other round sees.
Streams are Philox4x64-10 (Salmon et al., SC'11), numpy's C
implementation: derivation is cheap and platform-stable.

A round's words come from one of two counter layouts of the same cipher,
and ``sets.round_rows`` says which rounds read which:

- per-round: ``RoundStream.at(t)`` re-keys one numpy Philox to the key
  (seed, stream << 48 | t) and hands out numpy's generator, whose words
  run at counters 1, 2, ... of that key;
- round-major: ``RoundStream.words`` reads the rounds of a call in one
  ``random_raw`` call under the key (seed, stream), where round t, draw
  i = t // step of a call stepping by ``step``, owns the ``blocks``
  counters i * blocks + 1, ..., (i + 1) * blocks, each with its top word
  set to 1.

The two layouts never read the same words. The keys can coincide (the
round-major key of stream s is the per-round key of round s of stream 0),
but every round-major counter has its top word set, and a per-round
generator counts up from 0 and would have to draw 2^192 blocks to set it.
A round outside [0, 2^48) raises ``ValueError``. So a draw index, at most
its round, lies in [0, 2^48) too, and a round-major counter is at most
2^48 * blocks, below 2^52 for the at most 9 blocks of a round, within its
64-bit word.
"""

from __future__ import annotations

import numpy as np

LEARNER_STREAM = 0
ADVERSARY_STREAM = 1

_MASK64 = (1 << 64) - 1


def _check_round(t: int) -> None:
    if not 0 <= t < (1 << 48):
        raise ValueError(f"round index {t} out of the supported range [0, 2^48)")


def _key(seed: int, stream: int, t: int) -> np.ndarray:
    _check_round(t)
    return np.array([int(seed) & _MASK64, (int(stream) << 48) | int(t)], dtype=np.uint64)


def round_rng(seed: int, stream: int, t: int) -> np.random.Generator:
    """Fresh generator for round ``t`` of logical stream ``stream``."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, t)))


def _state(key: list, counter: list) -> dict:
    return {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


class RoundStream:
    """Reusable per-round generator and round-major words for hot loops.

    ``at(t)`` re-keys one shared Philox in place and returns a generator whose
    output is bit-identical to ``round_rng(seed, stream, t)``. ``words`` sets
    the same Philox to the round-major layout (see the module docstring).
    The stream keeps one state dict per layout and rewrites only its round
    word or first counter; setting the state copies it into the generator
    and resets the counter and buffer. The dicts hold Python ints, which the
    setter reads faster than numpy scalars. The returned generator is only
    valid until the next ``at`` or ``words`` call, so a RoundStream must
    never be shared between concurrent consumers; one instance per logical
    stream, exactly like a plain generator.
    """

    def __init__(self, seed: int, stream: int):
        self.seed = int(seed)
        self.stream = int(stream)
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._key = [int(word) for word in _key(self.seed, self.stream, 0)]
        self._state = _state(self._key, [0, 0, 0, 0])
        self._stream_word = self._key[1]
        self._major = _state([self._key[0], self.stream], [0, 0, 0, 1])

    def at(self, t: int) -> np.random.Generator:
        _check_round(t)
        self._key[1] = self._stream_word | t
        self._bitgen.state = self._state
        return self._gen

    def words(self, rounds: range, blocks: int) -> np.ndarray:
        """(len(rounds), 4 * blocks) uint64: the round-major words of ``rounds``, one row per round.

        ``rounds`` steps up by ``step``, and round t reads the blocks of draw
        i = t // step; all rows come from one ``random_raw`` call. A round
        outside [0, 2^48) raises ``ValueError``, as ``at`` does.
        """
        if not len(rounds):
            return np.empty((0, 4 * blocks), dtype=np.uint64)
        _check_round(rounds[0])
        _check_round(rounds[-1])
        self._major["state"]["counter"][0] = rounds[0] // rounds.step * blocks
        self._bitgen.state = self._major
        return self._bitgen.random_raw(4 * blocks * len(rounds)).reshape(len(rounds), 4 * blocks)
