"""Deterministic random-stream derivation and the per-round draw.

One master seed fans out into independent random words keyed by
(seed, stream, round). Each round owns its words, so a round may consume
any amount of randomness without shifting what any other round sees.
Streams are Philox4x64-10 (Salmon et al., SC'11), numpy's C
implementation: derivation is cheap and platform-stable. This module is
the one place that decides which words a round reads and how they become
normals and uniforms.

A round's words come from one of two counter layouts of the same cipher:

- per-round: ``RoundStream.at(t)`` re-keys one numpy Philox to the key
  (seed, stream << 48 | t) and hands out numpy's generator, whose words
  run at counters 1, 2, ... of that key;
- round-major: ``RoundStream.words`` reads the rounds of a call in one
  ``random_raw`` call under the key (seed, stream), where round t, draw
  i = t // step of a call stepping by ``step``, owns the ``blocks``
  counters i * blocks + 1, ..., (i + 1) * blocks, each with its top word
  set to 1.

``round_rows`` draws a round's count * dim standard normals, then count
uniforms for the ball, and turns them into unit-ball (or unit-sphere)
rows. Which layout a round reads follows from its width, normals plus
uniforms in raw 64-bit words; the cut at ``_VECTOR_MAX_WORDS`` (32) is
part of what a round's draws are:

- A narrow round, of at most 32 words, owns B = (words + 1) // 4 + 1
  round-major blocks (two spare words at least). A call of many rounds
  reads them in chunks of about ``_VECTOR_CHUNK_BLOCKS`` blocks, one
  ``random_raw`` call each, and decodes them as numpy does: a normal by
  the fast path of numpy's 256-layer ziggurat (Marsaglia & Tsang 2000;
  tables in ``_ziggurat``), a uniform as (w >> 11) * 2^-53. A round with a
  normal outside the fast path (the tail layer, or a wedge test; about 1
  round in 5 at d = 16) is decoded again from its words by
  ``_missed_draws``. The few rounds whose walk needs more words than their
  blocks hold (under 1% of rounds up to 16 words, up to 6% at 30) read on
  from the first words of their per-round generator. A call of one round
  draws through numpy's generator set to the round's first round-major
  counter instead, and falls back to the decode when that reads past its
  blocks. So a narrow round's draws are numpy's ``standard_normal`` and
  ``random`` on a generator at its first round-major counter whenever they
  stay within its blocks, whether a call draws it alone or in a table of
  thousands.
- A wider round draws through numpy's generator at ``RoundStream.at(t)``:
  numpy's C ziggurat beats the decode there.

A perturbed leader's rounds are narrow when samples * (d + 1) is at most
32 (samples = 1 up to d = 31), and so are the stochastic adversaries'
rows up to d = 31 (ball) and d = 32 (sphere).

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

import math

import numpy as np

from ._ziggurat import FI, INV_R, KI, R, WI

LEARNER_STREAM = 0
ADVERSARY_STREAM = 1

_MASK64 = (1 << 64) - 1
ROUND_LIMIT = 1 << 48  # a stream keys rounds 0, 1, ..., ROUND_LIMIT - 1


def _check_round(t: int) -> None:
    if not 0 <= t < ROUND_LIMIT:
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
    the same Philox to the round-major layout (see the module docstring), and
    ``round_rows`` sets it to one round's first round-major counter to draw
    a lone round through the generator. The stream keeps one state dict per
    layout and rewrites only its round word or first counter; setting the
    state copies it into the generator and resets the counter and buffer.
    The dicts hold Python ints, which the setter reads faster than numpy
    scalars. The returned generator is only valid until the next ``at`` or
    ``words`` call, so a RoundStream must never be shared between
    concurrent consumers; one instance per logical stream, exactly like a
    plain generator.
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


# round_rows' cut between the round-major decode and numpy's per-round generator. The cut
# is part of what a round's draws are: moving it changes the traces. Timed over 4096 rounds
# (2 cores, numpy 2.4.6, two runs), the decode costs 0.07-0.09x numpy's per-round draws at 4
# words a round, 0.19x at 16, 0.36-0.42x at 32 and 0.48-0.55x at 40, but 2.5-2.6x at 340 words
# (20 samples in d = 16) and 3.6-3.7x at 384 (64 in d = 5). One round alone would cost about
# 30 us, or 75-150 us when it misses the fast path, so a lone round draws through numpy's
# generator (12-25 us with the row transform). Chunks of 8192 blocks ran fastest (2048, 32768
# and unchunked tried) and keep each pass's words at 256 KiB.
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


def _drawn_alone(stream, rounds: range, blocks: int, z: np.ndarray, u: np.ndarray, ball: bool) -> bool:
    """Draw the one narrow round of ``rounds`` into z (and u) by numpy's generator; False if it read past its blocks.

    The generator starts at the round's first round-major counter, where the
    decode would read the round's words (see ``round_rows``).
    """
    _check_round(rounds[0])
    first = rounds[0] // rounds.step * blocks
    stream._major["state"]["counter"][0] = first
    stream._bitgen.state = stream._major
    stream._gen.standard_normal(out=z)
    if ball:
        stream._gen.random(out=u)
    return stream._bitgen.state["state"]["counter"][0] <= first + blocks


def round_rows(stream, rounds: range, count: int, dim: int, *, ball: bool) -> np.ndarray:
    """(len(rounds), count, dim) unit-ball (or unit-sphere) rows for the given rounds of a RoundStream.

    ``rounds`` steps up; round t's draws depend on t and that step only,
    never on the other rounds of the call. The module docstring says which
    words a round reads and how they are decoded. The rows come from one
    row-wise transform over the whole block, as ``sample_unit_ball_batch``
    (or ``sample_unit_sphere_batch``) makes them from a generator's draws.
    A lone narrow round's draws equal the decode's by construction: within
    its blocks both are numpy's walk on the same words, and past them the
    lone round takes the decode.
    """
    z = np.empty((len(rounds), count, dim))
    u = np.empty(z.shape[:2])
    normals = count * dim
    words = normals + count * ball
    blocks = (words + 1) // 4 + 1  # two spare words at least: with fewer, 2-26% of rounds run out of words
    if words > _VECTOR_MAX_WORDS:
        for i, t in enumerate(rounds):
            rng = stream.at(t)
            rng.standard_normal(out=z[i])
            if ball:
                rng.random(out=u[i])
    elif len(rounds) != 1 or not _drawn_alone(stream, rounds, blocks, z[0], u[0], ball):
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
    flat = z.reshape(-1, dim)
    return (unit_ball_rows(flat, u.ravel()) if ball else unit_sphere_rows(flat)).reshape(z.shape)
