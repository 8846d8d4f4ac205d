"""Random-stream derivation: the in-place re-key equals a fresh numpy
generator, the round-major words equal numpy's Philox at their counters, and
``round_rows`` equals numpy's own ziggurat on each round's words, whatever
the call that draws the round."""

import importlib.util
import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

import pfol.rng
from pfol import RoundStream, round_rng
from pfol._ziggurat import FI, INV_R, KI, R, WI
from pfol.rng import _key, round_rows, unit_ball_rows, unit_sphere_rows

OUT_OF_RANGE = r"round index 281474976710656 out of the supported range \[0, 2\^48\)"


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
        learner.words(range(t, t + 3), 2)  # round-major words between two re-keys leave no trace
        assert_same(adversary.at(t), round_rng(7, 1, t))
        assert_same(learner.at(t), round_rng(7, 0, t))


def test_round_index_out_of_range_raises():
    stream = RoundStream(0, 0)
    with pytest.raises(ValueError):
        stream.at(2**48)
    with pytest.raises(ValueError):
        round_rng(0, 0, 2**48)


MASK64 = 2**64 - 1


def major_philox(seed, stream, t, step, blocks):
    """numpy's Philox keyed (seed, stream) at round t's first round-major counter."""
    return np.random.Philox(key=np.array([seed & MASK64, stream], dtype=np.uint64),
                            counter=np.array([t // step * blocks, 0, 0, 1], dtype=np.uint64))


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1])
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5, 9])
def test_words_equal_numpy_at_round_major_counters(seed, stream, step, blocks):
    for rounds in (range(2 * step, 40 * step, step), range(12345 * step + 1, 12350 * step, step)):
        words = RoundStream(seed, stream).words(rounds, blocks)
        assert words.shape == (len(rounds), 4 * blocks)
        for row, t in zip(words, rounds):
            np.testing.assert_array_equal(row, major_philox(seed, stream, t, step, blocks).random_raw(4 * blocks))


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**64 + 5, 2**70 + 3])
def test_words_mask_seeds_as_key_does(seed):
    words = RoundStream(seed, 0).words(range(3, 6), 2)
    np.testing.assert_array_equal(words, RoundStream(seed & MASK64, 0).words(range(3, 6), 2))
    np.testing.assert_array_equal(words[0], major_philox(seed, 0, 3, 1, 2).random_raw(8))


@pytest.mark.parametrize("step", [1, 4])
def test_words_round_range_checked(step):
    stream, top = RoundStream(0, 0), 2**48 - 1
    # the last round's draw index, 2^48 - 1 at step 1, reads counters up to 2^48 * 9, which fit in their word
    last = stream.words(range(top - step, top + 1, step), 9)
    np.testing.assert_array_equal(last[-1], major_philox(0, 0, top, step, 9).random_raw(36))
    with pytest.raises(ValueError, match=r"round index 28147497671065\d out of the supported range \[0, 2\^48\)"):
        stream.words(range(top - 2 * step, top + step + 1, step), 1)
    with pytest.raises(ValueError, match="round index -1 out of the supported range"):
        stream.words(range(-1, 5), 1)
    assert stream.words(range(4, 4), 2).shape == (0, 8)


def test_round_major_words_differ_from_per_round_words_under_the_same_key():
    # the round-major key of stream 1 is the per-round key of round 1 of stream 0; the counter's top word,
    # which a per-round generator never reaches, keeps their words apart
    np.testing.assert_array_equal(_key(9, 0, 1), [9, 1])
    major = RoundStream(9, 1).words(range(64), 2).ravel()
    assert not np.isin(major, round_rng(9, 0, 1).bit_generator.random_raw(len(major))).any()


def test_round_rows_round_range_checked():
    stream = RoundStream(0, 0)
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        round_rows(stream, range(2**48 - 300, 2**48 + 1), 1, 3, ball=True)
    rounds = range(2**48 - 300, 2**48)
    got = round_rows(stream, rounds, 1, 3, ball=True)
    assert got.tobytes() == reference_rows(0, 0, rounds, 1, 3, ball=True)[0].tobytes()


class CountingStream(RoundStream):
    """A RoundStream that records the rounds it is re-keyed to."""

    def __init__(self, seed, stream):
        super().__init__(seed, stream)
        self.calls = []

    def at(self, t):
        self.calls.append(t)
        return super().at(t)


class MajorGenerator:
    """numpy's own generator on a Philox keyed (seed, stream), set to any counter as
    ``Philox(key=..., counter=...)`` starts, and the raw words it has read since."""

    def __init__(self, seed, stream):
        self.bitgen = np.random.Philox(key=np.array([seed & MASK64, stream], dtype=np.uint64))
        self.gen = np.random.Generator(self.bitgen)
        self.state = self.bitgen.state

    def at(self, counter):
        self.first = counter
        self.state["state"]["counter"] = np.array([counter, 0, 0, 1], dtype=np.uint64)
        self.bitgen.state = self.state
        return self.gen

    def read(self):
        state = self.bitgen.state
        return 4 * (int(state["state"]["counter"][0]) - self.first - 1) + state["buffer_pos"]


def reference_rows(seed, stream, rounds, count, dim, *, ball):
    """round_rows by numpy's own generator, and the narrow rounds that run out of their round-major words.

    A wide round draws from its per-round generator, a narrow one from a
    generator set to its first round-major counter. A narrow round whose draws
    read past its blocks is instead walked (``ziggurat_walk``) over its
    round-major words and then its per-round words.
    """
    normals, uniforms = count * dim, count * ball
    blocks = (normals + uniforms + 1) // 4 + 1
    narrow = normals + uniforms <= pfol.rng._VECTOR_MAX_WORDS
    major = MajorGenerator(seed, stream)
    z, u, short = np.empty((len(rounds), count, dim)), np.empty((len(rounds), count)), []
    for i, t in enumerate(rounds):
        rng = major.at(t // rounds.step * blocks) if narrow else round_rng(seed, stream, t)
        rng.standard_normal(out=z[i])
        if ball:
            rng.random(out=u[i])
        if narrow and major.read() > 4 * blocks:
            short.append(t)
            words = np.concatenate((major_philox(seed, stream, t, rounds.step, blocks).random_raw(4 * blocks),
                                    round_rng(seed, stream, t).bit_generator.random_raw(256)))
            zz, uu, _ = ziggurat_walk(words.tolist(), normals, uniforms)
            z[i], u[i, :uniforms] = np.reshape(zz, (count, dim)), uu
    flat = z.reshape(-1, dim)
    rows = unit_ball_rows(flat, u.ravel()) if ball else unit_sphere_rows(flat)
    return rows.reshape(z.shape), short


def fast_path_misses(seed, stream, rounds, normals):
    """Per round, the layer index of every normal draw the ziggurat's fast path rejects."""
    words = RoundStream(seed, stream).words(rounds, -(-normals // 4))[:, :normals]
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    miss = ((words >> np.uint64(9)) & np.uint64((1 << 52) - 1)) >= KI[idx]
    return [idx[i][miss[i]] for i in range(len(rounds))]


def where_decode(words):
    """The fast-path decode with the sign taken by ``np.where``, and each word's miss."""
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    x = rabs * WI[idx]
    return np.where(words & np.uint64(0x100), -x, x), rabs >= KI[idx]


def test_fast_normals_equal_the_where_decode_on_crafted_words():
    # every layer at r = 0, at each side of its edge KI[i] and at the top, with either sign,
    # and with the bits above r (61-63) set or clear
    words = [(r << 9) | (sign << 8) | i | (top << 61)
             for i, ki in enumerate(KI.tolist())
             for r in sorted({0, max(ki - 1, 0), ki, min(ki + 1, 2**52 - 1), 2**52 - 1})
             for sign in (0, 1) for top in (0, 7)]
    words = np.array(words, dtype=np.uint64)
    for shape in ((-1, 1), (-1, 4)):
        w = words[:len(words) // 4 * 4].reshape(shape)
        out = np.full(w.shape, np.nan)
        misses = pfol.rng._fast_normals(w, out)
        want, want_misses = where_decode(w)
        assert out.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        np.testing.assert_array_equal(misses, want_misses)
    out = np.empty((1, 2))
    pfol.rng._fast_normals(np.array([[0x100, 0x105]], dtype=np.uint64), out)  # r = 0 with the sign bit set
    assert (out == 0).all() and np.signbit(out).all()


def ziggurat_walk(words, normals, uniforms):
    """numpy's ``random_standard_normal`` and uniforms on a list of raw words, in Python; and the branches taken.

    A third decode, independent of ``round_rows``: it finds the rounds whose
    draws take the ziggurat's rare branches.
    """
    words, taken = iter(words), {"words": 0, "tails": 0, "tail_rejects": 0, "wedges": 0, "wedge_rejects": 0}

    def word():
        taken["words"] += 1
        return next(words)

    out = []
    while len(out) < normals:
        w = word()
        i, rabs = w & 0xFF, (w >> 9) & (2**52 - 1)
        x = -(rabs * float(WI[i])) if w >> 8 & 1 else rabs * float(WI[i])
        if rabs < int(KI[i]):
            out.append(x)
        elif i == 0:
            taken["tails"] += 1
            while True:
                xx = -INV_R * math.log1p(-(word() >> 11) * 2.0**-53)
                yy = -math.log1p(-(word() >> 11) * 2.0**-53)
                if yy + yy > xx * xx:
                    out.append(-(R + xx) if rabs >> 8 & 1 else R + xx)
                    break
                taken["tail_rejects"] += 1
        else:
            taken["wedges"] += 1
            if (float(FI[i - 1]) - float(FI[i])) * ((word() >> 11) * 2.0**-53) + float(FI[i]) < math.exp(-0.5 * x * x):
                out.append(x)
            else:
                taken["wedge_rejects"] += 1
    return out, [(word() >> 11) * 2.0**-53 for _ in range(uniforms)], taken


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("ball", [True, False])
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("dim", [1, 5, 16, 32])  # 32: the widest narrow round, wide with a uniform or a second row
def test_round_rows_equal_numpy(seed, ball, count, dim):
    # enough normals (~40,000) that tail (layer 0) and wedge misses both occur
    n = max(256, 40_000 // (count * dim))
    rounds = range(6, 6 + 3 * n, 3) if count == 2 else range(1, n + 1)
    stream = 1
    got = round_rows(fast := CountingStream(seed, stream), rounds, count, dim, ball=ball)
    want, short = reference_rows(seed, stream, rounds, count, dim, ball=ball)
    assert got.tobytes() == want.tobytes()
    if count * (dim + ball) > pfol.rng._VECTOR_MAX_WORDS:  # wide rounds stay on numpy's per-round generator
        assert fast.calls == list(rounds)
        return
    layers = np.concatenate(fast_path_misses(seed, stream, rounds, count * dim))
    assert (layers == 0).any() and (layers != 0).any()  # tail and wedge misses occurred
    # only the rounds that run out of their blocks read per-round words
    assert sorted(set(fast.calls)) == short
    if count * (dim + ball) % 4 == 2:  # with two spare words in the blocks, some rounds run out of them
        assert short


def test_round_rows_decode_the_rare_branches():
    # 32 normals leave 4 spare words in 9 blocks; this window of stream 1 under seed 0 holds rejected tail
    # attempts, two tails in one round and rounds that run out of words
    seed, stream, rounds = 0, 1, range(14000, 21500)
    got = round_rows(fast := CountingStream(seed, stream), rounds, 2, 16, ball=False)
    want, short = reference_rows(seed, stream, rounds, 2, 16, ball=False)
    assert got.tobytes() == want.tobytes()
    words = RoundStream(seed, stream).words(rounds, 9)
    missed = np.flatnonzero(pfol.rng._fast_normals(words[:, :32], np.empty((len(rounds), 32))).any(axis=1))
    per_round = [round_rng(seed, stream, rounds[i]).bit_generator.random_raw(64) for i in missed]
    taken = [ziggurat_walk(np.concatenate((words[i], more)).tolist(), 32, 0)[2] for i, more in zip(missed, per_round)]
    assert any(t["tail_rejects"] for t in taken) and any(t["tails"] >= 2 for t in taken)
    assert any(t["wedge_rejects"] >= 2 for t in taken) and any(t["words"] > 36 for t in taken)
    # only the rounds that read past their 36 words read on from their per-round words
    assert fast.calls == short == [rounds[i] for i, t in zip(missed, taken) if t["words"] > 36]


HIT = (1000 << 9) | 3  # layer 3 inside the fast path: 1000 * WI[3]
TAIL = ((1 << 52) - 1) << 9  # layer 0 outside the fast path: a tail draw
WEDGE = (((1 << 52) - 1) << 9) | 5  # layer 5 outside the fast path: a wedge test
ZERO, ONE = 0, MASK64  # as uniforms: 0 rejects a tail attempt, 1 - 2^-53 a wedge test at the layer's edge


class CraftedStream(CountingStream):
    """A RoundStream whose chosen rounds read given round-major words, and given first per-round words."""

    def __init__(self, seed, stream, major, lead):
        super().__init__(seed, stream)
        self.major, self.lead = major, lead

    def words(self, rounds, blocks):
        words = super().words(rounds, blocks)
        for i, t in enumerate(rounds):
            if t in self.major:
                words[i] = self.major[t]
        return words

    def per_round(self, t, n):
        lead = np.array(self.lead.get(t, []), dtype=np.uint64)
        return np.concatenate((lead, round_rng(self.seed, self.stream, t).bit_generator.random_raw(n)))[:n]

    def at(self, t):
        super().at(t)
        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda n: self.per_round(t, n)))


@pytest.mark.parametrize("dim,ball,major,lead,reads", [
    # the last normal is a tail draw whose two attempts in the blocks both reject
    (16, False, [HIT] * 15 + [TAIL] + [ZERO] * 4, [], 1),
    # wedge tests reject until the last normal's test reads its uniform from the per-round words
    (16, False, [HIT] * 15 + [WEDGE, ONE, WEDGE, ONE, WEDGE], [], 1),
    # a tail attempt straddles the blocks' end, and the uniform follows on the per-round words
    (15, True, [HIT] * 14 + [TAIL] + [ZERO] * 5, [], 1),
    # the first per-round words reject as well, so the round reads on a second time
    (16, False, [HIT] * 15 + [TAIL] + [ZERO] * 4, [ZERO] * 20, 2),
])
def test_round_rows_read_on_from_per_round_words_on_crafted_words(dim, ball, major, lead, reads):
    seed, stream, crafted = 3, 0, [7, 100]
    rounds = range(1, 301)
    got = round_rows(fast := CraftedStream(seed, stream, dict.fromkeys(crafted, major), dict.fromkeys(crafted, lead)),
                     rounds, 1, dim, ball=ball)
    plain = round_rows(natural := CountingStream(seed, stream), rounds, 1, dim, ball=ball)
    kept = [t - 1 for t in rounds if t not in crafted]
    assert got[kept].tobytes() == plain[kept].tobytes()
    for t in crafted:
        z, u, taken = ziggurat_walk(major + fast.per_round(t, 256).tolist(), dim, int(ball))
        assert taken["words"] > len(major) and taken["tail_rejects"] + taken["wedge_rejects"] >= 2
        want = unit_ball_rows(np.array([z]), np.array(u)) if ball else unit_sphere_rows(np.array([z]))
        assert got[t - 1].tobytes() == want.tobytes()
        # a lone round draws by numpy's generator, so the small call that decodes crafted words takes two rounds
        pair = round_rows(CraftedStream(seed, stream, {t: major}, {t: lead}), range(t, t + 2), 1, dim, ball=ball)
        assert pair.tobytes() == got[t - 1:t + 1].tobytes()
    assert sorted(fast.calls) == sorted([t for t in natural.calls if t not in crafted] + crafted * reads)


@pytest.mark.parametrize("count,dim,ball,step", [(1, 5, True, 1), (1, 16, False, 1), (2, 7, True, 3)])
def test_one_round_call_equals_the_round_in_a_long_call(count, dim, ball, step):
    stream = RoundStream(7, 0)
    rounds = range(step, 4097 * step, step)
    whole = round_rows(stream, rounds, count, dim, ball=ball)
    lone = CountingStream(7, 0)
    for i, t in enumerate(rounds):
        assert round_rows(lone, range(t, t + step, step), count, dim, ball=ball).tobytes() == whole[i:i + 1].tobytes()
    # a lone round that reads past its blocks falls back to the decode, which reads on from its per-round words
    assert lone.calls


def test_round_rows_mask_seeds_alike():
    for count, dim in ((1, 5), (8, 5)):  # a narrow and a wide round
        rows = [round_rows(RoundStream(seed, 0), range(2, 600, 2), count, dim, ball=True) for seed in (2**64 - 1, -1)]
        assert rows[0].tobytes() == rows[1].tobytes()


@pytest.mark.parametrize("dim", [1, 3, 16])
def test_round_rows_are_uniform_on_ball_and_sphere(dim):
    # fixed seeds; Kolmogorov-Smirnov distance of ||v||^d from U[0, 1] below its 0.1% critical value, and the
    # sphere's mean and covariance within 5 standard errors of 0 and I/d
    n = 20_000
    v = round_rows(RoundStream(11, 0), range(1, n + 1), 1, dim, ball=True)[:, 0]
    radii = np.sort(np.linalg.norm(v, axis=1) ** dim)
    ks = max(np.max(np.arange(1, n + 1) / n - radii), np.max(radii - np.arange(n) / n))
    assert ks < 1.95 / math.sqrt(n)
    v = round_rows(RoundStream(12, 1), range(1, n + 1), 1, dim, ball=False)[:, 0]
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=1e-12)
    assert np.all(np.abs(v.mean(axis=0)) < 5 * math.sqrt(1 / dim / n))
    assert np.all(np.abs(v.T @ v / n - np.eye(dim) / dim) < 5 * math.sqrt(2 / n) / dim + 1e-12)


@pytest.mark.parametrize("rounds", [8192, 8191, 300])
def test_round_rows_cut_round_major_words_into_near_equal_chunks(rounds):
    sizes = []

    class RecordingStream(RoundStream):
        def words(self, batch, blocks):
            sizes.append(len(batch) * blocks)
            return super().words(batch, blocks)

    round_rows(RecordingStream(1, 1), range(1, rounds + 1), 1, 16, ball=True)  # 5 blocks a round
    assert len(sizes) == max(1, round(rounds * 5 / pfol.rng._VECTOR_CHUNK_BLOCKS))
    assert max(sizes) - min(sizes) <= 5 and sum(sizes) == rounds * 5  # at most one round apart


@pytest.mark.parametrize("seed,stream,dim,ball", [(0, 1, 1, False), (2**64 - 1, 0, 5, True)])
def test_ziggurat_walk_equals_numpy(seed, stream, dim, ball):
    # the walk that decodes the rounds reading on, and picks the rare-branch rounds above, is numpy's algorithm
    for t in range(300):
        z, u, _ = ziggurat_walk(round_rng(seed, stream, t).bit_generator.random_raw(32).tolist(), dim, int(ball))
        rng = round_rng(seed, stream, t)
        assert np.array(z).tobytes() == rng.standard_normal(dim).tobytes()
        assert np.array(u, dtype=float).tobytes() == rng.random(int(ball)).tobytes()


def exact_exp_ties(count, seed):
    """Wedge tests (layer, x, u) whose left side lies within a few ulps of libm's exp(-x*x/2)."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        i = int(rng.integers(1, 256))
        x = float(rng.uniform(0.1, 3.5)) * (1 if rng.integers(2) else -1)
        target = math.exp(-0.5 * x * x)
        lo, hi = float(FI[i]), float(FI[i - 1])
        if not lo < target < hi:
            continue
        u = (target - lo) / (hi - lo)
        for step in range(-3, 4):  # u a few ulps either way
            v = u
            for _ in range(abs(step)):
                v = math.nextafter(v, math.inf if step > 0 else -math.inf)
            if 0 <= v < 1:
                cases.append((i, x, v))
    return (np.array(c) for c in zip(*cases))


def test_wedge_near_ties_are_settled_by_libm_exp(monkeypatch):
    layer, x, u = exact_exp_ties(300, 5)
    layer = layer.astype(np.intp)
    lhs = (FI[layer - 1] - FI[layer]) * u + FI[layer]
    want = np.array([a < math.exp(-0.5 * b * b) for a, b in zip(lhs.tolist(), x.tolist())])
    assert want.any() and not want.all()
    assert (lhs == [math.exp(-0.5 * b * b) for b in x.tolist()]).any()  # exact ties, which reject
    np.testing.assert_array_equal(pfol.rng._wedge_accepts(layer, x, u), want)
    # an np.exp off by 2^-44 relative (inside the tie band) must not change any outcome
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda a: exp(a) * (1 + 2.0**-44))
    np.testing.assert_array_equal(pfol.rng._wedge_accepts(layer, x, u), want)
    monkeypatch.setattr(np, "exp", lambda a: exp(a) * (1 - 2.0**-44))
    np.testing.assert_array_equal(pfol.rng._wedge_accepts(layer, x, u), want)


def test_ziggurat_tables_match_installed_numpy():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ziggurat_tables.py"
    spec = importlib.util.spec_from_file_location("ziggurat_tables", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not module.archive_path().is_file():
        pytest.skip("this numpy build ships no libnpyrandom.a")
    ki, wi, fi = module.read_tables(module.archive_path())
    assert ki == KI.tolist()
    assert [w.hex() for w in wi] == [w.hex() for w in WI.tolist()]
    assert [f.hex() for f in fi] == [f.hex() for f in FI.tolist()]
    assert module.main(["--check"]) == 0
