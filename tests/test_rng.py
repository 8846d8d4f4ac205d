"""Per-round stream derivation: the in-place re-key and the vectorized Philox
pass both equal a fresh numpy generator, and ``round_rows`` equals drawing
each round alone."""

import importlib.util
import math
import pathlib

import numpy as np
import pytest

from pfol import RoundStream, round_rng, sets
from pfol._ziggurat import FI, INV_R, KI, R, WI
from pfol.rng import _key, philox_words
from pfol.sets import round_rows, unit_ball_rows, unit_sphere_rows

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
        assert_same(adversary.at(t), round_rng(7, 1, t))


def test_round_index_out_of_range_raises():
    stream = RoundStream(0, 0)
    with pytest.raises(ValueError):
        stream.at(2**48)
    with pytest.raises(ValueError):
        round_rng(0, 0, 2**48)


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1])
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("t", [1, 12345, 2**48 - 1])
@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
def test_philox_words_equal_numpy(seed, stream, t, blocks):
    words = philox_words(seed, stream, range(t, t + 1), blocks)
    expected = np.random.Philox(key=_key(seed, stream, t)).random_raw(4 * blocks)
    np.testing.assert_array_equal(words, expected[None, :])


@pytest.mark.parametrize("rounds", [range(1, 40), range(2**48 - 30, 2**48, 7), range(900, 800, -9)])
def test_philox_words_row_per_round(rounds):
    words = philox_words(11, 1, rounds, 3)
    assert words.shape == (len(rounds), 12)
    for row, t in zip(words, rounds):
        np.testing.assert_array_equal(row, round_rng(11, 1, t).bit_generator.random_raw(12))


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**64 + 5, 2**70 + 3])
def test_philox_words_mask_seeds_as_key_does(seed):
    words = philox_words(seed, 0, range(3, 6), 2)
    masked = philox_words(seed & (2**64 - 1), 0, range(3, 6), 2)
    np.testing.assert_array_equal(words, masked)
    np.testing.assert_array_equal(words[0], np.random.Philox(key=_key(seed, 0, 3)).random_raw(8))


def test_philox_words_round_range_checked():
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        philox_words(0, 0, range(2**48 - 3, 2**48 + 1), 1)
    with pytest.raises(ValueError, match="round index -1 out of the supported range"):
        philox_words(0, 0, range(-1, 5), 1)
    assert philox_words(0, 0, range(4, 4), 2).shape == (0, 8)


def test_vectorized_block_reaching_round_limit_raises():
    rounds = range(2**48 - sets._VECTOR_MIN_ROUNDS, 2**48 + 1)
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        round_rows(RoundStream(0, 0), rounds, 1, 3, ball=True)


class CountingStream(RoundStream):
    """A RoundStream that records the rounds it is re-keyed to."""

    def __init__(self, seed, stream):
        super().__init__(seed, stream)
        self.calls = []

    def at(self, t):
        self.calls.append(t)
        return super().at(t)


def reference_rows(stream, rounds, count, dim, *, ball):
    """round_rows drawn round by round through numpy's own generator."""
    z = np.empty((len(rounds), count, dim))
    u = np.empty(z.shape[:2])
    for i, t in enumerate(rounds):
        rng = stream.at(t)
        rng.standard_normal(out=z[i])
        if ball:
            rng.random(out=u[i])
    flat = z.reshape(-1, dim)
    return (unit_ball_rows(flat, u.ravel()) if ball else unit_sphere_rows(flat)).reshape(z.shape)


def fast_path_misses(seed, stream, rounds, normals):
    """Per round, the layer index of every normal draw the ziggurat's fast path rejects."""
    words = philox_words(seed, stream, rounds, -(-normals // 4))[:, :normals]
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
        misses = sets._fast_normals(w, out)
        want, want_misses = where_decode(w)
        assert out.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        np.testing.assert_array_equal(misses, want_misses)
    out = np.empty((1, 2))
    sets._fast_normals(np.array([[0x100, 0x105]], dtype=np.uint64), out)  # r = 0 with the sign bit set
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


def out_of_words(seed, stream, rounds, normals, uniforms):
    """The rounds whose draws, walked by ``ziggurat_walk``, read more words than their Philox blocks hold."""
    held = 4 * ((normals + uniforms + 1) // 4 + 1)
    return [t for t, misses in zip(rounds, fast_path_misses(seed, stream, rounds, normals)) if len(misses)
            and ziggurat_walk(round_rng(seed, stream, t).bit_generator.random_raw(held + 64).tolist(),
                              normals, uniforms)[2]["words"] > held]


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("ball", [True, False])
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("dim", [1, 5, 16])
def test_round_rows_equal_numpy_round_by_round(seed, ball, count, dim):
    # enough normals (~40,000) that tail (layer 0) and wedge misses both occur
    n = max(sets._VECTOR_MIN_ROUNDS, 40_000 // (count * dim))
    rounds = range(7, 7 + 3 * n, 3) if count == 2 else range(1, n + 1)
    stream = 1
    got = round_rows(fast := CountingStream(seed, stream), rounds, count, dim, ball=ball)
    want = reference_rows(RoundStream(seed, stream), rounds, count, dim, ball=ball)
    assert got.tobytes() == want.tobytes()
    if count * (dim + ball) > sets._VECTOR_MAX_WORDS:  # wide rounds stay on numpy
        assert fast.calls == list(rounds)
        return
    layers = np.concatenate(fast_path_misses(seed, stream, rounds, count * dim))
    assert (layers == 0).any() and (layers != 0).any()  # tail and wedge misses occurred
    # every miss is decoded from the round's own words, except in the rounds that run out of them
    short = out_of_words(seed, stream, rounds, count * dim, count * ball)
    assert fast.calls == short
    if count * (dim + ball) % 4 == 2:  # with two spare words in the blocks, some rounds run out of them
        assert short


def test_round_rows_decode_the_rare_branches():
    # 32 normals leave 4 spare words in 9 blocks; this window of stream 1 under seed 0 holds rejected tail
    # attempts, two tails in one round and rounds that run out of words
    seed, stream, rounds = 0, 1, range(6500, 14000)
    got = round_rows(fast := CountingStream(seed, stream), rounds, 2, 16, ball=False)
    assert got.tobytes() == reference_rows(RoundStream(seed, stream), rounds, 2, 16, ball=False).tobytes()
    words = philox_words(seed, stream, rounds, 12)
    missed = np.flatnonzero(sets._fast_normals(words[:, :32], np.empty((len(rounds), 32))).any(axis=1))
    taken = [ziggurat_walk(words[i].tolist(), 32, 0)[2] for i in missed]
    assert any(t["tail_rejects"] for t in taken) and any(t["tails"] >= 2 for t in taken)
    assert any(t["wedge_rejects"] >= 2 for t in taken) and any(t["words"] > 36 for t in taken)
    # only the rounds that read past their 36 words are redrawn through numpy
    assert fast.calls == [rounds[i] for i, t in zip(missed, taken) if t["words"] > 36]


@pytest.mark.parametrize("seed,stream,dim,ball", [(0, 1, 1, False), (2**64 - 1, 0, 5, True)])
def test_ziggurat_walk_equals_numpy(seed, stream, dim, ball):
    # the walk that picks the rare-branch rounds above is itself numpy's algorithm
    for t in range(300):
        z, u, _ = ziggurat_walk(philox_words(seed, stream, range(t, t + 1), 8)[0].tolist(), dim, int(ball))
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
    np.testing.assert_array_equal(sets._wedge_accepts(layer, x, u), want)
    # an np.exp off by 2^-44 relative (inside the tie band) must not change any outcome
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda a: exp(a) * (1 + 2.0**-44))
    np.testing.assert_array_equal(sets._wedge_accepts(layer, x, u), want)
    monkeypatch.setattr(np, "exp", lambda a: exp(a) * (1 - 2.0**-44))
    np.testing.assert_array_equal(sets._wedge_accepts(layer, x, u), want)


def test_round_rows_short_calls_stay_on_numpy():
    rounds = range(5, 5 + sets._VECTOR_MIN_ROUNDS - 1)
    stream = CountingStream(3, 0)
    got = round_rows(stream, rounds, 1, 4, ball=True)
    assert stream.calls == list(rounds)
    assert got.tobytes() == reference_rows(RoundStream(3, 0), rounds, 1, 4, ball=True).tobytes()


@pytest.mark.parametrize("rounds", [8192, 8191, 300])
def test_round_rows_cut_philox_passes_into_near_equal_chunks(rounds, monkeypatch):
    sizes = []

    def recording(seed, stream, batch, blocks):
        sizes.append(len(batch) * blocks)
        return philox_words(seed, stream, batch, blocks)

    monkeypatch.setattr(sets, "philox_words", recording)
    round_rows(RoundStream(1, 1), range(1, rounds + 1), 1, 16, ball=True)  # 5 blocks a round
    assert len(sizes) == max(1, round(rounds * 5 / sets._VECTOR_CHUNK_BLOCKS))
    assert max(sizes) - min(sizes) <= 5 and sum(sizes) == rounds * 5  # at most one round apart


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
