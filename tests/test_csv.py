"""The trace CSV writer: every float is ``format(x, ".17g")`` and every integer ``str(n)``, byte for byte."""

import io
from fractions import Fraction

import numpy as np
import pytest

from pfol import trace_to_csv
from pfol._csv import _BLOCK_ROWS, _scaled, write_rows
from pfol.harness import CSV_HEADER, RegretTrace

POWERS = [10.0**k for k in range(-5, 18)] + [1e-4, 9.9999999999999995e16]


def neighbours(values, steps=3):
    """Each value, and its `steps` nearest doubles on either side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (0.0, np.inf):
        v = out[0]
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def halfway(rng, per_exponent=300):
    """Doubles whose 18th significant digit is an exact 5: c * 2^(X - 17) with c odd, for X = -4..16."""
    out = []
    for X in range(-4, 17):
        lo = 5.0**X * 2**17  # c * 2^(X - 17) lies in [10^X, 10^(X + 1))
        c = rng.integers(int(np.ceil(lo)), int(10 * lo), per_exponent) | 1
        out.append(np.ldexp(c[c < 2**53].astype(float), X - 17))
    # and k * 2^j with a full 53-bit k across the fast range, ties or not
    k = rng.integers(2**52, 2**53, 2000)
    out.append(np.ldexp(k.astype(float), rng.integers(-66, 4, 2000)))
    return np.concatenate(out)


def special_values():
    tiny = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308])
    return np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan], tiny, -tiny])


def property_values(seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    subnormal = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    fast = 10.0 ** rng.uniform(-4.5, 17.5, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    edges = neighbours(POWERS)
    tie = halfway(rng)
    return np.concatenate([bits, subnormal, -subnormal, fast, rng.standard_normal(20_000),
                           special_values(), edges, -edges, tie, -tie])


def old_trace_to_csv(trace, path):
    """The per-row f-string writer that ``trace_to_csv`` replaced, kept as the reference."""
    prefix = f"{trace.algorithm}-{trace.seed},{trace.algorithm},{trace.seed}"
    columns = (trace.losses, trace.cum_loss, trace.cum_regret, trace.oracle_calls, trace.grad_evals)
    rows = zip(range(1, trace.horizon + 1), *(c.tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(f"{prefix},{t},{loss:.17g},{cum:.17g},{regret:.17g},{calls},{grads}\n"
                      for t, loss, cum, regret, calls, grads in rows)


def text(columns, prefix=b""):
    fh = io.BytesIO()
    write_rows(fh, prefix, columns)
    return fh.getvalue()


class TestFloats:
    def test_every_float_is_format_17g(self):
        x = property_values()
        got = text([x]).decode("ascii").split("\n")[:-1]
        want = [format(v, ".17g") for v in x.tolist()]
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad, bad[:10]

    def test_float32_and_views(self):
        x = np.random.default_rng(2).standard_normal(600)
        for column in (x.astype(np.float32), x[::3], x[::-1]):
            assert text([column]) == "".join(format(v, ".17g") + "\n" for v in column.tolist()).encode()


class TestScaled:
    def test_floor_and_round_up_bit_match_exact_rationals(self):
        # every s that _floats uses, on every value whose product p = fl(x * 10^s) lies where _floats calls the
        # kernel and p is an even integer: 2^53 <= p < 10^18, the first pass of a row the X fix recomputes included
        rng = np.random.default_rng(6)
        x = np.concatenate([halfway(rng), neighbours(POWERS), 10.0 ** rng.uniform(-4, 17, 5000)])
        x = x[(x >= 1e-4) & (x < 1e17)]
        estimate = 16 - np.clip(np.floor(np.log10(x)), -4, 16)
        bad, recomputed = [], 0
        for s in range(21):
            p = x * 10.0**s
            rows = np.flatnonzero((p >= 2.0**53) & (p < 1e18))
            below = np.flatnonzero(p < 2.0**53)
            floor, up = _scaled(x[rows], np.full(len(rows), s))
            assert np.all(_scaled(x[below], np.full(len(below), s))[0] < 10**16)  # all the X fix reads there
            for v, n, u, first in zip(x[rows].tolist(), floor.tolist(), up.tolist(), (estimate[rows] == s).tolist()):
                exact = Fraction(v) * 10**s
                want = exact.numerator // exact.denominator
                rest = exact - want
                want_up = rest > Fraction(1, 2) or (rest == Fraction(1, 2) and want % 2 == 1)
                if (n, u) != (want, want_up):
                    bad.append((v, s, n, u, want, want_up))
                recomputed += first and not 10**16 <= want < 10**17
        assert not bad, bad[:10]
        assert recomputed > 0


class TestIntsAndRows:
    def test_integers_are_str(self):
        ints = np.array([0, 1, -1, 9, 10, -10, 99, 100, 12345, 2**63 - 1, -2**63], dtype=np.int64)
        big = np.array([0, 2**64 - 1, 10**19, 10**19 - 1], dtype=np.uint64)
        for column in (ints, big, ints.astype(np.int32)[:-2], np.zeros(3, dtype=np.int8)):
            assert text([column]) == "".join(f"{v}\n" for v in column.tolist()).encode()

    def test_rows_join_prefix_and_columns_in_order(self):
        rng = np.random.default_rng(3)
        rows = 2 * _BLOCK_ROWS + 5
        columns = [np.arange(rows) - 7, rng.standard_normal(rows), np.arange(rows, dtype=np.uint64) * 3,
                   rng.standard_normal(rows) * 1e-6, rng.integers(-10**6, 10**6, rows)]
        want = "".join("p,q," + ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) + "\n"
                       for row in zip(*(c.tolist() for c in columns)))
        assert text(columns, b"p,q,") == want.encode()

    def test_a_prefix_holding_a_nul_byte_is_a_value_error(self):
        with pytest.raises(ValueError, match="NUL byte"):
            text([np.arange(3)], b"a\0,")

    def test_a_column_of_another_kind_is_a_type_error(self):
        with pytest.raises(TypeError, match="integers or floats"):
            text([np.arange(3), np.array([True, False, True])])


class TestTraceToCsv:
    def test_bytes_equal_the_f_string_writer(self, tmp_path):
        # a row count that is no multiple of the block size, holding every kind of value the property test has
        x = property_values(seed=4)
        rows = 2 * _BLOCK_ROWS + 37
        rng = np.random.default_rng(5)
        column = lambda: rng.choice(x, rows)  # noqa: E731
        calls = np.cumsum(rng.integers(0, 64, rows))
        calls[:3] = (-2**63, 2**63 - 1, 0)
        trace = RegretTrace(
            algorithm="sampled_fpl", seed=2**64 - 1, delta=0.5, actions=np.zeros((rows, 2)),
            losses=column(), cum_loss=column(), comparator_point=np.zeros(2), comparator_value=0.0,
            cum_regret=column(), oracle_calls=calls, grad_evals=np.arange(1, rows + 1, dtype=np.int64))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        trace_to_csv(trace, new)
        old_trace_to_csv(trace, old)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_block_edges(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        trace = RegretTrace(
            algorithm="ospf", seed=-3, delta=None, actions=np.zeros((rows, 1)),
            losses=rng.standard_normal(rows), cum_loss=rng.standard_normal(rows).cumsum(),
            comparator_point=np.zeros(1), comparator_value=0.0, cum_regret=rng.standard_normal(rows) * 1e3,
            oracle_calls=np.arange(rows, dtype=np.int64) * 20 + 1, grad_evals=np.arange(1, rows + 1))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        trace_to_csv(trace, new)
        old_trace_to_csv(trace, old)
        assert new.read_bytes() == old.read_bytes()
