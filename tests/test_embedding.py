"""Embedding tests: positional code identities, then the stamp tables and the
beta gate through ``WindowEmbedding``."""

import numpy as np
import numpy.testing as npt
import pytest

from sparsecast.embedding import (
    STAMP_CATEGORIES,
    STAMP_VOCAB,
    WindowEmbedding,
    positional_encoding,
    validate_stamps,
)
from sparsecast.tensor import ParamStore, Tensor, conv1d_time


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        pe = positional_encoding(16, 8)
        npt.assert_array_equal(pe[0, 0::2], np.zeros(4))
        npt.assert_array_equal(pe[0, 1::2], np.ones(4))

    def test_first_column_is_plain_sine(self):
        pe = positional_encoding(20, 6)
        npt.assert_allclose(pe[:, 0], np.sin(np.arange(20)), atol=1e-15)

    def test_direct_evaluation(self):
        # L=96, d_model=8, pos=1, j=1 -> sin(1 / 192^(1/4))
        pe = positional_encoding(96, 8)
        assert pe[1, 2] == pytest.approx(0.2654, abs=5e-5)
        assert pe[1, 2] == pytest.approx(np.sin(1.0 / 192.0**0.25), abs=1e-15)

    def test_odd_d_model_rejected(self):
        with pytest.raises(ValueError, match="even"):
            positional_encoding(8, 7)

    def test_rows_pairwise_distinct(self):
        pe = positional_encoding(96, 8)
        for i in range(96):
            diffs = np.abs(pe - pe[i]).max(axis=1)
            diffs[i] = 1.0
            assert diffs.min() > 1e-9

    def test_cached_and_readonly(self):
        a = positional_encoding(32, 8)
        b = positional_encoding(32, 8)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_angle_property_depends_on_position():
    """A repeated vector is indistinguishable without the positional code
    and separated once it is added."""
    rng = np.random.default_rng(8)
    pe = positional_encoding(96, 8)
    for _ in range(100):
        e = rng.standard_normal(8)
        e *= rng.uniform(0.1, 10.0) / np.linalg.norm(e)
        p1, p2 = rng.choice(96, size=2, replace=False)
        bare = e @ e / (np.linalg.norm(e) * np.linalg.norm(e))
        assert bare == pytest.approx(1.0, abs=1e-12)
        a, b = e + pe[p1], e + pe[p2]
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos < 1.0 - 1e-12


def _embedding(d_in=2, d_model=8, gated=True, seed=0):
    store = ParamStore()
    return WindowEmbedding(store, "emb", d_in, d_model, np.random.default_rng(seed),
                           gated=gated), store


def _zero_tables(d_model, gated=False):
    """An embedding whose stamp tables are zero: on zero values it gives
    PE plus the stamp term (times beta when gated)."""
    emb, _ = _embedding(d_model=d_model, gated=gated)
    for table in emb.tables.values():
        table.data[...] = 0.0
    return emb


def _stamps(L, rng):
    cols = [rng.integers(0, STAMP_VOCAB[name], size=L) for name in STAMP_CATEGORIES]
    return np.stack(cols, axis=1)


class TestStampEmbedding:
    def test_zero_tables(self):
        rng = np.random.default_rng(0)
        emb = _zero_tables(6)
        values = rng.standard_normal((5, 2))
        out = emb(values, _stamps(5, rng))
        u = conv1d_time(Tensor(values), emb.token_kernel, padding=1).data
        npt.assert_array_equal(out.data, u + positional_encoding(5, 6))

    def test_single_category_row_copy(self):
        emb = _zero_tables(4)
        emb.tables["hour"].data[7] = [1.0, 2.0, 3.0, 4.0]
        stamps = np.zeros((3, 5), dtype=int)
        stamps[:, STAMP_CATEGORIES.index("hour")] = [7, 0, 7]
        out = emb(np.zeros((3, 2)), stamps).data
        pe = positional_encoding(3, 4)
        npt.assert_array_equal(out[0], pe[0] + [1, 2, 3, 4])
        npt.assert_array_equal(out[1], pe[1])
        npt.assert_array_equal(out[2], pe[2] + [1, 2, 3, 4])

    def test_two_categories_sum(self):
        rng = np.random.default_rng(1)
        emb = _zero_tables(4)
        a = rng.standard_normal(emb.tables["month"].shape)
        b = rng.standard_normal(emb.tables["weekday"].shape)
        emb.tables["month"].data[...] = a
        emb.tables["weekday"].data[...] = b
        stamps = _stamps(6, rng)
        out = emb(np.zeros((6, 2)), stamps).data
        expected = (a[stamps[:, STAMP_CATEGORIES.index("month")]]
                    + b[stamps[:, STAMP_CATEGORIES.index("weekday")]])
        npt.assert_array_equal(out, positional_encoding(6, 4) + expected)

    def test_out_of_range_names_category(self):
        stamps = np.zeros((2, 5), dtype=int)
        stamps[1, STAMP_CATEGORIES.index("weekday")] = 9
        with pytest.raises(ValueError, match="weekday.*9"):
            _zero_tables(4)(np.zeros((2, 2)), stamps)

    @pytest.mark.parametrize("stamps", [np.full((2, 5), 0.7), np.full((2, 5), np.nan),
                                        np.zeros((2, 5)), np.zeros((2, 5), dtype=bool)],
                             ids=["fraction", "nan", "whole float", "bool"])
    def test_non_integer_stamps_are_rejected(self, stamps):
        """A float or boolean stamp matrix is refused, naming its dtype,
        instead of being truncated to some integer stamp."""
        with pytest.raises(ValueError, match=f"^stamps must be integers, got dtype "
                                             f"{stamps.dtype}$"):
            validate_stamps(stamps)
        with pytest.raises(ValueError, match="stamps must be integers"):
            _zero_tables(4)(np.zeros((2, 2)), stamps)

    def test_first_bad_column_and_value_are_named(self):
        """The vectorised check names the first bad category in column
        order and its first bad value in row order, as a per-column loop
        does, and returns intp indices without copying intp input."""
        def loop_message(stamps):
            for col, name in enumerate(STAMP_CATEGORIES):
                vocab = STAMP_VOCAB[name]
                bad = (stamps[:, col] < 0) | (stamps[:, col] >= vocab)
                if bad.any():
                    return f"stamp {name!r} index {int(stamps[bad, col][0])} outside [0, {vocab})"

        rng = np.random.default_rng(4)
        for _ in range(50):
            stamps = _stamps(8, rng)
            for _ in range(rng.integers(1, 4)):
                col = rng.integers(len(STAMP_CATEGORIES))
                vocab = STAMP_VOCAB[STAMP_CATEGORIES[col]]
                stamps[rng.integers(8), col] = rng.choice([-1 - rng.integers(3),
                                                           vocab + rng.integers(3)])
            with pytest.raises(ValueError) as raised:
                validate_stamps(stamps)
            assert str(raised.value) == loop_message(stamps)
        good = _stamps(8, rng).astype(np.intp)
        assert validate_stamps(good) is good


class TestBetaGate:
    """beta = ReLU(linear(PE + SE_sum)) scales the stamp term; one table is
    set, so the stamp term is its looked-up row exactly."""

    def _gated(self, rng, gate_w, gate_b):
        emb = _zero_tables(4, gated=True)
        emb.tables["hour"].data[...] = rng.standard_normal(emb.tables["hour"].shape)
        emb.gate_w.data[...] = gate_w
        emb.gate_b.data[...] = gate_b
        stamps = _stamps(5, rng)
        se = emb.tables["hour"].data[stamps[:, STAMP_CATEGORIES.index("hour")]]
        return emb(np.zeros((5, 2)), stamps).data, positional_encoding(5, 4), se

    def test_negative_bias_clamps_to_zero(self):
        out, pe, _ = self._gated(np.random.default_rng(2), np.zeros((4, 1)), -1.0)
        npt.assert_array_equal(out, pe)

    def test_constant_affine(self):
        out, pe, se = self._gated(np.random.default_rng(3), np.zeros((4, 1)), 0.5)
        npt.assert_array_equal(out, pe + 0.5 * se)

    def test_matches_hand_dot_product(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 1))
        b = 0.3
        out, pe, se = self._gated(rng, w, b)
        beta = np.maximum((pe + se) @ w + b, 0.0)
        assert (beta == 0).any() and (beta > 0).any()
        npt.assert_allclose(out, pe + beta * se, atol=1e-15)


class TestEmbedWindow:
    def test_zero_tables_reduce_to_projection_plus_pe(self):
        params, _ = _embedding()
        for t in params.tables.values():
            t.data[...] = 0.0
        rng = np.random.default_rng(5)
        values = rng.standard_normal((10, 2))
        stamps = _stamps(10, rng)
        out = params(values, stamps).data
        u = conv1d_time(Tensor(values), params.token_kernel, padding=1).data
        npt.assert_allclose(out, u + positional_encoding(10, 8), atol=1e-12)

    def test_large_negative_gate_bias_kills_stamp_term(self):
        params, _ = _embedding()
        params.gate_w.data[...] = 0.0
        params.gate_b.data[...] = -100.0
        rng = np.random.default_rng(6)
        values = rng.standard_normal((10, 2))
        stamps = _stamps(10, rng)
        out = params(values, stamps).data
        u = conv1d_time(Tensor(values), params.token_kernel, padding=1).data
        npt.assert_array_equal(out, u + positional_encoding(10, 8))

    def test_zero_values_and_tables_leave_pe_exactly(self):
        params, _ = _embedding()
        for t in params.tables.values():
            t.data[...] = 0.0
        stamps = _stamps(10, np.random.default_rng(7))
        out = params(np.zeros((10, 2)), stamps).data
        npt.assert_array_equal(out, positional_encoding(10, 8))

    def test_ungated_matches_beta_of_one(self):
        gated, store_g = _embedding(gated=True, seed=3)
        ungated, store_u = _embedding(gated=False, seed=3)
        # force beta = ReLU(0*x + 1) = 1 on the gated module
        gated.gate_w.data[...] = 0.0
        gated.gate_b.data[...] = 1.0
        rng = np.random.default_rng(8)
        values = rng.standard_normal((10, 2))
        stamps = _stamps(10, rng)
        out_g = gated(values, stamps).data
        out_u = ungated(values, stamps).data
        npt.assert_allclose(out_g, out_u, atol=1e-12)

    def test_deterministic(self):
        params, _ = _embedding()
        rng = np.random.default_rng(9)
        values = rng.standard_normal((10, 2))
        stamps = _stamps(10, rng)
        a = params(values, stamps).data
        b = params(values, stamps).data
        npt.assert_array_equal(a, b)

    def test_length_mismatch(self):
        params, _ = _embedding()
        with pytest.raises(ValueError, match="rows"):
            params(np.zeros((10, 2)), np.zeros((9, 5), dtype=int))
