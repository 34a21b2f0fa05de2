"""Attention-kernel tests: dense oracle equivalence, lazy fills, selection rules,
budget counters, and the multi-head wrapper."""

import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import dense_attention
from test_tensor import concat, softmax_lastdim, transpose
import sparsecast.attention as attention
from sparsecast.attention import (
    MultiHeadAttention,
    ScoreBudget,
    attend,
    attend_kind,
    counting,
    importance_scores,
    prefix_top_counts,
    select_top_queries,
    select_top_queries_causal,
    top_n_count,
)
from sparsecast.tensor import (
    ParamStore,
    Tensor,
    finite_diff_check,
    linear,
    sum_,
)


class TestCanonical:
    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((5, 4))
        k = np.tile(rng.standard_normal(4), (6, 1))
        v = rng.standard_normal((6, 4))
        out = attend(q, k, v, 1).data
        npt.assert_allclose(out, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    def test_single_key(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((1, 3))
        v = rng.standard_normal((1, 3))
        out = attend(q, k, v, 1).data
        npt.assert_allclose(out, np.tile(v[0], (4, 1)), atol=1e-15)

    def test_strong_alignment_picks_value(self):
        rng = np.random.default_rng(2)
        k = np.eye(4)
        v = rng.standard_normal((4, 4))
        q = 50.0 * k[2:3]
        out = attend(q, k, v, 1).data
        npt.assert_allclose(out[0], v[2], atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            attend(np.zeros((3, 4)), np.zeros((3, 5)), np.zeros((3, 5)), 1)

    def test_budget_counts_full_grid(self):
        rng = np.random.default_rng(3)
        with counting(ScoreBudget()) as budget:
            attend(rng.standard_normal((7, 4)), rng.standard_normal((9, 4)),
                   rng.standard_normal((9, 4)), 1)
        assert budget.dot_products_materialized == 7 * 9


class TestCounting:
    def test_record_inactive_after_exit(self):
        x = np.ones((3, 2))
        with counting(ScoreBudget()) as budget:
            attend(x, x, x, 1)
        attend(x, x, x, 1)
        assert budget.dot_products_materialized == 9
        with pytest.raises(RuntimeError, match="inside"):
            with counting(ScoreBudget()) as failed:
                raise RuntimeError("inside")
        attend(x, x, x, 1)
        assert failed.dot_products_materialized == 0
        assert attention._ACTIVE.get() is None

    def test_nested_block_restores_outer_record(self):
        x3, x4 = np.ones((3, 2)), np.ones((4, 2))
        with counting(ScoreBudget()) as outer:
            attend(x3, x3, x3, 1)
            with counting(ScoreBudget()) as inner:
                attend(x4, x4, x4, 1)
            attend(x3, x3, x3, 1)
        assert (outer.dot_products_materialized, inner.dot_products_materialized) == (18, 16)

    def test_threads_count_into_their_own_records(self):
        """Four threads, more than the cores, count at once with a short
        switch interval; a shared record would mix their counts."""
        workers, calls = 4, 40
        barrier = threading.Barrier(workers, timeout=30)
        counted = {}

        def work(i):
            x = np.ones((3 + i, 2))
            barrier.wait()
            with counting(ScoreBudget()) as budget:
                for _ in range(calls):
                    attend(x, x, x, 1)
            counted[i] = budget.dot_products_materialized

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counted == {i: calls * (3 + i) ** 2 for i in range(workers)}


class TestImportanceScores:
    def test_cancellation_leaves_bias(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((6, 3))
        kernel = Tensor(rng.standard_normal((2, 3, 3)))
        bias = Tensor(np.array([0.7, -0.2]))
        out = importance_scores(q, -q, kernel, bias)
        npt.assert_allclose(out, np.tile([0.7, -0.2], (6, 1)), atol=1e-15)

    def test_identity_tap_reads_channel_zero(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((8, 3))
        k = rng.standard_normal((8, 3))
        kernel = np.zeros((1, 3, 3))
        kernel[0, 0, 1] = 1.0
        out = importance_scores(q, k, Tensor(kernel), Tensor(np.zeros(1)))
        npt.assert_allclose(out[:, 0], (q + k)[:, 0], atol=1e-12)

    def test_all_ones_kernel_is_windowed_sum(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((4, 2))
        k = rng.standard_normal((4, 2))
        out = importance_scores(q, k, Tensor(np.ones((1, 2, 3))), Tensor(np.zeros(1)))
        rows = (q + k).sum(axis=1)
        expected = [rows[0] + rows[1], rows[0] + rows[1] + rows[2],
                    rows[1] + rows[2] + rows[3], rows[2] + rows[3]]
        npt.assert_allclose(out[:, 0], expected, atol=1e-12)

    def test_cross_attention_rejected(self):
        with pytest.raises(ValueError, match="canonical"):
            importance_scores(np.zeros((4, 3)), np.zeros((6, 3)),
                              Tensor(np.zeros((1, 3, 3))))

    def test_causal_variant_sees_no_future(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((10, 3))
        k = rng.standard_normal((10, 3))
        kernel = Tensor(rng.standard_normal((1, 3, 3)))
        base = importance_scores(q, k, kernel, causal=True)
        q2 = q.copy()
        q2[7:] += 100.0
        bumped = importance_scores(q2, k, kernel, causal=True)
        npt.assert_array_equal(base[:7], bumped[:7])


class TestSelection:
    def test_budget_counts(self):
        assert top_n_count(96, 5) == 23
        assert top_n_count(1, 5) == 1
        assert top_n_count(8, 1) == 3
        assert top_n_count(1000, 5) == 35

    def test_selects_largest_with_low_index_ties(self):
        scores = np.array([1.0, 3.0, 3.0, 0.0, 3.0, -1.0, 0.5, 0.2])
        idx = select_top_queries(scores, 1)  # n = ceil(ln 8) = 3
        npt.assert_array_equal(idx, [1, 2, 4])

    def test_permutation_consistency(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal(20)
        perm = rng.permutation(20)
        base = select_top_queries(scores, 2)
        permuted = select_top_queries(scores[perm], 2)
        npt.assert_array_equal(np.sort(perm[permuted]), np.sort(base))

    def test_per_head_rows_match_lexsort_oracle(self):
        """An (H, L) score array selects each head's rows exactly as a full
        lexicographic sort of that head's scores does, ties and -inf included."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            L = int(rng.integers(1, 120))
            scores = np.round(rng.standard_normal((3, L)) * 2)
            scores[rng.random((3, L)) < 0.1] = -np.inf
            got = select_top_queries(scores, 2.0)
            n = top_n_count(L, 2.0)
            for h in range(3):
                want = np.sort(np.lexsort((np.arange(L), -scores[h]))[:n])
                npt.assert_array_equal(got[h], want)
                npt.assert_array_equal(select_top_queries(scores[h], 2.0), want)

    @pytest.mark.parametrize("scores, where", [
        ([1.0, np.nan, 2.0, 0.5], "head 0, row 1"),
        ([np.nan, np.nan], "head 0, row 0"),
        ([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan]], "head 1, row 2"),
    ])
    def test_nan_score_names_head_and_row(self, scores, where):
        with pytest.raises(attention.NaNScoreError,
                           match=f"^selection got a NaN score at {where}$"):
            select_top_queries(np.array(scores), 1)

    def test_leading_axes_rank_each_row(self):
        """A (B, H, L) stack ranks along its last axis: each (window, head)
        row selects what it selects alone."""
        scores = np.random.default_rng(2).normal(size=(2, 3, 10))
        got = select_top_queries(scores, 1)
        assert got.shape == (2, 3, top_n_count(10, 1))
        for b in range(2):
            npt.assert_array_equal(got[b], select_top_queries(scores[b], 1))

    def test_nan_in_a_stack_names_window_head_and_row(self):
        scores = np.zeros((2, 3, 10))
        scores[1, 2, 4] = np.nan
        with pytest.raises(attention.NaNScoreError,
                           match=r"^selection got a NaN score at window 1, head 2, row 4$"):
            select_top_queries(scores, 1)

    @pytest.mark.parametrize("shape, at, where", [
        ((3, 10), (1, 4), "head 1, row 4"),
        ((2, 3, 10), (1, 2, 4), "window 1, head 2, row 4"),
    ])
    def test_nan_in_a_causal_ranking_names_window_head_and_row(self, shape, at, where):
        """``attend`` ranks causally one window and head at a time; a NaN
        names the window and head it ranked, and the row."""
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.standard_normal(shape[:-2] + (10, 3 * 4))) for _ in range(3))
        ranking = rng.standard_normal(shape)
        ranking[at] = np.nan
        with pytest.raises(attention.NaNScoreError,
                           match=f"^causal selection got a NaN score at {where}$"):
            attend(q, k, v, shape[-2], ranking, c=1.0, causal=True)

    @pytest.mark.parametrize("shape", [(3, 10), (1, 10), (2, 1, 10), ()])
    def test_causal_selection_takes_one_head(self, shape):
        with pytest.raises(ValueError, match=rf"1-D scores, got shape {re.escape(str(shape))}$"):
            select_top_queries_causal(np.zeros(shape), 1)

    def test_causal_selection_always_keeps_row_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sel = select_top_queries_causal(rng.standard_normal(15), 1)
            assert 0 in sel

    def test_causal_selection_is_prefix_stable(self):
        rng = np.random.default_rng(10)
        scores = rng.standard_normal(18)
        sel_full = select_top_queries_causal(scores, 2)
        sel_prefix = select_top_queries_causal(scores[:9], 2)
        npt.assert_array_equal(sel_full[sel_full < 9], sel_prefix)


def _dense_causal_oracle(scores, c):
    """Full prefix ranking through three L x L matrices: row j beats row i
    when j <= i and s_j > s_i, or s_j == s_i with j < i."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    L = s.size
    n_i = prefix_top_counts(L, c)
    j = np.arange(L)
    beats = (s[None, :] > s[:, None]) | ((s[None, :] == s[:, None]) & (j[None, :] < j[:, None]))
    in_prefix = j[None, :] <= j[:, None]
    rank = (beats & in_prefix).sum(axis=1)
    return np.nonzero(rank < n_i)[0]


def _score_patterns(rng, L):
    gaussian = rng.standard_normal(L)
    return {
        "random": gaussian,
        "rounded": np.round(gaussian),
        "constant": np.full(L, 0.5),
        "increasing": np.arange(L, dtype=np.float64),
        "decreasing": -np.arange(L, dtype=np.float64),
        "minus_inf": np.where(rng.random(L) < 0.3, -np.inf, gaussian),
    }


class TestCausalSelectionOracle:
    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_matches_dense_oracle(self, c):
        rng = np.random.default_rng(100 + c)
        for L in list(range(1, 301)) + [777, 1296, 4096]:
            for pattern, scores in _score_patterns(rng, L).items():
                got = select_top_queries_causal(scores, c)
                want = _dense_causal_oracle(scores, c)
                assert got.dtype == want.dtype, (L, pattern)
                assert np.array_equal(got, want), (L, pattern)

    def test_peak_memory_is_linear(self):
        scores = np.random.default_rng(101).standard_normal(4096)
        select_top_queries_causal(scores, 5)
        tracemalloc.start()
        try:
            select_top_queries_causal(scores, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_nan_score_names_index(self):
        scores = np.arange(300, dtype=np.float64)
        scores[137] = np.nan
        with pytest.raises(attention.NaNScoreError,
                           match="^causal selection got a NaN score at index 137$"):
            select_top_queries_causal(scores, 5)
        assert issubclass(attention.NaNScoreError, ValueError)


def _scored_instance(rng, L, d):
    q, k, v = rng.standard_normal((3, L, d))
    kernel = Tensor(rng.standard_normal((1, d, 3)))
    scores = importance_scores(q, k, kernel, causal=False)[:, 0]
    cscores = importance_scores(q, k, kernel, causal=True)[:, 0]
    return q, k, v, scores, cscores


class TestNeuralSparse:
    def test_degenerates_to_dense_bitwise(self):
        rng = np.random.default_rng(11)
        q, k, v, scores, _ = _scored_instance(rng, 12, 4)
        sparse = attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=1000.0).data
        dense = attend(q, k, v, 1).data
        assert np.array_equal(sparse, dense)

    def test_constant_value_rows(self):
        rng = np.random.default_rng(12)
        q, k, _, scores, _ = _scored_instance(rng, 10, 4)
        v = np.tile([1.0, -2.0, 0.5, 3.0], (10, 1))
        out = attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=2.0).data
        npt.assert_allclose(out, v, atol=1e-12)

    def test_selected_match_oracle_lazy_equal_mean(self):
        rng = np.random.default_rng(13)
        q, k, v, scores, _ = _scored_instance(rng, 16, 4)
        out = attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=2.0).data
        sel = select_top_queries(scores, 2.0)
        lazy = np.setdiff1d(np.arange(16), sel)
        assert lazy.size > 0
        oracle = dense_attention(q, k, v)
        assert np.abs(out[sel] - oracle[sel]).max() < 1e-10
        assert np.array_equal(out[lazy], np.tile(v.mean(axis=0), (lazy.size, 1)))

    def test_budget_counts_n_times_keys(self):
        rng = np.random.default_rng(14)
        q, k, v, scores, _ = _scored_instance(rng, 20, 4)
        with counting(ScoreBudget()) as budget:
            attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=2.0)
        n = top_n_count(20, 2.0)
        assert budget.dot_products_materialized == n * 20
        assert budget.rows_selected == n


class TestMaskedNeuralSparse:
    def test_row_zero_returns_first_value(self):
        rng = np.random.default_rng(15)
        q, k, v, _, cscores = _scored_instance(rng, 8, 4)
        out = attend(q, k, v, 1, np.reshape(cscores, (1, -1)), c=2.0, causal=True).data
        npt.assert_allclose(out[0], v[0], atol=1e-15)

    def test_lazy_rows_are_cumulative_sums(self):
        # scores descending force rows 1.. to rank below their prefix budget at c=1
        v = np.array([[1.0], [2.0], [3.0]])
        q = k = np.zeros((3, 1))
        scores = np.array([3.0, 2.0, 1.0])
        out = attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=1.0, causal=True).data
        sel = select_top_queries_causal(scores, 1.0)
        npt.assert_array_equal(sel, [0])  # rows 1 and 2 are lazy
        npt.assert_array_equal(out, [[1.0], [3.0], [6.0]])

    def test_selected_match_causal_oracle(self):
        rng = np.random.default_rng(16)
        q, k, v, _, cscores = _scored_instance(rng, 12, 4)
        out = attend(q, k, v, 1, np.reshape(cscores, (1, -1)), c=2.0, causal=True).data
        sel = select_top_queries_causal(cscores, 2.0)
        lazy = np.setdiff1d(np.arange(12), sel)
        oracle = dense_attention(q, k, v, causal=True)
        assert np.abs(out[sel] - oracle[sel]).max() < 1e-10
        assert np.array_equal(out[lazy], np.cumsum(v, axis=0)[lazy])

    def test_future_perturbation_leaves_past_rows(self):
        rng = np.random.default_rng(17)
        L, d = 12, 4
        q, k, v = rng.standard_normal((3, L, d))
        kernel = Tensor(rng.standard_normal((1, d, 3)))

        def run(q_, k_, v_):
            cs = importance_scores(q_, k_, kernel, causal=True)[:, 0]
            return attend(q_, k_, v_, 1, np.reshape(cs, (1, -1)), c=2.0, causal=True).data

        base = run(q, k, v)
        t = 4
        for _ in range(10):
            tp = rng.integers(t + 1, L)
            q2, k2, v2 = q.copy(), k.copy(), v.copy()
            q2[tp] += rng.standard_normal(d)
            k2[tp] += rng.standard_normal(d)
            v2[tp] += rng.standard_normal(d)
            assert np.array_equal(run(q2, k2, v2)[: t + 1], base[: t + 1])


class TestProbSparse:
    def test_degenerates_to_dense(self):
        rng = np.random.default_rng(18)
        q, k, v = rng.standard_normal((3, 12, 4))
        out = attend_kind("prob_sparse", q, k, v, 1, 1000.0, rng=np.random.default_rng(0)).data
        assert np.array_equal(out, attend(q, k, v, 1).data)

    def test_masked_degenerates_to_causal_dense(self):
        rng = np.random.default_rng(19)
        q, k, v = rng.standard_normal((3, 12, 4))
        out = attend_kind("masked_prob_sparse", q, k, v, 1, 1000.0,
                          rng=np.random.default_rng(0)).data
        dense = attend(q, k, v, 1, causal=True).data
        assert np.array_equal(out, dense)

    def test_identical_queries_tie_break_lowest(self):
        rng = np.random.default_rng(20)
        k, v = rng.standard_normal((2, 16, 4))
        q = np.tile(rng.standard_normal(4), (16, 1))
        with counting(ScoreBudget()) as budget:
            attend_kind("prob_sparse", q, k, v, 1, 2.0, rng=np.random.default_rng(1))
        n = top_n_count(16, 2.0)
        assert budget.rows_selected == n  # ties resolved, exactly n rows

    def test_selected_rows_match_oracle(self):
        rng = np.random.default_rng(21)
        q, k, v = rng.standard_normal((3, 16, 4))
        out = attend_kind("prob_sparse", q, k, v, 1, 2.0, rng=np.random.default_rng(7)).data
        oracle = dense_attention(q, k, v)
        lazy_fill = v.mean(axis=0)
        n = top_n_count(16, 2.0)
        matches_oracle = np.abs(out - oracle).max(axis=1) < 1e-10
        matches_fill = np.abs(out - lazy_fill).max(axis=1) == 0.0
        assert matches_oracle.sum() >= n
        assert (matches_oracle | matches_fill).all()

    def test_budget_includes_sampling(self):
        rng = np.random.default_rng(22)
        q, k, v = rng.standard_normal((3, 20, 4))
        with counting(ScoreBudget()) as budget:
            attend_kind("prob_sparse", q, k, v, 1, 2.0, rng=np.random.default_rng(3))
        n = top_n_count(20, 2.0)
        assert budget.dot_products_materialized == 20 * n + n * 20

    def test_perturbing_future_keeps_masked_rows(self):
        rng = np.random.default_rng(23)
        L, d = 16, 4
        q, k, v = rng.standard_normal((3, L, d))
        base = attend_kind("masked_prob_sparse", q, k, v, 1, 2.0,
                           rng=np.random.default_rng(5)).data
        t = 6
        for _ in range(10):
            tp = rng.integers(t + 1, L)
            q2, k2, v2 = q.copy(), k.copy(), v.copy()
            q2[tp] += rng.standard_normal(d)
            k2[tp] += rng.standard_normal(d)
            v2[tp] += rng.standard_normal(d)
            out = attend_kind("masked_prob_sparse", q2, k2, v2, 1, 2.0,
                              rng=np.random.default_rng(5)).data
            assert np.array_equal(out[: t + 1], base[: t + 1])


class TestMultiHead:
    def _mha(self, kind, d_model=8, n_heads=2, c=5.0, seed=0):
        store = ParamStore()
        return MultiHeadAttention(store, "attn", kind, d_model, n_heads, c,
                                  np.random.default_rng(seed)), store

    def test_identity_plumbing_matches_raw_kernel(self):
        mha, _ = self._mha("canonical", d_model=4, n_heads=1)
        for w in (mha.w_q, mha.w_k, mha.w_v, mha.w_o):
            w.data[...] = np.eye(4)
        x = np.random.default_rng(24).standard_normal((6, 4))
        out = mha(Tensor(x)).data
        expected = attend(x, x, x, 1).data
        npt.assert_allclose(out, expected, atol=1e-12)

    def test_neural_sparse_degenerates_to_canonical(self):
        sparse, _ = self._mha("neural_sparse", c=1000.0, seed=5)
        dense, _ = self._mha("canonical", seed=5)
        x = Tensor(np.random.default_rng(25).standard_normal((10, 8)))
        npt.assert_allclose(sparse(x).data, dense(x).data, atol=1e-12)

    def test_zero_value_projection_gives_zeros(self):
        mha, _ = self._mha("canonical")
        mha.w_v.data[...] = 0.0
        x = Tensor(np.random.default_rng(26).standard_normal((5, 8)))
        npt.assert_array_equal(mha(x).data, np.zeros((5, 8)))

    def test_cross_attention_with_sparse_kind_rejected(self):
        mha, _ = self._mha("neural_sparse")
        x = Tensor(np.zeros((5, 8)))
        y = Tensor(np.zeros((7, 8)))
        with pytest.raises(ValueError, match="canonical"):
            mha(x, y)

    def test_config_validation(self):
        """Widths that the heads do not divide fail at the first call.  The
        model's widths and sparsity factor are checked by ``ModelConfig``."""
        mha, _ = self._mha("canonical", d_model=8, n_heads=3)
        with pytest.raises(ValueError, match="divisible"):
            mha(Tensor(np.zeros((4, 8))))

    @pytest.mark.parametrize("kind", ["mystery", "neural-sparse", "masked_nueral_sparse"])
    def test_unknown_kind_is_named(self, kind):
        """A misspelled kind raises, naming it and listing the kinds, where
        it used to run dense attention."""
        x = np.random.default_rng(29).standard_normal((6, 4))
        message = f"^unknown attention kind {kind!r}; expected one of {', '.join(attention.KINDS)}$"
        with pytest.raises(ValueError, match=message):
            attend_kind(kind, x, x, x, 2, 5.0)
        mha, _ = self._mha(kind, d_model=4)
        with pytest.raises(ValueError, match=message):
            mha(Tensor(x))

    def test_gradients_flow_through_sparse_path(self):
        mha, store = self._mha("neural_sparse", c=2.0)
        x_const = np.random.default_rng(27).standard_normal((10, 8))
        w = np.random.default_rng(28).standard_normal((10, 8))

        def f(params):
            return sum_(mha(Tensor(x_const)) * Tensor(w))

        assert finite_diff_check(f, store) < 1e-4


def _oracle_head(q, k, v, selected, masked, budget):
    """One head as the per-head path computed it: gather the selected rows
    (``Tensor.__getitem__``), score them in a separate product, scale and
    softmax, then put them in place with a constant placement matrix and
    fill the lazy rows with a constant matrix times V, lower triangular for
    the prefix sum or averaging for the mean.  ``selected`` None means every
    row."""
    L, d = q.shape
    l_k = k.shape[0]
    rows = np.arange(L) if selected is None else selected
    budget.dot_products_materialized += rows.size * l_k
    budget.rows_selected += rows.size
    q_rows = q if selected is None else q[rows]
    scores = linear(q_rows, transpose(k)) * (1.0 / math.sqrt(d))
    mask = np.arange(l_k)[None, :] > rows[:, None] if masked else None
    out = linear(softmax_lastdim(scores, mask), v)
    if selected is None:
        return out
    place = np.zeros((L, rows.size))
    place[rows, np.arange(rows.size)] = 1.0
    lazy = np.ones((L, 1))
    lazy[rows] = 0.0
    fill = np.tri(L, l_k) if masked else np.full((L, l_k), 1.0 / l_k)
    return linear(Tensor(place), out) + linear(Tensor(fill * lazy), v)


def _oracle_sampled_measure(q, k, c, rng, masked):
    L, d = q.shape
    u = top_n_count(L, c)
    sample = np.sort(rng.choice(L, size=u, replace=False))
    scores = (q @ k[sample].T) / math.sqrt(d)
    if not masked:
        return scores.max(axis=1) - scores.mean(axis=1), L * u
    visible = sample[None, :] <= np.arange(L)[:, None]
    counts = visible.sum(axis=1)
    peak = np.where(visible, scores, -np.inf).max(axis=1)
    mean = np.where(visible, scores, 0.0).sum(axis=1) / np.maximum(counts, 1)
    return np.where(counts > 0, peak - mean, -np.inf), L * u


def _per_head_oracle(mha, x_q, x_kv=None, rng=None, budget=None):
    """``MultiHeadAttention.__call__`` as a loop over heads, one kernel call
    per head on column slices of the projections: the reference for the
    all-heads core."""
    kind = mha.kind
    budget = ScoreBudget() if budget is None else budget
    x_kv = x_q if x_kv is None else x_kv
    q_full, k_full, v_full = (linear(x, w) for x, w in
                              ((x_q, mha.w_q), (x_kv, mha.w_k), (x_kv, mha.w_v)))
    masked = kind.startswith("masked")
    if kind.endswith("neural_sparse"):
        scores = importance_scores(q_full, k_full, mha.score_kernel, mha.score_bias,
                                   causal=masked)
    heads = []
    dh = q_full.shape[1] // mha.n_heads
    for h in range(mha.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q_full[:, cols], k_full[:, cols], v_full[:, cols]
        if kind.endswith("canonical"):
            selected = None
        else:
            if kind.endswith("neural_sparse"):
                ranking = scores[:, h]
            else:
                ranking, sampled = _oracle_sampled_measure(qh.data, kh.data, mha.c, rng,
                                                           masked)
                budget.dot_products_materialized += sampled
            select = select_top_queries_causal if masked else select_top_queries
            selected = select(ranking, mha.c)
        heads.append(_oracle_head(qh, kh, vh, selected, masked, budget))
    merged = heads[0] if len(heads) == 1 else concat(heads, axis=1)
    return linear(merged, mha.w_o)


def _run_with_grads(fn, store, weights):
    """Run ``fn(budget)`` counted into ``budget``: the core counts through
    ``counting``, the oracle by hand."""
    store.zero_grad()
    with counting(ScoreBudget()) as budget:
        out = fn(budget)
    sum_(out * Tensor(weights)).backward()
    grads = {name: t.grad.copy() for name, t in store.items()}
    return out.data, grads, (budget.dot_products_materialized, budget.rows_selected)


# Each id keeps the "-False" its case carried while a second flag was
# parametrized beside the kind, so the cases keep their names.
_KIND_CASES = [pytest.param(kind, id=f"{kind}-False")
               for kind in ("canonical", "masked_canonical", "neural_sparse",
                            "masked_neural_sparse", "prob_sparse", "masked_prob_sparse")]


class TestAllHeadsCore:
    """The all-heads core against the per-head oracle: outputs to 1e-12,
    parameter gradients to 1e-10 relative, dot-product counts exactly."""

    @pytest.mark.parametrize("kind", _KIND_CASES)
    @pytest.mark.parametrize("n_heads", [1, 2, 8])
    @pytest.mark.parametrize("L,c", [(7, 2.0), (40, 2.0), (40, 1.0), (25, 1000.0)])
    def test_matches_per_head_oracle(self, kind, n_heads, L, c):
        d_model = 24
        store = ParamStore()
        mha = MultiHeadAttention(store, "attn", kind, d_model, n_heads, c,
                                 np.random.default_rng(L + n_heads))
        data = np.random.default_rng(L)
        x = data.standard_normal((L, d_model))
        weights = data.standard_normal((L, d_model))

        def core(budget):
            return mha(Tensor(x), rng=np.random.default_rng(9))

        def oracle(budget):
            return _per_head_oracle(mha, Tensor(x), rng=np.random.default_rng(9),
                                    budget=budget)

        out, grads, counts = _run_with_grads(core, store, weights)
        want_out, want_grads, want_counts = _run_with_grads(oracle, store, weights)
        npt.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        assert counts == want_counts
        for name, want in want_grads.items():
            scale = np.abs(want).max()
            assert np.abs(grads[name] - want).max() <= 1e-10 * scale, name

    @pytest.mark.parametrize("n_heads", [1, 2, 8])
    def test_cross_attention_matches_oracle(self, n_heads):
        store = ParamStore()
        mha = MultiHeadAttention(store, "attn", "canonical", 16, n_heads, 5.0,
                                 np.random.default_rng(1))
        data = np.random.default_rng(2)
        x_q, x_kv = data.standard_normal((9, 16)), data.standard_normal((13, 16))
        weights = data.standard_normal((9, 16))
        out, grads, counts = _run_with_grads(
            lambda b: mha(Tensor(x_q), Tensor(x_kv)), store, weights)
        want_out, want_grads, want_counts = _run_with_grads(
            lambda b: _per_head_oracle(mha, Tensor(x_q), Tensor(x_kv), budget=b),
            store, weights)
        npt.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        assert counts == want_counts == (n_heads * 9 * 13, n_heads * 9)
        for name, want in want_grads.items():
            assert np.abs(grads[name] - want).max() <= 1e-10 * np.abs(want).max(), name

    @pytest.mark.parametrize("kind", ["masked_neural_sparse", "masked_prob_sparse"])
    def test_causal_heads_keep_different_counts(self, kind, monkeypatch):
        """Heads that select fewer rows are padded; the padded rows are
        neither counted nor visible in the output or the gradients."""
        store = ParamStore()
        mha = MultiHeadAttention(store, "attn", kind, 24, 8, 2.0, np.random.default_rng(3))
        data = np.random.default_rng(4)
        x, weights = data.standard_normal((2, 40, 24))
        counts = []
        original = select_top_queries_causal

        def spy(scores, c):
            chosen = original(scores, c)
            counts.append(chosen.size)
            return chosen

        monkeypatch.setattr(attention, "select_top_queries_causal", spy)
        out, grads, (dots, rows) = _run_with_grads(
            lambda b: mha(Tensor(x), rng=np.random.default_rng(5)), store, weights)
        assert len(counts) == 8 and len(set(counts)) > 1
        sampled = 8 * 40 * top_n_count(40, 2.0) if kind == "masked_prob_sparse" else 0
        assert rows == sum(counts)
        assert dots == sum(counts) * 40 + sampled
        want_out, want_grads, want_counts = _run_with_grads(
            lambda b: _per_head_oracle(mha, Tensor(x), rng=np.random.default_rng(5), budget=b),
            store, weights)
        npt.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        assert (dots, rows) == want_counts
        for name, want in want_grads.items():
            assert np.abs(grads[name] - want).max() <= 1e-10 * np.abs(want).max(), name


def _padded_selection_oracle(ranking, c, causal):
    """Per-head rows and the (H, n) mask of real rows, by the padding loop:
    each causal head's selected rows, padded to the longest list with the
    rows that head leaves lazy, in ascending order."""
    if not causal:
        rows = select_top_queries(ranking, c)
        return rows, np.ones(rows.shape, dtype=bool)
    chosen = [select_top_queries_causal(scores, c) for scores in ranking]
    n = max(rows.size for rows in chosen)
    H, L = ranking.shape
    rows = np.empty((H, n), dtype=np.intp)
    real = np.zeros((H, n), dtype=bool)
    for h, sel in enumerate(chosen):
        lazy = np.ones(L, dtype=bool)
        lazy[sel] = False
        rows[h, :sel.size] = sel
        rows[h, sel.size:] = np.flatnonzero(lazy)[:n - sel.size]
        real[h, :sel.size] = True
    return rows, real


class TestSelectionMask:
    """The core's one (H, L) selection mask against the padding loop: the
    rows a stable argsort of the inverted mask gathers, the real rows among
    them, the counted rows and the score buffer agree."""

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n_heads", [1, 2, 5, 8])
    @pytest.mark.parametrize("L,c", [(1, 5.0), (9, 1.0), (128, 2.0), (129, 5.0), (300, 3.0)])
    def test_matches_padding_loop(self, causal, ties, n_heads, L, c):
        rng = np.random.default_rng([L, n_heads, int(ties)])
        ranking = (rng.integers(0, 4, (n_heads, L)).astype(np.float64) if ties
                   else rng.standard_normal((n_heads, L)))
        if n_heads > 1:
            ranking[-1] = -np.arange(L)  # every row ranks last: the fewest causal rows
        want_rows, want_real = _padded_selection_oracle(ranking, c, causal)
        selected = attention._select_heads(ranking, c, causal)
        n = want_rows.shape[1]
        rows = np.argsort(~selected, axis=1, kind="stable")[:, :n]
        real = selected[np.arange(n_heads)[:, None], rows]
        npt.assert_array_equal(rows, want_rows)
        npt.assert_array_equal(real, want_real)
        assert selected.sum() == want_real.sum()
        assert selected.sum(axis=1).max() == n
        if causal and n_heads > 1 and L > 9:
            assert len(set(want_real.sum(axis=1))) > 1, "counts should differ"

        q, k, v = (Tensor(rng.standard_normal((L, n_heads * 4))) for _ in range(3))
        with counting(ScoreBudget()) as budget:
            attention.attend(q, k, v, n_heads, ranking, c=c, causal=causal)
        assert budget.rows_selected == want_real.sum()
        assert budget.dot_products_materialized == want_real.sum() * L
        assert budget.peak_bytes == n_heads * n * L * 8


@pytest.mark.parametrize("kind", attention.KINDS)
def test_attend_records_one_tape_node(kind):
    """Every kind's core is one node from the full-width (L, H*d) inputs to
    the merged output, with no head node between: causal sparse heads that
    keep different counts, and so attend padding rows, included."""
    H, L = 8, 40
    q, k, v = (Tensor(a, requires_grad=True)
               for a in np.random.default_rng(12).standard_normal((3, L, H * 4)))
    ranking = None
    if kind.endswith("sparse"):
        ranking = np.random.default_rng(13).standard_normal((H, L))
        ranking[-1] = -np.arange(L)  # every row ranks last: the fewest causal rows
    causal = kind.startswith("masked")
    out = attention.attend(q, k, v, H, ranking, c=2.0, causal=causal)
    assert out.shape == (L, H * 4)
    assert out._parents == (q, k, v)
    assert all(p._backward is None for p in out._parents)
    if ranking is not None and causal:
        counts = attention._select_heads(ranking, 2.0, True).sum(axis=1)
        assert len(set(counts)) > 1, "heads should keep different counts"


@pytest.mark.parametrize("causal", [False, True], ids=["neural_sparse", "masked_neural_sparse"])
@pytest.mark.parametrize("n_scores", [12, 25])
def test_single_head_kernel_names_a_ranking_of_the_wrong_length(causal, n_scores):
    """Scores for fewer or more rows than q has raise a ValueError naming
    both shapes, rather than a shorter output or an IndexError."""
    q, k, v = np.random.default_rng(30).standard_normal((3, 20, 4))
    with pytest.raises(ValueError, match=rf"ranking of shape \(1, {n_scores}\) does not match "
                                         r"the \(1, 20\) heads and query rows of q \(20, 4\)"):
        attend(q, k, v, 1, np.zeros((1, n_scores)), c=2.0, causal=causal)


def test_attend_names_a_ranking_for_the_wrong_head_count():
    q = Tensor(np.zeros((10, 8)))
    with pytest.raises(ValueError, match=r"ranking of shape \(4, 10\) does not match "
                                         r"the \(2, 10\) heads and query rows of q \(10, 8\)"):
        attention.attend(q, q, q, 2, np.zeros((4, 10)))


def test_causal_kernels_name_unequal_query_and_key_lengths():
    q, kv = np.zeros((7, 4)), np.zeros((9, 4))
    for call in (lambda: attend(q, kv, kv, 1, causal=True),
                 lambda: attend(q, kv, kv, 1, np.zeros((1, 7)), c=2.0, causal=True)):
        with pytest.raises(ValueError, match=r"causal attention needs L_Q == L_K, "
                                             r"got q \(7, 4\), k \(9, 4\)"):
            call()


def test_kind_names_agree():
    from sparsecast.model import ATTENTION_CHOICES

    assert len(set(attention.KINDS)) == len(attention.KINDS) == 6
    for kind in ATTENTION_CHOICES:
        assert kind in attention.KINDS and f"masked_{kind}" in attention.KINDS


@pytest.mark.parametrize("kind", attention.KINDS)
def test_a_stack_of_windows_attends_as_each_window_does(kind):
    """attend_kind over (B, L, H*d) stacks gives each window the bits of its
    own call, and inside ``counting`` adds the sum of the windows' dot
    products and rows.  The sampled kinds draw one sample per call, which
    the stack shares, as the eval forward's fresh seed-0 generator gives
    every window the same one."""
    B, H, L, d = 3, 2, 20, 4
    rng = np.random.default_rng(14)
    q, k, v = rng.standard_normal((3, B, L, H * d))
    kernel, bias = rng.standard_normal((H, H * d, 3)), rng.standard_normal(H)
    scorer = dict(score_kernel=kernel, score_bias=bias) if "neural" in kind else {}

    def run(*arrays):
        with counting(ScoreBudget()) as budget:
            out = attend_kind(kind, *arrays, H, 2.0, rng=attention.eval_rng(kind), **scorer)
        return out.data, budget

    stacked, together = run(q, k, v)
    alone = [run(q[b], k[b], v[b]) for b in range(B)]
    for b, (out, _) in enumerate(alone):
        assert stacked[b].tobytes() == out.tobytes(), b
    for field in ("dot_products_materialized", "rows_selected"):
        assert getattr(together, field) == sum(getattr(one, field) for _, one in alone)
    assert together.peak_bytes >= max(one.peak_bytes for _, one in alone)
