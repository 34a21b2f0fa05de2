"""Attention kernels: canonical, learned-score sparse, and sampled-score sparse.

The sparse kernels compute full attention only for the top-n queries
(n = c*ln(L), clamped to [1, L]) and fill the remaining "lazy" rows with
a cheap statistic of V: its column mean in the unmasked case, or the
inclusive prefix sum in the masked (causal) case.  This drops the number
of materialized query-key dot products per head from L*L to n*L.

The two sparse families differ only in how queries are ranked:

* ``neural_sparse``: a width-3 convolution over Q+K emits one score
  column per head (the convolution parameters carry no gradient -- query
  ranking is a discrete choice, so the training loss is locally flat in
  them).
* ``prob_sparse``: a sampled max-minus-mean statistic of the query-key
  dot products, computed against u = c*ln(L) uniformly sampled keys.

Masked variants keep every output row independent of later positions:
the ranking signal is computed causally (left-padded convolution or a
prefix-restricted sample statistic) and each row is ranked only against
earlier rows, with a per-prefix budget n_i = c*ln(i+1).
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .layers import uniform_init
from .tensor import (
    ParamStore,
    Tensor,
    broadcast_rows,
    concat,
    conv1d_time,
    cumsum_time,
    gather_rows,
    matmul,
    mean_,
    no_grad,
    scatter_rows,
    softmax_lastdim,
    transpose,
)

KINDS = (
    "canonical",
    "neural_sparse",
    "masked_neural_sparse",
    "prob_sparse",
    "masked_prob_sparse",
)
# masked_canonical is accepted internally for causal dense decoding
_ALL_KINDS = KINDS + ("masked_canonical",)

# Rows per block of the causal selection; one block covers the decoder
# lengths up to 128, where the blocked ranking is a single dense compare.
_SELECT_BLOCK = 128
_STRICT_LOWER = np.tri(_SELECT_BLOCK, k=-1, dtype=bool)


@dataclass
class AttentionConfig:
    """Shape and sparsity settings for one multi-head attention module.

    ``cumsum_normalized`` switches the masked lazy fill from the raw
    prefix sum to a running mean; it has no effect on unmasked kinds.
    """

    n_heads: int
    d_model: int
    c: float = 5.0
    kind: str = "canonical"
    cumsum_normalized: bool = False

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.c < 1:
            raise ValueError(f"sparsity factor c must be >= 1, got {self.c}")
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown attention kind {self.kind!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class ScoreBudget:
    """Counters for materialized query-key dot products and selected rows."""

    dot_products_materialized: int = 0
    rows_selected: int = 0


class PhaseTimer:
    """Accumulates nanoseconds in the three kernel phases:
    1 scoring, 2 selection, 3 weighted aggregation."""

    def __init__(self):
        self.t1_ns = 0
        self.t2_ns = 0
        self.t3_ns = 0

    @contextmanager
    def phase(self, k: int):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            if k == 1:
                self.t1_ns += elapsed
            elif k == 2:
                self.t2_ns += elapsed
            else:
                self.t3_ns += elapsed


class _NullTimer:
    @contextmanager
    def phase(self, k: int):
        yield


class _NullTracker:
    @contextmanager
    def hold(self, nbytes: int):
        yield


_NULL_TIMER = _NullTimer()
_NULL_TRACKER = _NullTracker()


def top_n_count(length: int, c: float) -> int:
    """Sparse query budget: n = c*ln(L), clamped to [1, L]."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return min(length, max(1, math.ceil(c * math.log(length))))


def prefix_top_counts(length: int, c: float) -> np.ndarray:
    """Per-prefix budgets n_i = top_n_count(i+1, c) for i in 0..L-1."""
    lengths = np.arange(1, length + 1, dtype=np.float64)
    n = np.ceil(c * np.log(lengths)).astype(np.intp)
    return np.minimum(np.arange(1, length + 1), np.maximum(n, 1))


def causal_mask(length: int) -> np.ndarray:
    """Boolean (L, L) mask, True where key position is after the query."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def select_top_queries(scores, c: float) -> np.ndarray:
    """Indices (ascending) of the n = c*ln(L) largest scores.

    Ties are broken toward the lower index.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = top_n_count(s.size, c)
    order = np.lexsort((np.arange(s.size), -s))
    return np.sort(order[:n])


def select_top_queries_causal(scores, c: float) -> np.ndarray:
    """Causal selection: row i is kept when its score ranks in the top
    n_i = c*ln(i+1) among rows 0..i.

    Membership of a row therefore depends only on scores at or before it,
    which is what keeps the masked kernels exactly causal.  Ties break
    toward the lower index.

    Rows are ranked in blocks of ``_SELECT_BLOCK`` against the earlier
    rows of their block and the K = n_{L-1} largest scores before it.
    That count is exact whenever it is below K >= n_i, so the selection
    equals a full prefix ranking at O(L*(K+B)) time, with no L x L buffer.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    nan = np.flatnonzero(np.isnan(s))
    if nan.size:
        raise ValueError(f"causal selection got a NaN score at index {nan[0]}")
    L = s.size
    n_i = prefix_top_counts(L, c)
    top_k = int(n_i[-1]) if L else 0
    rank = np.empty(L, dtype=np.intp)
    top = s[:0]  # the top_k largest scores before the current block
    for start in range(0, L, _SELECT_BLOCK):
        block = s[start:start + _SELECT_BLOCK]
        b = block.size
        col = block[:, None]
        earlier_in_block = (block[None, :] >= col) & _STRICT_LOWER[:b, :b]
        rank[start:start + b] = earlier_in_block.sum(axis=1) + (top[None, :] >= col).sum(axis=1)
        if start + b < L:
            top = np.concatenate([top, block])
            if top.size > top_k:
                top = np.partition(top, top.size - top_k)[top.size - top_k:]
    return np.nonzero(rank < n_i)[0]


def importance_scores(q, k, kernel, bias=None, causal: bool = False) -> np.ndarray:
    """Per-query importance scores, one column per head.

    A width-3 convolution over Q+K (in-channels d_model, out-channels
    n_heads).  Requires self-attention shapes (L_Q == L_K); cross
    attention has no query ranking and must use the canonical kernel.
    With ``causal=True`` the input is left-padded instead of centered, so
    score i only sees positions i-2..i.

    The result is detached: selection is discrete, so no gradient flows
    through these scores.
    """
    q_data = q.data if isinstance(q, Tensor) else np.asarray(q, dtype=np.float64)
    k_data = k.data if isinstance(k, Tensor) else np.asarray(k, dtype=np.float64)
    if q_data.shape[0] != k_data.shape[0]:
        raise ValueError(
            f"importance scores need L_Q == L_K, got {q_data.shape[0]} != {k_data.shape[0]}"
            " (cross-attention must use the canonical kernel)"
        )
    kernel_data = kernel.data if isinstance(kernel, Tensor) else np.asarray(kernel)
    fused = q_data + k_data
    with no_grad():
        if causal:
            width = kernel_data.shape[2]
            padded = np.vstack([np.zeros((width - 1, fused.shape[1])), fused])
            scores = conv1d_time(Tensor(padded), Tensor(kernel_data), padding=0).data
        else:
            scores = conv1d_time(Tensor(fused), Tensor(kernel_data), padding=1).data
    if bias is not None:
        bias_data = bias.data if isinstance(bias, Tensor) else np.asarray(bias)
        scores = scores + bias_data
    return scores


def canonical_attention(q, k, v, mask=None, budget: ScoreBudget | None = None,
                        tracker=None, timer=None) -> Tensor:
    """Dense attention: softmax(Q K^T / sqrt(d)) V.

    ``mask`` is an optional boolean (L_Q, L_K) array, True = forbidden;
    a causal mask only makes sense when L_Q == L_K.
    """
    q = q if isinstance(q, Tensor) else Tensor(q)
    k = k if isinstance(k, Tensor) else Tensor(k)
    v = v if isinstance(v, Tensor) else Tensor(v)
    l_q, d = q.shape
    l_k = k.shape[0]
    if k.shape[1] != d:
        raise ValueError(f"query dim {d} does not match key dim {k.shape[1]}")
    if v.shape[0] != l_k:
        raise ValueError(f"keys have {l_k} rows but values have {v.shape[0]}")
    timer = timer or _NULL_TIMER
    tracker = tracker or _NULL_TRACKER
    if budget is not None:
        budget.dot_products_materialized += l_q * l_k
        budget.rows_selected += l_q
    with timer.phase(3):
        with tracker.hold(l_q * l_k * 8):
            scores = matmul(q, transpose(k)) * (1.0 / math.sqrt(d))
            attn = softmax_lastdim(scores, mask)
            out = matmul(attn, v)
    return out


def _aggregate_selected(q, k, v, selected: np.ndarray, masked: bool,
                        budget, tracker, timer, cumsum_normalized: bool) -> Tensor:
    """Dense attention for the selected query rows plus the lazy fill."""
    L, d = q.shape
    n = int(selected.size)
    if budget is not None:
        budget.dot_products_materialized += n * L
        budget.rows_selected += n
    with timer.phase(3):
        lazy = np.setdiff1d(np.arange(L), selected, assume_unique=True)
        q_sel = gather_rows(q, selected)
        with tracker.hold(n * L * 8):
            scores = matmul(q_sel, transpose(k)) * (1.0 / math.sqrt(d))
            mask = (np.arange(L)[None, :] > selected[:, None]) if masked else None
            attn = softmax_lastdim(scores, mask)
            out_sel = matmul(attn, v)
        out = scatter_rows(selected, out_sel, L)
        if lazy.size:
            if masked:
                fill_source = cumsum_time(v)
                if cumsum_normalized:
                    fill_source = fill_source * Tensor(1.0 / np.arange(1, L + 1)[:, None])
                fill = gather_rows(fill_source, lazy)
            else:
                fill = broadcast_rows(mean_(v, axis=0, keepdims=True), lazy.size)
            out = out + scatter_rows(lazy, fill, L)
    return out


def neural_sparse_attention(q, k, v, c: float, scores, budget: ScoreBudget | None = None,
                            tracker=None, timer=None) -> Tensor:
    """Sparse self-attention ranked by precomputed importance scores.

    The top-n rows get exact dense attention over all keys; lazy rows are
    filled with the column mean of V.  ``scores`` is this head's
    importance column of length L.
    """
    q = q if isinstance(q, Tensor) else Tensor(q)
    k = k if isinstance(k, Tensor) else Tensor(k)
    v = v if isinstance(v, Tensor) else Tensor(v)
    if q.shape[0] != k.shape[0]:
        raise ValueError("neural_sparse attention is self-attention only (L_Q must equal L_K)")
    timer = timer or _NULL_TIMER
    tracker = tracker or _NULL_TRACKER
    with timer.phase(2):
        selected = select_top_queries(scores, c)
    return _aggregate_selected(q, k, v, selected, False, budget, tracker, timer, False)


def masked_neural_sparse_attention(q, k, v, c: float, scores,
                                   budget: ScoreBudget | None = None, tracker=None,
                                   timer=None, cumsum_normalized: bool = False) -> Tensor:
    """Causal sparse self-attention: selected rows attend to keys at or
    before them; lazy row i is the inclusive prefix sum of V rows 0..i.

    ``scores`` must come from a causal ranking signal (see
    ``importance_scores(..., causal=True)``) for the output to be exactly
    independent of later inputs.
    """
    q = q if isinstance(q, Tensor) else Tensor(q)
    k = k if isinstance(k, Tensor) else Tensor(k)
    v = v if isinstance(v, Tensor) else Tensor(v)
    if q.shape[0] != k.shape[0]:
        raise ValueError("masked attention needs L_Q == L_K")
    timer = timer or _NULL_TIMER
    tracker = tracker or _NULL_TRACKER
    with timer.phase(2):
        selected = select_top_queries_causal(scores, c)
    return _aggregate_selected(q, k, v, selected, True, budget, tracker, timer, cumsum_normalized)


def prob_sparse_attention(q, k, v, c: float, rng: np.random.Generator,
                          masked: bool = False, budget: ScoreBudget | None = None,
                          tracker=None, timer=None,
                          cumsum_normalized: bool = False) -> Tensor:
    """Sparse self-attention ranked by a sampled sparsity statistic.

    u = c*ln(L) keys are sampled uniformly without replacement; each
    query's statistic is max - mean of its scaled dot products with the
    sample.  In masked mode the statistic for row i uses only sampled
    keys at or before i (rows that see no sampled key rank lowest) and
    selection is causal.
    """
    q = q if isinstance(q, Tensor) else Tensor(q)
    k = k if isinstance(k, Tensor) else Tensor(k)
    v = v if isinstance(v, Tensor) else Tensor(v)
    L, d = q.shape
    if k.shape[0] != L:
        raise ValueError("prob_sparse attention is self-attention only (L_Q must equal L_K)")
    timer = timer or _NULL_TIMER
    tracker = tracker or _NULL_TRACKER

    with timer.phase(1):
        u = top_n_count(L, c)
        sample = np.sort(rng.choice(L, size=u, replace=False))
        with tracker.hold(L * u * 8):
            sampled_scores = (q.data @ k.data[sample].T) / math.sqrt(d)
            if masked:
                visible = sample[None, :] <= np.arange(L)[:, None]
                counts = visible.sum(axis=1)
                peak = np.where(visible, sampled_scores, -np.inf).max(axis=1)
                mean = np.where(visible, sampled_scores, 0.0).sum(axis=1) / np.maximum(counts, 1)
                measure = np.where(counts > 0, peak - mean, -np.inf)
            else:
                measure = sampled_scores.max(axis=1) - sampled_scores.mean(axis=1)
    if budget is not None:
        budget.dot_products_materialized += L * u
    with timer.phase(2):
        if masked:
            selected = select_top_queries_causal(measure, c)
        else:
            selected = select_top_queries(measure, c)
    return _aggregate_selected(q, k, v, selected, masked, budget, tracker, timer,
                               cumsum_normalized)


class MultiHeadAttention:
    """Multi-head wrapper: project, run the configured kernel per head,
    concatenate, and project back.

    The projections W_Q, W_K, W_V, W_O are d_model x d_model without
    biases.  For the learned-score kinds one convolution scores all heads
    at once on the full-width projected Q and K; head h selects by column
    h.  Kernels are pure given parameters, so heads could run
    concurrently; counters are per-invocation.
    """

    def __init__(self, store: ParamStore, prefix: str, config: AttentionConfig,
                 rng: np.random.Generator):
        self.config = config
        d = config.d_model
        self.w_q = store.add(f"{prefix}.w_q", uniform_init(rng, (d, d), d))
        self.w_k = store.add(f"{prefix}.w_k", uniform_init(rng, (d, d), d))
        self.w_v = store.add(f"{prefix}.w_v", uniform_init(rng, (d, d), d))
        self.w_o = store.add(f"{prefix}.w_o", uniform_init(rng, (d, d), d))
        if config.kind in ("neural_sparse", "masked_neural_sparse"):
            self.score_kernel = store.add(
                f"{prefix}.score.kernel", uniform_init(rng, (config.n_heads, d, 3), d * 3)
            )
            self.score_bias = store.add(f"{prefix}.score.bias", np.zeros(config.n_heads))
        else:
            self.score_kernel = None
            self.score_bias = None

    def __call__(self, x_q: Tensor, x_kv: Tensor | None = None, *,
                 rng: np.random.Generator | None = None,
                 budget: ScoreBudget | None = None, tracker=None, timer=None) -> Tensor:
        cfg = self.config
        kind = cfg.kind
        self_attention = x_kv is None
        if x_kv is None:
            x_kv = x_q
        if kind != "canonical" and not self_attention:
            raise ValueError(f"cross-attention requires the canonical kernel, got {kind!r}")
        timer = timer or _NULL_TIMER

        q_full = matmul(x_q, self.w_q)
        k_full = matmul(x_kv, self.w_k)
        v_full = matmul(x_kv, self.w_v)
        L = q_full.shape[0]

        scores = None
        if kind in ("neural_sparse", "masked_neural_sparse"):
            with timer.phase(1):
                scores = importance_scores(
                    q_full, k_full, self.score_kernel, self.score_bias,
                    causal=kind.startswith("masked"),
                )
        if kind in ("prob_sparse", "masked_prob_sparse") and rng is None:
            raise ValueError("prob_sparse attention requires an rng")

        heads = []
        dh = cfg.d_head
        for h in range(cfg.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            qh, kh, vh = q_full[:, cols], k_full[:, cols], v_full[:, cols]
            if kind == "canonical":
                out = canonical_attention(qh, kh, vh, budget=budget, tracker=tracker,
                                          timer=timer)
            elif kind == "masked_canonical":
                out = canonical_attention(qh, kh, vh, mask=causal_mask(L), budget=budget,
                                          tracker=tracker, timer=timer)
            elif kind == "neural_sparse":
                out = neural_sparse_attention(qh, kh, vh, cfg.c, scores[:, h], budget=budget,
                                              tracker=tracker, timer=timer)
            elif kind == "masked_neural_sparse":
                out = masked_neural_sparse_attention(qh, kh, vh, cfg.c, scores[:, h],
                                                     budget=budget, tracker=tracker,
                                                     timer=timer,
                                                     cumsum_normalized=cfg.cumsum_normalized)
            else:
                out = prob_sparse_attention(qh, kh, vh, cfg.c, rng,
                                            masked=kind.startswith("masked"), budget=budget,
                                            tracker=tracker, timer=timer,
                                            cumsum_normalized=cfg.cumsum_normalized)
            heads.append(out)
        merged = heads[0] if len(heads) == 1 else concat(heads, axis=1)
        return matmul(merged, self.w_o)
