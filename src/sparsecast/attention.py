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

Every kind runs through one core, ``attend``, which takes the full-width
(L, H*d_head) projections and records one tape node for all H heads: it
turns a kind's (H, L) ranking into an (H, L) selection mask, and
``tensor.attention`` attends the selected rows and fills the lazy ones.
"""

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .layers import uniform_init
from .tensor import (
    ParamStore,
    Tensor,
    _coerce,
    attention,
    conv1d_time,
    head_view,
    linear,
    no_grad,
)

# The order is fixed: a kind's index seeds its cells in ``bench``.
KINDS = (
    "canonical",
    "prob_sparse",
    "neural_sparse",
    "masked_canonical",
    "masked_neural_sparse",
    "masked_prob_sparse",
)

# Rows per block of the causal selection; one block covers the decoder
# lengths up to 128, where the blocked ranking is a single dense compare.
_SELECT_BLOCK = 128
_STRICT_LOWER = np.tri(_SELECT_BLOCK, k=-1, dtype=bool)


class NaNScoreError(ValueError):
    """A query selection got a NaN score, as a model whose parameters are
    no longer finite gives."""


@dataclass
class ScoreBudget:
    """What the attention kernels of one ``counting`` block did: materialized
    query-key dot products, selected rows, the bytes of the largest transient
    score buffer, and nanoseconds in the three kernel phases (1 scoring,
    2 selection, 3 weighted aggregation)."""

    dot_products_materialized: int = 0
    rows_selected: int = 0
    peak_bytes: int = 0
    t1_ns: int = 0
    t2_ns: int = 0
    t3_ns: int = 0


_ACTIVE = ContextVar("sparsecast_score_budget", default=None)


@contextmanager
def counting(record: ScoreBudget):
    """Count every attention kernel call made in the block into ``record``.

    The active record is per thread and per context; a nested block counts
    into its own record and restores the outer one on exit.
    """
    token = _ACTIVE.set(record)
    try:
        yield record
    finally:
        _ACTIVE.reset(token)


def _now(record) -> int:
    """The clock, read only while a record is active."""
    return time.perf_counter_ns() if record is not None else 0


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


def select_top_queries(scores, c: float) -> np.ndarray:
    """Indices (ascending) of the n = c*ln(L) largest scores along the last
    axis.

    Ties are broken toward the lower index.  An (..., H, L) array of
    per-head scores gives an (..., H, n) array, one row of indices per
    window and head.  A NaN score raises ``NaNScoreError`` naming its
    window, head and row; a 1-D array is head 0.
    """
    s = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    if np.isnan(s).any():
        raise _nan_score("selection", s)
    n = top_n_count(s.shape[-1], c)
    order = np.argsort(-s, axis=-1, kind="stable")
    return np.sort(order[..., :n], axis=-1)


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
    ``scores`` must be 1-D: one head of one window.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"causal selection ranks one head's 1-D scores, got shape {s.shape}")
    nan = np.flatnonzero(np.isnan(s))
    if nan.size:
        raise NaNScoreError(f"causal selection got a NaN score at index {nan[0]}")
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
    """Per-query importance scores, (..., L, H): one column per head.

    A width-3 convolution over Q+K (in-channels d_model, out-channels
    n_heads) along axis -2.  Requires self-attention shapes (L_Q == L_K);
    cross attention has no query ranking and must use the canonical kernel.
    With ``causal=True`` the input is left-padded instead of centered, so
    score i only sees positions i-2..i.

    The result is detached: selection is discrete, so no gradient flows
    through these scores.
    """
    q_data, k_data = _coerce(q).data, _coerce(k).data
    if q_data.shape[-2] != k_data.shape[-2]:
        raise ValueError(
            f"importance scores need L_Q == L_K, got {q_data.shape[-2]} != {k_data.shape[-2]}"
            " (cross-attention must use the canonical kernel)"
        )
    fused = q_data + k_data
    with no_grad():
        if causal:
            width = kernel.shape[2]
            pad = np.zeros((*fused.shape[:-2], width - 1, fused.shape[-1]))
            padded = np.concatenate([pad, fused], axis=-2)
            return conv1d_time(padded, kernel, 0, bias).data
        return conv1d_time(fused, kernel, 1, bias).data


def _nan_score(selection: str, scores: np.ndarray) -> NaNScoreError:
    """The error for the first NaN of (..., H, L) ``scores``, naming its
    window, head and row; a 1-D array is head 0."""
    *windows, head, row = np.argwhere(np.isnan(np.atleast_2d(scores)))[0].tolist()
    at = "".join(f"window {i}, " for i in windows)
    return NaNScoreError(f"{selection} got a NaN score at {at}head {head}, row {row}")


def _select_heads(ranking: np.ndarray, c: float, causal: bool) -> np.ndarray:
    """Each head's selection as an (..., H, L) boolean mask.  The causal
    selection runs once per window and head; a NaN score raises
    ``NaNScoreError`` naming its window, head and row."""
    selected = np.zeros(ranking.shape, dtype=bool)
    flat = selected.reshape(-1, ranking.shape[-1])  # a view: one row per window and head
    if causal:
        for row, scores in zip(flat, ranking.reshape(flat.shape)):
            try:
                row[select_top_queries_causal(scores, c)] = True
            except NaNScoreError:
                raise _nan_score("causal selection", ranking) from None
    else:
        chosen = select_top_queries(ranking, c)
        flat[np.arange(len(flat))[:, None], chosen.reshape(len(flat), -1)] = True
    return selected


def attend(q: Tensor, k: Tensor, v: Tensor, n_heads: int, ranking=None, *,
           c: float = 5.0, causal: bool = False) -> Tensor:
    """The one attention core: one node from the full-width (..., L, H*d)
    projections of ``n_heads`` heads to their merged (..., L, H*d_v) output.

    With ``ranking`` None every query row attends (canonical; ``causal``
    adds the causal mask).  Otherwise ``ranking`` is an (..., H, L) array
    of per-head query scores, and ``tensor.attention`` gets each head's
    top-n rows as a selection mask.  Inside ``counting`` only selected rows
    are counted, and the score buffer of every window and head is one
    buffer.
    """
    budget = _ACTIVE.get()
    heads = (*q.shape[:-2], n_heads)
    l_q, l_k = q.shape[-2], k.shape[-2]
    if causal and l_q != l_k:
        raise ValueError(f"causal attention needs L_Q == L_K, got q {q.shape}, k {k.shape}")
    selected = None
    if ranking is not None:
        if ranking.shape != (*heads, l_q):
            raise ValueError(f"ranking of shape {ranking.shape} does not match the "
                             f"{(*heads, l_q)} heads and query rows of q {q.shape}")
        start = _now(budget)
        selected = _select_heads(ranking, c, causal)
        if budget is not None:
            budget.t2_ns += time.perf_counter_ns() - start
    start = _now(budget)
    out = attention(q, k, v, n_heads, 1.0 / math.sqrt(q.shape[-1] // n_heads), causal,
                    selected)
    if budget is not None:
        budget.t3_ns += time.perf_counter_ns() - start
        counts = np.full(heads, l_q) if selected is None else selected.sum(axis=-1)
        budget.dot_products_materialized += int(counts.sum()) * l_k
        budget.rows_selected += int(counts.sum())
        budget.peak_bytes = max(budget.peak_bytes, counts.size * int(counts.max()) * l_k * 8)
    return out


def sampled_sparsity(q: Tensor, k: Tensor, n_heads: int, c: float,
                     rng: np.random.Generator, causal: bool = False) -> np.ndarray:
    """(..., H, L) ``prob_sparse`` ranking of the full-width (..., L, H*d)
    projections: per head, max - mean of the scaled dot products with u =
    c*ln(L) keys sampled uniformly without replacement.

    Heads draw their samples in head order from ``rng``, one (H, u) draw
    per call that every window of a stack shares.  When ``causal`` the
    statistic of row i uses only sampled keys at or before i, and rows that
    see no sampled key rank lowest.
    """
    budget = _ACTIVE.get()
    q_heads, k_heads = (head_view(_coerce(x).data, n_heads) for x in (q, k))
    *_, H, L, d = q_heads.shape
    if k_heads.shape[-2] != L:
        raise ValueError("prob_sparse attention is self-attention only (L_Q must equal L_K)")
    start = _now(budget)
    u = top_n_count(L, c)
    sample = np.stack([np.sort(rng.choice(L, size=u, replace=False)) for _ in range(H)])
    keys = k_heads[..., np.arange(H)[:, None], sample, :]
    sampled_scores = (q_heads @ np.swapaxes(keys, -1, -2)) / math.sqrt(d)
    if causal:
        visible = sample[:, None, :] <= np.arange(L)[:, None]
        counts = visible.sum(axis=-1)
        peak = np.where(visible, sampled_scores, -np.inf).max(axis=-1)
        mean = np.where(visible, sampled_scores, 0.0).sum(axis=-1) / np.maximum(counts, 1)
        measure = np.where(counts > 0, peak - mean, -np.inf)
    else:
        measure = sampled_scores.max(axis=-1) - sampled_scores.mean(axis=-1)
    if budget is not None:
        budget.t1_ns += time.perf_counter_ns() - start
        budget.dot_products_materialized += measure.size * u
        budget.peak_bytes = max(budget.peak_bytes, measure.size * u * 8)
    return measure


def eval_rng(kind: str) -> np.random.Generator | None:
    """The generator a forward outside training hands ``attend_kind``.

    Only the ``prob_sparse`` kinds draw: each call gets a fresh seed-0
    generator, so their eval outputs repeat from call to call.  The other
    kinds get None and build nothing.
    """
    return np.random.default_rng(0) if kind.endswith("prob_sparse") else None


def attend_kind(kind: str, q_full, k_full, v_full, n_heads: int, c: float, *,
                score_kernel=None, score_bias=None,
                rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head attention of one ``kind`` on full-width (..., L, H*d)
    projections.

    The kinds differ only in how queries are ranked: ``canonical`` keeps
    every row, ``neural_sparse`` ranks by the score convolution (one call
    for all heads), ``prob_sparse`` by the sampled statistic; the
    ``masked_*`` kinds add the causal mask.  Returns the merged (..., L, H*d)
    output.  An unknown ``kind`` raises ``ValueError`` listing ``KINDS``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown attention kind {kind!r}; expected one of {', '.join(KINDS)}")
    causal = kind.startswith("masked")
    ranking = None
    if kind.endswith("neural_sparse"):
        budget = _ACTIVE.get()
        start = _now(budget)
        ranking = importance_scores(q_full, k_full, score_kernel, score_bias,
                                    causal=causal).swapaxes(-1, -2)
        if budget is not None:
            budget.t1_ns += time.perf_counter_ns() - start
    elif kind.endswith("prob_sparse"):
        if rng is None:
            raise ValueError("prob_sparse attention requires an rng")
        ranking = sampled_sparsity(q_full, k_full, n_heads, c, rng, causal)
    return attend(q_full, k_full, v_full, n_heads, ranking, c=c, causal=causal)


class MultiHeadAttention:
    """Multi-head wrapper: project, run the kernel of ``kind`` on all heads
    at once, and project its merged output back.

    The projections W_Q, W_K, W_V, W_O are d_model x d_model without
    biases.  For the learned-score kinds one convolution scores all heads
    at once on the full-width projected Q and K; head h selects by column
    h.  Kernels are pure given parameters; inside ``counting`` each call adds
    its counts to the active record.  A call without ``rng`` is a forward
    outside training and draws from ``eval_rng(kind)``.
    """

    def __init__(self, store: ParamStore, prefix: str, kind: str, d_model: int,
                 n_heads: int, c: float, rng: np.random.Generator):
        self.kind, self.n_heads, self.c = kind, n_heads, c
        d = d_model
        self.w_q = store.add(f"{prefix}.w_q", uniform_init(rng, (d, d), d))
        self.w_k = store.add(f"{prefix}.w_k", uniform_init(rng, (d, d), d))
        self.w_v = store.add(f"{prefix}.w_v", uniform_init(rng, (d, d), d))
        self.w_o = store.add(f"{prefix}.w_o", uniform_init(rng, (d, d), d))
        if kind in ("neural_sparse", "masked_neural_sparse"):
            self.score_kernel = store.add(
                f"{prefix}.score.kernel", uniform_init(rng, (n_heads, d, 3), d * 3)
            )
            self.score_bias = store.add(f"{prefix}.score.bias", np.zeros(n_heads))
        else:
            self.score_kernel = None
            self.score_bias = None

    def __call__(self, x_q: Tensor, x_kv: Tensor | None = None, *,
                 rng: np.random.Generator | None = None) -> Tensor:
        if x_kv is not None and self.kind != "canonical":
            raise ValueError(f"cross-attention requires the canonical kernel, got {self.kind!r}")
        if x_kv is None:
            x_kv = x_q
        merged = attend_kind(
            self.kind, linear(x_q, self.w_q), linear(x_kv, self.w_k), linear(x_kv, self.w_v),
            self.n_heads, self.c, score_kernel=self.score_kernel, score_bias=self.score_bias,
            rng=eval_rng(self.kind) if rng is None else rng,
        )
        return linear(merged, self.w_o)
