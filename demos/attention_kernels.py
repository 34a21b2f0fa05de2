"""Walkthrough of the attention kinds on one head.

``attend`` attends the top-ranked query rows of a ranking you give it;
``attend_kind`` builds the ranking of one of the six kinds itself.
Shows, on one random instance:
  * that the sparse kernels reproduce dense attention exactly on their
    selected query rows,
  * what the lazy rows are filled with (column mean of V, or prefix sums
    in the causal case),
  * the materialized dot-product counters behind the L*L -> n*L claim,
  * a small wall-time comparison at growing sequence lengths.

Run: python demos/attention_kernels.py
"""

import numpy as np

from sparsecast import (
    ScoreBudget,
    Tensor,
    attend,
    attend_kind,
    bench_attention,
    counting,
    importance_scores,
    select_top_queries,
    top_n_count,
)

rng = np.random.default_rng(0)
L, d, c = 24, 8, 2.0
q, k, v = rng.standard_normal((3, L, d))

print(f"instance: L={L}, d={d}, sparsity factor c={c}")
print(f"query budget n = c*ln(L) clamped -> {top_n_count(L, c)} of {L} rows\n")

# learned scoring: one conv column per head (random weights here)
kernel = Tensor(rng.standard_normal((1, d, 3)))
scores = importance_scores(q, k, kernel)[:, 0]
selected = select_top_queries(scores, c)
print("selected query rows:", selected)

with counting(ScoreBudget()) as budget:
    sparse_out = attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=c).data
dense_out = attend(q, k, v, 1).data

err = np.abs(sparse_out[selected] - dense_out[selected]).max()
lazy = np.setdiff1d(np.arange(L), selected)
fill_exact = np.array_equal(sparse_out[lazy], np.tile(v.mean(0), (lazy.size, 1)))
print(f"selected rows vs dense attention: max |diff| = {err:.2e}")
print(f"lazy rows equal column-mean fill: {fill_exact}")
print(f"dot products materialized: {budget.dot_products_materialized} "
      f"(dense would use {L * L})\n")

# causal variant: selection and fill only ever look backwards
cscores = importance_scores(q, k, kernel, causal=True)[:, 0]
masked_out = attend(q, k, v, 1, np.reshape(cscores, (1, -1)), c=c, causal=True).data
v2 = v.copy()
v2[-1] += 100.0  # a huge change at the last position...
masked_out2 = attend(q, k, v2, 1, np.reshape(cscores, (1, -1)), c=c, causal=True).data
print("causal kernel: perturbing the last position changes earlier rows by",
      np.abs(masked_out2[:-1] - masked_out[:-1]).max())

# sampled-score baseline
prob_out = attend_kind("prob_sparse", q, k, v, 1, c, rng=np.random.default_rng(1)).data
agree = np.abs(prob_out - dense_out).max(axis=1) < 1e-10
print(f"sampled-score baseline: {agree.sum()} rows exact, "
      f"{L - agree.sum()} rows mean-filled\n")

print("wall-time sweep (batch=4, heads=8, dims=64, medians of 3 repeats):")
records = bench_attention(batches=[4], seq_lens=[64, 256, 512],
                          kernels=["canonical", "neural_sparse", "prob_sparse"],
                          repeats=3, warmup=1)
print(f"{'kernel':>14} {'L':>5} {'median ms':>10} {'dot products':>14} {'peak KB':>9}")
for r in records:
    print(f"{r.kernel:>14} {r.seq_len:>5} {r.median_ns / 1e6:>10.2f} "
          f"{r.dot_products:>14} {r.peak_bytes / 1024:>9.1f}")
