"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import os
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import dense_attention
from sparsecast.ablation import VARIANTS, run_ablation
from sparsecast.attention import (
    MultiHeadAttention,
    attend,
    attend_kind,
    importance_scores,
    select_top_queries,
    select_top_queries_causal,
    top_n_count,
)
from sparsecast.bench import bench_attention
from sparsecast.data import (
    StandardScaler,
    fit_apply_scaler,
    load_csv,
    make_windows,
    metrics,
    split_622,
    synthetic_aiops_frame,
    synthetic_seasonal_frame,
)
from sparsecast.embedding import WindowEmbedding, positional_encoding
from sparsecast.encoder import DistillParams, Encoder, distill_step, encoder_output_length
from sparsecast.model import DecoderLayer, Forecaster, ModelConfig
from sparsecast.tensor import ParamStore, Tensor, finite_diff_check, sum_
from sparsecast.training import (
    TrainConfig,
    checkpoint_bytes,
    evaluate,
    repeat_last_baseline,
    train_loop,
)


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"criterion {num:02d} ({name}): SKIPPED")
                raise
            except BaseException:
                print(f"criterion {num:02d} ({name}): FAIL")
                raise
            print(f"criterion {num:02d} ({name}): PASS")
        return wrapper
    return decorate


@criterion(1, "sparse/dense oracle")
def test_c01_sparse_dense_oracle():
    start = time.time()
    rng = np.random.default_rng(20240901)
    c = 2.0
    for _ in range(200):
        L = int(rng.integers(4, 33))
        d = int(rng.choice([4, 8]))
        q, k, v = rng.standard_normal((3, L, d))
        kernel = Tensor(rng.standard_normal((1, d, 3)))

        scores = importance_scores(q, k, kernel)[:, 0]
        out = attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=c).data
        sel = select_top_queries(scores, c)
        lazy = np.setdiff1d(np.arange(L), sel)
        oracle = dense_attention(q, k, v)
        assert np.abs(out[sel] - oracle[sel]).max() < 1e-10
        if lazy.size:
            assert np.array_equal(out[lazy], np.tile(v.mean(axis=0), (lazy.size, 1)))

        cscores = importance_scores(q, k, kernel, causal=True)[:, 0]
        mout = attend(q, k, v, 1, np.reshape(cscores, (1, -1)), c=c, causal=True).data
        msel = select_top_queries_causal(cscores, c)
        mlazy = np.setdiff1d(np.arange(L), msel)
        causal_oracle = dense_attention(q, k, v, causal=True)
        assert np.abs(mout[msel] - causal_oracle[msel]).max() < 1e-10
        if mlazy.size:
            assert np.array_equal(mout[mlazy], np.cumsum(v, axis=0)[mlazy])
    elapsed = time.time() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


@criterion(2, "masked-kernel causality")
def test_c02_causality():
    rng = np.random.default_rng(77)
    L, d, c = 16, 4, 2.0
    q, k, v = rng.standard_normal((3, L, d))
    kernel = Tensor(rng.standard_normal((1, d, 3)))

    def run_neural(q_, k_, v_):
        cs = importance_scores(q_, k_, kernel, causal=True)[:, 0]
        return attend(q_, k_, v_, 1, np.reshape(cs, (1, -1)), c=c, causal=True).data

    def run_prob(q_, k_, v_):
        return attend_kind("masked_prob_sparse", q_, k_, v_, 1, c,
                           rng=np.random.default_rng(13)).data

    for run in (run_neural, run_prob):
        base = run(q, k, v)
        t = int(rng.integers(2, L - 2))
        for _ in range(20):
            tp = int(rng.integers(t + 1, L))
            q2, k2, v2 = q.copy(), k.copy(), v.copy()
            q2[tp] += rng.standard_normal(d)
            k2[tp] += rng.standard_normal(d)
            v2[tp] += rng.standard_normal(d)
            out = run(q2, k2, v2)
            assert np.abs(out[: t + 1] - base[: t + 1]).max() <= 1e-12


@criterion(3, "gradient suite")
def test_c03_gradient_suite():
    start = time.time()
    tol, step = 1e-4, 1e-5

    # embedding block
    store = ParamStore()
    emb = WindowEmbedding(store, "emb", 2, 8, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    values = rng.standard_normal((12, 2))
    stamps = np.stack([rng.integers(0, 13, 12), rng.integers(0, 32, 12),
                       rng.integers(0, 7, 12), rng.integers(0, 24, 12),
                       rng.integers(0, 4, 12)], axis=1)
    w = rng.standard_normal((12, 8))
    err = finite_diff_check(
        lambda p: sum_(emb(values, stamps) * Tensor(w)), store, step)
    assert err < tol, f"embedding block: {err}"

    # attention blocks, every kind
    x_const = np.random.default_rng(3).standard_normal((10, 8))
    w_attn = np.random.default_rng(4).standard_normal((10, 8))
    for kind in ("canonical", "neural_sparse", "masked_neural_sparse",
                 "prob_sparse", "masked_prob_sparse"):
        store = ParamStore()
        mha = MultiHeadAttention(store, "attn", kind, 8, 2, 2.0, np.random.default_rng(5))

        def f(params):
            return sum_(mha(Tensor(x_const), rng=np.random.default_rng(0))
                        * Tensor(w_attn))

        err = finite_diff_check(f, store, step)
        assert err < tol, f"multi-head {kind}: {err}"

    # distillation step (includes gamma)
    store = ParamStore()
    dist = DistillParams(store, "distill", 8, np.random.default_rng(6))
    x_d = store.add("x", np.random.default_rng(7).standard_normal((12, 8)))
    w_d = np.random.default_rng(8).standard_normal((6, 8))
    err = finite_diff_check(lambda p: sum_(distill_step(p["x"], dist) * Tensor(w_d)),
                            store, step)
    assert err < tol, f"distill step: {err}"

    # decoder layer
    store = ParamStore()
    dec_cfg = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                          n_heads=2, dropout=0.0, d_ff=16)
    layer = DecoderLayer(store, "dec", dec_cfg, np.random.default_rng(9))
    x_dec = np.random.default_rng(10).standard_normal((8, 8))
    enc_out = np.random.default_rng(11).standard_normal((6, 8))
    w_dec = np.random.default_rng(12).standard_normal((8, 8))
    err = finite_diff_check(
        lambda p: sum_(layer(Tensor(x_dec), Tensor(enc_out)) * Tensor(w_dec)),
        store, step)
    assert err < tol, f"decoder layer: {err}"

    # full model at the pinned configuration (gamma, gate, stamp tables included)
    frame = synthetic_seasonal_frame(60, 2, seed=1)
    config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                         n_heads=2, enc_blocks=3, dec_layers=1, dropout=0.0)
    model = Forecaster(config, np.random.default_rng(0))
    sample = make_windows(frame, 12, 4, 4)[0]
    names = model.params.names()
    assert any(".gamma" in n for n in names)
    assert any(".gate." in n for n in names)
    assert any(".se." in n for n in names)
    err = finite_diff_check(lambda p: model.loss(sample), model.params, step)
    assert err < tol, f"full model: {err}"

    elapsed = time.time() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


@criterion(4, "encoder length law")
def test_c04_shape_law():
    store = ParamStore()
    config = ModelConfig(L_x=96, label_len=0, L_y=1, d_x=1, d_y=1, d_model=8, n_heads=2,
                         enc_blocks=3, d_ff=16, dropout=0.0, attention="canonical")
    enc = Encoder(store, "enc", config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for L, expected in ((96, 24), (48, 12)):
        out = enc(Tensor(rng.standard_normal((L, 8))))
        assert out.shape[0] == expected
    for L in (5, 9, 17, 31, 50, 77):
        out = enc(Tensor(rng.standard_normal((L, 8))))
        law = -(-(-(-L // 2)) // 2)  # ceil(ceil(L/2)/2)
        assert out.shape[0] == law == encoder_output_length(L, 3)


@criterion(5, "complexity counters")
def test_c05_complexity_counters():
    records = bench_attention(batches=[16], seq_lens=[1024],
                              kernels=["canonical", "neural_sparse"],
                              heads=8, dims=64, repeats=1, warmup=0, c=5.0)
    by_kernel = {r.kernel: r for r in records}
    dense = by_kernel["canonical"]
    sparse = by_kernel["neural_sparse"]
    n = top_n_count(1024, 5.0)
    assert n == 35
    assert dense.dot_products == 8 * 16 * 1024 * 1024
    assert sparse.dot_products == 8 * 16 * n * 1024
    ratio = sparse.dot_products / dense.dot_products
    assert ratio == 35 * 1024 / 1024**2  # exactly as counted
    assert abs(ratio - 0.0342) < 5e-4
    assert dense.peak_bytes >= 20 * sparse.peak_bytes


@criterion(6, "wall-time crossover")
def test_c06_wall_time_trend():
    seq_lens = [64, 256, 512, 1024]
    records = bench_attention(batches=[16], seq_lens=seq_lens,
                              kernels=["canonical", "neural_sparse"],
                              heads=8, dims=64, repeats=5, warmup=1, c=5.0, seed=0)
    dense = {r.seq_len: r.median_ns for r in records if r.kernel == "canonical"}
    sparse = {r.seq_len: r.median_ns for r in records if r.kernel == "neural_sparse"}
    # monotone trend for the dense kernel across the sweep
    dense_times = [dense[L] for L in seq_lens]
    assert all(a < b for a, b in zip(dense_times, dense_times[1:]))
    # a crossover length L* <= 1024 beyond which the sparse kernel is faster
    crossover = None
    for i, L in enumerate(seq_lens):
        if all(sparse[M] < dense[M] for M in seq_lens[i:]):
            crossover = L
            break
    assert crossover is not None and crossover <= 1024, \
        f"no crossover: dense={dense}, sparse={sparse}"


@criterion(7, "metric oracles")
def test_c07_metric_oracles():
    cases = [
        (([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), (1.0, 0.0, 0.0)),
        (([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]), (-1.0, 8 / 3, 4 / 3)),
        (([0.0, 2.0], [1.0, 3.0]), (1.0, 1.0, 1.0)),
    ]
    for (y, p), (corr, mse, mae) in cases:
        result = metrics(y, p)
        assert abs(result.corr - corr) < 1e-12
        assert abs(result.mse - mse) < 1e-12
        assert abs(result.mae - mae) < 1e-12
    rng = np.random.default_rng(21)
    for _ in range(100):
        y = rng.standard_normal(40)
        p = rng.standard_normal(40)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        base = metrics(y, p).corr
        mapped = metrics(a * y + b, a * p + b).corr
        assert abs(base - mapped) < 1e-9


@criterion(8, "positional-code identities")
def test_c08_positional_code():
    pe = positional_encoding(96, 8)
    npt.assert_array_equal(pe[0, 0::2], np.zeros(4))
    npt.assert_array_equal(pe[0, 1::2], np.ones(4))
    npt.assert_allclose(pe[:, 0], np.sin(np.arange(96)), atol=1e-15)
    rng = np.random.default_rng(30)
    for _ in range(100):
        e = rng.standard_normal(8)
        e *= rng.uniform(0.1, 10.0) / np.linalg.norm(e)
        p1, p2 = rng.choice(96, size=2, replace=False)
        same = e @ e / (np.linalg.norm(e) ** 2)
        assert abs(same - 1.0) < 1e-12
        a, b = e + pe[p1], e + pe[p2]
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos < 1.0 - 1e-12


def _smoke_setup():
    frame = synthetic_seasonal_frame(4000, 3, periods=(96, 24), amplitudes=(1.0, 0.4),
                                     noise=0.1, seed=11)
    train_f, val_f, test_f = split_622(frame, min_len=48 + 24)
    (train_s, val_s, test_s), scaler = fit_apply_scaler(train_f, [val_f, test_f])
    train_w = make_windows(train_s, 48, 24, 24)
    val_w = make_windows(val_s, 48, 24, 24)[::8]
    test_w = make_windows(test_s, 48, 24, 24)
    return train_w, val_w, test_w


def _smoke_run(train_w, val_w):
    config = ModelConfig(L_x=48, label_len=24, L_y=24, d_x=3, d_y=3, d_model=32,
                         n_heads=2, enc_blocks=3, dec_layers=1)
    model = Forecaster(config, np.random.default_rng(5))
    train_cfg = TrainConfig(lr=1e-4, weight_decay=5e-4, batch_size=32, epochs=20,
                            seed=5, max_steps=300)
    result = train_loop(model, train_w, val_w, train_cfg)
    model.params.copy_from(result.best_params)
    return model, checkpoint_bytes(result.best_params)


@criterion(9, "training smoke")
def test_c09_training_smoke():
    start = time.time()
    train_w, val_w, test_w = _smoke_setup()
    baseline = repeat_last_baseline(test_w)

    model, blob_a = _smoke_run(train_w, val_w)
    score = evaluate(model, test_w)
    assert score.mse < 0.8 * baseline.mse, \
        f"model MSE {score.mse:.4f} vs baseline {baseline.mse:.4f}"

    _, blob_b = _smoke_run(train_w, val_w)
    assert blob_a == blob_b, "same seed produced different checkpoints"

    elapsed = time.time() - start
    assert elapsed < 600.0, f"smoke training took {elapsed:.1f}s"


@criterion(10, "ablation harness")
def test_c10_ablation_harness():
    frame = synthetic_aiops_frame(300, seed=4)
    horizons = [4, 8]
    train_f, val_f, test_f = split_622(frame, min_len=16 + max(horizons))
    (train_s, val_s, test_s), _ = fit_apply_scaler(train_f, [val_f, test_f])
    train_w, val_w, test_w = {}, {}, {}
    for horizon in horizons:
        train_w[horizon] = make_windows(train_s, 16, 8, horizon, univariate=True)
        val_w[horizon] = make_windows(val_s, 16, 8, horizon, univariate=True)[:8]
        test_w[horizon] = make_windows(test_s, 16, 8, horizon, univariate=True)[:16]
    base = ModelConfig(L_x=16, label_len=8, L_y=4, d_x=1, d_y=1, d_model=16,
                       n_heads=2, enc_blocks=3, dec_layers=1)
    train_cfg = TrainConfig(seed=3, batch_size=4, epochs=50, max_steps=50)
    rows = run_ablation(base, train_w, val_w, test_w, horizons, train_cfg)

    assert len(rows) == len(VARIANTS) * len(horizons)
    keys = {(r.variant, r.horizon) for r in rows}
    assert len(keys) == len(rows), "duplicate grid cells"
    assert {r.variant for r in rows} == set(VARIANTS)
    assert all(not r.failed for r in rows), [r.error for r in rows if r.failed]
    assert all(np.isfinite([r.corr, r.mse, r.mae]).all() for r in rows)

    by_variant = {(r.variant, r.horizon): r for r in rows}
    for horizon in horizons:
        with_n = by_variant[("M2", horizon)]
        without_n = by_variant[("none", horizon)]
        assert with_n.attention_kernel == "neural_sparse"
        assert without_n.attention_kernel == "prob_sparse"
        assert with_n.dot_products_sample != without_n.dot_products_sample
        assert with_n.toggles == {"E": False, "D": False, "N": True}


@criterion(11, "preprocessing modes")
def test_c11_preprocessing_modes():
    rng = np.random.default_rng(40)
    values = rng.standard_normal((60, 3)) * [1.0, 50.0, 0.2] + [3.0, -10.0, 0.0]
    for mode in ("standardize_per_dim", "normalize_per_dim", "standardize_global",
                 "normalize_global", "none"):
        scaler = StandardScaler(mode).fit(values)
        npt.assert_allclose(scaler.inverse(scaler.apply(values)), values, atol=1e-9)
    scaler = StandardScaler("standardize_per_dim").fit(values)
    npt.assert_allclose(scaler.inverse(scaler.apply(values)), values, atol=1e-9)

    frame = synthetic_seasonal_frame(120, 2, seed=41)
    train_f, val_f, test_f = split_622(frame)
    (_, _, _), scaler_a = fit_apply_scaler(train_f, [val_f, test_f],
                                           scope="train_only")
    mutated = test_f.with_values(test_f.values * 7.0 + 100.0)
    (_, _, _), scaler_b = fit_apply_scaler(train_f, [val_f, mutated],
                                           scope="train_only")
    npt.assert_array_equal(scaler_a.shift_, scaler_b.shift_)
    npt.assert_array_equal(scaler_a.scale_, scaler_b.scale_)


def _find_aiops_csv():
    env = os.environ.get("SPARSECAST_AIOPS_CSV")
    candidates = [env] if env else []
    candidates += ["data/aiops.csv", "data/AIOPS.csv", "data/AIOPSdataset.csv"]
    for cand in candidates:
        if cand and Path(cand).exists():
            return Path(cand)
    return None


@criterion(12, "published-dataset plumbing")
def test_c12_published_aiops_counts():
    path = _find_aiops_csv()
    if path is None:
        pytest.skip("external-data: published operations CSV not present "
                    "(set SPARSECAST_AIOPS_CSV to enable)")
    frame = load_csv(path, schema="aiops")
    assert len(frame) == 101583
    assert len(frame.columns) == 20
    assert frame.interval.total_seconds() == 300
    train, val, test = split_622(frame)
    assert (len(train), len(val), len(test)) == (60949, 20317, 20317)
