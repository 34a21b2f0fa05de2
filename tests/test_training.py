"""Training tests: Adam arithmetic, schedule, loop determinism, checkpoints."""

import dataclasses
import gc
import hashlib
import os
import struct
import subprocess
import sys
import re
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_split_windows
from sparsecast import layers, training
from sparsecast.attention import NaNScoreError
from sparsecast import model as model_module
from sparsecast.data import DataError, MetricResult, make_windows, metrics, synthetic_seasonal_frame
from sparsecast.model import Forecaster, ModelConfig
from sparsecast.tensor import ParamStore, Tensor, dropout
from sparsecast.training import (
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    checkpoint_bytes,
    evaluate,
    fnv1a64,
    inspect_checkpoint,
    load_checkpoint,
    lr_schedule,
    repeat_last_baseline,
    save_checkpoint,
    train_loop,
)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        store = ParamStore()
        t = store.add("w", np.array([1.0, -2.0, 0.5]))
        t.grad = np.array([0.3, -0.7, 2.0])
        adam_step(store, OptimizerState(), lr=1e-3, weight_decay=0.0)
        delta = np.abs(t.data - np.array([1.0, -2.0, 0.5]))
        npt.assert_allclose(delta, np.full(3, 1e-3), rtol=1e-6)

    def test_zero_gradients_leave_params(self):
        store = ParamStore()
        t = store.add("w", np.array([1.0, 2.0]))
        t.grad = np.zeros(2)
        adam_step(store, OptimizerState(), lr=1e-3, weight_decay=0.0)
        npt.assert_array_equal(t.data, [1.0, 2.0])

    def test_weight_decay_is_pure_shrinkage(self):
        store = ParamStore()
        t = store.add("w", np.array([2.0, -4.0]))
        t.grad = np.zeros(2)
        adam_step(store, OptimizerState(), lr=0.1, weight_decay=0.5)
        npt.assert_allclose(t.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5), atol=1e-15)

    def test_in_place_update_equals_the_formula(self):
        """The scratch-buffer update is bit-identical to the textbook
        expressions over three steps with weight decay, for scalar, empty,
        non-contiguous and matrix parameters."""
        def reference(data, grad, m, v, k, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
            data = data * (1.0 - lr * wd)
            m = m * beta1 + (1.0 - beta1) * grad
            v = v * beta2 + (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**k)
            v_hat = v / (1.0 - beta2**k)
            return data - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

        rng = np.random.default_rng(3)
        store = ParamStore()
        store.add("scalar", np.array(0.7))
        store.add("empty", np.zeros((0, 3)))
        store.add("strided", rng.normal(size=(4, 6)).T)
        store.add("w", rng.normal(size=(5, 7)))
        expected = {name: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape))
                    for name, t in store.items()}
        state = OptimizerState()
        for k in (1, 2, 3):
            for name, t in store.items():
                t.grad = rng.normal(size=t.shape)
                data, m, v = expected[name]
                expected[name] = reference(data, t.grad, m, v, k, lr=1e-2, wd=5e-4)
            adam_step(store, state, lr=1e-2, weight_decay=5e-4)
        for name, t in store.items():
            data, m, v = expected[name]
            assert t.data.tobytes() == data.tobytes(), name
            assert state.m[name].tobytes() == m.tobytes(), name
            assert state.v[name].tobytes() == v.tobytes(), name

    def test_missing_grad_names_parameter(self):
        store = ParamStore()
        store.add("hidden.w", np.zeros(2))
        with pytest.raises(ValueError, match="hidden.w"):
            adam_step(store, OptimizerState(), lr=1e-3)


class TestSchedule:
    def test_pinned_values(self):
        cfg = TrainConfig()
        assert lr_schedule(cfg, 0) == pytest.approx(1e-4)
        assert lr_schedule(cfg, 4) == pytest.approx(1e-4)
        assert lr_schedule(cfg, 5) == pytest.approx(5e-5)
        assert lr_schedule(cfg, 19) == pytest.approx(1.25e-5)

    def test_invariant_over_twenty_epochs(self):
        cfg = TrainConfig()
        for e in range(20):
            assert lr_schedule(cfg, e) == pytest.approx(1e-4 * 0.5 ** (e // 5))


def _tiny_trainable(seed=5):
    (train_w, val_w, test_w), scaler = make_split_windows(length=400, dims=2, L_x=12,
                                                          label_len=6, L_y=6, seed=seed)
    config = ModelConfig(L_x=12, label_len=6, L_y=6, d_x=2, d_y=2, d_model=8,
                         n_heads=2, enc_blocks=2)
    model = Forecaster(config, np.random.default_rng(seed))
    return model, train_w, val_w, test_w


def _one_tape_step(model, batch, rng, state, lr, config):
    """Reference step: the B window losses summed into one graph and one
    backward, which holds all B tapes at its peak."""
    params = model.params
    params.zero_grad()
    total = None
    for sample in batch:
        loss = model.loss(sample, rng=rng, train=True)
        total = loss if total is None else total + loss
    total = total * (1.0 / len(batch))
    loss_value = total.item()
    if np.isfinite(loss_value):
        total.backward()
        adam_step(params, state, lr, config.weight_decay)
    return loss_value


def _step_model(attention="neural_sparse", seed=5):
    (train_w, _, _), _ = make_split_windows(length=400, dims=2, L_x=24, label_len=12,
                                            L_y=12, seed=seed)
    config = ModelConfig(L_x=24, label_len=12, L_y=12, d_x=2, d_y=2, d_model=16,
                         n_heads=2, enc_blocks=2, dropout=0.1, attention=attention)
    return Forecaster(config, np.random.default_rng(seed)), train_w


def _force_chunk(monkeypatch, config, windows: int):
    """Make the training chunk rule give ``windows`` for ``config``."""
    monkeypatch.setattr(model_module, "_TRAIN_CHUNK_ELEMENTS",
                        windows * model_module._widest_activation(config))
    assert model_module.train_chunk_windows(config) == (
        1 if config.attention == "prob_sparse" else windows)


class TestTrainStep:
    @pytest.mark.parametrize("attention", ["neural_sparse", "prob_sparse", "canonical"])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 7])
    def test_equals_one_tape_reference(self, attention, batch_size, monkeypatch):
        """Training in chunks of 3 windows gives the parameters, Adam moments
        and losses of one backward through the summed batch, bit for bit, at
        batch sizes 1, chunk - 1, chunk, chunk + 1 and 2 chunk + 1, with
        dropout and sampled ranking drawing from the rng."""
        runs = []
        for step in (training._train_step, _one_tape_step):
            model, train_w = _step_model(attention)
            _force_chunk(monkeypatch, model.config, 3)
            rng = np.random.default_rng(1)
            state = OptimizerState()
            losses = [step(model, train_w[i * batch_size:(i + 1) * batch_size], rng, state,
                           1e-3, TrainConfig()) for i in range(2)]
            runs.append((losses, model.params, state, rng.random()))
        (losses, params, state, after), (ref_losses, ref_params, ref_state, ref_after) = runs
        assert losses == ref_losses
        assert after == ref_after  # the generator is left where the reference leaves it
        for name, t in params.items():
            assert t.data.tobytes() == ref_params[name].data.tobytes(), name
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name

    def test_peak_memory_holds_one_chunk_tape(self, monkeypatch):
        """After a warm-up step, a step over three chunks of 4 windows peaks
        at most 1.5x a step over one chunk: each chunk's tape is freed by its
        backward before the next chunk's forward.  The one-tape reference
        peaks near 3x."""
        model, train_w = _step_model()
        _force_chunk(monkeypatch, model.config, 4)
        rng = np.random.default_rng(0)
        state = OptimizerState()
        training._train_step(model, train_w[:12], rng, state, 1e-3, TrainConfig())
        peaks = {}
        tracemalloc.start()
        try:
            for batch_size in (4, 12):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                training._train_step(model, train_w[:batch_size], rng, state, 1e-3,
                                     TrainConfig())
                peaks[batch_size] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks[12] <= 1.5 * peaks[4], peaks

    def test_non_finite_second_window_leaves_parameters(self):
        model, train_w = _step_model()
        poisoned = dataclasses.replace(train_w[1], target=np.full_like(train_w[1].target, np.nan))
        before = checkpoint_bytes(model.params)
        state = OptimizerState()
        loss = training._train_step(model, [train_w[0], poisoned, train_w[2]],
                                    np.random.default_rng(0), state, 1e-3, TrainConfig())
        assert not np.isfinite(loss)
        assert checkpoint_bytes(model.params) == before
        assert state.step == 0 and not state.m

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_of_the_second_chunk_stops_before_its_backward(
            self, bad, monkeypatch):
        """A non-finite target in the second chunk of 2 windows: the step
        makes the first chunk's backward only, returns the loss the one-tape
        reference returns, and leaves the parameters and Adam state as they
        were."""
        model, train_w = _step_model()
        _force_chunk(monkeypatch, model.config, 2)
        batch = list(train_w[:5])
        batch[3] = dataclasses.replace(batch[3], target=np.full_like(batch[3].target, bad))
        before = checkpoint_bytes(model.params)
        backwards = []
        original = Tensor.backward
        monkeypatch.setattr(Tensor, "backward", lambda t: backwards.append(original(t)))
        state = OptimizerState()
        loss = training._train_step(model, batch, np.random.default_rng(0), state, 1e-3,
                                    TrainConfig())
        assert len(backwards) == 1
        assert checkpoint_bytes(model.params) == before
        assert state.step == 0 and not state.m
        reference, _ = _step_model()
        npt.assert_equal(loss, _one_tape_step(reference, batch, np.random.default_rng(0),
                                              OptimizerState(), 1e-3, TrainConfig()))
        npt.assert_equal(loss, bad)

    def test_divergence_names_the_batch_of_the_bad_window(self):
        """A NaN target in the second window of the second batch raises
        ``TrainingDiverged`` for that epoch and batch."""
        model, train_w = _step_model()
        train_w = train_w[:6]
        config = TrainConfig(batch_size=2, epochs=1, seed=4)
        order = np.random.default_rng(config.seed).permutation(len(train_w))
        bad = int(order[3])
        train_w[bad] = dataclasses.replace(
            train_w[bad], target=np.full_like(train_w[bad].target, np.nan))
        with pytest.raises(TrainingDiverged) as raised:
            train_loop(model, train_w, [], config)
        assert (raised.value.epoch, raised.value.batch) == (0, 1)

    def test_nan_score_in_a_stacked_forward_names_window_head_and_row(self, monkeypatch):
        """A finite window so large that its embedding overflows gives NaN
        selection scores.  As window 1 of the second chunk of a batch, it
        stops the run with ``TrainingDiverged(reason="selection")``, chained
        from the selection's error naming it as window 3 of the batch."""
        model, train_w = _step_model()
        _force_chunk(monkeypatch, model.config, 2)
        train_w = train_w[:8]
        config = TrainConfig(batch_size=4, epochs=1, seed=4)
        bad = int(np.random.default_rng(config.seed).permutation(len(train_w))[3])
        train_w[bad] = dataclasses.replace(
            train_w[bad], enc_values=np.full_like(train_w[bad].enc_values, 1e308))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as raised:
            train_loop(model, train_w, [], config)
        assert (raised.value.reason, raised.value.batch) == ("selection", 0)
        assert isinstance(raised.value.__cause__, NaNScoreError)
        assert re.fullmatch(r"selection got a NaN score at window 3, head \d+, row \d+",
                            str(raised.value.__cause__))

    def test_a_bad_window_in_a_later_chunk_names_its_index_in_the_batch(self, monkeypatch):
        model, train_w = _step_model()
        _force_chunk(monkeypatch, model.config, 2)
        batch = list(train_w[:5])
        batch[4] = dataclasses.replace(batch[4], known_tail=batch[4].known_tail[:-1])
        with pytest.raises(DataError, match=r"^window 4: known_tail: got "):
            training._train_step(model, batch, np.random.default_rng(0), OptimizerState(),
                                 1e-3, TrainConfig())

    def test_a_stacked_prob_sparse_training_forward_is_refused(self):
        model, train_w = _step_model("prob_sparse")
        with pytest.raises(ValueError, match="^prob_sparse trains one window at a time"):
            model.loss(train_w[:2], rng=np.random.default_rng(0), train=True)


class TestChunkedDraws:
    @pytest.mark.parametrize("attention", ["neural_sparse", "canonical"])
    def test_mask_block_equals_windows_drawn_in_turn(self, attention, monkeypatch):
        """The dropout masks of a stacked training forward of 3 windows, cut
        per window, are the masks 3 one-window forwards draw one after
        another from the generator, and both leave it in the same state."""
        model, train_w = _step_model(attention)
        masks = []

        def spy(a, p, kept):
            masks.append(kept.copy())
            return dropout(a, p, kept)

        monkeypatch.setattr(layers, "dropout", spy)
        rng = np.random.default_rng(7)
        model.loss(train_w[:3], rng=rng, train=True)
        stacked, masks[:] = list(masks), []
        stacked_state = rng.bit_generator.state
        rng = np.random.default_rng(7)
        for sample in train_w[:3]:
            model.loss(sample, rng=rng, train=True)
        assert rng.bit_generator.state == stacked_state
        per_window = [masks[i * len(stacked):(i + 1) * len(stacked)] for i in range(3)]
        for layer, block in enumerate(stacked):
            for i in range(3):
                assert np.array_equal(block[i], per_window[i][layer]), (layer, i)
        assert sum(m[0].size for m in stacked) == model_module.dropout_draws(model.config)


# The perfbench workload shapes; long_horizon is cut to L_x 288 to stay quick.
_WORKLOAD_SHAPES = {
    "smoke": (dict(L_x=48, label_len=24, L_y=24, d_model=32, n_heads=2), 3, 32),
    "aiops_paper": (dict(L_x=96, label_len=48, L_y=24, d_model=128, n_heads=8), 20, 8),
    "long_horizon": (dict(L_x=288, label_len=144, L_y=116, d_model=64, n_heads=4), 1, 2),
}


@pytest.mark.parametrize("shape", list(_WORKLOAD_SHAPES))
def test_chunked_training_checkpoint_equals_one_window_chunks(shape, monkeypatch):
    """A 2-step ``train_loop`` with dropout at a workload shape gives the
    checkpoint bytes and history of the same run with chunks of one window."""
    kw, columns, batch_size = _WORKLOAD_SHAPES[shape]
    windows = make_windows(synthetic_seasonal_frame(kw["L_x"] + kw["L_y"] + 70, columns,
                                                    seed=4), kw["L_x"], kw["label_len"],
                           kw["L_y"])
    config = ModelConfig(d_x=columns, d_y=columns, **kw)
    runs = []
    for forced in (False, True):
        if forced:
            _force_chunk(monkeypatch, config, 1)
        model = Forecaster(config, np.random.default_rng(1))
        result = train_loop(model, list(windows[:2 * batch_size + 1]), [windows[-1]],
                            TrainConfig(lr=1e-3, batch_size=batch_size, epochs=1,
                                        max_steps=2, seed=1))
        runs.append((checkpoint_bytes(model.params), result.history))
    assert runs[0] == runs[1]


class TestTrainLoop:
    def test_frozen_with_zero_lr(self):
        model, train_w, val_w, _ = _tiny_trainable()
        before = checkpoint_bytes(model.params)
        cfg = TrainConfig(lr=0.0, weight_decay=0.0, batch_size=1, epochs=1, max_steps=1,
                          seed=0)
        result = train_loop(model, train_w[:1], val_w[:4], cfg)
        assert checkpoint_bytes(model.params) == before
        assert "train_loss" in result.history[0]

    def test_same_seed_identical_history_and_params(self):
        results = []
        for _ in range(2):
            model, train_w, val_w, _ = _tiny_trainable(seed=6)
            cfg = TrainConfig(seed=6, batch_size=8, epochs=2, max_steps=8)
            r = train_loop(model, train_w, val_w[:10], cfg)
            results.append((checkpoint_bytes(model.params), r.history))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_loss_decreases_on_learnable_data(self):
        model, train_w, val_w, _ = _tiny_trainable(seed=7)
        cfg = TrainConfig(seed=7, lr=1e-3, batch_size=16, epochs=5, max_steps=40)
        result = train_loop(model, train_w, val_w[:10], cfg)
        assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]

    def test_divergence_aborts_with_diagnostics(self):
        model, train_w, val_w, _ = _tiny_trainable(seed=8)
        poisoned = dataclasses.replace(train_w[0], target=np.full_like(train_w[0].target, np.nan))
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train_loop(model, [poisoned], val_w[:2],
                       TrainConfig(batch_size=1, epochs=1))

    @pytest.mark.parametrize("max_steps, where", [(4, "step"), (1, "validation")])
    def test_nan_selection_score_is_divergence(self, max_steps, where):
        """A huge lr makes the parameters non-finite after the first step, so
        the encoder's query selection meets a NaN score: in the next step,
        or with one step, in the validation after it.  Either way the run
        stops with ``TrainingDiverged``, chained from the selection's error,
        whose ``reason`` says which of the two it was."""
        model, train_w, val_w, _ = _tiny_trainable(seed=8)
        steps = []
        original = training._train_step

        def counted_step(*args):
            steps.append(len(steps))
            return original(*args)

        cfg = TrainConfig(lr=1e300, batch_size=2, epochs=1, max_steps=max_steps, seed=1)
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(training, "_train_step", counted_step)
            with pytest.raises(TrainingDiverged) as raised:
                train_loop(model, train_w[:8], val_w[:2], cfg)
        assert isinstance(raised.value.__cause__, NaNScoreError)
        # a step and a validation both score their windows as one stack, so the
        # error names the window too
        assert str(raised.value.__cause__) == ("selection got a NaN score at window 0, head 0, "
                                               "row 0")
        assert (raised.value.epoch, raised.value.batch, raised.value.lr) == (0, 1, 1e300)
        assert raised.value.reason == ("selection" if where == "step" else "validation")
        assert len(steps) == (2 if where == "step" else 1)

    def test_non_finite_validation_forecast_is_divergence(self):
        """``canonical`` ranks no queries, so after one step with a huge lr
        the validation meets the non-finite parameters in its forecast.  The
        run stops with ``TrainingDiverged``, not a data error or a NaN
        metric."""
        (train_w, val_w, _), _ = make_split_windows(length=400, dims=2, L_x=12, label_len=6,
                                                    L_y=6, seed=8)
        config = ModelConfig(L_x=12, label_len=6, L_y=6, d_x=2, d_y=2, d_model=8, n_heads=2,
                             enc_blocks=2, attention="canonical")
        model = Forecaster(config, np.random.default_rng(8))
        cfg = TrainConfig(lr=1e300, batch_size=2, epochs=1, max_steps=1, seed=1)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as raised:
            train_loop(model, train_w[:8], val_w[:2], cfg)
        assert str(raised.value) == ("non-finite forecast in the validation of epoch 0 after "
                                     "1 batches, lr 1.000e+300")
        assert raised.value.reason == "forecast"
        assert isinstance(raised.value.__cause__, DataError)
        assert str(raised.value.__cause__).startswith("window 0: forecast: non-finite value ")

    def test_divergence_message_names_its_reason(self):
        messages = {
            "loss": "non-finite loss at epoch 2, batch 3, lr 1.000e-04",
            "selection": "NaN selection score at epoch 2, batch 3, lr 1.000e-04",
            "validation": "NaN selection score in the validation of epoch 2 after 3 batches, "
                          "lr 1.000e-04",
        }
        for reason, message in messages.items():
            diverged = TrainingDiverged(2, 3, 1e-4, reason)
            assert (str(diverged), diverged.reason) == (message, reason)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, enabled, monkeypatch):
        model, train_w, val_w, _ = _tiny_trainable(seed=8)
        was_enabled = gc.isenabled()
        set_gc = {True: gc.enable, False: gc.disable}
        try:
            set_gc[enabled]()
            train_loop(model, train_w[:2], val_w[:2],
                       TrainConfig(batch_size=2, epochs=1, max_steps=1))
            assert gc.isenabled() == enabled
            poisoned = dataclasses.replace(train_w[0],
                                           target=np.full_like(train_w[0].target, np.nan))
            with pytest.raises(TrainingDiverged):
                train_loop(model, [poisoned], val_w[:2], TrainConfig(batch_size=1, epochs=1))
            assert gc.isenabled() == enabled

            def failing_loss(*args, **kwargs):
                raise RuntimeError("loss failed")

            monkeypatch.setattr(model, "loss", failing_loss)
            with pytest.raises(RuntimeError, match="loss failed"):
                train_loop(model, train_w[:2], val_w[:2], TrainConfig(batch_size=2, epochs=1))
            assert gc.isenabled() == enabled
        finally:
            set_gc[was_enabled]()

    def test_empty_split_rejected(self):
        model, train_w, _, _ = _tiny_trainable(seed=9)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, [])

    def test_validation_windows_from_a_generator_serve_every_epoch(self):
        """A one-shot iterable of validation windows is read once, so every
        epoch validates on the same windows as a list of them gives."""
        model, train_w, val_w, _ = _tiny_trainable(seed=9)
        cfg = TrainConfig(batch_size=8, epochs=2, seed=9)
        listed = train_loop(model, train_w[:16], list(val_w[:8]), cfg).history
        model, train_w, val_w, _ = _tiny_trainable(seed=9)
        streamed = train_loop(model, train_w[:16], (s for s in val_w[:8]), cfg).history
        assert len(streamed) == 2 and streamed == listed

    def test_empty_generator_rejected(self):
        """A generator is truthy even when it yields nothing."""
        model, *_ = _tiny_trainable(seed=9)
        with pytest.raises(ValueError, match="^cannot evaluate an empty split$"):
            evaluate(model, iter([]))


# A two-step train_loop at the aiops_paper shape (d_model 128, 8 heads, 20
# columns, L_x 96); prints the SHA-256 of the checkpoint bytes.
_BLAS_RUN = """
import hashlib
import numpy as np
from sparsecast.data import make_windows, synthetic_aiops_frame
from sparsecast.model import Forecaster, ModelConfig
from sparsecast.training import TrainConfig, checkpoint_bytes, train_loop

windows = make_windows(synthetic_aiops_frame(200, seed=4), 96, 48, 24)
config = ModelConfig(L_x=96, label_len=48, L_y=24, d_x=20, d_y=20, d_model=128, n_heads=8)
model = Forecaster(config, np.random.default_rng(1))
train_loop(model, [windows[i] for i in range(4)], [windows[10]],
           TrainConfig(lr=1e-3, batch_size=2, epochs=1, max_steps=2, seed=1))
print(hashlib.sha256(checkpoint_bytes(model.params)).hexdigest())
"""


def test_checkpoint_is_the_same_for_one_and_two_blas_threads():
    """The same seed and data give byte-identical checkpoint bytes whether
    OpenBLAS runs its products on one thread or two."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", _BLAS_RUN], env=env, cwd=root,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1], digests


class TestEvaluate:
    def test_exact_model_scores_perfectly(self):
        model, _, _, test_w = _tiny_trainable(seed=10)

        class Oracle:
            def forward_many(self, samples):
                for sample in samples:
                    yield sample.target

        result = evaluate(Oracle(), test_w[:5])
        assert result.corr == pytest.approx(1.0)
        assert result.mse == 0.0

    def test_constant_model_flagged_zero_corr(self):
        class Flat:
            def forward_many(self, samples):
                for sample in samples:
                    yield np.zeros_like(sample.target)

        _, _, _, test_w = _tiny_trainable(seed=11)
        result = evaluate(Flat(), test_w[:5])
        assert result.corr == 0.0
        assert any("zero_variance_prediction" in f for f in result.flags)

    @staticmethod
    def _scored_split(monkeypatch):
        """The tiny model, its test windows and scaler, scored in chunks of 4."""
        (_, _, test_w), scaler = make_split_windows(length=400, dims=2, L_x=12, label_len=6,
                                                    L_y=6, seed=14)
        config = ModelConfig(L_x=12, label_len=6, L_y=6, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2)
        monkeypatch.setattr(model_module, "chunk_windows", lambda config: 4)
        return Forecaster(config, np.random.default_rng(14)), test_w, scaler

    @staticmethod
    def _predict_loop(model, samples, scaler=None):
        """The per-window oracle: ``predict`` each window, then the mean of
        the per-window metrics in window order."""
        results = []
        for sample in samples:
            forecast = model.predict(sample, scaler)
            truth = sample.target if scaler is None else scaler.inverse(sample.target)
            results.append(metrics(truth, forecast.predictions))
        flags = list(dict.fromkeys(f for r in results for f in r.flags))
        total = [0.0, 0.0, 0.0]
        for r in results:
            total = [total[0] + r.corr, total[1] + r.mse, total[2] + r.mae]
        n = len(results)
        return MetricResult(total[0] / n, total[1] / n, total[2] / n, n, flags)

    @pytest.mark.parametrize("form", ["Windows", "list", "strided slice", "generator"])
    def test_every_input_form_scores_as_a_predict_loop(self, form, monkeypatch):
        model, test_w, _ = self._scored_split(monkeypatch)
        picked = list(test_w) if form != "strided slice" else test_w[::8]
        samples = {"Windows": test_w, "list": list(test_w), "strided slice": test_w[::8],
                   "generator": (sample for sample in test_w)}[form]
        assert evaluate(model, samples) == self._predict_loop(model, picked)

    @pytest.mark.parametrize("n", [1, 3, 4, 5], ids=["one", "chunk-1", "chunk", "chunk+1"])
    def test_chunk_edges_score_as_a_predict_loop(self, n, monkeypatch):
        model, test_w, _ = self._scored_split(monkeypatch)
        assert evaluate(model, test_w[:n]) == self._predict_loop(model, test_w[:n])

    def test_original_units_score_as_a_predict_loop(self, monkeypatch):
        model, test_w, scaler = self._scored_split(monkeypatch)
        got = evaluate(model, test_w[:9], units="original", scaler=scaler)
        assert got == self._predict_loop(model, test_w[:9], scaler)

    def test_a_bad_window_names_its_index(self, monkeypatch):
        model, test_w, _ = self._scored_split(monkeypatch)
        samples = list(test_w[:12])
        samples[9] = dataclasses.replace(samples[9], known_tail=np.zeros((7, 2)))
        with pytest.raises(DataError, match=r"^window 9: known_tail: got \(7, 2\), "
                                            r"the model expects \(6, 2\)$"):
            evaluate(model, (sample for sample in samples))

    def test_a_non_finite_forecast_is_an_error_not_a_nan_metric(self, monkeypatch):
        """A finite known tail of ``1e306`` overflows the decoder; the mean
        over the windows was a silent NaN."""
        model, test_w, _ = self._scored_split(monkeypatch)
        samples = list(test_w[:12])
        samples[9] = dataclasses.replace(samples[9], known_tail=np.full((6, 2), 1e306))
        with np.errstate(all="ignore"), pytest.raises(
                DataError, match=r"^window 9: forecast: non-finite value "):
            evaluate(model, samples)

    def test_repeat_last_baseline_is_finite(self):
        _, _, _, test_w = _tiny_trainable(seed=12)
        result = repeat_last_baseline(test_w)
        assert np.isfinite([result.corr, result.mse, result.mae]).all()
        assert result.mse > 0

    def test_flags_are_kept_once_each(self):
        """Every one-row window flags zero variance; the mean keeps each
        distinct flag once, so the flags do not grow with the test split."""
        windows = make_windows(synthetic_seasonal_frame(56, 1, seed=13), 4, 2, 1)
        assert len(windows) == 52
        result = repeat_last_baseline(windows)
        assert result.flags == ["zero_variance_truth", "zero_variance_prediction"]


class TestCheckpoint:
    def test_roundtrip_preserves_order_shapes_values(self, tmp_path):
        model, *_ = _tiny_trainable(seed=13)
        path = tmp_path / "model.hgnt"
        save_checkpoint(model.params, path)
        loaded = load_checkpoint(path)
        assert loaded.names() == model.params.names()
        for name, t in model.params.items():
            npt.assert_array_equal(loaded[name].data, t.data)

    def test_streamed_file_equals_checkpoint_bytes(self, tmp_path):
        """``save_checkpoint`` writes and hashes chunk by chunk; its file is
        byte for byte ``checkpoint_bytes``, also for scalar, empty and
        non-contiguous parameters, for small ones that fill a chunk between
        them and for one larger than a chunk."""
        store = ParamStore()
        store.add("scalar", np.array(0.75))
        store.add("empty", np.zeros((0, 3)))
        store.add("strided", np.arange(12.0).reshape(3, 4).T)
        store.add("half_a", np.full(65536, 0.5))
        store.add("half_b", np.full(65536, -1.5))
        store.add("big", np.arange(131075.0).reshape(5, -1))
        store.add("tail", np.array([2.0]))
        path = tmp_path / "odd.hgnt"
        save_checkpoint(store, path)
        assert path.read_bytes() == checkpoint_bytes(store)
        loaded = load_checkpoint(path)
        for name, t in store.items():
            assert loaded[name].data.shape == t.data.shape
            npt.assert_array_equal(loaded[name].data, t.data)

    def test_magic_and_checksum(self, tmp_path):
        store = ParamStore()
        store.add("w", np.array([1.5, -2.5]))
        path = tmp_path / "w.hgnt"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        assert blob.startswith(b"HGNT2")
        digest = hashlib.blake2b(blob[5:-8], digest_size=8).digest()
        assert blob[-8:] == digest
        corrupted = bytearray(blob)
        corrupted[10] ^= 0xFF
        bad = tmp_path / "bad.hgnt"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(bad)

    def test_inspect_reports_shapes(self, tmp_path):
        store = ParamStore()
        store.add("a.w", np.zeros((3, 4)))
        store.add("a.b", np.zeros(4))
        path = tmp_path / "s.hgnt"
        save_checkpoint(store, path)
        info = inspect_checkpoint(path)
        assert info["checksum_ok"]
        assert info["parameters"][0] == {"name": "a.w", "shape": [3, 4], "elements": 12}
        assert info["total_parameters"] == 16

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.hgnt"
        path.write_bytes(b"HGNT1\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_loaded_arrays_own_memory_and_peak_is_one_payload(self, tmp_path):
        """Loaded arrays are fresh, writeable and own their memory; a load
        holds the payload once plus at most one hash chunk and the
        finiteness check of the largest parameter."""
        store = ParamStore()
        rng = np.random.default_rng(0)
        for j in range(24):
            store.add(f"layer{j}.w", rng.normal(size=(256, 256)))
        path = tmp_path / "big.hgnt"
        save_checkpoint(store, path)
        payload = path.stat().st_size - 5 - 8
        load_checkpoint(path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= payload + (1 << 20) + (64 << 10), (peak, payload)
        for name, t in loaded.items():
            assert t.data.flags.writeable and t.data.flags.owndata
            npt.assert_array_equal(t.data, store[name].data)

    @pytest.mark.parametrize("version", [b"HGNT1", b"HGNT2"])
    @pytest.mark.parametrize("header", [
        struct.pack("<Q", 1 << 62),                                  # name length
        struct.pack("<Q", 1) + b"w" + struct.pack("<Q", 1 << 61),    # rank
        struct.pack("<Q", 1) + b"w" + struct.pack("<QQQ", 2, 1 << 40, 1 << 20),  # extents
    ], ids=["name", "rank", "extents"])
    def test_forged_header_with_valid_checksum_is_truncated(self, tmp_path, version, header):
        """A header asking for more bytes than the file holds fails with
        ``ValueError`` before anything that size is allocated."""
        checksum = (struct.pack("<Q", fnv1a64(header)) if version == b"HGNT1"
                    else hashlib.blake2b(header, digest_size=8).digest())
        path = tmp_path / "forged.hgnt"
        path.write_bytes(version + header + checksum)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="truncated"):
            inspect_checkpoint(path)

    def test_fnv1a_reference_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8
        assert fnv1a64(b"bar", fnv1a64(b"foo")) == fnv1a64(b"foobar")

    def test_reads_hgnt1(self, tmp_path):
        name = b"enc.w"
        payload = (struct.pack("<Q", len(name)) + name + struct.pack("<QQQ", 2, 2, 1)
                   + struct.pack("<2d", 1.5, -0.25))
        path = tmp_path / "v1.hgnt"
        path.write_bytes(b"HGNT1" + payload + struct.pack("<Q", fnv1a64(payload)))
        loaded = load_checkpoint(path)
        assert loaded.names() == ["enc.w"]
        npt.assert_array_equal(loaded["enc.w"].data, [[1.5], [-0.25]])

    @pytest.mark.parametrize("version", [b"HGNT1", b"HGNT2"])
    def test_truncation_and_bit_flips_are_rejected(self, tmp_path, version):
        store = ParamStore()
        store.add("a.w", np.array([[1.0, -2.0], [0.5, 3.0]]))
        store.add("a.b", np.array([0.25]))
        blob = checkpoint_bytes(store)
        if version == b"HGNT1":
            payload = blob[5:-8]
            blob = b"HGNT1" + payload + struct.pack("<Q", fnv1a64(payload))
        path = tmp_path / "fuzz.hgnt"
        path.write_bytes(blob)
        assert load_checkpoint(path).names() == ["a.w", "a.b"]
        damaged = [blob[:n] for n in range(len(blob))]
        for bit in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged.append(bytes(flipped))
        for bad in damaged:
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="truncated|checksum|magic"):
                load_checkpoint(path)

