"""Model tests: decoder input assembly, loss, shape law, determinism, causality."""

import dataclasses
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import sparsecast.attention as attention_module
from sparsecast.attention import ScoreBudget, counting
from sparsecast.data import DataError, make_windows, synthetic_seasonal_frame
import sparsecast.model as model_module
from sparsecast.model import (
    DecoderLayer,
    Forecaster,
    ModelConfig,
    build_decoder_input,
    chunk_windows,
    mse_loss,
    variant_config,
)
from sparsecast.tensor import Tensor, no_grad


class TestBuildDecoderInput:
    def test_label_plus_zero_block(self):
        known = np.random.default_rng(0).standard_normal((96, 1))
        out = build_decoder_input(known, 48, 1)
        assert out.shape == (49, 1)
        npt.assert_array_equal(out[:48], known[-48:])
        npt.assert_array_equal(out[-1], [0.0])

    def test_zero_label_is_pure_zero_block(self):
        known = np.random.default_rng(1).standard_normal((10, 2))
        out = build_decoder_input(known, 0, 5)
        npt.assert_array_equal(out, np.zeros((5, 2)))

    def test_zero_known_values(self):
        out = build_decoder_input(np.zeros((12, 2)), 6, 3)
        npt.assert_array_equal(out, np.zeros((9, 2)))

    def test_label_longer_than_known_rejected(self):
        with pytest.raises(ValueError, match="label_len"):
            build_decoder_input(np.zeros((4, 1)), 5, 2)


class TestMseLoss:
    def test_perfect_fit(self):
        x = np.random.default_rng(2).standard_normal((4, 2))
        assert mse_loss(Tensor(x), x).item() == 0.0

    def test_constant_residual(self):
        x = np.random.default_rng(3).standard_normal((4, 2))
        assert mse_loss(Tensor(x + 2.0), x).item() == pytest.approx(4.0, abs=1e-12)

    def test_hand_arithmetic(self):
        assert mse_loss(Tensor(np.array([[0.0], [2.0]])),
                        np.array([[1.0], [3.0]])).item() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss(Tensor(np.zeros((3, 1))), np.zeros((4, 1)))


class TestForecaster:
    def test_zeroed_parameters_predict_projection_bias(self, tiny_model):
        model, sample = tiny_model
        for name, t in model.params.items():
            t.data[...] = 0.0
        bias = np.array([0.25, -1.5])
        model.params["proj.b"].data[...] = bias
        pred = model.forward(sample).data
        npt.assert_array_equal(pred, np.tile(bias, (4, 1)))

    def test_copy_from_another_kind_names_the_score_kernel(self):
        config = ModelConfig(L_x=16, label_len=8, L_y=8, d_x=1, d_y=1, d_model=8,
                             n_heads=2, enc_blocks=2, attention="neural_sparse")
        neural = Forecaster(config, np.random.default_rng(1))
        prob = Forecaster(dataclasses.replace(config, attention="prob_sparse"),
                          np.random.default_rng(1))
        kernel = r"'encoder\.block0\.attn\.score\.kernel'"
        with pytest.raises(ValueError, match=f"{kernel} is missing from the source store"):
            neural.params.copy_from(prob.params)
        with pytest.raises(ValueError, match=f"{kernel} is extra in the source store"):
            prob.params.copy_from(neural.params)

    def test_output_shape_tracks_config(self):
        frame = synthetic_seasonal_frame(200, 2, seed=4)
        config = ModelConfig(L_x=16, label_len=8, L_y=24, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2, dropout=0.0)
        model = Forecaster(config, np.random.default_rng(1))
        sample = make_windows(frame, 16, 8, 24)[0]
        assert model.forward(sample).shape == (24, 2)

    def test_forward_reproducible_bitwise(self, tiny_model):
        model, sample = tiny_model
        a = model.forward(sample).data
        b = model.forward(sample).data
        assert np.array_equal(a, b)

    def test_one_shot_decoding(self, tiny_model, monkeypatch):
        """The horizon is produced by a single decoder pass, not a loop."""
        model, sample = tiny_model
        calls = {"n": 0}
        original = DecoderLayer.__call__

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DecoderLayer, "__call__", counting)
        model.forward(sample)
        assert calls["n"] == len(model.decoder_layers) == 1

    def test_decoder_layer_is_causal_in_decoder_states(self):
        config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                             n_heads=2, dropout=0.0)
        layer_rng = np.random.default_rng(5)
        from sparsecast.tensor import ParamStore
        store = ParamStore()
        layer = DecoderLayer(store, "dec", config, layer_rng)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 8))
        enc = rng.standard_normal((6, 8))
        with no_grad():
            base = layer(Tensor(x), Tensor(enc)).data
            t = 3
            for _ in range(10):
                tp = rng.integers(t + 1, 8)
                x2 = x.copy()
                x2[tp] += rng.standard_normal(8)
                out = layer(Tensor(x2), Tensor(enc)).data
                assert np.array_equal(out[: t + 1], base[: t + 1])

    def test_variant_config_changes_exactly_three_fields(self):
        base = ModelConfig(L_x=16, label_len=8, L_y=4, d_x=1, d_y=1, d_model=8,
                           n_heads=2)
        flipped = variant_config(base, embedding=False, distill=False, neural_sparse=False)
        diff = {k for k in base.__dict__
                if base.__dict__[k] != flipped.__dict__[k]}
        assert diff == {"gated_embedding", "distill", "attention"}

    def test_config_validation(self):
        with pytest.raises(ValueError, match="label_len"):
            ModelConfig(L_x=8, label_len=9, L_y=4, d_x=1, d_y=1)
        with pytest.raises(ValueError, match="attention"):
            ModelConfig(L_x=8, label_len=4, L_y=4, d_x=1, d_y=1, attention="other")
        with pytest.raises(ValueError, match="^d_model: must be even"):
            ModelConfig(L_x=8, label_len=4, L_y=4, d_x=1, d_y=1, d_model=9, n_heads=3)

    @pytest.mark.parametrize("L_x, enc_blocks, low", [
        (0, 1, "1"), (-1, 3, "2^1 + 1"), (1, 2, "2^0 + 1"), (2, 3, "2^1 + 1"),
        (4, 4, "2^2 + 1"), (2**40, 10**18, f"2^{10**18 - 2} + 1"),
    ])
    def test_L_x_too_short_for_the_encoder_is_named(self, L_x, enc_blocks, low):
        """Each of the enc_blocks - 1 distill steps needs a length of at
        least 2, so L_x must exceed 2^(enc_blocks-2); the check comes before
        the label_len check and builds no huge power for a huge enc_blocks."""
        with pytest.raises(ValueError, match=rf"^L_x: must be >= {re.escape(low)} for "
                                             rf"enc_blocks={enc_blocks}, got {L_x}$"):
            ModelConfig(L_x=L_x, label_len=0, L_y=1, d_x=1, d_y=1, d_model=8, n_heads=2,
                        enc_blocks=enc_blocks)

    @pytest.mark.parametrize("L_x, enc_blocks", [(1, 1), (2, 2), (3, 3), (5, 4)])
    def test_shortest_L_x_for_the_encoder_runs(self, L_x, enc_blocks):
        config = ModelConfig(L_x=L_x, label_len=0, L_y=2, d_x=1, d_y=1, d_model=8,
                             n_heads=2, enc_blocks=enc_blocks)
        model = Forecaster(config, np.random.default_rng(0))
        sample = make_windows(synthetic_seasonal_frame(20, 1, seed=1), L_x, 0, 2)[0]
        assert model.predict(sample).predictions.shape == (2, 1)

    def test_unknown_distill_rejected_before_any_forward(self):
        with pytest.raises(ValueError, match="^distill: must be one of"):
            ModelConfig(L_x=8, label_len=4, L_y=4, d_x=1, d_y=1, distill="x")

    @pytest.mark.parametrize("attention", ["canonical", "prob_sparse"])
    def test_alternate_attention_kinds_run(self, attention):
        frame = synthetic_seasonal_frame(100, 2, seed=22)
        config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2, dropout=0.0, attention=attention)
        model = Forecaster(config, np.random.default_rng(5))
        sample = make_windows(frame, 12, 4, 4)[0]
        pred = model.forward(sample)
        assert pred.shape == (4, 2) and np.isfinite(pred.data).all()

    def test_eval_forward_ignores_the_given_rng(self):
        """Outside training a given generator is neither used nor advanced:
        dropout is off and the sampled ranking draws from its own seed-0
        generator, so the output is that of a forward with no rng."""
        frame = synthetic_seasonal_frame(120, 2, seed=7)
        config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2, dropout=0.1,
                             attention="prob_sparse")
        model = Forecaster(config, np.random.default_rng(2))
        sample = make_windows(frame, 12, 4, 4)[0]
        g = np.random.default_rng(8)
        before = g.bit_generator.state
        out = model.forward(sample, rng=g, train=False).data
        assert g.bit_generator.state == before
        assert out.tobytes() == model.forward(sample).data.tobytes()
        trained = model.forward(sample, rng=g, train=True).data
        assert g.bit_generator.state != before
        assert not np.array_equal(trained, out)

    def test_prob_sparse_model_runs_and_is_deterministic(self):
        frame = synthetic_seasonal_frame(120, 2, seed=7)
        config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2, dropout=0.0,
                             attention="prob_sparse")
        model = Forecaster(config, np.random.default_rng(2))
        sample = make_windows(frame, 12, 4, 4)[0]
        a = model.forward(sample).data
        b = model.forward(sample).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("attention", ["neural_sparse", "prob_sparse", "canonical"])
    def test_eval_attention_rng_only_for_sampled_ranking(self, attention, monkeypatch):
        """Outside training each attention call that samples gets its own
        fresh seed-0 generator; the kinds that draw nothing get none."""
        calls = []
        original = attention_module.attend_kind

        def spy(kind, *args, rng=None, **kwargs):
            calls.append((kind, rng, None if rng is None else rng.bit_generator.state))
            return original(kind, *args, rng=rng, **kwargs)

        monkeypatch.setattr(attention_module, "attend_kind", spy)
        frame = synthetic_seasonal_frame(120, 2, seed=7)
        config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2, dropout=0.0, attention=attention)
        Forecaster(config, np.random.default_rng(2)).forward(make_windows(frame, 12, 4, 4)[0])
        fresh = np.random.default_rng(0).bit_generator.state
        sampled = [(rng, state) for kind, rng, state in calls if kind.endswith("prob_sparse")]
        assert len(sampled) == (3 if attention == "prob_sparse" else 0)
        assert all(state == fresh for _, state in sampled)
        assert len({id(rng) for rng, _ in sampled}) == len(sampled)
        if attention != "prob_sparse":
            assert all(rng is None for _, rng, _ in calls)

    def test_single_row_decoder(self):
        """label_len=0, L_y=1: the decoder runs on one position."""
        frame = synthetic_seasonal_frame(100, 2, seed=20)
        config = ModelConfig(L_x=12, label_len=0, L_y=1, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2, dropout=0.0)
        model = Forecaster(config, np.random.default_rng(3))
        sample = make_windows(frame, 12, 0, 1)[0]
        assert sample.known_tail.shape == (0, 2)
        pred = model.forward(sample)
        assert pred.shape == (1, 2)
        assert np.isfinite(pred.data).all()

    def test_zero_value_cross_attention_contributes_nothing(self):
        """With W_V and W_O of every cross-attention zeroed, the decoder output
        must not depend on the encoder output at all."""
        frame = synthetic_seasonal_frame(100, 2, seed=21)
        config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                             n_heads=2, enc_blocks=2, dropout=0.0)
        model = Forecaster(config, np.random.default_rng(4))
        for name, t in model.params.items():
            if "cross_attn" in name and (name.endswith(".w_v") or name.endswith(".w_o")):
                t.data[...] = 0.0
        sample = make_windows(frame, 12, 4, 4)[0]
        base = model.forward(sample).data
        # perturb the encoder path only: scale every encoder-side parameter
        for name, t in model.params.items():
            if name.startswith("encoder.") or name.startswith("enc_embed."):
                t.data *= 1.7
        shifted = model.forward(sample).data
        assert np.array_equal(base, shifted)

    def test_predict_applies_inverse_scaling(self, tiny_model):
        model, sample = tiny_model
        from sparsecast.data import StandardScaler
        scaler = StandardScaler("standardize_per_dim")
        scaler.fit(np.random.default_rng(8).standard_normal((50, 2)) * 3.0 + 1.0)
        forecast = model.predict(sample, scaler=scaler, target_columns=[0, 1])
        npt.assert_allclose(forecast.predictions,
                            scaler.inverse(forecast.scaled_predictions, columns=[0, 1]),
                            atol=1e-12)

    def test_predict_records_no_tape(self, tiny_model, monkeypatch):
        model, sample = tiny_model
        outputs = []
        original = Forecaster.forward

        def spy(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            outputs.append(out)
            return out

        monkeypatch.setattr(Forecaster, "forward", spy)
        forecast = model.predict(sample)
        assert len(outputs) == 1
        assert not outputs[0].requires_grad
        assert outputs[0]._parents == ()
        with no_grad():
            expected = model.forward(sample).data
        assert np.array_equal(forecast.scaled_predictions, expected)



class TestWindowChecks:
    """tiny_model: L_x 12, label_len 4, L_y 4, d_x = d_y = 2."""

    @pytest.mark.parametrize("field,shape,message", [
        ("enc_values", (16, 2), r"enc_values: got \(16, 2\), the model expects \(12, 2\)"),
        ("enc_values", (12, 3), r"enc_values: got \(12, 3\), the model expects \(12, 2\)"),
        ("enc_stamps", (16, 5), r"enc_stamps rows: got \(16,\), the model expects \(12,\)"),
        ("dec_stamps", (12, 5), r"dec_stamps rows: got \(12,\), the model expects \(8,\)"),
        ("known_tail", (6, 2), r"known_tail: got \(6, 2\), the model expects \(4, 2\)"),
        ("known_tail", (4, 1), r"known_tail: got \(4, 1\), the model expects \(4, 2\)"),
    ])
    def test_mismatched_field_named(self, tiny_model, field, shape, message):
        model, sample = tiny_model
        bad = dataclasses.replace(sample, **{field: np.zeros(shape)})
        with pytest.raises(DataError, match=message):
            model.forward(bad)

    @pytest.mark.parametrize("L_x,L_y,message", [
        (16, 4, r"enc_values: got \(16, 2\)"),
        (12, 8, r"dec_stamps rows: got \(12,\)"),
    ])
    def test_window_built_for_another_shape(self, tiny_model, L_x, L_y, message):
        model, _ = tiny_model
        sample = make_windows(synthetic_seasonal_frame(120, 2, seed=9), L_x, 4, L_y)[0]
        with pytest.raises(DataError, match=message):
            model.predict(sample)

    @pytest.mark.parametrize("field", ["enc_values", "known_tail"])
    def test_non_finite_value_named(self, tiny_model, field):
        model, sample = tiny_model
        values = np.array(getattr(sample, field))
        values[2, 1] = np.nan
        with pytest.raises(DataError,
                           match=f"{field}: non-finite value nan at row 2, column 1"):
            model.predict(dataclasses.replace(sample, **{field: values}))


class TestCountedForward:
    def test_forward_counts_into_enclosing_or_given_record(self, tiny_model):
        model, sample = tiny_model
        alone = ScoreBudget()
        model.forward(sample, budget=alone)
        with counting(ScoreBudget()) as outer:
            model.forward(sample)
            given = ScoreBudget()
            model.forward(sample, budget=given)

        def counts(b):
            return b.dot_products_materialized, b.rows_selected, b.peak_bytes

        assert alone.dot_products_materialized > 0
        assert counts(outer) == counts(given) == counts(alone)


# The perfbench workload shapes; long_horizon at a quarter of its L_x.
_SHAPES = {
    "smoke": dict(L_x=48, label_len=24, L_y=24, d_model=32, n_heads=2),
    "aiops_paper": dict(L_x=96, label_len=48, L_y=24, d_model=128, n_heads=8),
    "long_horizon": dict(L_x=288, label_len=144, L_y=115, d_model=64, n_heads=4),
}


def _model_and_windows(shape: dict, d: int, h: int, kind: str, count: int, seed: int = 5):
    config = ModelConfig(**shape, d_x=d, d_y=d, h=h, attention=kind)
    frame = synthetic_seasonal_frame(config.L_x + config.L_y + h + count - 1, d, seed=seed)
    windows = make_windows(frame, config.L_x, config.label_len, config.L_y, h=h,
                           univariate=d == 1)
    assert len(windows) == count
    return Forecaster(config, np.random.default_rng(3)), windows


def _one_at_a_time(model, windows) -> list:
    with no_grad():
        return [model.forward(sample).data for sample in windows]


class TestForwardMany:
    """``forward_many`` runs chunks of stacked windows through the layers of
    ``forward`` and gives each window ``forward``'s bits."""

    def test_chunk_rule_at_the_workload_shapes(self):
        sizes = {name: chunk_windows(ModelConfig(**shape, d_x=3, d_y=3))
                 for name, shape in _SHAPES.items()}
        sizes["long_horizon"] = chunk_windows(ModelConfig(
            L_x=1440, label_len=720, L_y=576, d_x=1, d_y=1, d_model=64, n_heads=4))
        assert sizes == {"smoke": 10, "aiops_paper": 1, "long_horizon": 1}

    @pytest.mark.parametrize("kind", ["neural_sparse", "prob_sparse", "canonical"])
    @pytest.mark.parametrize("h", [0, 3])
    @pytest.mark.parametrize("d", [1, 3], ids=["univariate", "multivariate"])
    def test_equals_forward_bitwise(self, kind, h, d, monkeypatch):
        """Seven windows in chunks of three, the last one short."""
        model, windows = _model_and_windows(_SHAPES["smoke"], d, h, kind, 7)
        monkeypatch.setattr(model_module, "chunk_windows", lambda config: 3)
        got = list(model.forward_many(windows))
        want = _one_at_a_time(model, windows)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("kind", ["neural_sparse", "prob_sparse", "canonical"])
    @pytest.mark.parametrize("shape", ["aiops_paper", "long_horizon"])
    def test_wide_shapes_equal_forward_bitwise_in_a_stack(self, kind, shape, monkeypatch):
        """These shapes run one window per chunk; a stack of three, forced
        here, still keeps each window's bits."""
        d = 20 if shape == "aiops_paper" else 1
        model, windows = _model_and_windows(_SHAPES[shape], d, 0, kind, 3)
        monkeypatch.setattr(model_module, "chunk_windows", lambda config: 3)
        got = list(model.forward_many(windows))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(got, _one_at_a_time(model, windows), strict=True))

    def test_counts_are_the_sum_of_the_windows(self, monkeypatch):
        model, windows = _model_and_windows(_SHAPES["smoke"], 3, 0, "neural_sparse", 5)
        monkeypatch.setattr(model_module, "chunk_windows", lambda config: 5)
        alone = [ScoreBudget() for _ in windows]
        for sample, budget in zip(windows, alone):
            model.forward(sample, budget=budget)
        with counting(ScoreBudget()) as together:
            list(model.forward_many(windows))
        for field in ("dot_products_materialized", "rows_selected"):
            assert getattr(together, field) == sum(getattr(b, field) for b in alone)

    def test_takes_a_generator_and_never_calls_forward(self, tiny_model, monkeypatch):
        model, _ = tiny_model
        windows = make_windows(synthetic_seasonal_frame(60, 2, seed=9), 12, 4, 4)
        want = _one_at_a_time(model, windows)

        def refuse(*args, **kwargs):
            raise AssertionError("forward_many called forward")

        monkeypatch.setattr(model, "forward", refuse)
        got = list(model.forward_many(sample for sample in windows))
        assert len(got) == len(want) == 45
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("field,shape,message", [
        ("enc_values", (16, 2), r"^window 17: enc_values: got \(16, 2\), the model expects "
                                r"\(12, 2\)$"),
        ("known_tail", (4, 1), r"^window 17: known_tail: got \(4, 1\)"),
        ("enc_stamps", (12, 4), r"^window 17: enc_stamps: stamps must be \(L, 5\), got "
                                r"\(12, 4\)$"),
        ("dec_stamps", (8, 6), r"^window 17: dec_stamps: stamps must be \(L, 5\)"),
    ])
    def test_a_bad_window_names_its_index(self, tiny_model, field, shape, message, monkeypatch):
        """The index counts from the first window of ``samples``, across
        chunks; a stamp matrix that does not stack is named too."""
        model, _ = tiny_model
        windows = list(make_windows(synthetic_seasonal_frame(60, 2, seed=9), 12, 4, 4))
        bad = np.zeros(shape, dtype=np.asarray(getattr(windows[0], field)).dtype)
        windows[17] = dataclasses.replace(windows[17], **{field: bad})
        monkeypatch.setattr(model_module, "chunk_windows", lambda config: 5)
        for samples in (windows, iter(windows)):
            with pytest.raises(DataError, match=message):
                list(model.forward_many(samples))

    def test_a_non_finite_value_names_its_window(self, tiny_model):
        model, _ = tiny_model
        windows = list(make_windows(synthetic_seasonal_frame(60, 2, seed=9), 12, 4, 4))
        values = np.array(windows[3].enc_values)
        values[2, 1] = np.inf
        windows[3] = dataclasses.replace(windows[3], enc_values=values)
        with pytest.raises(DataError, match=r"^window 3: enc_values: non-finite value inf "
                                            r"at row 2, column 1$"):
            list(model.forward_many(windows))

    def test_a_nan_score_names_its_window_in_samples(self):
        """Window 13 of 25, in the second chunk of 10, is finite but so large
        that the encoder's ranking overflows to NaN.  The error names it by
        its index in ``samples``, not in its chunk."""
        model, windows = _model_and_windows(_SHAPES["smoke"], 3, 0, "neural_sparse", 25)
        assert chunk_windows(model.config) == 10
        windows = list(windows)
        windows[13] = dataclasses.replace(windows[13], enc_values=np.full((48, 3), 1e306))
        for samples in (windows, iter(windows)):
            with np.errstate(all="ignore"), pytest.raises(
                    attention_module.NaNScoreError,
                    match=r"^selection got a NaN score at window 13, head \d+, row \d+$"):
                list(model.forward_many(samples))

    def test_a_nan_in_the_causal_ranking_names_window_head_and_row(self, monkeypatch):
        """A NaN at row 5 of head 1 of the decoder's ranking of window 3 of
        the second chunk is named as window 13 of ``samples``."""
        model, windows = _model_and_windows(_SHAPES["smoke"], 3, 0, "neural_sparse", 25)
        real = attention_module.importance_scores
        causal_calls = []

        def nan_in_the_second_chunk(q, k, kernel, bias=None, causal=False):
            scores = real(q, k, kernel, bias, causal)  # (B, L, H)
            if causal:
                causal_calls.append(scores.shape)
                if len(causal_calls) == 2:
                    scores[3, 5, 1] = np.nan
            return scores

        monkeypatch.setattr(attention_module, "importance_scores", nan_in_the_second_chunk)
        for samples in (windows, iter(windows)):
            causal_calls.clear()
            with pytest.raises(attention_module.NaNScoreError, match=r"^causal selection got "
                               r"a NaN score at window 13, head 1, row 5$"):
                list(model.forward_many(samples))
            assert causal_calls == [(10, 48, 2)] * 2

    def test_a_non_finite_forecast_names_its_window(self):
        """A finite known tail of ``1e306`` passes the window checks but
        overflows the decoder: ``forward_many`` names the window, and
        ``predict`` refuses the forecast, instead of returning NaN."""
        model, windows = _model_and_windows(_SHAPES["smoke"], 3, 0, "neural_sparse", 25)
        windows = list(windows)
        windows[13] = dataclasses.replace(windows[13],
                                          known_tail=np.full((24, 3), 1e306))
        forecast = r"forecast: non-finite value (nan|-?inf) at row \d+, column \d+$"
        with np.errstate(all="ignore"):
            with pytest.raises(model_module.NonFiniteForecast, match=rf"^window 13: {forecast}"):
                list(model.forward_many(windows))
            with pytest.raises(model_module.NonFiniteForecast, match=rf"^window {forecast}"):
                model.predict(windows[13])
            assert np.isfinite(model.predict(windows[12]).predictions).all()
        assert issubclass(model_module.NonFiniteForecast, DataError)


def _tape_nodes(root) -> int:
    """Nodes with a backward closure on the tape that ends at ``root``."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def test_smoke_training_window_tape_stays_fused():
    """The criterion-09 model (d_model 32, 2 heads, L_x 48) records exactly
    101 tape nodes per training window: LayerNorm, Dense, each attention
    call from the projections to the merged heads, each window's stamp
    embedding and each distill convolution with its bias are one node
    each, so un-fusing any of them shows here."""
    config = ModelConfig(L_x=48, label_len=24, L_y=24, d_x=3, d_y=3, d_model=32,
                         n_heads=2, enc_blocks=3, dec_layers=1)
    model = Forecaster(config, np.random.default_rng(1))
    sample = make_windows(synthetic_seasonal_frame(200, 3, seed=2), 48, 24, 24)[0]
    loss = model.loss(sample, rng=np.random.default_rng(3), train=True)
    assert _tape_nodes(loss) == 101


def test_long_horizon_training_window_memory():
    """A training window at the long_horizon shape (L_x 1440, L_y 576,
    d_model 64, 4 heads, dropout on) keeps a tape of at most 40 MiB, the
    forward peaks at most 48 MiB and backward at most 48 MiB above the
    state before the forward: the tape keeps only the arrays backward
    reads, and the attention node keeps no weights but recomputes them a
    block of query rows at a time."""
    config = ModelConfig(L_x=1440, label_len=720, L_y=576, d_x=1, d_y=1, d_model=64,
                         n_heads=4, enc_blocks=3, dec_layers=1)
    model = Forecaster(config, np.random.default_rng(1))
    model.params.zero_grad()
    sample = make_windows(synthetic_seasonal_frame(2030, 1, seed=2), 1440, 720, 576)[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = model.loss(sample, rng=np.random.default_rng(3), train=True)
        tape, forward_peak = (size - base for size in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert tape <= 40 * 2**20
    assert forward_peak <= 48 * 2**20
    assert peak <= 48 * 2**20
