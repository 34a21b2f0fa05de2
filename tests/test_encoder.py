"""Encoder tests: distillation arithmetic, length cascade, ablation path."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import identity_tap_kernel
from sparsecast.encoder import DistillParams, Encoder, distill_step, encoder_output_length
from sparsecast.model import ModelConfig
from sparsecast.tensor import ParamStore, Tensor, conv1d_time, elu, finite_diff_check, mean_, pool1d


def _distill_params(d_model, seed=0):
    store = ParamStore()
    return DistillParams(store, "distill", d_model, np.random.default_rng(seed)), store


class TestConvEluFeature:
    """The features ELU(conv) that ``distill_step`` pools, seen through its
    ``maxpool_only`` kind: maxpool of the features alone."""

    def test_zero_input_zero_bias(self):
        params, _ = _distill_params(3)
        params.bias.data[...] = 0.0
        out = distill_step(Tensor(np.zeros((6, 3))), params, kind="maxpool_only")
        npt.assert_array_equal(out.data, np.zeros((3, 3)))

    def test_identity_tap_on_positive_input(self):
        params, _ = _distill_params(3)
        params.kernel.data[...] = identity_tap_kernel(3)
        params.bias.data[...] = 0.0
        x = np.abs(np.random.default_rng(1).standard_normal((5, 3))) + 0.1
        out = distill_step(Tensor(x), params, kind="maxpool_only")
        npt.assert_array_equal(out.data, pool1d(Tensor(x), "max").data)

    def test_identity_tap_on_negative_input(self):
        params, _ = _distill_params(1)
        params.kernel.data[...] = identity_tap_kernel(1)
        params.bias.data[...] = 0.0
        out = distill_step(Tensor(np.full((3, 1), -10.0)), params, kind="maxpool_only")
        npt.assert_allclose(out.data, np.full((2, 1), np.expm1(-10.0)), atol=1e-15)


class TestDistillStep:
    def test_dead_branches_leave_residual(self):
        params, _ = _distill_params(2)
        params.kernel.data[...] = 0.0
        params.bias.data[...] = 0.0
        params.gamma.data[...] = 0.0
        x = np.random.default_rng(2).standard_normal((8, 2))
        out = distill_step(Tensor(x), params).data
        expected = pool1d(Tensor(x), "avg").data
        npt.assert_array_equal(out, expected)

    def test_constant_input_through_every_branch(self):
        params, _ = _distill_params(2)
        params.kernel.data[...] = identity_tap_kernel(2)
        params.bias.data[...] = 0.0
        gamma = 0.7
        params.gamma.data[...] = gamma
        c = 1.3
        out = distill_step(Tensor(np.full((6, 2), c)), params).data
        npt.assert_allclose(out, np.full((3, 2), (1 + gamma) * c + c), atol=1e-12)

    def test_halves_length_96_to_48(self):
        params, _ = _distill_params(4)
        out = distill_step(Tensor(np.random.default_rng(3).standard_normal((96, 4))), params)
        assert out.shape == (48, 4)

    def test_length_one_rejected(self):
        params, _ = _distill_params(2)
        with pytest.raises(ValueError, match="length-1"):
            distill_step(Tensor(np.zeros((1, 2))), params)

    def test_maxpool_only_variant_matches_recomposition_bitwise(self):
        params, _ = _distill_params(3, seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((10, 3)))
        out = distill_step(x, params, kind="maxpool_only").data
        # independent recomposition of conv -> ELU -> maxpool from raw ops
        rebuilt = pool1d(elu(conv1d_time(x, params.kernel, 1) + params.bias), "max").data
        assert np.array_equal(out, rebuilt)

    def test_gradient_check_including_gamma(self):
        store = ParamStore()
        params = DistillParams(store, "distill", 8, np.random.default_rng(6))
        x = store.add("x", np.random.default_rng(7).standard_normal((12, 8)))
        w = np.random.default_rng(8).standard_normal((6, 8))

        def f(p):
            out = distill_step(p["x"], params)
            return mean_(out * Tensor(w))

        assert finite_diff_check(f, store) < 1e-4


def _encoder(n_blocks=3, d_model=8, kind="canonical", distill_kind="parallel_pool", seed=0):
    """The encoder reads its blocks from the config; L_x only bounds the
    model's windows, so the forwards below may use other lengths."""
    store = ParamStore()
    cfg = ModelConfig(L_x=96, label_len=0, L_y=1, d_x=1, d_y=1, d_model=d_model, n_heads=2,
                      enc_blocks=n_blocks, d_ff=16, dropout=0.0, attention=kind,
                      distill=distill_kind)
    enc = Encoder(store, "enc", cfg, np.random.default_rng(seed))
    return enc, store


class TestEncoderForward:
    def test_quarters_96(self):
        enc, _ = _encoder()
        out = enc(Tensor(np.random.default_rng(9).standard_normal((96, 8))))
        assert out.shape == (24, 8)

    def test_quarters_48(self):
        enc, _ = _encoder()
        out = enc(Tensor(np.random.default_rng(10).standard_normal((48, 8))))
        assert out.shape == (12, 8)

    def test_single_block_preserves_length(self):
        enc, _ = _encoder(n_blocks=1)
        out = enc(Tensor(np.random.default_rng(11).standard_normal((17, 8))))
        assert out.shape == (17, 8)

    @pytest.mark.parametrize("length", [5, 7, 12, 33, 50])
    def test_ceiling_length_law(self, length):
        enc, _ = _encoder()
        out = enc(Tensor(np.random.default_rng(length).standard_normal((length, 8))))
        expected = -(-(-(-length // 2)) // 2)  # ceil(ceil(L/2)/2)
        assert out.shape[0] == expected == encoder_output_length(length, 3)

    def test_neural_sparse_blocks_run(self):
        enc, _ = _encoder(kind="neural_sparse")
        out = enc(Tensor(np.random.default_rng(12).standard_normal((32, 8))))
        assert out.shape == (8, 8)

    def test_needs_at_least_one_block(self):
        with pytest.raises(ValueError, match="^enc_blocks: must be >= 1, got 0$"):
            _encoder(n_blocks=0)
