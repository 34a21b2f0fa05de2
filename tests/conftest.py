"""Shared oracles and small factories for the test suite."""

import numpy as np
import pytest

import sparsecast.attention as attention
import sparsecast.tensor as tensor
from sparsecast.data import synthetic_seasonal_frame, make_windows, split_622, fit_apply_scaler
from sparsecast.model import Forecaster, ModelConfig


@pytest.fixture(autouse=True)
def no_leaked_counting():
    """Fail any test that leaves a ``counting`` record active."""
    yield
    leaked = attention._ACTIVE.get()
    if leaked is not None:
        attention._ACTIVE.set(None)
        pytest.fail(f"test left a counting record active: {leaked}")


@pytest.fixture(autouse=True)
def no_leaked_no_grad():
    """Fail any test that leaves gradient recording disabled."""
    yield
    if not tensor._GRAD_ENABLED.get():
        tensor._GRAD_ENABLED.set(True)
        pytest.fail("test left gradient recording disabled")


def dense_attention(q, k, v, causal=False):
    """Independent brute-force attention oracle (plain numpy, longhand)."""
    scores = (q @ k.T) / np.sqrt(q.shape[1])
    if causal:
        scores = np.where(np.triu(np.ones(scores.shape, dtype=bool), k=1), -np.inf, scores)
    scores = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=1, keepdims=True)
    return weights @ v


def identity_tap_kernel(channels: int) -> np.ndarray:
    """(C, C, 3) conv kernel whose centre tap is the identity."""
    kernel = np.zeros((channels, channels, 3))
    kernel[:, :, 1] = np.eye(channels)
    return kernel


@pytest.fixture
def tiny_model():
    """A small default-architecture forecaster plus one window sample."""
    frame = synthetic_seasonal_frame(120, 2, seed=9)
    config = ModelConfig(L_x=12, label_len=4, L_y=4, d_x=2, d_y=2, d_model=8,
                         n_heads=2, enc_blocks=3, dec_layers=1, dropout=0.0)
    model = Forecaster(config, np.random.default_rng(0))
    sample = make_windows(frame, 12, 4, 4)[0]
    return model, sample


def make_split_windows(length=600, dims=3, L_x=24, label_len=12, L_y=12, seed=11,
                       univariate=False):
    frame = synthetic_seasonal_frame(length, dims, seed=seed)
    train_f, val_f, test_f = split_622(frame, min_len=L_x + L_y)
    (train_s, val_s, test_s), scaler = fit_apply_scaler(train_f, [val_f, test_f])
    windows = tuple(make_windows(f, L_x, label_len, L_y, univariate=univariate)
                    for f in (train_s, val_s, test_s))
    return windows, scaler
