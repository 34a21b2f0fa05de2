"""Shared trainable building blocks: dense layers, layer norm, feed-forward,
and the residual wrapper of every attention and feed-forward sublayer."""

import numpy as np

from .tensor import ParamStore, Tensor, dropout, elu, layer_norm, linear

__all__ = ["Dense", "LayerNorm", "FeedForward", "residual", "uniform_init"]

LAYER_NORM_EPS = 1e-5


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform weights in +-sqrt(1/fan_in)."""
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Dense:
    """Affine map (L, d_in) -> (L, d_out) with a bias."""

    def __init__(self, store: ParamStore, prefix: str, d_in: int, d_out: int,
                 rng: np.random.Generator):
        self.w = store.add(f"{prefix}.w", uniform_init(rng, (d_in, d_out), d_in))
        self.b = store.add(f"{prefix}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class LayerNorm:
    """Per-position normalization over the feature axis with learned gain/bias."""

    def __init__(self, store: ParamStore, prefix: str, d: int):
        self.g = store.add(f"{prefix}.g", np.ones(d))
        self.b = store.add(f"{prefix}.b", np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.g, self.b, LAYER_NORM_EPS)


class FeedForward:
    """Two dense layers with an ELU in between, applied position-wise."""

    def __init__(self, store: ParamStore, prefix: str, d_model: int, d_hidden: int,
                 rng: np.random.Generator):
        self.fc1 = Dense(store, f"{prefix}.fc1", d_model, d_hidden, rng)
        self.fc2 = Dense(store, f"{prefix}.fc2", d_hidden, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(elu(self.fc1(x)))


def residual(norm: LayerNorm, x: Tensor, y: Tensor, drop: float,
             rng: np.random.Generator | None) -> Tensor:
    """Post-norm residual ``norm(x + dropout(y))`` around a sublayer output
    ``y``.  Dropout applies only in training, which is when ``rng`` is given."""
    if rng is not None and drop > 0:
        y = dropout(y, drop, rng)
    return norm(x + y)
