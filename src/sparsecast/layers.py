"""Shared trainable building blocks: dense layers, layer norm, feed-forward,
the residual wrapper of every attention and feed-forward sublayer, and the
random draws of a training forward."""

import math

import numpy as np

from .tensor import ParamStore, Tensor, dropout, elu, layer_norm, linear

__all__ = ["Dense", "Draws", "LayerNorm", "FeedForward", "residual", "uniform_init"]

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


class Draws:
    """The random draws of one training forward, in forward order: ``rng``,
    which a sampled ranking draws from, and ``keep``, which hands each
    residual dropout of rate ``p`` its boolean keep mask.

    With ``windows`` > 1 every mask of those windows is drawn up front, as
    one (windows, size) block ``rng.random((windows, size)) >= p``.  A
    generator gives the same doubles for one call of a + b as for calls of
    a and b in turn, so window i's ``size`` draws follow all of window
    i-1's, as when the windows run one after another; ``keep`` takes the
    next columns of every window.  Only the booleans are kept.  With one
    window ``keep`` draws each mask when asked.
    """

    def __init__(self, rng: np.random.Generator, p: float, windows: int = 1, size: int = 0):
        self.rng, self.p = rng, p
        self._block = rng.random((windows, size)) >= p if windows > 1 else None
        self._taken = 0

    def keep(self, shape) -> np.ndarray:
        """The keep mask of the next residual dropout, of ``shape``."""
        if self._block is None:
            return self.rng.random(shape) >= self.p
        size = math.prod(shape[1:])  # per window; shape[0] is the window axis
        columns = self._block[:, self._taken:self._taken + size]
        self._taken += size
        return columns.reshape(shape)


def residual(norm: LayerNorm, x: Tensor, y: Tensor, draws: Draws | None) -> Tensor:
    """Post-norm residual ``norm(x + dropout(y))`` around a sublayer output
    ``y``.  Dropout applies only in training, which is when ``draws`` is
    given."""
    if draws is not None and draws.p > 0:
        y = dropout(y, draws.p, draws.keep(y.shape))
    return norm(x + y)
