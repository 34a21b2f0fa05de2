"""Single-stack encoder: attention blocks joined by length-halving distillation.

Each distillation step builds conv+ELU features F from the block output
x and combines three stride-2 pools:

    next = maxpool(F) + gamma * avgpool(F) + avgpool(x)

where gamma is a learnable scalar and the last term is the down-sampled
residual of the block output.  Every step maps L -> ceil(L/2), so the
default three-block encoder returns a quarter of the input length.  The
``maxpool_only`` variant keeps only maxpool(conv+ELU) with no gamma
branch and no residual.
"""

import numpy as np

from .attention import MultiHeadAttention
from .layers import Draws, FeedForward, LayerNorm, residual, uniform_init
from .tensor import ParamStore, Tensor, conv1d_time, elu, pool1d


class DistillParams:
    """Per-step distillation parameters: width-3 conv, bias, scalar gamma."""

    def __init__(self, store: ParamStore, prefix: str, d_model: int,
                 rng: np.random.Generator):
        self.kernel = store.add(f"{prefix}.kernel",
                                uniform_init(rng, (d_model, d_model, 3), d_model * 3))
        self.bias = store.add(f"{prefix}.bias", np.zeros(d_model))
        self.gamma = store.add(f"{prefix}.gamma", np.asarray(1.0))


def distill_step(x: Tensor, params: DistillParams, kind: str = "parallel_pool") -> Tensor:
    """Halve the sequence length of one attention block's output, (..., L, d)
    to (..., ceil(L/2), d), through ``pool1d``'s width-3, stride-2 pools of
    the length-preserving features ELU(conv width 3, padding 1).

    ``kind`` is one of ``model.DISTILL_CHOICES``, checked by ``ModelConfig``.
    """
    if x.shape[-2] < 2:
        raise ValueError("cannot distill length-1 sequence")
    features = elu(conv1d_time(x, params.kernel, 1, params.bias))
    pooled_max = pool1d(features, "max")
    if kind == "maxpool_only":
        return pooled_max
    pooled_avg = pool1d(features, "avg")
    downsampled = pool1d(x, "avg")
    return pooled_max + params.gamma * pooled_avg + downsampled


class AttentionBlock:
    """Multi-head attention of ``config.attention`` then feed-forward, each in
    a post-norm residual.  ``draws`` is given in training only: it drives
    dropout and the sampled ranking."""

    def __init__(self, store: ParamStore, prefix: str, config, rng: np.random.Generator):
        d = config.d_model
        self.attn = MultiHeadAttention(store, f"{prefix}.attn", config.attention, d,
                                       config.n_heads, config.c, rng)
        self.norm1 = LayerNorm(store, f"{prefix}.norm1", d)
        self.ffn = FeedForward(store, f"{prefix}.ffn", d, config.d_ff, rng)
        self.norm2 = LayerNorm(store, f"{prefix}.norm2", d)

    def __call__(self, x: Tensor, *, draws: Draws | None = None) -> Tensor:
        x = residual(self.norm1, x, self.attn(x, rng=draws and draws.rng), draws)
        return residual(self.norm2, x, self.ffn(x), draws)


class Encoder:
    """``config.enc_blocks`` attention blocks of a ``model.ModelConfig``, with
    a ``config.distill`` step between consecutive blocks."""

    def __init__(self, store: ParamStore, prefix: str, config, rng: np.random.Generator):
        self.distill_kind = config.distill
        self.blocks = [
            AttentionBlock(store, f"{prefix}.block{j}", config, rng)
            for j in range(config.enc_blocks)
        ]
        self.distills = [
            DistillParams(store, f"{prefix}.distill{j}", config.d_model, rng)
            for j in range(config.enc_blocks - 1)
        ]

    def __call__(self, x: Tensor, *, draws: Draws | None = None) -> Tensor:
        for j, block in enumerate(self.blocks):
            x = block(x, draws=draws)
            if j < len(self.distills):
                x = distill_step(x, self.distills[j], kind=self.distill_kind)
        return x


def encoder_output_length(length: int, n_blocks: int) -> int:
    """Sequence length after the encoder: (n_blocks - 1) halvings, each L -> ceil(L/2)."""
    for _ in range(n_blocks - 1):
        length = (length + 1) // 2
    return length
