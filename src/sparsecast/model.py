"""Full forecaster: embedded encoder window -> encoder -> generative decoder.

The decoder input is the last ``label_len`` rows of the known target
series followed by a zero block of length ``L_y``; one forward pass
yields the whole horizon (no autoregressive loop).  Its self-attention is
the masked (causal) variant of the configured sparse kernel, followed by
canonical cross-attention against the encoder output.
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np

from .attention import MultiHeadAttention, ScoreBudget, counting
from .data import DataError
from .embedding import WindowEmbedding, validate_stamps
from .encoder import Encoder
from .layers import Dense, Draws, FeedForward, LayerNorm, residual
from .tensor import ParamStore, Tensor, mean_, no_grad

ATTENTION_CHOICES = ("neural_sparse", "prob_sparse", "canonical")
DISTILL_CHOICES = ("parallel_pool", "maxpool_only")


@dataclass
class ModelConfig:
    """Every architectural hyperparameter of the forecaster.  The fields but
    ``d_x``/``d_y`` are the keys, types and defaults of the CLI config's
    ``model`` section; ``__post_init__`` is the one check of their values,
    and each message starts with the field."""

    L_x: int
    label_len: int
    L_y: int
    d_x: int
    d_y: int
    h: int = 0
    d_model: int = 512
    n_heads: int = 8
    c: float = 5.0
    enc_blocks: int = 3
    dec_layers: int = 1
    d_ff: int | None = None
    dropout: float = 0.05
    attention: str = "neural_sparse"
    distill: str = "parallel_pool"
    gated_embedding: bool = True

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name}: must be finite, got {getattr(self, f.name)}")
        # each of the enc_blocks - 1 distill steps maps L -> ceil(L/2) and needs
        # L >= 2, so L_x must exceed 2^(enc_blocks-2); compared by bit length, so
        # a huge enc_blocks builds no huge power
        if self.L_x < 1 or (self.enc_blocks >= 2
                            and (self.L_x - 1).bit_length() < self.enc_blocks - 1):
            low = "1" if self.enc_blocks < 2 else f"2^{self.enc_blocks - 2} + 1"
            raise ValueError(f"L_x: must be >= {low} for enc_blocks={self.enc_blocks}, "
                             f"got {self.L_x}")
        if self.label_len > self.L_x:
            raise ValueError(f"label_len: {self.label_len} exceeds L_x={self.L_x}")
        for key, low in (("label_len", 0), ("L_y", 1), ("h", 0), ("n_heads", 1),
                         ("d_model", 2), ("c", 1), ("enc_blocks", 1), ("dec_layers", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key}: must be >= {low}, got {getattr(self, key)}")
        if self.d_model % 2 or self.d_model % self.n_heads:
            raise ValueError(f"d_model: must be even and divisible by n_heads="
                             f"{self.n_heads}, got {self.d_model}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout: must be in [0, 1), got {self.dropout}")
        for key, choices in (("attention", ATTENTION_CHOICES),
                             ("distill", DISTILL_CHOICES)):
            if getattr(self, key) not in choices:
                raise ValueError(f"{key}: must be one of {sorted(choices)}, "
                                 f"got {getattr(self, key)!r}")
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model

    @property
    def dec_len(self) -> int:
        return self.label_len + self.L_y


@dataclass
class Forecast:
    """Model output in original units plus the scaled values it came from."""

    predictions: np.ndarray
    scaled_predictions: np.ndarray


def build_decoder_input(known_values, label_len: int, horizon: int) -> np.ndarray:
    """Warm-start block for the decoder: the last ``label_len`` rows of the
    known (scaled) target series followed by ``horizon`` zero rows, for
    (rows, d_y) values or a (..., rows, d_y) stack of windows."""
    known = np.asarray(known_values, dtype=np.float64)
    if known.ndim < 2:
        raise ValueError("known_values must be (rows, d_y), or a stack of them")
    *lead, rows, d_y = known.shape
    if label_len > rows:
        raise ValueError(f"label_len={label_len} exceeds the {rows} known rows")
    return np.concatenate([known[..., rows - label_len:, :], np.zeros((*lead, horizon, d_y))],
                          axis=-2)


class DecoderLayer:
    """Masked self-attention, canonical cross-attention, feed-forward;
    each sublayer in a post-norm residual.  ``draws`` is given in training
    only."""

    def __init__(self, store: ParamStore, prefix: str, config: ModelConfig,
                 rng: np.random.Generator):
        d, heads, c = config.d_model, config.n_heads, config.c
        self.self_attn = MultiHeadAttention(store, f"{prefix}.self_attn",
                                            f"masked_{config.attention}", d, heads, c, rng)
        self.norm1 = LayerNorm(store, f"{prefix}.norm1", d)
        self.cross_attn = MultiHeadAttention(store, f"{prefix}.cross_attn", "canonical",
                                             d, heads, c, rng)
        self.norm2 = LayerNorm(store, f"{prefix}.norm2", d)
        self.ffn = FeedForward(store, f"{prefix}.ffn", d, config.d_ff, rng)
        self.norm3 = LayerNorm(store, f"{prefix}.norm3", d)

    def __call__(self, x: Tensor, enc_out: Tensor, *, draws: Draws | None = None) -> Tensor:
        rng = draws and draws.rng
        x = residual(self.norm1, x, self.self_attn(x, rng=rng), draws)
        x = residual(self.norm2, x, self.cross_attn(x, enc_out, rng=rng), draws)
        return residual(self.norm3, x, self.ffn(x), draws)


# Budgets, in float64 elements, on the widest activation of one window times
# the windows of one chunk: a ``forward_many`` chunk under ``no_grad``, and a
# training chunk, whose tape keeps about a dozen such arrays per window.
_CHUNK_ELEMENTS = 1 << 16
_TRAIN_CHUNK_ELEMENTS = 1 << 15


def _widest_activation(config: ModelConfig) -> int:
    """Elements of one window's widest activation: with L = max(L_x,
    dec_len), at most L * max(d_ff, n_heads * L), an FFN hidden layer or a
    canonical score buffer of every head."""
    L = max(config.L_x, config.dec_len)
    return L * max(config.d_ff, config.n_heads * L)


def chunk_windows(config: ModelConfig) -> int:
    """Windows ``forward_many`` stacks into one forward: as many as keep B
    times the widest per-window activation within ``_CHUNK_ELEMENTS``, and
    at least one.  Wide configs therefore run one window at a time, where a
    stack only adds memory and no speed."""
    return max(1, _CHUNK_ELEMENTS // _widest_activation(config))


def train_chunk_windows(config: ModelConfig) -> int:
    """Windows one training forward and backward stack: the same rule within
    ``_TRAIN_CHUNK_ELEMENTS``, since the chunk's tape lives until its
    backward; and one for ``prob_sparse``, whose ranking draws keys from
    the generator between a window's dropouts."""
    if config.attention == "prob_sparse":
        return 1
    return max(1, _TRAIN_CHUNK_ELEMENTS // _widest_activation(config))


def dropout_draws(config: ModelConfig) -> int:
    """Uniform draws the residual dropouts of one training window make: one
    per entry of every sublayer output, two per encoder block and three per
    decoder layer; none without dropout."""
    if config.dropout <= 0.0:
        return 0
    rows, length = 0, config.L_x
    for _ in range(config.enc_blocks):
        rows += 2 * length
        length = (length + 1) // 2
    return config.d_model * (rows + 3 * config.dec_layers * config.dec_len)


class Forecaster:
    """Encoder-decoder forecaster: ``forward`` runs one window, and
    ``forward_many`` and ``loss`` run stacks of windows through the same
    layers.

    Inference over frozen parameters is pure and may run concurrently;
    training mutates the store under a single writer.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        store = ParamStore()
        self.params = store
        self.enc_embed = WindowEmbedding(store, "enc_embed", config.d_x, config.d_model,
                                         rng, gated=config.gated_embedding)
        self.encoder = Encoder(store, "encoder", config, rng)
        self.dec_embed = WindowEmbedding(store, "dec_embed", config.d_y, config.d_model,
                                         rng, gated=config.gated_embedding)
        self.decoder_layers = [
            DecoderLayer(store, f"decoder{i}", config, rng)
            for i in range(config.dec_layers)
        ]
        self.proj = Dense(store, "proj", config.d_model, config.d_y, rng)

    def forward(self, sample, *, rng: np.random.Generator | None = None,
                train: bool = False, budget: ScoreBudget | None = None) -> Tensor:
        """One-shot forecast: returns the scaled (L_y, d_y) prediction block.

        The attention of the forward is counted into ``budget`` when one is
        given, else into the record of an enclosing ``counting`` block.
        Only a training forward draws from ``rng``, each draw when a layer
        asks for it.  Raises ``DataError`` for a window that does not fit
        the config.
        """
        _check_rng(rng, train)
        cfg = self.config
        _check_window(sample, cfg)
        with nullcontext() if budget is None else counting(budget):
            out = self._decode(*_inputs(sample), Draws(rng, cfg.dropout) if train else None)
        return out[out.shape[0] - cfg.L_y:]

    def forward_many(self, samples):
        """Yield the scaled (L_y, d_y) forecast of every window of ``samples``
        (any iterable, a generator too), in order.

        Windows run ``chunk_windows(config)`` at a time through one forward
        of their stacked arrays under ``no_grad``.  Every layer treats the
        window axis as a leading axis and each window's products stay its
        own GEMMs, so a forecast has the bits ``forward`` gives its window.
        Attention counts go to the record of an enclosing ``counting``
        block.  A window that does not fit the config raises ``DataError``
        prefixed with its index in ``samples``.
        """
        cfg = self.config
        windows = iter(samples)
        first = 0
        while chunk := list(islice(windows, chunk_windows(cfg))):
            inputs = _stacked_inputs(chunk, cfg, first)
            with no_grad():
                out = self._decode(*inputs, None)
            first += len(chunk)
            yield from out.data[:, out.shape[1] - cfg.L_y:]

    def _decode(self, enc_values, enc_stamps, known_tail, dec_stamps, draws) -> Tensor:
        """Embedding, encoder, decoder and projection over one window's arrays,
        or over (B, ...) stacks of them: the (..., dec_len, d_y) output."""
        cfg = self.config
        enc_out = self.encoder(self.enc_embed(enc_values, enc_stamps), draws=draws)
        dec_values = build_decoder_input(known_tail, cfg.label_len, cfg.L_y)
        dec_x = self.dec_embed(dec_values, dec_stamps)
        for layer in self.decoder_layers:
            dec_x = layer(dec_x, enc_out, draws=draws)
        return self.proj(dec_x)

    def loss(self, samples, *, rng: np.random.Generator | None = None,
             train: bool = False) -> Tensor:
        """Mean squared error of the forecast: the scalar loss of one window
        (through ``forward``), or the losses of a list of windows, one per
        window, from one forward over their stacked arrays.

        Each window of a stack keeps the bits of its own forward.  In
        training the dropout masks of a stack are drawn up front in one
        ``Draws`` block, which is the stream that one-window forwards draw
        in turn; ``prob_sparse``, whose ranking draws between the dropouts,
        therefore trains one window at a time.  A window that does not fit
        the config raises ``DataError`` prefixed with its index in the list.
        """
        if not isinstance(samples, list):
            return mse_loss(self.forward(samples, rng=rng, train=train), Tensor(samples.target))
        _check_rng(rng, train)
        cfg = self.config
        if train and cfg.attention == "prob_sparse" and len(samples) > 1:
            raise ValueError("prob_sparse trains one window at a time: its ranking draws "
                             "from the generator between a window's dropouts")
        inputs = _stacked_inputs(samples, cfg, 0)
        target = np.stack([s.target for s in samples])
        draws = Draws(rng, cfg.dropout, len(samples), dropout_draws(cfg)) if train else None
        out = self._decode(*inputs, draws)
        return mse_loss(out[..., out.shape[-2] - cfg.L_y:, :], target)

    def predict(self, sample, scaler=None, target_columns=None) -> Forecast:
        """Forecast one window; inverse-scale when a scaler is given."""
        with no_grad():
            scaled = self.forward(sample).data
        if scaler is None:
            return Forecast(predictions=scaled.copy(), scaled_predictions=scaled)
        original = scaler.inverse(scaled, columns=target_columns)
        return Forecast(predictions=original, scaled_predictions=scaled)


def _inputs(sample) -> tuple:
    """The arrays of one window that ``_decode`` takes, in its order."""
    return sample.enc_values, sample.enc_stamps, sample.known_tail, sample.dec_stamps


def _stacked_inputs(chunk, config: ModelConfig, first: int) -> tuple:
    """The (B, ...) stacks of the ``_decode`` arrays of the windows of
    ``chunk``, each window checked first; ``first`` is the index of the
    first, which a ``DataError`` counts from."""
    for i, sample in enumerate(chunk, first):
        _check_window(sample, config, f"window {i}:")
    enc_stamps, dec_stamps = (_stacked_stamps(chunk, name, first)
                              for name in ("enc_stamps", "dec_stamps"))
    return (np.stack([s.enc_values for s in chunk]), enc_stamps,
            np.stack([s.known_tail for s in chunk]), dec_stamps)


def _check_rng(rng, train: bool) -> None:
    if train and rng is None:
        raise ValueError("training-mode forward requires an rng (dropout/sampling)")


def _check_window(sample, config: ModelConfig, where: str = "window") -> None:
    """Raise ``DataError`` naming the first window field whose shape does not
    fit ``config``, or whose values are not finite; each message starts
    with ``where``.  ``target`` is left to the loss."""
    shapes = (
        ("enc_values", np.shape(sample.enc_values), (config.L_x, config.d_x)),
        ("enc_stamps rows", np.shape(sample.enc_stamps)[:1], (config.L_x,)),
        ("dec_stamps rows", np.shape(sample.dec_stamps)[:1], (config.dec_len,)),
        ("known_tail", np.shape(sample.known_tail), (config.label_len, config.d_y)),
    )
    for name, got, want in shapes:
        if got != want:
            raise DataError(f"{where} {name}: got {got}, the model expects {want}")
    for name in ("enc_values", "known_tail"):
        finite = np.isfinite(getattr(sample, name))
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            value = np.asarray(getattr(sample, name))[row, col]
            raise DataError(f"{where} {name}: non-finite value {value} at row {row}, "
                            f"column {col}")


def _stacked_stamps(chunk, name: str, first: int) -> np.ndarray:
    """The checked (B, rows, 5) stack of field ``name`` of the windows of
    ``chunk``, the first of which has index ``first``.  A stamp matrix that
    does not stack, or does not pass ``validate_stamps``, raises
    ``DataError`` naming its window; only a failed stack checks windows one
    at a time."""
    matrices = [getattr(sample, name) for sample in chunk]
    try:
        return validate_stamps(np.stack(matrices))
    except ValueError:
        for i, stamps in enumerate(matrices, first):
            try:
                validate_stamps(stamps)
            except ValueError as exc:
                raise DataError(f"window {i}: {name}: {exc}") from None
        raise


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over every entry of an (L, d) prediction block: a
    scalar, or one per window of a (..., L, d) stack of blocks."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: predictions {pred.shape} vs targets {target.shape}")
    diff = pred - target
    return mean_(diff * diff, axis=(-2, -1))


def variant_config(base: ModelConfig, *, embedding: bool, distill: bool,
                   neural_sparse: bool) -> ModelConfig:
    """Apply the three ablation toggles to a base configuration.

    Exactly the fields ``gated_embedding``, ``distill`` and ``attention``
    change; everything else is untouched.
    """
    return replace(
        base,
        gated_embedding=embedding,
        distill="parallel_pool" if distill else "maxpool_only",
        attention="neural_sparse" if neural_sparse else "prob_sparse",
    )
