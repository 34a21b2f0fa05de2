"""Window embedding: token projection + fixed positional code + gated stamp embeddings.

The model input for a window is

    X = u + PE + beta * SE_sum

where ``u`` projects raw values through a width-3 convolution, ``PE`` is
the fixed sinusoidal positional code, ``SE_sum`` sums one learned
embedding table per calendar-stamp category, and ``beta`` is a learned
nonnegative per-position scalar computed from PE + SE_sum.  With the gate
bypassed (``gated=False``) the term reduces to the ungated ``u + PE + SE_sum``
composition used by the ablation baseline.
"""

from functools import lru_cache

import numpy as np

from .layers import uniform_init
from .tensor import ParamStore, Tensor, conv1d_time, embedding_sum, linear, relu

# calendar stamp categories and their vocabulary sizes
STAMP_CATEGORIES = ("month", "day", "weekday", "hour", "minute15")
STAMP_VOCAB = {"month": 13, "day": 32, "weekday": 7, "hour": 24, "minute15": 4}
_VOCAB_SIZES = np.array([STAMP_VOCAB[name] for name in STAMP_CATEGORIES])
_VOCAB_SIZES.setflags(write=False)


@lru_cache(maxsize=64)
def _pe_table(length: int, d_model: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    j = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / (2.0 * length) ** (2.0 * j / d_model)
    table = np.empty((length, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.setflags(write=False)
    return table


def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Fixed sinusoidal positional code for a window of ``length`` positions.

    Row ``pos`` holds sin(pos / (2L)^(2j/d)) in even columns and the
    matching cosine in odd columns; the table is cached per (L, d).
    """
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    if length < 1:
        raise ValueError("length must be >= 1")
    return _pe_table(length, d_model)


def validate_stamps(stamps: np.ndarray) -> np.ndarray:
    """Check an (..., L, 5) integer stamp matrix against the category
    vocabularies."""
    stamps = np.asarray(stamps)
    if stamps.ndim < 2 or stamps.shape[-1] != len(STAMP_CATEGORIES):
        raise ValueError(f"stamps must be (L, {len(STAMP_CATEGORIES)}), got {stamps.shape}")
    if not np.issubdtype(stamps.dtype, np.integer):
        raise ValueError(f"stamps must be integers, got dtype {stamps.dtype}")
    bad = (stamps < 0) | (stamps >= _VOCAB_SIZES)
    if bad.any():
        rows = stamps.reshape(-1, len(STAMP_CATEGORIES))  # every window's rows, in order
        bad = bad.reshape(rows.shape)
        col = int(np.flatnonzero(bad.any(axis=0))[0])
        name = STAMP_CATEGORIES[col]
        value = int(rows[bad[:, col], col][0])
        raise ValueError(f"stamp {name!r} index {value} outside [0, {STAMP_VOCAB[name]})")
    return stamps.astype(np.intp, copy=False)


class WindowEmbedding:
    """Trainable embedding parameters; windows of any length share them."""

    def __init__(self, store: ParamStore, prefix: str, d_in: int, d_model: int,
                 rng: np.random.Generator, gated: bool = True):
        self.d_model = d_model
        self.gated = gated
        # token projection: width-3 conv, zero padding, no bias
        self.token_kernel = store.add(
            f"{prefix}.token_kernel", uniform_init(rng, (d_model, d_in, 3), d_in * 3)
        )
        self.tables = {
            name: store.add(
                f"{prefix}.se.{name}", rng.normal(0.0, 0.02, (STAMP_VOCAB[name], d_model))
            )
            for name in STAMP_CATEGORIES
        }
        self.gate_w = store.add(f"{prefix}.gate.w", uniform_init(rng, (d_model, 1), d_model))
        self.gate_b = store.add(f"{prefix}.gate.b", np.zeros(1))

    def __call__(self, values, stamps: np.ndarray) -> Tensor:
        """Embed windows of raw values plus calendar stamps.

        ``values`` is (..., L, d_in) and ``stamps`` (..., L, 5); the result
        is (..., L, d_model).  Deterministic given (values, stamps,
        parameters).
        """
        values = values if isinstance(values, Tensor) else Tensor(values)
        L = values.shape[-2]
        if stamps.shape[-2] != L:
            raise ValueError(f"values have {L} rows but stamps have {stamps.shape[-2]}")
        u = conv1d_time(values, self.token_kernel, padding=1)
        pe = Tensor(positional_encoding(L, self.d_model))
        se = embedding_sum([self.tables[name] for name in STAMP_CATEGORIES],
                           validate_stamps(stamps))
        if self.gated:
            beta = relu(linear(pe + se, self.gate_w, self.gate_b))
            return u + pe + beta * se
        return u + pe + se
