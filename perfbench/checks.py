"""Output checks computed apart from the program.

Each check raises ``CheckFailed`` naming what disagreed.  The references
come from the benchmark's own numpy arithmetic on the values it wrote to
the CSV, or from properties the method must have; none is a stored copy
of an earlier output.
"""

import math

import numpy as np

from workloads import split_rows


class CheckFailed(AssertionError):
    pass


class Reference:
    """The benchmark's own view of one workload's data: train-row statistics,
    scaled values and the rows behind every test window."""

    def __init__(self, workload, values: np.ndarray):
        cfg = workload.model
        n_train, n_val, _ = split_rows(values.shape[0])
        self.mean = values[:n_train].mean(axis=0)
        self.std = values[:n_train].std(axis=0)
        self.scaled = (values - self.mean) / self.std
        self.columns = workload.output_columns
        self.test_start = n_train + n_val
        self.test_rows = values.shape[0] - self.test_start
        self.L_x, self.label_len, self.L_y = cfg["L_x"], cfg["label_len"], cfg["L_y"]

    def window_count(self) -> int:
        return self.test_rows - self.L_x - self.L_y + 1

    def target(self, origin: int) -> np.ndarray:
        """Scaled (L_y, d_y) truth of the test window that starts at ``origin``."""
        start = self.test_start + origin + self.L_x
        return self.scaled[start:start + self.L_y][:, self.columns]

    def repeat_last(self, origin: int) -> np.ndarray:
        """Repeat-the-last-known-value forecast for the test window at ``origin``."""
        last = self.scaled[self.test_start + origin + self.L_x - 1, self.columns]
        return np.broadcast_to(last, (self.L_y, len(self.columns)))

    def check_forecast(self, forecast) -> None:
        """Finite, (L_y, d_y), and de-standardised with the train-row statistics."""
        shape = (self.L_y, len(self.columns))
        for label, arr in (("scaled", forecast.scaled_predictions),
                           ("original", forecast.predictions)):
            if arr.shape != shape:
                raise CheckFailed(f"{label} forecast has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise CheckFailed(f"{label} forecast is not finite")
        expected = forecast.scaled_predictions * self.std[self.columns] + self.mean[self.columns]
        check_close_arrays(forecast.predictions, expected, "inverse-scaled forecast")


def mean_window_mse(predictions, targets) -> float:
    """Mean over windows of each window's mean squared error."""
    diff = np.asarray(predictions) - np.asarray(targets)
    return float((diff * diff).mean(axis=(1, 2)).mean())


def check_mse(reported: float, predictions, targets) -> None:
    expected = mean_window_mse(predictions, targets)
    if not math.isclose(reported, expected, rel_tol=1e-9):
        raise CheckFailed(f"evaluate reported MSE {reported!r}, recomputed {expected!r}")


def check_beats(trained: float, reference: float, margin: float, label: str) -> None:
    if not trained < margin * reference:
        raise CheckFailed(f"trained MSE {trained:.4f} does not beat {margin} x {label} "
                          f"MSE {reference:.4f}")


def check_same_params(a, b) -> None:
    """Names, order, shapes and every bit of every parameter agree."""
    if list(a.names()) != list(b.names()):
        raise CheckFailed("checkpoint round trip changed the parameter names")
    for name, t in a.items():
        other = b[name].data
        if other.shape != t.data.shape or other.tobytes() != t.data.tobytes():
            raise CheckFailed(f"parameter {name!r} differs after the checkpoint round trip")


def check_close_arrays(a: np.ndarray, b: np.ndarray, label: str) -> None:
    """Same shape and equal to within rounding (relative and absolute 1e-12)."""
    if a.shape != b.shape:
        raise CheckFailed(f"{label}: shape {a.shape}, expected {b.shape}")
    if not np.allclose(a, b, rtol=1e-12, atol=1e-12):
        raise CheckFailed(f"{label} is off by up to {np.abs(a - b).max():.3e}")


def check_same_arrays(a: np.ndarray, b: np.ndarray, label: str) -> None:
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        raise CheckFailed(f"{label} differ bit for bit")


def top_n(length: int, c: float) -> int:
    """Rows a sparse head attends with: n = ceil(c ln L), clamped to [1, L]."""
    return min(length, max(1, math.ceil(c * math.log(length))))


def encoder_lengths(L_x: int, blocks: int) -> list:
    """Sequence length seen by each encoder block; every distill maps L -> ceil(L/2)."""
    lengths = [L_x]
    for _ in range(blocks - 1):
        lengths.append((lengths[-1] + 1) // 2)
    return lengths


def expected_counts(config, causal_rows: list) -> tuple:
    """(dot products, rows selected) of one forward of a ``neural_sparse`` model.

    Sparse heads cost n*L: the encoder's n follows from the length law, the
    decoder's causal selection from the rows it kept (``causal_rows``, one
    entry per decoder head).  Canonical cross-attention heads cost L_q*L_k.
    """
    if config.attention != "neural_sparse":
        raise ValueError(f"counts are derived for neural_sparse only, not {config.attention}")
    heads, dec_len = config.n_heads, config.label_len + config.L_y
    if len(causal_rows) != config.dec_layers * heads:
        raise CheckFailed(f"saw {len(causal_rows)} causal selections, expected "
                          f"{config.dec_layers * heads}")
    lengths = encoder_lengths(config.L_x, config.enc_blocks)
    enc_rows = sum(heads * top_n(L, config.c) for L in lengths)
    enc_dots = sum(heads * top_n(L, config.c) * L for L in lengths)
    cross = config.dec_layers * heads * dec_len
    dots = enc_dots + sum(causal_rows) * dec_len + cross * lengths[-1]
    return dots, enc_rows + sum(causal_rows) + cross


def check_counts(counted: tuple, expected: tuple) -> None:
    if tuple(counted) != tuple(expected):
        raise CheckFailed(f"(dot products, rows selected) counted {tuple(counted)}, "
                          f"derived {tuple(expected)}")
