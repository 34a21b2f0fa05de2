"""Adam training loop with step-decay schedule, evaluation, checkpointing.

Batches are index-shuffled per epoch from an explicit seed; the same
(seed, config, data) triple therefore reproduces the checkpoint byte for
byte.  Checkpoints store every parameter in insertion order behind the
magic ``HGNT2`` with a trailing 64-bit BLAKE2b digest of the payload.
``HGNT1`` files, whose trailing u64 is an FNV-1a hash, still load.
"""

import gc
import hashlib
import itertools
import math
import os
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import NaNScoreError
from .data import DataError, MetricResult, metrics
from .model import train_chunk_windows
from .tensor import ParamStore, sum_

CHECKPOINT_MAGIC = b"HGNT2"
_READABLE_MAGICS = (b"HGNT1", CHECKPOINT_MAGIC)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_WINDOW = re.compile(r"window (\d+)")


@dataclass
class TrainConfig:
    """Optimizer and schedule settings.  The fields are the keys, types and
    defaults of the CLI config's ``train`` section; ``__post_init__`` is the
    one check of their values, and each message starts with the field."""

    lr: float = 1e-4
    weight_decay: float = 5e-4
    batch_size: int = 32
    epochs: int = 20
    lr_decay: float = 0.5
    lr_step_epochs: int = 5
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name}: must be finite, got {getattr(self, f.name)}")
        for key in ("lr", "weight_decay", "lr_decay"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"{key}: must be >= 0, got {getattr(self, key)}")
        for key in ("batch_size", "epochs", "lr_step_epochs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key}: must be >= 1, got {getattr(self, key)}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps: must be >= 1 when given, got {self.max_steps}")


@dataclass
class OptimizerState:
    """Per-parameter Adam moment buffers plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


class TrainingDiverged(RuntimeError):
    """Training met a non-finite value.  ``reason`` is ``loss`` (a step's
    loss), ``selection`` (a NaN score in a step, before its loss) or
    ``validation`` (a NaN score in the validation after ``batch`` batches)."""

    def __init__(self, epoch: int, batch: int, lr: float, reason: str = "loss"):
        where = {"loss": f"non-finite loss at epoch {epoch}, batch {batch}",
                 "selection": f"NaN selection score at epoch {epoch}, batch {batch}",
                 "validation": f"NaN selection score in the validation of epoch {epoch} "
                               f"after {batch} batches"}[reason]
        super().__init__(f"{where}, lr {lr:.3e}")
        self.epoch = epoch
        self.batch = batch
        self.lr = lr
        self.reason = reason


def lr_schedule(config: TrainConfig, epoch: int) -> float:
    """Step decay: lr0 * decay^(epoch // step_epochs)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return config.lr * config.lr_decay ** (epoch // config.lr_step_epochs)


def adam_step(params: ParamStore, state: OptimizerState, lr: float,
              weight_decay: float = 0.0):
    """One Adam update with bias correction and decoupled weight decay.

    The decay shrinks parameters before the moment update, so with zero
    gradients it reduces to pure shrinkage.  Every parameter must carry a
    gradient buffer (run zero_grad + backward first).
    """
    for name, t in params.items():
        if t.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient")
    state.step += 1
    k = state.step
    # Every intermediate goes through ``out=`` into two scratch buffers
    # sized to the largest parameter.  The operations and their order are
    # those of ``data -= lr * (m / c1) / (sqrt(v / c2) + eps)``, so the
    # update is the same to the bit.
    largest = max((t.data.size for _, t in params.items()), default=0)
    scratch_a, scratch_b = np.empty(largest), np.empty(largest)
    c1, c2 = 1.0 - ADAM_BETA1**k, 1.0 - ADAM_BETA2**k
    for name, t in params.items():
        if weight_decay:
            t.data *= 1.0 - lr * weight_decay
        g = t.grad
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        v = state.v[name]
        a = scratch_a[:g.size].reshape(g.shape)
        b = scratch_b[:g.size].reshape(g.shape)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=b)
        v += np.multiply(b, g, out=b)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        np.divide(m, c1, out=a)
        a *= lr
        a /= b
        t.data -= a


def evaluate(model, samples, *, units: str = "scaled", scaler=None,
             target_columns=None) -> MetricResult:
    """Mean of per-window (CORR, MSE, MAE) over a frozen model.

    ``samples`` is any iterable of windows, a generator too; the model's
    ``forward_many`` scores them a chunk at a time.  ``units="original"``
    inverse-scales both predictions and targets before scoring.
    """
    if units not in ("scaled", "original"):
        raise ValueError(f"unknown metric units {units!r}")
    if units == "original" and scaler is None:
        raise ValueError("original-unit metrics need the scaler")
    windows, scoring = itertools.tee(samples)  # the targets, and the windows to forecast

    def scored():
        for sample, pred in zip(windows, model.forward_many(scoring)):
            truth = sample.target
            if units == "original":
                pred = scaler.inverse(pred, columns=target_columns)
                truth = scaler.inverse(truth, columns=target_columns)
            yield metrics(truth, pred)

    return _mean_of_windows(scored())


def _mean_of_windows(results) -> MetricResult:
    """Mean of per-window metric results, summed in window order; each
    distinct flag is kept once, in the order it is first seen.  No results,
    as an empty generator of windows gives, raise ``ValueError``."""
    corr = mse = mae = 0.0
    flags: dict = {}
    n = 0
    for result in results:
        corr += result.corr
        mse += result.mse
        mae += result.mae
        flags.update(dict.fromkeys(result.flags))
        n += 1
    if n == 0:
        raise ValueError("cannot evaluate an empty split")
    return MetricResult(corr=corr / n, mse=mse / n, mae=mae / n, n=n, flags=list(flags))


@dataclass
class TrainResult:
    best_params: ParamStore
    history: list
    steps: int
    best_val_mse: float


@contextmanager
def _gc_paused():
    """Keep the cyclic collector off inside the block, then restore the
    caller's setting.  A training step allocates tens of thousands of tape
    tensors, which trigger many collections that only rescan live objects:
    the tape is acyclic and is freed by reference counting."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _train_step(model, batch, rng, state: OptimizerState, lr: float,
                config: TrainConfig) -> float:
    """Forward, backward and Adam update on one batch; returns the mean loss.

    The batch runs in chunks of ``train_chunk_windows`` windows: one stacked
    forward gives the chunk's per-window losses, and one backward of their
    sum, seeded 1/B per window, follows at once, so a step holds one
    chunk's tape at a time.  Every op adds each window's gradient terms
    into the leaves in window order, so the leaves get the same terms in
    the same order as one backward through the sum of the B losses would.
    The running loss adds the windows' losses in order; a non-finite one
    stops the step before its chunk's backward and before any parameter
    changes, and the next ``zero_grad`` discards the partial gradients.
    A ``DataError`` or ``NaNScoreError`` names its window by its index in
    the batch.
    """
    params = model.params
    params.zero_grad()
    scale = 1.0 / len(batch)
    size = train_chunk_windows(model.config)
    total = 0.0
    for start in range(0, len(batch), size):
        try:
            losses = model.loss(batch[start:start + size], rng=rng, train=True)
        except (DataError, NaNScoreError) as exc:
            # the chunk counts its windows from 0; name the window of the batch
            exc.args = (_WINDOW.sub(lambda m: f"window {int(m[1]) + start}", str(exc), 1),)
            raise
        for value in losses.data.tolist():
            total += value
            if not math.isfinite(total):
                return total * scale
        sum_(losses * scale).backward()
    adam_step(params, state, lr, config.weight_decay)
    return total * scale


def train_loop(model, train_samples, val_samples, config: TrainConfig) -> TrainResult:
    """Seeded mini-batch training with per-epoch validation.

    Gradients are averaged over each batch; the checkpoint with the best
    validation MSE is retained.  ``max_steps`` truncates the run (the
    final partial epoch is still validated and recorded).  A non-finite
    loss, or a NaN score in a step's or a validation's query selection,
    raises ``TrainingDiverged``.  ``val_samples`` may be any iterable of
    windows, a generator too: it is read once, before the first step, and
    every epoch validates on those windows.
    """
    if not train_samples:
        raise ValueError("no training samples")
    val_samples = [] if val_samples is None else list(val_samples)
    rng = np.random.default_rng(config.seed)
    params = model.params
    state = OptimizerState()
    history = []
    best_params = params.clone()
    best_val_mse = float("inf")
    steps = 0
    done = False

    for epoch in range(config.epochs):
        lr = lr_schedule(config, epoch)
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_samples[idx] for idx in order[start:start + config.batch_size]]
            with _gc_paused():
                try:
                    loss_value = _train_step(model, batch, rng, state, lr, config)
                except NaNScoreError as exc:  # only non-finite parameters give a NaN score
                    raise TrainingDiverged(epoch, n_batches, lr, "selection") from exc
            if not np.isfinite(loss_value):
                raise TrainingDiverged(epoch, n_batches, lr)
            epoch_loss += loss_value
            n_batches += 1
            steps += 1
            if config.max_steps is not None and steps >= config.max_steps:
                done = True
                break
        try:
            val = evaluate(model, val_samples) if val_samples else None
        except NaNScoreError as exc:
            raise TrainingDiverged(epoch, n_batches, lr, "validation") from exc
        record = {"epoch": epoch, "lr": lr, "train_loss": epoch_loss / max(n_batches, 1),
                  "steps": steps}
        if val is not None:
            record.update({"val_corr": val.corr, "val_mse": val.mse, "val_mae": val.mae})
            if val.mse < best_val_mse:
                best_val_mse = val.mse
                best_params = params.clone()
        else:
            best_params = params.clone()
        history.append(record)
        if done:
            break
    return TrainResult(best_params=best_params, history=history, steps=steps,
                       best_val_mse=best_val_mse)


# -- checkpoint format ---------------------------------------------------


_CHUNK_BYTES = 1 << 20


def fnv1a64(payload: bytes, h: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a hash of a byte string, the ``HGNT1`` checksum.  Passing
    the hash of the bytes before ``payload`` as ``h`` continues it, so a
    stream hashes in chunks."""
    for b in payload:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _payload_chunks(params: ParamStore):
    """The checkpoint payload in order: per parameter a header (name length
    + UTF-8 name + rank + extents, u64 LE) and then its float64 LE values.

    Parameters smaller than ``_CHUNK_BYTES`` are joined into chunks of about
    that size, so a small model is written and hashed in a few calls; a
    larger parameter is yielded as a byte view of itself, not a copy.
    """
    batch, size = [], 0
    for name, t in params.items():
        encoded = name.encode("utf-8")
        batch += [struct.pack("<Q", len(encoded)), encoded,
                  struct.pack(f"<{1 + t.data.ndim}Q", t.data.ndim, *t.data.shape)]
        values = np.ascontiguousarray(t.data, dtype="<f8").reshape(-1).view(np.uint8)
        if values.nbytes >= _CHUNK_BYTES:
            yield b"".join(batch)
            yield values
            batch, size = [], 0
            continue
        batch.append(values)
        size += values.nbytes
        if size >= _CHUNK_BYTES:
            yield b"".join(batch)
            batch, size = [], 0
    if batch:
        yield b"".join(batch)


def checkpoint_bytes(params: ParamStore) -> bytes:
    """Serialize: magic, the payload, then a BLAKE2b-64 checksum of the payload."""
    payload = b"".join(_payload_chunks(params))
    return CHECKPOINT_MAGIC + payload + hashlib.blake2b(payload, digest_size=8).digest()


def save_checkpoint(params: ParamStore, path):
    """Write the bytes of ``checkpoint_bytes`` chunk by chunk, hashing as it goes."""
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "wb") as fp:
        fp.write(CHECKPOINT_MAGIC)
        for chunk in _payload_chunks(params):
            digest.update(chunk)
            fp.write(chunk)
        fp.write(digest.digest())


def _read_exact(fp, n: int) -> bytes:
    data = fp.read(n)
    if len(data) != n:
        raise ValueError("truncated checkpoint file")
    return data


def _verify_checksum(fp, magic: bytes, size: int) -> None:
    """Hash the next ``size`` bytes of ``fp`` in chunks of at most
    ``_CHUNK_BYTES`` and compare with the u64 that follows them: FNV-1a for
    ``HGNT1``, else BLAKE2b-64."""
    fnv = magic == b"HGNT1"
    state = fnv1a64(b"") if fnv else hashlib.blake2b(digest_size=8)
    chunk = memoryview(bytearray(min(size, _CHUNK_BYTES)))
    while size:
        n = fp.readinto(chunk[:size])
        if not n:
            raise ValueError("truncated checkpoint file")
        if fnv:
            state = fnv1a64(chunk[:n], state)
        else:
            state.update(chunk[:n])
        size -= n
    computed = state if fnv else int.from_bytes(state.digest(), "little")
    if computed != struct.unpack("<Q", _read_exact(fp, 8))[0]:
        raise ValueError("checkpoint checksum mismatch")


def _read_entries(path) -> list:
    """Verify a checkpoint file, then read its (name, array) entries in order.

    Each parameter is read straight into a fresh array, so a load holds the
    payload once.  A header that asks for more bytes than the payload has
    left is rejected before anything is allocated.
    """
    with open(path, "rb") as fp:
        magic = fp.read(len(CHECKPOINT_MAGIC))
        if magic not in _READABLE_MAGICS:
            raise ValueError("not a checkpoint file (bad magic)")
        left = os.fstat(fp.fileno()).st_size - len(magic) - 8
        if left < 0:
            raise ValueError("truncated checkpoint file")
        _verify_checksum(fp, magic, left)
        fp.seek(len(magic))

        def read(n: int) -> bytes:
            nonlocal left
            if n > left:
                raise ValueError("truncated checkpoint file")
            left -= n
            return _read_exact(fp, n)

        def read_u64() -> int:
            return struct.unpack("<Q", read(8))[0]

        entries = []
        while left:
            name = str(read(read_u64()), "utf-8")
            rank = read_u64()
            shape = struct.unpack(f"<{rank}Q", read(8 * rank))
            nbytes = 8 * math.prod(shape)
            if nbytes > left:
                raise ValueError("truncated checkpoint file")
            left -= nbytes
            data = np.empty(shape, dtype="<f8")
            if fp.readinto(data.reshape(-1).view(np.uint8)) != nbytes:
                raise ValueError("truncated checkpoint file")
            entries.append((name, data))
    return entries


def load_checkpoint(path) -> ParamStore:
    """Read a checkpoint after verifying its checksum in bounded chunks."""
    store = ParamStore()
    for name, data in _read_entries(path):
        store.add(name, data)
    return store


def inspect_checkpoint(path) -> dict:
    """Names, shapes and checksum status without loading into a model."""
    entries = _read_entries(path)
    return {
        "parameters": [{"name": n, "shape": list(d.shape), "elements": int(d.size)}
                       for n, d in entries],
        "total_parameters": int(sum(d.size for _, d in entries)),
        "checksum_ok": True,
        "file_bytes": os.path.getsize(path),
    }


def repeat_last_baseline(samples) -> MetricResult:
    """Repeat-the-last-known-value forecaster, the smoke-test yardstick."""
    if not samples:
        raise ValueError("cannot score an empty split")

    def scored():
        for sample in samples:
            if sample.known_tail.shape[0]:
                last = sample.known_tail[-1]
            else:
                last = sample.enc_values[-1, : sample.target.shape[1]]
            yield metrics(sample.target, np.broadcast_to(last, sample.target.shape))

    return _mean_of_windows(scored())
