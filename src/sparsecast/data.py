"""CSV ingestion, scaling, chronological splits, window generation, metrics.

Frames are immutable after load; the windows of one split are a read-only
sequence built on access, so samples never straddle a split boundary.
"""

import csv
import io
import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .embedding import STAMP_CATEGORIES

SCHEMAS = ("ett", "aiops", "generic")
SCALER_MODES = ("standardize_per_dim", "normalize_per_dim", "standardize_global",
                "normalize_global", "none")
SCALER_SCOPES = ("train_only", "train_plus_test")

AIOPS_COLUMNS = [
    "SP1A-DASD-RESP", "SP1A-DASD-RATE", "SP1B-DASD-RESP", "SP1B-DASD-RATE",
    "SP1C-DASD-RESP", "SP1C-DASD-RATE", "SP1D-DASD-RESP", "SP1D-DASD-RATE",
    "SP1A-MEM", "SP1B-MEM", "SP1C-MEM", "SP1D-MEM",
    "N-TASKS", "TPS", "SP1A-THOUT", "SP1B-THOUT", "SP1C-THOUT", "SP1D-THOUT",
    "SYSPLEX-MIPS", "RESP-TIME",
]
AIOPS_TARGET = "RESP-TIME"
ETT_TARGET = "OT"
SCHEMA_TARGETS = {"aiops": AIOPS_TARGET, "ett": ETT_TARGET}


class DataError(ValueError):
    pass


@dataclass
class TimeSeriesFrame:
    """Uniformly sampled multivariate series with named float64 columns.
    Its errors name ``data row N`` (from 1) and that row's timestamp."""

    timestamps: list
    values: np.ndarray  # (L, D)
    columns: list
    target_columns: list

    def __post_init__(self):
        self._check_values()
        for i, name in enumerate(self.columns):
            if name in self.columns[:i]:
                raise DataError(f"frame repeats column {name!r} "
                                f"(columns {self.columns.index(name) + 1} and {i + 1})")
        ts = self.timestamps
        if len(ts) >= 2:
            try:
                gaps = list(map(operator.sub, ts[1:], ts[:-1]))
            except TypeError:  # datetime refuses to subtract naive and aware stamps
                naive = ts[0].utcoffset() is None
                row = next(i for i, t in enumerate(ts) if (t.utcoffset() is None) != naive)
                raise DataError(f"data row {row + 1} ({ts[row]}): mixes naive and UTC-offset "
                                f"timestamps (data row 1 is {ts[0]})") from None
            step = gaps[0]
            if step <= timedelta(0):
                raise DataError("timestamps must be strictly increasing")
            if gaps.count(step) != len(gaps):
                row = next(i for i, gap in enumerate(gaps, start=1) if gap != step)
                raise DataError(f"irregular timestamp spacing at data row {row + 1} ({ts[row]})")

    def _check_values(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise DataError("values shape does not match column names")
        if len(self.timestamps) != self.values.shape[0]:
            raise DataError("timestamp count does not match row count")
        finite = np.isfinite(self.values)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise DataError(f"frame contains non-finite values: first at data row {row + 1} "
                            f"({self.timestamps[row]}), column {self.columns[col]!r}: "
                            f"{self.values[row, col]}")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def interval(self) -> timedelta:
        if len(self.timestamps) < 2:
            raise DataError("need at least two rows to know the sampling interval")
        return self.timestamps[1] - self.timestamps[0]

    def target_indices(self) -> list:
        return [self.columns.index(c) for c in self.target_columns]

    def _derive(self, timestamps: list, values: np.ndarray) -> "TimeSeriesFrame":
        """A frame over rows of this one, whose spacing is already checked."""
        frame = object.__new__(TimeSeriesFrame)
        frame.timestamps, frame.values = timestamps, values
        frame.columns, frame.target_columns = list(self.columns), list(self.target_columns)
        return frame

    def slice(self, start: int, stop: int) -> "TimeSeriesFrame":
        return self._derive(self.timestamps[start:stop], self.values[start:stop].copy())

    def with_values(self, values: np.ndarray) -> "TimeSeriesFrame":
        frame = self._derive(list(self.timestamps), values)
        frame._check_values()
        return frame


def check_target(schema: str, target: str | None) -> None:
    """Reject a target other than the schema's own; ``generic`` takes any."""
    own = SCHEMA_TARGETS.get(schema)
    if own is not None and target not in (None, own):
        raise DataError(f"target: the {schema} schema predicts {own!r}, got {target!r}")


def _parse_timestamp(text: str, lineno: int) -> datetime:
    stripped = text.strip()
    try:
        return datetime.fromisoformat(stripped)
    except ValueError:
        pass
    try:
        return datetime.strptime(stripped, "%Y-%m-%d %H:%M:%S")
    except ValueError as exc:
        raise DataError(f"line {lineno}: cannot parse timestamp {text!r}") from exc


def _raise_bad_cell(columns, cells, lineno: int):
    """Name the first cell of a row that ``float`` rejects."""
    for col, cell in zip(columns, cells):
        try:
            float(cell)
        except ValueError:
            raise DataError(
                f"line {lineno}, column {col!r}: non-numeric cell {cell!r}"
            ) from None
    raise AssertionError(f"line {lineno}: no cell failed to parse on the second pass")


# What the fast pass reads: a header of printable ASCII without quotes, and
# a body of plain numbers, commas, newlines and timestamps shaped like
# _STAMP, whose byte 10 is a space or "T" and which end at byte 19.
_HEADER_BYTES = bytes(range(32, 127)).replace(b'"', b"")
_BODY_BYTES = b"0123456789.,-+eE:T \n"
_STAMP = np.frombuffer(b"0000-00-00 00:00:00\0", dtype=np.uint8)
_DIGITS = _STAMP == ord("0")
_FIXED = ~_DIGITS & (np.arange(_STAMP.size) != 10)
_FIRST_DAY = np.datetime64("0001-01-01", "s")  # datetime's first day


def _read_fast(data: bytes):
    """(columns, timestamps, values) from one ``np.loadtxt`` pass, or None when
    the file is not one this pass reads exactly as ``_read_rows`` does."""
    head, _, body = data.partition(b"\n")
    if (head.translate(None, _HEADER_BYTES) or body.translate(None, _BODY_BYTES)
            or not body.strip(b"\n")):
        return None
    header = head.decode("ascii").split(",")
    if len(header) < 2:
        return None
    row = np.dtype([("stamp", f"S{_STAMP.size}"), ("values", np.float64, (len(header) - 1,))])
    try:
        rows = np.loadtxt(io.BytesIO(body), dtype=row, delimiter=",", comments=None, ndmin=1)
    except ValueError:  # a ragged or whitespace-only row, or a cell that is no number
        return None
    stamps = np.ascontiguousarray(rows["stamp"])
    chars = stamps.view(np.uint8).reshape(len(stamps), _STAMP.size)
    if not ((chars[:, _DIGITS] - ord("0") < 10).all()
            and (chars[:, _FIXED] == _STAMP[_FIXED]).all()
            and np.isin(chars[:, 10], (ord(" "), ord("T"))).all()):
        return None
    try:
        when = stamps.astype("datetime64[s]")
    except ValueError:  # a day, hour or second out of range
        return None
    if when.min() < _FIRST_DAY:
        return None
    return ([c.strip() for c in header[1:]], when.tolist(),
            np.ascontiguousarray(rows["values"]))


def _read_rows(path):
    """(columns, timestamps, values) through ``csv.reader``, one row and cell
    at a time; names the file line (``line N``) of the first bad row or cell."""
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
        columns = [c.strip() for c in header[1:]]
        timestamps, rows = [], []
        for record in reader:
            if not record:
                continue
            lineno = reader.line_num
            if len(record) != len(header):
                raise DataError(f"line {lineno}: expected {len(header)} cells, got {len(record)}")
            timestamps.append(_parse_timestamp(record[0], lineno))
            try:
                rows.append(list(map(float, record[1:])))
            except ValueError:
                _raise_bad_cell(columns, record[1:], lineno)
    if not rows:
        raise DataError("CSV has a header but no data rows")
    return columns, timestamps, np.asarray(rows, dtype=np.float64)


def load_csv(path, schema: str = "generic", target: str | None = None) -> TimeSeriesFrame:
    """Load a header + timestamp-first CSV file into a frame.

    Schemas: ``ett`` expects 7 numeric columns with an ``OT`` target;
    ``aiops`` expects 20 numeric columns with a ``RESP-TIME`` target and
    5-minute sampling; ``generic`` accepts anything (target defaults to
    the last column).  A ``target`` other than the schema's own is an error.
    Every schema needs at least one value column, each named once; header
    column 1 is the timestamp.

    An ASCII file of plain numbers and ``YYYY-MM-DD HH:MM:SS`` timestamps is
    parsed in one numpy pass; any other file, and every file with a fault,
    goes through the per-row reader, which gives the same frame and names
    the fault.
    """
    if schema not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}")
    check_target(schema, target)
    with open(path, "rb") as fp:
        parsed = _read_fast(fp.read())
    columns, timestamps, values = parsed if parsed is not None else _read_rows(path)
    if not columns:
        raise DataError("CSV has no value columns")
    for i, name in enumerate(columns):
        if name in columns[:i]:
            raise DataError(f"CSV header repeats value column {name!r} "
                            f"(header columns {columns.index(name) + 2} and {i + 2})")

    if schema == "aiops":
        if len(columns) != 20:
            raise DataError(f"aiops schema expects 20 columns, found {len(columns)}")
        if AIOPS_TARGET not in columns:
            raise DataError(f"aiops schema requires a {AIOPS_TARGET!r} column")
        target_columns = [AIOPS_TARGET]
    elif schema == "ett":
        if len(columns) != 7:
            raise DataError(f"ett schema expects 7 columns, found {len(columns)}")
        if ETT_TARGET not in columns:
            raise DataError(f"ett schema requires an {ETT_TARGET!r} column")
        target_columns = [ETT_TARGET]
    else:
        if target is not None and target not in columns:
            raise DataError(f"target column {target!r} not in CSV header")
        target_columns = [target if target is not None else columns[-1]]

    frame = TimeSeriesFrame(timestamps, values, columns, target_columns)
    if schema == "aiops" and frame.interval != timedelta(minutes=5):
        raise DataError(f"aiops schema expects 5-minute sampling, found {frame.interval}")
    return frame


def split_622(frame: TimeSeriesFrame, min_len: int = 2):
    """Chronological 6:2:2 split.

    train gets floor(0.6 L); validation and test share the remainder
    (validation floor, test the rest), so L=101583 yields
    60949/20317/20317 and L=10 yields 6/2/2.  Every split must be able to
    hold at least one window of ``min_len`` rows.
    """
    L = len(frame)
    n_train = int(0.6 * L)
    n_val = (L - n_train) // 2
    n_test = L - n_train - n_val
    if min(n_train, n_val, n_test) < min_len:
        raise DataError(
            f"split of length-{L} frame too short for windows of {min_len} rows "
            f"(train={n_train}, val={n_val}, test={n_test})"
        )
    return (frame.slice(0, n_train),
            frame.slice(n_train, n_train + n_val),
            frame.slice(n_train + n_val, L))


class StandardScaler:
    """Invertible per-dimension or global scaling with a fixed fit scope.

    ``standardize_*`` subtracts the mean and divides by the population
    std; ``normalize_*`` maps min..max to [0, 1].  ``*_global`` modes use
    one statistic across every dimension.
    """

    def __init__(self, mode: str = "standardize_per_dim"):
        if mode not in SCALER_MODES:
            raise DataError(f"unknown scaler mode {mode!r}")
        self.mode = mode
        self.shift_ = None
        self.scale_ = None

    def fit(self, values: np.ndarray, columns=None) -> "StandardScaler":
        values = np.asarray(values, dtype=np.float64)
        names = columns if columns is not None else [str(i) for i in range(values.shape[1])]
        if self.mode == "none":
            self.shift_ = np.zeros(values.shape[1])
            self.scale_ = np.ones(values.shape[1])
            return self
        if self.mode == "standardize_per_dim":
            shift = values.mean(axis=0)
            scale = values.std(axis=0)
        elif self.mode == "normalize_per_dim":
            shift = values.min(axis=0)
            scale = values.max(axis=0) - shift
        elif self.mode == "standardize_global":
            shift = np.full(values.shape[1], values.mean())
            scale = np.full(values.shape[1], values.std())
        else:  # normalize_global
            lo = values.min()
            shift = np.full(values.shape[1], lo)
            scale = np.full(values.shape[1], values.max() - lo)
        tiny = scale <= 1e-12
        if tiny.any():
            raise DataError(
                f"cannot fit {self.mode!r}: zero spread in column {names[int(np.nonzero(tiny)[0][0])]!r}"
            )
        self.shift_, self.scale_ = shift, scale
        return self

    def _check_fitted(self):
        if self.shift_ is None:
            raise DataError("scaler is not fitted")

    def apply(self, values: np.ndarray, columns=None) -> np.ndarray:
        self._check_fitted()
        shift, scale = self._select(columns)
        return (np.asarray(values, dtype=np.float64) - shift) / scale

    def inverse(self, values: np.ndarray, columns=None) -> np.ndarray:
        self._check_fitted()
        shift, scale = self._select(columns)
        return np.asarray(values, dtype=np.float64) * scale + shift

    def _select(self, columns):
        if columns is None:
            return self.shift_, self.scale_
        idx = np.asarray(columns, dtype=np.intp)
        return self.shift_[idx], self.scale_[idx]


def fit_apply_scaler(train: TimeSeriesFrame, others, mode: str = "standardize_per_dim",
                     scope: str = "train_only"):
    """Fit a scaler on the chosen scope and apply it to every frame.

    ``others`` is (validation, test).  With ``scope="train_only"`` the
    statistics never see anything outside the training split; with
    ``scope="train_plus_test"`` they pool train and the final (test)
    frame, which reproduces the unified-processing comparison but leaks.
    Returns ([scaled train, *scaled others], scaler).
    """
    if scope not in SCALER_SCOPES:
        raise DataError(f"unknown scaler scope {scope!r}")
    scaler = StandardScaler(mode)
    if scope == "train_only" or not others:
        fit_values = train.values
    else:
        fit_values = np.vstack([train.values, others[-1].values])
    scaler.fit(fit_values, columns=train.columns)
    frames = [train, *others]
    return [f.with_values(scaler.apply(f.values)) for f in frames], scaler


_EPOCH_ORDINAL = datetime(1970, 1, 1).toordinal()


def timestamp_features(timestamps) -> np.ndarray:
    """(L, 5) integer stamp matrix: month, day, weekday, hour, 15-minute bucket.

    Fields are those of each timestamp's own (wall-clock) date and time;
    calendar arithmetic runs on whole days since 1970-01-01 (a Thursday).
    """
    n = len(timestamps)
    days = np.fromiter((ts.toordinal() for ts in timestamps), dtype=np.int64,
                       count=n) - _EPOCH_ORDINAL
    minutes = np.fromiter((ts.hour * 60 + ts.minute for ts in timestamps), dtype=np.int64,
                          count=n)
    dates = days.astype("datetime64[D]")
    months = dates.astype("datetime64[M]")
    out = np.empty((n, len(STAMP_CATEGORIES)), dtype=np.intp)
    out[:, 0] = months.astype(np.int64) % 12 + 1
    out[:, 1] = (dates - months).astype(np.int64) + 1
    out[:, 2] = (days + 3) % 7
    out[:, 3] = minutes // 60
    out[:, 4] = minutes % 60 // 15
    return out


@dataclass
class WindowSample:
    """One training example: encoder window, calendar stamps, decoder warm
    start, and the target horizon block."""

    enc_values: np.ndarray   # (L_x, d_x)
    enc_stamps: np.ndarray   # (L_x, 5)
    dec_stamps: np.ndarray   # (label_len + L_y, 5)
    known_tail: np.ndarray   # (label_len, d_y)
    target: np.ndarray       # (L_y, d_y)
    origin: int = 0


class Windows(Sequence):
    """The stride-1 windows of one split, each ``WindowSample`` built on
    access from the split's shared read-only value and stamp arrays.

    Indexing takes negative indices and raises ``IndexError`` out of range,
    like a list; a slice gives a list of the windows it selects.
    """

    def __init__(self, values: np.ndarray, stamps: np.ndarray, L_x: int, label_len: int,
                 L_y: int, h: int):
        self._values, self._stamps = values, stamps
        self._L_x, self._label_len, self._L_y, self._h = L_x, label_len, L_y, h
        self._origins = range(len(values) - (L_x + h + L_y) + 1)

    def __len__(self) -> int:
        return len(self._origins)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._window(t) for t in self._origins[index]]
        try:
            t = self._origins[index]
        except IndexError:
            raise IndexError(f"window index {index} out of range ({len(self)} windows)") from None
        return self._window(t)

    def __iter__(self):
        return map(self._window, self._origins)

    def _window(self, t: int) -> WindowSample:
        values, stamps, label_len, L_y = self._values, self._stamps, self._label_len, self._L_y
        enc_stop = t + self._L_x
        tgt_start = enc_stop + self._h
        if self._h == 0:
            dec_stamps = stamps[enc_stop - label_len:tgt_start + L_y]
        else:
            dec_stamps = np.vstack([stamps[enc_stop - label_len:enc_stop],
                                    stamps[tgt_start:tgt_start + L_y]])
            dec_stamps.setflags(write=False)
        return WindowSample(
            enc_values=values[t:enc_stop],
            enc_stamps=stamps[t:enc_stop],
            dec_stamps=dec_stamps,
            known_tail=values[enc_stop - label_len:enc_stop],
            target=values[tgt_start:tgt_start + L_y],
            origin=t,
        )


def make_windows(frame: TimeSeriesFrame, L_x: int, label_len: int, L_y: int,
                 h: int = 0, univariate: bool = False) -> Windows:
    """Stride-1 sliding windows over one split.

    The count is L - L_x - h - L_y + 1.  Univariate mode uses the target
    column(s) as both input and output; multivariate mode feeds every
    column and predicts every column.

    The split's stamp matrix and value columns are built once, and every
    window field is a read-only view into them, so the windows cost
    O(L) memory rather than O(L * L_x), and each window is only built when
    it is read.  Only ``h > 0`` copies: the decoder stamps then skip the gap
    between warm start and target.
    """
    L = len(frame)
    needed = L_x + h + L_y
    if L < needed:
        raise DataError(f"frame of length {L} too short for windows of {needed} rows")
    if label_len > L_x:
        raise DataError(f"label_len={label_len} exceeds L_x={L_x}")
    # Inputs and outputs are the same columns in both modes.  C order keeps
    # each window's rows contiguous, so its view is a contiguous block.
    columns = frame.target_indices() if univariate else list(range(len(frame.columns)))
    values = np.ascontiguousarray(frame.values[:, columns])
    stamps = timestamp_features(frame.timestamps)
    for shared in (values, stamps):
        shared.setflags(write=False)
    return Windows(values, stamps, L_x, label_len, L_y, h)


@dataclass
class MetricResult:
    """Pearson correlation, mean squared error, mean absolute error."""

    corr: float
    mse: float
    mae: float
    n: int
    flags: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"corr": self.corr, "mse": self.mse, "mae": self.mae,
                           "n": self.n, "flags": self.flags})


def _pearson(y: np.ndarray, y_hat: np.ndarray):
    yc = y - y.mean()
    pc = y_hat - y_hat.mean()
    denom_y = np.sqrt((yc * yc).sum())
    denom_p = np.sqrt((pc * pc).sum())
    flags = []
    if denom_y <= 0.0:
        flags.append("zero_variance_truth")
    if denom_p <= 0.0:
        flags.append("zero_variance_prediction")
    if flags:
        return 0.0, flags
    return float((yc * pc).sum() / (denom_y * denom_p)), flags


def metrics(y, y_hat) -> MetricResult:
    """CORR / MSE / MAE between truth and prediction.

    Multivariate inputs score correlation per output dimension and
    average; MSE and MAE run over every entry.  A zero-variance series,
    as every one-row block is, reports correlation 0 with a flag instead
    of failing.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DataError(f"shape mismatch: truth {y.shape} vs prediction {y_hat.shape}")
    if y.ndim == 0 or y.size == 0:
        raise DataError("metrics need at least one row")
    y2 = y.reshape(y.shape[0], -1)
    p2 = y_hat.reshape(y.shape[0], -1)
    corrs, flags = [], []
    for d in range(y2.shape[1]):
        corr_d, flag_d = _pearson(y2[:, d], p2[:, d])
        corrs.append(corr_d)
        flags.extend(f"{f}_dim{d}" if y2.shape[1] > 1 else f for f in flag_d)
    diff = p2 - y2
    return MetricResult(
        corr=float(np.mean(corrs)),
        mse=float(np.mean(diff * diff)),
        mae=float(np.mean(np.abs(diff))),
        n=int(y.shape[0]),
        flags=flags,
    )


def synthetic_seasonal_frame(length: int, dims: int, periods=(96, 24),
                             amplitudes=(1.0, 0.4), noise: float = 0.1,
                             interval_minutes: int = 60, seed: int = 0,
                             start: str = "2020-01-01 00:00:00",
                             columns=None, target: str | None = None) -> TimeSeriesFrame:
    """Sum-of-sinusoids test series with per-dimension phase offsets."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)[:, None]
    phase = rng.uniform(0.0, 2 * np.pi, size=(2, dims))
    values = np.zeros((length, dims))
    for (period, amp, ph) in zip(periods, amplitudes, phase):
        values += amp * np.sin(2 * np.pi * t / period + ph[None, :])
    values += rng.normal(0.0, noise, size=values.shape)
    start_ts = datetime.strptime(start, "%Y-%m-%d %H:%M:%S")
    timestamps = [start_ts + timedelta(minutes=interval_minutes * i) for i in range(length)]
    if columns is None:
        columns = [f"series_{i}" for i in range(dims)]
    target_columns = [target if target is not None else columns[-1]]
    return TimeSeriesFrame(timestamps, values, list(columns), target_columns)


def synthetic_aiops_frame(length: int, seed: int = 0) -> TimeSeriesFrame:
    """A frame that matches the 20-column operations schema (5-minute ticks)."""
    frame = synthetic_seasonal_frame(length, dims=20, periods=(288, 12),
                                     amplitudes=(1.0, 0.3), noise=0.05,
                                     interval_minutes=5, seed=seed,
                                     columns=AIOPS_COLUMNS, target=AIOPS_TARGET)
    return frame


def write_csv(frame: TimeSeriesFrame, path):
    """Write a frame back out in the loader's CSV dialect."""
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["date", *frame.columns])
        for ts, row in zip(frame.timestamps, frame.values):
            writer.writerow([ts.strftime("%Y-%m-%d %H:%M:%S"), *[repr(float(v)) for v in row]])
