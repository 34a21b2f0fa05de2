"""Workload definitions and the benchmark's own input generator.

Inputs come from this file's numpy code, never from the program's
``synthetic_*`` helpers, so they stay the same when the program changes.
The same seed always gives the same CSV bytes.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

# The 20-column operations schema, as the program's ``aiops`` loader expects it.
AIOPS_COLUMNS = (
    "SP1A-DASD-RESP", "SP1A-DASD-RATE", "SP1B-DASD-RESP", "SP1B-DASD-RATE",
    "SP1C-DASD-RESP", "SP1C-DASD-RATE", "SP1D-DASD-RESP", "SP1D-DASD-RATE",
    "SP1A-MEM", "SP1B-MEM", "SP1C-MEM", "SP1D-MEM",
    "N-TASKS", "TPS", "SP1A-THOUT", "SP1B-THOUT", "SP1C-THOUT", "SP1D-THOUT",
    "SYSPLEX-MIPS", "RESP-TIME",
)
START = datetime(2021, 1, 4)
MODEL_SEED = 1   # weights of the trained model; the workload seed only shapes the data
TRAIN_SEED = 1
STEPS_PER_ROUND = 2  # train steps of the one train_loop call each round makes
MARGIN = 0.8     # the trained test MSE must be below MARGIN x the reference forecast's
# Closed-loop predict calls per second of --seconds.  At the usual ten seconds
# that is 40 calls, the fewest that have a tail percentile; their p75 lies
# well above the share of calls that a preempted vCPU slows.
FORECASTS_PER_SECOND = 4


@dataclass(frozen=True)
class Workload:
    """Everything one run does, in fixed amounts.

    The run makes ``rounds`` rounds.  Each trains with one ``train_loop``
    call of ``STEPS_PER_ROUND`` steps, scores and forecasts ``eval_windows /
    rounds`` test windows, and saves and loads the checkpoint.
    ``FORECASTS_PER_SECOND`` turns ``--seconds`` into a fixed count of
    ``predict`` calls, so the tail percentile never depends on how fast the
    machine is.
    """

    name: str
    rows: int
    columns: tuple
    schema: str
    tick_minutes: int
    mode: str
    model: dict
    batch_size: int
    lr: float
    val_windows: int
    eval_windows: int
    reference: str                 # "repeat_last" or "untrained"
    rounds: int

    @property
    def output_columns(self) -> list:
        """Column indices the model predicts; the target is always the last column."""
        n = len(self.columns)
        return [n - 1] if self.mode == "univariate" else list(range(n))

    def forecast_calls_per_round(self, seconds: int) -> int:
        """Closed-loop predict calls per round for a run of ``seconds``: whole
        passes over the round's share of the evaluated windows."""
        share = self.eval_windows // self.rounds
        wanted = max(1, seconds) * FORECASTS_PER_SECOND / self.rounds
        return max(1, math.ceil(wanted / share)) * share


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="smoke", rows=8760, columns=("cpu", "mem", "latency"), schema="generic",
            tick_minutes=60, mode="multivariate",
            model=dict(L_x=48, label_len=24, L_y=24, d_model=32, n_heads=2,
                       enc_blocks=3, dec_layers=1),
            batch_size=32, lr=1e-3, val_windows=16,
            eval_windows=40, reference="repeat_last", rounds=10),
        Workload(
            name="aiops_paper", rows=14400, columns=AIOPS_COLUMNS, schema="aiops",
            tick_minutes=5, mode="multivariate",
            model=dict(L_x=96, label_len=48, L_y=24, d_model=128, n_heads=8,
                       enc_blocks=3, dec_layers=1),
            batch_size=8, lr=1e-3, val_windows=8,
            eval_windows=40, reference="untrained", rounds=4),
        Workload(
            name="long_horizon", rows=17280, columns=AIOPS_COLUMNS, schema="aiops",
            tick_minutes=5, mode="univariate",
            model=dict(L_x=1440, label_len=720, L_y=576, d_model=64, n_heads=4,
                       enc_blocks=3, dec_layers=1),
            batch_size=2, lr=3e-4, val_windows=2,
            eval_windows=20, reference="repeat_last", rounds=4),
    )
}


def make_values(workload: Workload, seed: int) -> np.ndarray:
    """(rows, columns) float64 series: a positive level, a daily and a weekly
    cycle, and Gaussian noise.

    The seed draws each column's level and the noise.  Cycle amplitudes and
    the noise are fixed shares of the level and the cycle phases are fixed
    per column, so after scaling every seed is equally hard to forecast and
    ``test_mse`` moves little from seed to seed.  Values are whole
    thousandths, so the CSV text and these floats are the same numbers.
    """
    rng = np.random.default_rng(seed)
    n_cols = len(workload.columns)
    t = np.arange(workload.rows, dtype=np.float64)[:, None]
    day = 24 * 60 / workload.tick_minutes
    phase = 2 * np.pi * np.arange(n_cols) / n_cols
    level = rng.uniform(50.0, 150.0, n_cols)
    values = level * (1.0
                      + 0.25 * np.sin(2 * np.pi * t / day + phase)
                      + 0.08 * np.sin(2 * np.pi * t / (7 * day) + 2 * phase)
                      + 0.03 * rng.standard_normal((workload.rows, n_cols)))
    return np.rint(values * 1000.0) / 1000.0


def write_csv(workload: Workload, values: np.ndarray, path) -> None:
    """Write the timestamp-first CSV the program's loader reads."""
    tick = timedelta(minutes=workload.tick_minutes)
    millis = np.rint(values * 1000.0).astype(np.int64)
    if (millis < 0).any():
        raise ValueError("the CSV writer handles non-negative values only")
    with open(path, "w") as fp:
        fp.write(",".join(("date",) + tuple(workload.columns)) + "\n")
        for i, row in enumerate(millis):
            cells = ",".join(f"{m // 1000}.{m % 1000:03d}" for m in row.tolist())
            fp.write(f"{START + i * tick:%Y-%m-%d %H:%M:%S},{cells}\n")


def run_config(workload: Workload, csv_path: str) -> dict:
    """The raw JSON-style config ``validate_config`` receives."""
    return {
        "dataset": {"path": csv_path, "schema": workload.schema, "mode": workload.mode},
        "preprocess": {"mode": "standardize_per_dim", "scope": "train_only"},
        "model": dict(workload.model),
        "train": {"lr": workload.lr, "batch_size": workload.batch_size, "epochs": 1,
                  "max_steps": STEPS_PER_ROUND, "seed": TRAIN_SEED},
    }


def split_rows(rows: int):
    """The 6:2:2 chronological split law: (train, val, test) row counts."""
    n_train = int(0.6 * rows)
    n_val = (rows - n_train) // 2
    return n_train, n_val, rows - n_train - n_val


def evenly_spaced(count: int, total: int) -> np.ndarray:
    """``count`` window indices spread over ``total`` windows, first and last included."""
    if count > total:
        raise ValueError(f"asked for {count} windows out of {total}")
    return np.linspace(0, total - 1, count).round().astype(np.intp)
