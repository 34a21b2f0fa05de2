"""sparsecast: long-sequence multivariate time-series forecasting with
learned sparse attention, built on a small float64 autodiff tensor core."""

from .attention import (
    ScoreBudget,
    attend,
    attend_kind,
    counting,
    importance_scores,
    select_top_queries,
    top_n_count,
)
from .bench import BenchRecord, bench_attention, write_bench_csv
from .data import (
    MetricResult,
    StandardScaler,
    TimeSeriesFrame,
    WindowSample,
    fit_apply_scaler,
    load_csv,
    make_windows,
    metrics,
    split_622,
    synthetic_seasonal_frame,
)
from .embedding import positional_encoding
from .encoder import distill_step, encoder_output_length
from .model import Forecast, Forecaster, ModelConfig, build_decoder_input, mse_loss
from .tensor import ParamStore, Tensor, finite_diff_check, no_grad
from .training import (
    TrainConfig,
    adam_step,
    evaluate,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train_loop,
)
from .ablation import VARIANTS, run_ablation

__version__ = "0.1.0"
