"""Ablation matrix over the three architecture toggles.

Toggles: E = gated embedding (off: ungated sum), D = parallel-pooling
distillation (off: max-pool only), N = learned-score sparse attention
(off: sampled-score baseline).  The eight variants run with identical
seed and data; only the toggled code paths differ.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .attention import ScoreBudget
from .model import Forecaster, ModelConfig, variant_config
from .tensor import no_grad
from .training import TrainConfig, evaluate, train_loop

# variant name -> (E, D, N)
VARIANTS = {
    "none": (False, False, False),
    "M0": (True, False, False),
    "M1": (False, True, False),
    "M2": (False, False, True),
    "M3": (True, True, False),
    "M4": (True, False, True),
    "M5": (False, True, True),
    "full": (True, True, True),
}


@dataclass
class AblationRow:
    variant: str
    horizon: int
    toggles: dict
    train_seconds: float
    corr: float
    mse: float
    mae: float
    attention_kernel: str
    dot_products_sample: int
    failed: bool = False
    error: str = ""


def run_ablation(base_config: ModelConfig, train_samples: dict, val_samples: dict,
                 test_samples: dict, horizons, train_config: TrainConfig,
                 variants=None) -> list:
    """Train every variant at every horizon and collect one row each.

    ``train_samples`` etc. map horizon -> window list (the window shape
    depends on the horizon).  Variants run sequentially with the same
    seed so comparisons stay paired; a variant that fails to train is
    recorded as failed and the grid continues.
    """
    names = list(variants) if variants is not None else list(VARIANTS)
    rows = []
    for name in names:
        emb, dist, neural = VARIANTS[name]
        for horizon in horizons:
            config = variant_config(base_config, embedding=emb, distill=dist,
                                    neural_sparse=neural)
            config = replace(config, L_y=horizon)
            toggles = {"E": emb, "D": dist, "N": neural}
            try:
                model = Forecaster(config, np.random.default_rng(train_config.seed))
                start = time.perf_counter()
                result = train_loop(model, train_samples[horizon],
                                    val_samples[horizon], train_config)
                elapsed = time.perf_counter() - start
                model.params.copy_from(result.best_params)
                score = evaluate(model, test_samples[horizon])
                budget = ScoreBudget()
                with no_grad():
                    model.forward(test_samples[horizon][0], budget=budget)
                rows.append(AblationRow(
                    variant=name, horizon=horizon, toggles=toggles,
                    train_seconds=elapsed, corr=score.corr, mse=score.mse,
                    mae=score.mae, attention_kernel=config.attention,
                    dot_products_sample=budget.dot_products_materialized,
                ))
            except Exception as exc:  # keep the grid going
                rows.append(AblationRow(
                    variant=name, horizon=horizon, toggles=toggles,
                    train_seconds=0.0, corr=float("nan"), mse=float("nan"),
                    mae=float("nan"), attention_kernel=config.attention,
                    dot_products_sample=-1, failed=True, error=str(exc),
                ))
    return rows


def format_table(rows) -> str:
    """Human-readable grid, one line per (variant, horizon)."""
    header = f"{'variant':<8}{'horizon':>8}{'time(s)':>10}{'CORR':>9}{'MSE':>9}{'MAE':>9}  kernel"
    lines = [header, "-" * len(header)]
    for row in rows:
        status = " FAILED" if row.failed else ""
        lines.append(
            f"{row.variant:<8}{row.horizon:>8}{row.train_seconds:>10.2f}"
            f"{row.corr:>9.3f}{row.mse:>9.3f}{row.mae:>9.3f}  {row.attention_kernel}{status}"
        )
    return "\n".join(lines)
