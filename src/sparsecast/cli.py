"""Command-line surface: train / eval / predict / bench / ablate / inspect-checkpoint.

Every data-driven subcommand reads one JSON config file (see
``validate_config`` for the schema) and writes its artifacts into an
output directory.  Failures print a single machine-parseable JSON line to
stderr and exit nonzero.
"""

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .ablation import format_table, run_ablation
from .bench import BENCH_KERNELS, bench_attention, check_bench_args, write_bench_csv
from .data import (
    DataError,
    SCALER_MODES,
    SCALER_SCOPES,
    SCHEMAS,
    check_target,
    fit_apply_scaler,
    load_csv,
    make_windows,
    split_622,
)
from .model import Forecaster, ModelConfig
from .training import (
    TrainConfig,
    evaluate,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)


class ConfigError(ValueError):
    pass


def _expect(section: dict, path: str, key: str, types, default="__required__"):
    if key not in section:
        if default == "__required__":
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    value = section[key]
    if get_args(types):  # ``T | None``
        if value is None:
            return None
        (types,) = (t for t in get_args(types) if t is not type(None))
    if types is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected a boolean")
        return value
    if types is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}: expected an integer")
        return value
    if types is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number")
        return float(value)
    if types is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}.{key}: expected a string")
        return value
    raise AssertionError(f"bad validator spec for {path}.{key}")


def _check_choice(value, path: str, key: str, choices):
    if value not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {sorted(choices)}, got {value!r}")
    return value


def _check_unknown(section: dict, path: str, known):
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` becomes a ``ConfigError`` under ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _dataclass_section(section: dict, path: str, cls, from_data=()) -> dict:
    """Validate ``section`` against the fields of the dataclass ``cls``: their
    names, annotated types and defaults; ``cls.__post_init__`` checks the
    values.  Fields in ``from_data`` come from the dataset (1 for the check).
    """
    types = get_type_hints(cls)
    keys = [f for f in fields(cls) if f.name not in from_data]
    _check_unknown(section, path, {f.name for f in keys})
    values = {
        f.name: _expect(section, path, f.name, types[f.name],
                        "__required__" if f.default is MISSING else f.default)
        for f in keys
    }
    _checked(path, cls, **values, **dict.fromkeys(from_data, 1))
    return values


def validate_config(raw: dict) -> dict:
    """Validate the run config and fill defaults.

    Top-level sections: ``dataset`` (path, schema, mode, optional
    target), ``preprocess`` (mode, scope), ``model`` (the fields of
    ``ModelConfig`` but ``d_x``/``d_y``), and ``train`` (the fields of
    ``TrainConfig``).  Errors name the offending key.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    _check_unknown(raw, "config", {"dataset", "preprocess", "model", "train",
                                   "metrics_units"})
    for section in ("dataset", "model"):
        if section not in raw or not isinstance(raw.get(section), dict):
            raise ConfigError(f"config.{section}: missing required section")

    ds = raw["dataset"]
    _check_unknown(ds, "dataset", {"path", "schema", "mode", "target"})
    dataset = {
        "path": _expect(ds, "dataset", "path", str),
        "schema": _check_choice(_expect(ds, "dataset", "schema", str, "generic"),
                                "dataset", "schema", SCHEMAS),
        "mode": _check_choice(_expect(ds, "dataset", "mode", str, "univariate"),
                              "dataset", "mode", ("univariate", "multivariate")),
        "target": _expect(ds, "dataset", "target", str, None),
    }
    _checked("dataset", check_target, dataset["schema"], dataset["target"])

    pp = raw.get("preprocess", {})
    if not isinstance(pp, dict):
        raise ConfigError("config.preprocess: expected an object")
    _check_unknown(pp, "preprocess", {"mode", "scope"})
    preprocess = {
        "mode": _check_choice(_expect(pp, "preprocess", "mode", str, "standardize_per_dim"),
                              "preprocess", "mode", SCALER_MODES),
        "scope": _check_choice(_expect(pp, "preprocess", "scope", str, "train_only"),
                               "preprocess", "scope", SCALER_SCOPES),
    }

    model = _dataclass_section(raw["model"], "model", ModelConfig, from_data=("d_x", "d_y"))
    tr = raw.get("train", {})
    if not isinstance(tr, dict):
        raise ConfigError("config.train: expected an object")
    train = _dataclass_section(tr, "train", TrainConfig)

    units = raw.get("metrics_units", "scaled")
    _check_choice(units, "config", "metrics_units", ("scaled", "original"))
    return {"dataset": dataset, "preprocess": preprocess, "model": model,
            "train": train, "metrics_units": units}


def load_config(path) -> dict:
    try:
        with open(path) as fp:
            raw = json.load(fp)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}")
    return validate_config(raw)


def _scaled_splits(config: dict, L_y: int):
    """Load the dataset named by the config, split it with room for windows
    of horizon ``L_y``, and scale the splits.  Returns the frame, the
    (train, val, test) splits, the scaler and the model config."""
    ds = config["dataset"]
    frame = load_csv(ds["path"], schema=ds["schema"], target=ds["target"])
    md = config["model"]
    train_f, val_f, test_f = split_622(frame, min_len=md["L_x"] + md["h"] + L_y)
    splits, scaler = fit_apply_scaler(
        train_f, [val_f, test_f], mode=config["preprocess"]["mode"],
        scope=config["preprocess"]["scope"])
    dims = len(_output_indices(frame, config))
    return frame, tuple(splits), scaler, ModelConfig(d_x=dims, d_y=dims, **md)


def _split_windows(config: dict, splits, L_y: int) -> dict:
    """Windows of horizon ``L_y`` over each split, keyed train/val/test."""
    md = config["model"]
    univariate = config["dataset"]["mode"] == "univariate"
    return {
        name: make_windows(f, md["L_x"], md["label_len"], L_y, h=md["h"],
                           univariate=univariate)
        for name, f in zip(("train", "val", "test"), splits)
    }


def prepare_data(config: dict):
    """Load, split, scale and window the dataset named by the config."""
    frame, splits, scaler, model_config = _scaled_splits(config, config["model"]["L_y"])
    return frame, splits, scaler, model_config, _split_windows(config, splits,
                                                               model_config.L_y)


def _train_config(config: dict) -> TrainConfig:
    return TrainConfig(**config["train"])


def cmd_train(args) -> int:
    config = load_config(args.config)
    _, _, scaler, model_config, windows = prepare_data(config)
    model = Forecaster(model_config, np.random.default_rng(config["train"]["seed"]))
    result = train_loop(model, windows["train"], windows["val"], _train_config(config))
    model.params.copy_from(result.best_params)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model.params, outdir / "checkpoint.hgnt")
    with open(outdir / "history.json", "w") as fp:
        json.dump(result.history, fp, indent=2)
    test_metrics = evaluate(model, windows["test"])
    with open(outdir / "metrics.json", "w") as fp:
        fp.write(test_metrics.to_json())
    print(f"trained {result.steps} steps; best val MSE {result.best_val_mse:.6f}; "
          f"test MSE {test_metrics.mse:.6f}")
    print(f"artifacts in {outdir}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    frame, _, scaler, model_config, windows = prepare_data(config)
    model = Forecaster(model_config, np.random.default_rng(config["train"]["seed"]))
    model.params.copy_from(load_checkpoint(args.checkpoint))
    units = config["metrics_units"]
    frame_targets = None
    if units == "original":
        frame_targets = _output_indices(frame, config)
    result = evaluate(model, windows["test"], units=units, scaler=scaler,
                      target_columns=frame_targets)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "metrics.json", "w") as fp:
        fp.write(result.to_json())
    print(result.to_json())
    return 0


def _output_indices(frame, config: dict):
    """Frame columns the model predicts: the target(s) or every column."""
    if config["dataset"]["mode"] == "univariate":
        return frame.target_indices()
    return list(range(len(frame.columns)))


def cmd_predict(args) -> int:
    config = load_config(args.config)
    frame, (_, _, test_frame), scaler, model_config, windows = prepare_data(config)
    samples = windows["test"]
    if not 0 <= args.window < len(samples):
        raise ConfigError(f"predict: --window must be in [0, {len(samples)}), "
                          f"got {args.window}")
    sample = samples[args.window]
    model = Forecaster(model_config, np.random.default_rng(config["train"]["seed"]))
    model.params.copy_from(load_checkpoint(args.checkpoint))

    target_idx = _output_indices(test_frame, config)
    columns = [test_frame.columns[i] for i in target_idx]
    forecast = model.predict(sample, scaler=scaler, target_columns=target_idx)
    truth_scaled = sample.target
    truth = scaler.inverse(truth_scaled, columns=target_idx)

    start = sample.origin + model_config.L_x + model_config.h
    stamps = test_frame.timestamps[start:start + model_config.L_y]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "forecast.csv"
    with open(path, "w") as fp:
        if len(columns) == 1:
            fp.write("timestamp,truth,prediction\n")
        else:
            names = ",".join(f"truth_{c},pred_{c}" for c in columns)
            fp.write(f"timestamp,{names}\n")
        for i, ts in enumerate(stamps):
            cells = ",".join(
                f"{float(truth[i, d])!r},{float(forecast.predictions[i, d])!r}"
                for d in range(len(columns))
            )
            fp.write(f"{ts:%Y-%m-%d %H:%M:%S},{cells}\n")
    print(f"wrote {path} ({model_config.L_y} steps)")
    return 0


def _int_list(text: str, path: str):
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ConfigError(f"{path}: expected a comma-separated integer list, got {text!r}")


def cmd_bench(args) -> int:
    settings = dict(batches=_int_list(args.batches, "bench.batches"),
                    seq_lens=_int_list(args.seq_lens, "bench.seq_lens"),
                    kernels=args.kernels.split(",") if args.kernels else list(BENCH_KERNELS),
                    heads=args.heads, dims=args.dims, repeats=args.repeats,
                    warmup=args.warmup, c=args.c, seed=args.seed)
    _checked("bench", check_bench_args, **settings)
    records = bench_attention(**settings)
    path = Path(args.out)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fp:
        write_bench_csv(records, fp)
    print(f"wrote {path} ({len(records)} records)")
    return 0


def cmd_ablate(args) -> int:
    horizons = _int_list(args.horizons, "ablate.horizons")
    if not horizons or min(horizons) < 1:
        raise ConfigError(f"ablate.horizons: must list integers >= 1, got {horizons}")
    config = load_config(args.config)
    train_cfg = _train_config(config)
    if args.steps is not None:
        train_cfg = _checked("train", replace, train_cfg, max_steps=args.steps)
    _, splits, _, base = _scaled_splits(config, max(horizons))
    windows = {horizon: _split_windows(config, splits, horizon) for horizon in horizons}
    train_w, val_w, test_w = ({horizon: w[name] for horizon, w in windows.items()}
                              for name in ("train", "val", "test"))
    rows = run_ablation(base, train_w, val_w, test_w, horizons, train_cfg)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "ablation.json", "w") as fp:
        json.dump([asdict(row) for row in rows], fp, indent=2)
    print(format_table(rows))
    print(f"wrote {outdir / 'ablation.json'}")
    return 0


def cmd_inspect(args) -> int:
    info = inspect_checkpoint(args.checkpoint)
    print(json.dumps(info, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecast",
        description="Long-sequence forecasting with learned sparse attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="emit one forecast window as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--window", type=int, default=0,
                   help="index of the test window to forecast")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("bench", help="attention-kernel microbenchmark")
    p.add_argument("--batches", default="1,4,16,32,64")
    p.add_argument("--seq-lens", default="64,128,256,512,768,1024")
    p.add_argument("--kernels", default="")
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--dims", type=int, default=64)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--c", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("ablate", help="run the 8-variant ablation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--horizons", required=True,
                   help="comma-separated prediction lengths")
    p.add_argument("--steps", type=int, default=None,
                   help="cap optimizer steps per variant")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("inspect-checkpoint", help="list checkpoint contents")
    p.add_argument("checkpoint")
    p.set_defaults(fn=cmd_inspect)
    return parser


def cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, DataError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
