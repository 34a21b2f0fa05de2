"""End-to-end benchmark of sparsecast: one workload, one process.

    python3 perfbench/run.py --workload smoke --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/`` there and drives it only through its public API.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A fuller record of the run
(environment, per-phase operation counts, every figure, and with
tracing the spans) goes to ``perfbench/out/``.  See README.md.

Modules that load numpy are imported inside functions, after ``main`` has
fixed the BLAS thread count.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
PHASES = ("train_steps", "eval_windows", "predict_calls", "checkpoint_saves",
          "checkpoint_loads")


class Ops:
    """Operations attempted and failed, per phase."""

    def __init__(self):
        self.phases = {name: {"attempted": 0, "failed": 0} for name in PHASES}

    def run(self, phase: str, count: int, fn, *args, **kwargs):
        self.phases[phase]["attempted"] += count
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.phases[phase]["failed"] += count
            raise

    def total(self, key: str) -> int:
        return sum(p[key] for p in self.phases.values())


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    if n < 40:
        raise ValueError(f"a tail needs at least 40 samples, got {n}")
    return (100 * (n - 10)) // n


def percentile(samples, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def run_workload(sc, workload, seed: int, seconds: int, tracer, ops: Ops,
                 out_dir: Path) -> dict:
    """Run every phase of one workload; return figures, counts and checks.

    The run makes ``workload.rounds`` rounds.  Each sets up again, trains
    for ``STEPS_PER_ROUND`` steps more, scores and forecasts its share of
    the test subset, and saves and loads the checkpoint.  Spreading every
    measured phase over the whole run keeps a few slow seconds of a shared
    machine from moving one figure alone.  The fully trained model's
    accuracy is then taken once more over the whole test subset, untimed.
    """
    import numpy as np

    import checks
    from workloads import (MARGIN, MODEL_SEED, STEPS_PER_ROUND, TRAIN_SEED, evenly_spaced,
                           make_values, run_config, write_csv)

    values = make_values(workload, seed)
    ref = checks.Reference(workload, values)
    stem = out_dir / f"{workload.name}-seed{seed}"
    csv_path = Path(f"{stem}.csv")
    ckpt_path = Path(f"{stem}.hgnt")
    write_csv(workload, values, csv_path)
    raw = run_config(workload, str(csv_path))
    setup_s, train_rates, eval_rates, latency_ms, untraced_ms, save_s, load_s = (
        [] for _ in range(7))

    def set_up():
        """What `sparsecast train` pays before its first step."""
        gc.collect()
        with tracer.span("phase.setup"):
            start = time.perf_counter()
            config = sc.cli.validate_config(raw)
            data = sc.cli.prepare_data(config)
            model = sc.model.Forecaster(data[3], np.random.default_rng(MODEL_SEED))
            setup_s.append(time.perf_counter() - start)
        if len(data[4]["test"]) != ref.window_count():
            raise checks.CheckFailed(f"{len(data[4]['test'])} test windows, expected "
                                     f"{ref.window_count()} from the split and window laws")
        return config, data, model

    def untraced_predict(model, sample, scaler, columns) -> float:
        """Milliseconds of one ``predict`` with every tracing wrapper taken out."""
        with tracer.paused():
            start = time.perf_counter_ns()
            model.predict(sample, scaler, columns)
            return (time.perf_counter_ns() - start) / 1e6

    def evaluate(model, samples):
        with tracer.span("phase.eval"):
            seconds_taken, result = ops.run("eval_windows", len(samples), timed,
                                            sc.training.evaluate, model, samples)
        return seconds_taken, result.mse * len(samples)

    eval_idx = evenly_spaced(workload.eval_windows, ref.window_count())
    columns = workload.output_columns
    calls_per_round = workload.forecast_calls_per_round(seconds)
    trained = fresh = None
    eval_samples, targets = [], []
    untrained_sq = 0.0
    for r, chunk in enumerate(np.split(eval_idx, workload.rounds)):
        data = untrained = None
        config, data, untrained = set_up()
        windows, scaler = data[4], data[2]
        if trained is None:
            trained = sc.model.Forecaster(data[3], np.random.default_rng(MODEL_SEED))
            fresh = sc.model.Forecaster(data[3], np.random.default_rng(MODEL_SEED + 1))
        samples = [windows["test"][i] for i in chunk]
        for i, sample in zip(chunk, samples):
            targets.append(ref.target(int(i)))
            checks.check_close_arrays(sample.target, targets[-1],
                                      "window target and CSV rows")
        eval_samples += samples

        # training: one train_loop call of a fixed step budget on its own
        # batches (seed), going on from the parameters the last call left
        if STEPS_PER_ROUND * workload.batch_size > len(windows["train"]):
            raise ValueError("the step budget needs more than one epoch of windows")
        val_sub = [windows["val"][i] for i in evenly_spaced(workload.val_windows,
                                                            len(windows["val"]))]
        train_config = sc.training.TrainConfig(**{**config["train"], "seed": TRAIN_SEED + r})
        with tracer.span("phase.train"), tracer.counting_gc():
            train_s, result = ops.run("train_steps", STEPS_PER_ROUND, timed,
                                      sc.training.train_loop, trained, windows["train"],
                                      val_sub, train_config)
        if result.steps != STEPS_PER_ROUND:
            raise checks.CheckFailed(f"train_loop ran {result.steps} steps, asked for "
                                     f"{STEPS_PER_ROUND}")
        trained.params.copy_from(result.best_params)
        train_rates.append(STEPS_PER_ROUND * workload.batch_size / train_s)
        val_sub = result = None

        # offline scoring: the untrained and the trained model on the same windows
        seconds_untrained, sq = evaluate(untrained, samples)
        untrained_sq += sq
        seconds_trained, _ = evaluate(trained, samples)
        eval_rates.append(2 * len(samples) / (seconds_untrained + seconds_trained))

        # online forecasting: one caller, one window per call, closed loop.  A
        # traced run also makes each call unwrapped, first on every other call,
        # so that neither side always finds the caches warmed by the other.
        for k in range(calls_per_round):
            sample = samples[k % len(samples)]
            if tracer.enabled and k % 2 == 0:
                untraced_ms.append(untraced_predict(trained, sample, scaler, columns))
            with tracer.span("phase.forecast"):
                start = time.perf_counter_ns()
                forecast = ops.run("predict_calls", 1, trained.predict, sample, scaler,
                                   columns)
                latency_ms.append((time.perf_counter_ns() - start) / 1e6)
            if tracer.enabled and k % 2 == 1:
                untraced_ms.append(untraced_predict(trained, sample, scaler, columns))
            ref.check_forecast(forecast)
            if k == 0:
                first = forecast.scaled_predictions

        # checkpoint round trip
        with tracer.span("phase.checkpoint_save"):
            seconds_taken, _ = ops.run("checkpoint_saves", 1, timed,
                                       sc.training.save_checkpoint, trained.params, ckpt_path)
        save_s.append(seconds_taken)
        with tracer.span("phase.checkpoint_load"):
            start = time.perf_counter()
            loaded = ops.run("checkpoint_loads", 1, sc.training.load_checkpoint, ckpt_path)
            fresh.params.copy_from(loaded)
            load_s.append(time.perf_counter() - start)
        checks.check_same_params(trained.params, fresh.params)
        checks.check_same_arrays(fresh.predict(samples[0]).scaled_predictions, first,
                                 "predictions before and after the checkpoint round trip")

    # accuracy of the fully trained model, untimed: evaluate and predict
    # every window of the test subset
    n_eval = len(eval_samples)
    test_mse = ops.run("eval_windows", n_eval, sc.training.evaluate, trained, eval_samples).mse
    scaled = [ops.run("predict_calls", 1, trained.predict, sample).scaled_predictions
              for sample in eval_samples]
    checks.check_mse(test_mse, scaled, targets)
    if workload.reference == "repeat_last":
        reference = checks.mean_window_mse(
            np.stack([ref.repeat_last(int(i)) for i in eval_idx]), targets)
    else:
        reference = untrained_sq / n_eval
    checks.check_beats(test_mse, reference, MARGIN, workload.reference)

    tail = tail_percentile(len(latency_ms))
    fig = {
        "setup_s": statistics.median(setup_s),
        "train_windows_per_s": statistics.median(train_rates),
        "eval_windows_per_s": statistics.median(eval_rates),
        "forecast_ms.p50": statistics.median(latency_ms),
        "forecast_ms.tail": percentile(latency_ms, tail),
        "checkpoint_save_s": statistics.median(save_s),
        "checkpoint_load_s": statistics.median(load_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_mse": test_mse,
    }
    for path in (csv_path, ckpt_path):
        path.unlink()

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "end_to_end": fig, "phases": ops.phases,
        "forecast_calls": len(latency_ms), "forecast_tail_percentile": tail,
        "reference_mse": reference, "untrained_mse": untrained_sq / n_eval,
        "setup_s_all": setup_s, "train_windows_per_s_all": train_rates,
        "forecast_ms_all": latency_ms,
        "attempted": ops.total("attempted"), "failed": ops.total("failed"),
    }
    if tracer.enabled:
        checks.check_counts(tracer.counted, tracer.derived)
        record["tape_walk_ms_per_step"] = (tracer.tape_walk_ns / 1e6
                                           / (workload.rounds * STEPS_PER_ROUND))
        record["per_layer"] = per_layer(tracer, workload, data[4],
                                        statistics.median(latency_ms),
                                        statistics.median(untraced_ms))
    return record


def window_mb(windows: dict) -> float:
    """Megabytes of memory the arrays of all built windows hold, each buffer once."""
    owners = {}
    for split in windows.values():
        for sample in split:
            for arr in (sample.enc_values, sample.enc_stamps, sample.dec_stamps,
                        sample.known_tail, sample.target):
                while arr.base is not None:
                    arr = arr.base
                owners[id(arr)] = arr.nbytes
    return sum(owners.values()) / 2**20


def per_layer(tracer, workload, windows: dict, traced_p50: float,
              untraced_p50: float) -> dict:
    """Per-layer figures from the spans and counters of a traced run."""
    from workloads import STEPS_PER_ROUND

    own = tracer.self_ns()
    steps, setups = workload.rounds * STEPS_PER_ROUND, workload.rounds
    per_window = lambda name: own[name] / 1e6 / tracer.forwards  # noqa: E731
    per_step = lambda name: own[name] / 1e6 / steps  # noqa: E731
    hash_s = own["training.checkpoint_hash"] / 1e9
    io_s = (tracer.total_ns("phase.checkpoint_save")
            + tracer.total_ns("phase.checkpoint_load")) / 1e9 - hash_s
    return {
        "data.load_csv_s": own["data.load_csv"] / 1e9 / setups,
        "data.make_windows_s": own["data.make_windows"] / 1e9 / setups,
        "data.window_mb": window_mb(windows),
        "embedding.forward_ms": per_window("embedding.forward"),
        "encoder.attention_ms": per_window("encoder.attention"),
        "encoder.ffn_ms": per_window("encoder.ffn"),
        "encoder.distill_ms": per_window("encoder.distill"),
        "model.decoder_self_attention_ms": per_window("model.decoder_self_attention"),
        "model.decoder_cross_attention_ms": per_window("model.decoder_cross_attention"),
        "model.decoder_ffn_ms": per_window("model.decoder_ffn"),
        "attention.score_ms": per_window("attention.score"),
        "attention.select_ms": per_window("attention.select"),
        "attention.select_causal_ms": per_window("attention.select_causal"),
        "attention.dot_products_per_window": tracer.counted[0] / tracer.forwards,
        "tensor.ops_per_window": tracer.tape_nodes / tracer.tape_windows,
        "tensor.backward_ms": per_step("tensor.backward"),
        "tensor.zero_grad_ms": per_step("tensor.zero_grad"),
        "training.loss_forward_ms": tracer.total_ns("training.loss") / 1e6 / tracer.loss_calls,
        "training.adam_step_ms": per_step("training.adam_step"),
        "training.validate_s": (tracer.total_ns("training.validate") / 1e9
                                / workload.rounds),
        "training.checkpoint_hash_s": hash_s / workload.rounds,
        "training.checkpoint_io_s": io_s / workload.rounds,
        "runtime.gc_ms_per_step": tracer.gc_ns / 1e6 / steps,
        "runtime.gc_collections_per_step": tracer.gc_count / steps,
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
    }


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
    }


def metric_units(root: Path, kind: str) -> dict:
    """Metric name to unit, for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program(root: Path):
    """Import sparsecast from ``root/src``, and from nowhere else."""
    src = root / "src"
    if not (src / "sparsecast" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {src / 'sparsecast'} is missing")
    sys.path.insert(0, str(src))
    import sparsecast
    import sparsecast.cli

    if Path(sparsecast.__file__).resolve().parent != (src / "sparsecast").resolve():
        raise SystemExit(f"imported sparsecast from {sparsecast.__file__}, not {src}")
    return sparsecast


def main(argv=None) -> int:
    # fixed before numpy loads, so every run uses the same BLAS thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    sc = import_program(root)
    from tracing import NullTracer, Tracer

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install(sc)
    ops = Ops()
    try:
        record = run_workload(sc, WORKLOADS[args.workload], args.seed, args.seconds,
                              tracer, ops, out_dir)
    except Exception as exc:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "error": f"{type(exc).__name__}: {exc}", "phases": ops.phases}),
              file=sys.stderr)
        return 1
    finally:
        if args.trace:
            tracer.uninstall()
    record["environment"] = environment(root)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fp:
        json.dump(record, fp, indent=1)
    if args.trace:
        with open(f"{stem}.spans.json", "w") as fp:
            json.dump(tracer.spans, fp)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    units = metric_units(root, "per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit(f"BENCHMARK.json and the run disagree on metrics: "
                         f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({
        "correct": True, "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
