"""Fast tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every workload path runs at a tiny size, traced and untraced, and each
output check is shown to reject a corrupted output.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sparsecast import Forecaster, ScoreBudget, load_checkpoint, save_checkpoint  # noqa: E402
from sparsecast.model import ModelConfig  # noqa: E402

TINY = {
    "smoke": dict(rows=600, model=dict(L_x=16, label_len=8, L_y=8, d_model=8, n_heads=2,
                                       enc_blocks=3, dec_layers=1),
                  batch_size=4, val_windows=2, eval_windows=8,
                  rounds=2),
    "aiops_paper": dict(rows=500, model=dict(L_x=24, label_len=12, L_y=8, d_model=16,
                                             n_heads=2, enc_blocks=3, dec_layers=1),
                        batch_size=2, val_windows=2, eval_windows=8,
                        rounds=2),
    "long_horizon": dict(rows=700, model=dict(L_x=64, label_len=32, L_y=24, d_model=8,
                                              n_heads=2, enc_blocks=3, dec_layers=1),
                         batch_size=2, val_windows=2, eval_windows=8,
                         rounds=2),
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_path_runs_and_reports(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    # Two steps teach a tiny model little, so the accuracy margin is opened
    # here; test_check_beats covers the margin itself.
    monkeypatch.setattr(workloads, "MARGIN", 1e9)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "10",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.metric_units(ROOT, "per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric]
        assert np.isfinite(entry["value"])
    record = json.loads((HERE / "out" / f"{name}-seed3-trace{trace}.json").read_text())
    assert sum(p["attempted"] for p in record["phases"].values()) == result["attempted"]
    assert record["forecast_calls"] == 40


def test_inputs_follow_the_seed():
    w = tiny("aiops_paper")
    assert np.array_equal(workloads.make_values(w, 5), workloads.make_values(w, 5))
    assert not np.array_equal(workloads.make_values(w, 5), workloads.make_values(w, 6))


def test_csv_text_holds_the_generated_values(tmp_path):
    w = tiny("smoke")
    values = workloads.make_values(w, 2)
    workloads.write_csv(w, values, tmp_path / "in.csv")
    parsed = np.loadtxt(tmp_path / "in.csv", delimiter=",", skiprows=1,
                        usecols=range(1, len(w.columns) + 1))
    assert np.array_equal(parsed, values)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n, p in ((40, 75), (100, 90), (200, 95), (1000, 99)):
        assert run.tail_percentile(n) == p
        samples = list(range(n))
        assert sum(s > run.percentile(samples, p) for s in samples) >= 10
    with pytest.raises(ValueError):
        run.tail_percentile(39)


# -- each check rejects a corrupted output ------------------------------


@pytest.fixture
def tiny_forecast(tmp_path):
    """A tiny model, its reference data and one forecast of a test window."""
    import sparsecast.cli as cli

    w = tiny("smoke")
    values = workloads.make_values(w, 1)
    ref = checks.Reference(w, values)
    workloads.write_csv(w, values, tmp_path / "in.csv")
    config = cli.validate_config(workloads.run_config(w, str(tmp_path / "in.csv")))
    _, _, scaler, model_config, windows = cli.prepare_data(config)
    model = Forecaster(model_config, np.random.default_rng(0))
    sample = windows["test"][3]
    return ref, model, sample, model.predict(sample, scaler, w.output_columns)


def test_forecast_check_rejects_a_perturbed_prediction(tiny_forecast):
    ref, _, _, forecast = tiny_forecast
    ref.check_forecast(forecast)
    forecast.predictions[2, 1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        ref.check_forecast(forecast)


def test_forecast_check_rejects_a_nan(tiny_forecast):
    ref, _, _, forecast = tiny_forecast
    forecast.scaled_predictions[0, 0] = np.nan
    with pytest.raises(checks.CheckFailed):
        ref.check_forecast(forecast)


def test_mse_check_rejects_a_perturbed_prediction(tiny_forecast):
    ref, _, _, forecast = tiny_forecast
    target = ref.target(3)
    predictions = [forecast.scaled_predictions.copy()]
    reported = checks.mean_window_mse(predictions, [target])
    checks.check_mse(reported, predictions, [target])
    predictions[0][1, 0] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_mse(reported, predictions, [target])


def test_target_check_rejects_a_perturbed_target(tiny_forecast):
    ref, _, sample, _ = tiny_forecast
    target = ref.target(3)
    checks.check_close_arrays(sample.target, target, "window target")
    target[1, 0] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_close_arrays(sample.target, target, "window target")


def test_round_trip_check_rejects_a_flipped_checkpoint_byte(tiny_forecast, tmp_path):
    _, model, _, _ = tiny_forecast
    path = tmp_path / "model.hgnt"
    save_checkpoint(model.params, path)
    checks.check_same_params(model.params, load_checkpoint(path))

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(path)

    copy = model.params.clone()
    name = copy.names()[-1]
    copy[name].data.reshape(-1).view(np.uint8)[0] ^= 0x01
    with pytest.raises(checks.CheckFailed):
        checks.check_same_params(model.params, copy)


def test_count_check_matches_a_real_forward_and_rejects_a_wrong_count(tiny_forecast,
                                                                     monkeypatch):
    import sparsecast.attention as attention

    _, model, sample, _ = tiny_forecast
    causal_rows = []
    original = attention.select_top_queries_causal

    def spy(*args, **kwargs):
        chosen = original(*args, **kwargs)
        causal_rows.append(int(chosen.size))
        return chosen

    budget = ScoreBudget()
    monkeypatch.setattr(attention, "select_top_queries_causal", spy)
    model.forward(sample, budget=budget)
    counted = (budget.dot_products_materialized, budget.rows_selected)
    expected = checks.expected_counts(model.config, causal_rows)
    checks.check_counts(counted, expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_counts((counted[0] + 1, counted[1]), expected)
    with pytest.raises(checks.CheckFailed):
        checks.expected_counts(model.config, causal_rows[:-1])


def test_count_law_by_hand():
    config = ModelConfig(L_x=96, label_len=48, L_y=24, d_x=1, d_y=1, d_model=16,
                         n_heads=2, enc_blocks=3)
    # encoder lengths 96, 48, 24 with n = ceil(5 ln L) = 23, 20, 16
    enc = 2 * (23 * 96 + 20 * 48 + 16 * 24)
    dec = 72 * (10 + 12) + 2 * 72 * 24
    assert checks.expected_counts(config, [10, 12]) == (
        enc + dec, 2 * (23 + 20 + 16) + 22 + 2 * 72)


def test_check_beats():
    checks.check_beats(0.7, 1.0, workloads.MARGIN, "reference")
    with pytest.raises(checks.CheckFailed):
        checks.check_beats(0.8, 1.0, workloads.MARGIN, "reference")


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
