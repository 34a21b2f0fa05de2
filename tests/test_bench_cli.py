"""Benchmark-harness and CLI tests: counter laws, CSV contracts, subcommands."""

import json
import math
from dataclasses import MISSING, asdict, fields

import numpy as np
import numpy.testing as npt
import pytest

from sparsecast.ablation import VARIANTS, run_ablation
from sparsecast.attention import KINDS, attend, attend_kind, importance_scores, top_n_count
from sparsecast.bench import CSV_HEADER, bench_attention, bench_csv_text
from sparsecast import cli as cli_module
from sparsecast.cli import cli, validate_config, ConfigError
from sparsecast.data import synthetic_aiops_frame, write_csv, make_windows, split_622, \
    fit_apply_scaler
from sparsecast.model import ModelConfig
from sparsecast.tensor import Tensor
from sparsecast.training import TrainConfig


class TestBenchCounters:
    def test_counter_law_small_grid(self):
        records = bench_attention(batches=[2], seq_lens=[16, 32],
                                  kernels=["canonical", "neural_sparse"],
                                  heads=4, dims=8, repeats=2, warmup=0, c=2.0)
        for r in records:
            n = top_n_count(r.seq_len, 2.0)
            if r.kernel == "canonical":
                assert r.dot_products == r.heads * r.batch * r.seq_len**2
            else:
                assert r.dot_products == r.heads * r.batch * n * r.seq_len

    def test_counters_identical_across_runs(self):
        a = bench_attention(batches=[2], seq_lens=[16], kernels=["prob_sparse"],
                            heads=2, dims=4, repeats=3, warmup=0)
        b = bench_attention(batches=[2], seq_lens=[16], kernels=["prob_sparse"],
                            heads=2, dims=4, repeats=3, warmup=0)
        assert a[0].dot_products == b[0].dot_products
        assert a[0].peak_bytes == b[0].peak_bytes

    def test_length_one_kernels_coincide(self):
        rng = np.random.default_rng(0)
        q, k, v = rng.standard_normal((3, 1, 4))
        dense = attend(q, k, v, 1).data
        scores = importance_scores(q, k, Tensor(rng.standard_normal((1, 4, 3))))[:, 0]
        sparse = attend(q, k, v, 1, np.reshape(scores, (1, -1)), c=5.0).data
        prob = attend_kind("prob_sparse", q, k, v, 1, 5.0, rng=np.random.default_rng(1)).data
        npt.assert_allclose(dense, sparse, atol=1e-12)
        npt.assert_allclose(dense, prob, atol=1e-12)
        npt.assert_allclose(dense, v, atol=1e-12)

    def test_failed_cell_recorded_and_sweep_continues(self, monkeypatch):
        import sparsecast.bench as bench_mod

        original = bench_mod._run_once
        def flaky(kernel, q, k, v, c, sk, sb, seed):
            if q.shape[1] == 16:
                raise MemoryError
            return original(kernel, q, k, v, c, sk, sb, seed)

        monkeypatch.setattr(bench_mod, "_run_once", flaky)
        records = bench_attention(batches=[1], seq_lens=[8, 16], kernels=["canonical"],
                                  heads=2, dims=4, repeats=1, warmup=0)
        assert len(records) == 2
        ok = {r.seq_len: r for r in records}
        assert not ok[8].failed and ok[8].median_ns >= 0
        assert ok[16].failed and ok[16].median_ns == -1 and ok[16].dot_products == -1

    def test_masked_kernels_count_causal_rows(self):
        records = bench_attention(batches=[2], seq_lens=[16, 32],
                                  kernels=["masked_canonical", "masked_neural_sparse",
                                           "masked_prob_sparse"],
                                  heads=4, dims=8, repeats=1, warmup=0, c=2.0)
        assert [r.kernel for r in records[::2]] == ["masked_canonical",
                                                    "masked_neural_sparse",
                                                    "masked_prob_sparse"]
        for r in records:
            L = r.seq_len
            if r.kernel == "masked_canonical":
                assert r.dot_products == r.heads * r.batch * L * L
                assert r.peak_bytes == r.heads * L * L * 8
            else:
                # each kept row costs L; every causal head keeps row 0 and
                # fewer than all L rows at c = 2
                sampled = r.heads * r.batch * L * top_n_count(L, 2.0)
                attended = r.dot_products - (sampled if "prob" in r.kernel else 0)
                assert attended % L == 0
                assert r.heads * r.batch * L <= attended < r.heads * r.batch * L * L

    def test_default_kernel_seeds_unchanged_by_masked_kernels(self):
        alone = bench_attention(batches=[1], seq_lens=[16], kernels=["prob_sparse"],
                                heads=2, dims=4, repeats=1, warmup=0)
        mixed = bench_attention(batches=[1], seq_lens=[16],
                                kernels=["masked_prob_sparse", "prob_sparse"],
                                heads=2, dims=4, repeats=1, warmup=0)
        assert mixed[1].dot_products == alone[0].dot_products
        assert mixed[1].peak_bytes == alone[0].peak_bytes

    def test_peak_bytes_hold_every_head_at_once(self):
        record = bench_attention(batches=[1], seq_lens=[16], kernels=["canonical"],
                                 heads=4, dims=4, repeats=1, warmup=0)[0]
        assert record.peak_bytes == 4 * 16 * 16 * 8

    def test_phases_attributed_to_their_kernels(self):
        records = bench_attention(batches=[1], seq_lens=[32], kernels=KINDS,
                                  heads=2, dims=4, repeats=1, warmup=0, c=2.0)
        assert [r.kernel for r in records] == list(KINDS)
        for r in records:
            if r.kernel.endswith("canonical"):
                assert r.t1_ns == r.t2_ns == 0 < r.t3_ns, r
            else:
                assert r.t1_ns > 0 and r.t2_ns > 0 and r.t3_ns > 0, r
            assert r.t1_ns + r.t2_ns + r.t3_ns <= r.median_ns, r

    @pytest.mark.parametrize("repeats", [2, 4])
    def test_even_repeats_report_a_real_repeat(self, repeats):
        records = bench_attention(batches=[1], seq_lens=[32], kernels=KINDS,
                                  heads=2, dims=4, repeats=repeats, warmup=0, c=2.0)
        for r in records:
            assert r.t1_ns + r.t2_ns + r.t3_ns <= r.median_ns, r

    def test_csv_header_is_pinned(self):
        records = bench_attention(batches=[1], seq_lens=[8], kernels=["canonical"],
                                  heads=2, dims=4, repeats=1, warmup=0)
        text = bench_csv_text(records)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert CSV_HEADER == ["kernel", "batch", "seq_len", "heads", "dims",
                              "median_ns", "dot_products", "peak_bytes",
                              "t1_ns", "t2_ns", "t3_ns"]


def _aiops_csv(tmp_path, length=260):
    frame = synthetic_aiops_frame(length, seed=3)
    path = tmp_path / "aiops.csv"
    write_csv(frame, path)
    return path


def _config(tmp_path, csv_path, **model_overrides):
    model = {"L_x": 12, "label_len": 6, "L_y": 4, "d_model": 8, "n_heads": 2,
             "enc_blocks": 2, "dropout": 0.0}
    model.update(model_overrides)
    config = {
        "dataset": {"path": str(csv_path), "schema": "aiops", "mode": "univariate"},
        "preprocess": {"mode": "standardize_per_dim", "scope": "train_only"},
        "model": model,
        "train": {"lr": 1e-3, "batch_size": 4, "epochs": 2, "seed": 1, "max_steps": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _no_load(*args, **kwargs):
    raise AssertionError("the dataset was loaded")


class TestConfigValidation:
    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="model.L_x"):
            validate_config({"dataset": {"path": "x", "schema": "generic"},
                             "model": {"label_len": 1, "L_y": 1}})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="model.window"):
            validate_config({"dataset": {"path": "x"},
                             "model": {"L_x": 8, "label_len": 2, "L_y": 2, "window": 5}})

    def test_bad_type_named(self):
        with pytest.raises(ConfigError, match="train.batch_size"):
            validate_config({"dataset": {"path": "x"},
                             "model": {"L_x": 8, "label_len": 2, "L_y": 2},
                             "train": {"batch_size": "many"}})

    def test_bad_choice_named(self):
        with pytest.raises(ConfigError, match="preprocess.mode"):
            validate_config({"dataset": {"path": "x"},
                             "preprocess": {"mode": "other"},
                             "model": {"L_x": 8, "label_len": 2, "L_y": 2}})

    def test_sections_are_the_dataclass_fields(self):
        config = validate_config({"dataset": {"path": "x"},
                                  "model": {"L_x": 8, "label_len": 2, "L_y": 2}})
        model_defaults = {f.name: f.default for f in fields(ModelConfig)
                          if f.name not in ("d_x", "d_y") and f.default is not MISSING}
        assert config["model"] == {"L_x": 8, "label_len": 2, "L_y": 2, **model_defaults}
        assert set(config["model"]) == {f.name for f in fields(ModelConfig)} - {"d_x", "d_y"}
        assert config["train"] == asdict(TrainConfig())

    def test_optional_int_accepts_null(self):
        config = validate_config({"dataset": {"path": "x"},
                                  "model": {"L_x": 8, "label_len": 2, "L_y": 2, "d_ff": None},
                                  "train": {"max_steps": None}})
        assert config["model"]["d_ff"] is None and config["train"]["max_steps"] is None
        with pytest.raises(ConfigError, match="train.max_steps: expected an integer"):
            validate_config({"dataset": {"path": "x"},
                             "model": {"L_x": 8, "label_len": 2, "L_y": 2},
                             "train": {"max_steps": 2.5}})


class TestCli:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": {"path": "x"}, "model": {}}))
        code = cli(["train", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "model.L_x" in err["message"]

    @pytest.mark.parametrize("section, key, value", [
        ("model", "n_heads", 0),
        ("model", "enc_blocks", 0),
        ("model", "dec_layers", 0),
        ("model", "dropout", 1.0),
        ("model", "dropout", -0.1),
        ("model", "distill", "x"),
        ("model", "d_model", 0),
        ("model", "d_model", 7),
        ("model", "d_model", 12),
        ("model", "c", 0.5),
        ("train", "batch_size", 0),
        ("train", "epochs", 0),
        ("train", "lr_step_epochs", 0),
        ("train", "max_steps", 0),
    ])
    def test_out_of_range_setting_exits_2(self, tmp_path, capsys, section, key, value):
        # eight heads, so d_model 12 is out of range
        config = _config(tmp_path, _aiops_csv(tmp_path), n_heads=8)
        raw = json.loads(config.read_text())
        raw[section][key] = value
        config.write_text(json.dumps(raw))
        code = cli(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["message"].startswith(f"{section}.{key}: ")

    @pytest.mark.parametrize("L_x", [0, 1, 2])
    def test_L_x_too_short_for_the_encoder_exits_2(self, tmp_path, capsys, L_x):
        """Three encoder blocks halve L_x twice, so L_x below 3 exits 2
        naming ``model.L_x`` before the dataset is read."""
        config = _config(tmp_path, tmp_path / "missing.csv", L_x=L_x, label_len=0,
                         enc_blocks=3)
        code = cli(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["message"] == f"model.L_x: must be >= 2^1 + 1 for enc_blocks=3, got {L_x}"

    @pytest.mark.parametrize("section, key, value", [
        *((section, f.name, value)
          for section, cls in (("model", ModelConfig), ("train", TrainConfig))
          for f in fields(cls) if f.type is float
          for value in (math.nan, math.inf, -math.inf)),
        ("train", "lr", -1e-3),
        ("train", "weight_decay", -5.0),
        ("train", "lr_decay", -1.0),
    ])
    def test_non_finite_or_negative_float_exits_2(self, tmp_path, capsys, section, key,
                                                  value):
        """Every float key rejects NaN and +-Infinity, which Python's json
        reads, and the rates reject a negative value, with exit 2 naming
        the key before any training."""
        config = _config(tmp_path, _aiops_csv(tmp_path))
        raw = json.loads(config.read_text())
        raw[section][key] = value
        config.write_text(json.dumps(raw))
        code = cli(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["message"].startswith(f"{section}.{key}: must be ")
        assert not (tmp_path / "out").exists()

    def test_huge_lr_exits_1_with_training_diverged(self, tmp_path, capsys):
        """A finite but huge lr passes the config checks; the first Adam step
        makes the parameters non-finite, and the run exits 1 naming the
        divergence in the second step's query selection, not the NaN score
        itself."""
        config = _config(tmp_path, _aiops_csv(tmp_path, length=300))
        raw = json.loads(config.read_text())
        raw["train"]["lr"] = 1e300
        config.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            code = cli(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "TrainingDiverged",
            "message": "NaN selection score at epoch 0, batch 1, lr 1.000e+300"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("schema, target", [
        ("aiops", "nope"), ("aiops", "SP1A-MEM"), ("ett", "nope"), ("ett", "HUFL"),
    ])
    def test_target_other_than_the_schemas_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   schema, target):
        config = _config(tmp_path, tmp_path / "unread.csv")
        raw = json.loads(config.read_text())
        raw["dataset"].update(schema=schema, target=target)
        config.write_text(json.dumps(raw))
        monkeypatch.setattr(cli_module, "load_csv", _no_load)
        code = cli(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["message"].startswith("dataset.target: ")
        own = {"aiops": "RESP-TIME", "ett": "OT"}[schema]
        raw["dataset"]["target"] = own
        assert validate_config(raw)["dataset"]["target"] == own

    @pytest.mark.parametrize("horizons", ["0", "-3", "", "4,0"])
    def test_ablate_horizons_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  horizons):
        config = _config(tmp_path, _aiops_csv(tmp_path))
        monkeypatch.setattr(cli_module, "load_csv", _no_load)
        code = cli(["ablate", "--config", str(config), "--horizons", horizons,
                    "--steps", "1", "--out", str(tmp_path / "ab")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["message"].startswith("ablate.horizons: ")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_directory_exits_1_naming_it(self, tmp_path, capsys, command):
        config = _config(tmp_path, _aiops_csv(tmp_path))
        folder = tmp_path / "ckpt"
        folder.mkdir()
        code = cli([command, "--config", str(config), "--checkpoint", str(folder),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "IsADirectoryError"
        assert str(folder) in err["message"]

    def test_ablate_steps_out_of_range_exits_2(self, tmp_path, capsys):
        config = _config(tmp_path, _aiops_csv(tmp_path))
        code = cli(["ablate", "--config", str(config), "--horizons", "4",
                    "--steps", "0", "--out", str(tmp_path / "ab")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["message"].startswith("train.max_steps: ")

    def test_train_eval_predict_pipeline(self, tmp_path, capsys):
        csv_path = _aiops_csv(tmp_path)
        config = _config(tmp_path, csv_path)
        out = tmp_path / "out"
        assert cli(["train", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "checkpoint.hgnt").exists()
        history = json.loads((out / "history.json").read_text())
        assert history and "train_loss" in history[0]
        scores = json.loads((out / "metrics.json").read_text())
        assert set(scores) == {"corr", "mse", "mae", "n", "flags"}

        assert cli(["eval", "--config", str(config), "--checkpoint",
                    str(out / "checkpoint.hgnt"), "--out", str(out)]) == 0

        assert cli(["predict", "--config", str(config), "--checkpoint",
                    str(out / "checkpoint.hgnt"), "--out", str(out), "--window", "3"]) == 0
        lines = (out / "forecast.csv").read_text().strip().splitlines()
        assert lines[0] == "timestamp,truth,prediction"
        assert len(lines) == 1 + 4  # header + L_y rows
        cells = lines[1].split(",")
        assert len(cells) == 3
        float(cells[1]), float(cells[2])  # numeric payload

    def test_multivariate_predict_names_every_column(self, tmp_path):
        csv_path = _aiops_csv(tmp_path)
        config = _config(tmp_path, csv_path)
        raw = json.loads(config.read_text())
        raw["dataset"]["mode"] = "multivariate"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli(["train", "--config", str(config), "--out", str(out)]) == 0
        assert cli(["predict", "--config", str(config), "--checkpoint",
                    str(out / "checkpoint.hgnt"), "--out", str(out), "--window", "0"]) == 0
        lines = (out / "forecast.csv").read_text().strip().splitlines()
        columns = synthetic_aiops_frame(20, seed=3).columns
        assert len(columns) == 20
        assert lines[0] == "timestamp," + ",".join(f"truth_{c},pred_{c}" for c in columns)
        assert len(lines) == 1 + 4  # header + L_y rows
        assert all(len(line.split(",")) == 1 + 2 * 20 for line in lines[1:])

    def test_train_with_one_step_horizon_exits_0(self, tmp_path):
        """``L_y`` 1 windows score one row each: validation and test report
        CORR 0 with flags instead of failing after the training steps."""
        config = _config(tmp_path, _aiops_csv(tmp_path), L_y=1)
        out = tmp_path / "out"
        assert cli(["train", "--config", str(config), "--out", str(out)]) == 0
        scores = json.loads((out / "metrics.json").read_text())
        assert scores["corr"] == 0.0 and "zero_variance_truth" in scores["flags"]

    def test_eval_original_units_reads_csv_once(self, tmp_path, monkeypatch):
        csv_path = _aiops_csv(tmp_path)
        config = _config(tmp_path, csv_path)
        out = tmp_path / "out"
        assert cli(["train", "--config", str(config), "--out", str(out)]) == 0
        scaled = json.loads((out / "metrics.json").read_text())
        raw = json.loads(config.read_text())
        raw["metrics_units"] = "original"
        config.write_text(json.dumps(raw))
        reads = []
        real_load = cli_module.load_csv
        monkeypatch.setattr(cli_module, "load_csv",
                            lambda *a, **k: reads.append(a) or real_load(*a, **k))
        assert cli(["eval", "--config", str(config), "--checkpoint",
                    str(out / "checkpoint.hgnt"), "--out", str(out)]) == 0
        assert len(reads) == 1
        original = json.loads((out / "metrics.json").read_text())
        # Univariate: errors scale by the target column's training std.
        frame = real_load(csv_path, schema="aiops")
        train_f, _, _ = split_622(frame)
        std = train_f.values[:, frame.target_indices()[0]].std()
        assert original["mse"] == pytest.approx(scaled["mse"] * std**2, rel=1e-9)
        assert original["mae"] == pytest.approx(scaled["mae"] * std, rel=1e-9)
        assert original["corr"] == pytest.approx(scaled["corr"], abs=1e-9)

    def test_inspect_checkpoint_output(self, tmp_path, capsys):
        csv_path = _aiops_csv(tmp_path)
        config = _config(tmp_path, csv_path)
        out = tmp_path / "out"
        cli(["train", "--config", str(config), "--out", str(out)])
        capsys.readouterr()
        assert cli(["inspect-checkpoint", str(out / "checkpoint.hgnt")]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["checksum_ok"] and info["total_parameters"] > 0

    def test_bench_grid_row_count(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli(["bench", "--batches", "1,2", "--seq-lens", "8,16,32",
                    "--heads", "2", "--dims", "4", "--repeats", "1", "--warmup", "0",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 * 3 * 3  # three kernels by default

    def test_bench_accepts_masked_kernels(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli(["bench", "--batches", "1", "--seq-lens", "8", "--kernels",
                    "masked_canonical,masked_neural_sparse,masked_prob_sparse",
                    "--heads", "2", "--dims", "4", "--repeats", "1", "--warmup", "0",
                    "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            "masked_canonical", "masked_neural_sparse", "masked_prob_sparse"]

    @pytest.mark.parametrize("flags, name, value", [
        (["--heads", "0"], "heads", 0),
        (["--dims", "0"], "dims", 0),
        (["--seq-lens", "0"], "seq_lens", [0]),
        (["--seq-lens", "8,x"], "seq_lens", None),
        (["--batches", "0"], "batches", [0]),
        (["--warmup", "-1"], "warmup", -1),
        (["--repeats", "0"], "repeats", 0),
        (["--c", "0.5", "--kernels", "neural_sparse"], "c", 0.5),
        (["--kernels", "canonical,dense"], "kernels", ["canonical", "dense"]),
        (["--seed", "-1"], "seed", -1),
    ])
    def test_bench_setting_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch,
                                                flags, name, value):
        import sparsecast.bench as bench_mod

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench_mod, "_run_once", no_cell)
        out = tmp_path / "bench.csv"
        code = cli(["bench", "--batches", "1", "--seq-lens", "8", "--repeats", "1",
                    "--warmup", "0", *flags, "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["message"].startswith(f"bench.{name}: ")
        assert not out.exists()
        if value is None:  # not a list of integers: the CLI's own parse rejects it
            return
        settings = dict(batches=[1], seq_lens=[8], kernels=["canonical"], repeats=1,
                        warmup=0)
        with pytest.raises(ValueError, match=f"^{name}: "):
            bench_attention(**{**settings, name: value})

    def test_bench_error_inside_the_sweep_exits_1(self, tmp_path, capsys, monkeypatch):
        import sparsecast.bench as bench_mod

        def broken_cell(*args):
            raise ValueError("cell failed")

        monkeypatch.setattr(bench_mod, "_run_once", broken_cell)
        code = cli(["bench", "--batches", "1", "--seq-lens", "8", "--repeats", "1",
                    "--warmup", "0", "--out", str(tmp_path / "bench.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "cell failed"}

    def test_missing_dataset_file(self, tmp_path, capsys):
        config = _config(tmp_path, tmp_path / "nope.csv")
        code = cli(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code != 0
        assert capsys.readouterr().err.strip()

    def test_ablate_emits_grid(self, tmp_path, capsys):
        csv_path = _aiops_csv(tmp_path)
        config = _config(tmp_path, csv_path)
        out = tmp_path / "ab"
        code = cli(["ablate", "--config", str(config), "--horizons", "4",
                    "--steps", "2", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert len(rows) == 8
        assert all(list(r) == ["variant", "horizon", "toggles", "train_seconds", "corr",
                               "mse", "mae", "attention_kernel", "dot_products_sample",
                               "failed", "error"] for r in rows)
        assert {r["variant"] for r in rows} == set(VARIANTS)
        assert all(not r["failed"] for r in rows)


class TestAblationRunner:
    def test_toggles_swap_kernels_and_counters(self, tmp_path):
        frame = synthetic_aiops_frame(200, seed=5)
        train_f, val_f, test_f = split_622(frame, min_len=16)
        (train_s, val_s, test_s), _ = fit_apply_scaler(train_f, [val_f, test_f])
        windows = {4: make_windows(train_s, 8, 4, 4, univariate=True)}
        val = {4: make_windows(val_s, 8, 4, 4, univariate=True)[:4]}
        test = {4: make_windows(test_s, 8, 4, 4, univariate=True)[:4]}
        base = ModelConfig(L_x=8, label_len=4, L_y=4, d_x=1, d_y=1, d_model=8,
                           n_heads=2, enc_blocks=2, dropout=0.0)
        cfg = TrainConfig(seed=2, batch_size=4, epochs=1, max_steps=1)
        rows = run_ablation(base, windows, val, test, [4], cfg,
                            variants=["M2", "none"])
        by_name = {r.variant: r for r in rows}
        assert by_name["M2"].attention_kernel == "neural_sparse"
        assert by_name["none"].attention_kernel == "prob_sparse"
        assert (by_name["M2"].dot_products_sample
                != by_name["none"].dot_products_sample)
