"""Data tests: CSV loading, splits, scalers, windows, metrics."""

import csv
import json
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import numpy.testing as npt
import pytest

import sparsecast.data as data_module
from sparsecast.cli import cli
from sparsecast.data import (
    AIOPS_COLUMNS,
    DataError,
    StandardScaler,
    fit_apply_scaler,
    load_csv,
    make_windows,
    metrics,
    split_622,
    synthetic_aiops_frame,
    synthetic_seasonal_frame,
    timestamp_features,
    write_csv,
)


def _write(tmp_path, rows, header="date,a,b"):
    path = tmp_path / "frame.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestLoadCsv:
    def test_three_row_generic(self, tmp_path):
        path = _write(tmp_path, [
            "2021-01-01 00:00:00,1.0,2.0",
            "2021-01-01 01:00:00,3.0,4.0",
            "2021-01-01 02:00:00,5.0,6.0",
        ])
        frame = load_csv(path)
        assert len(frame) == 3
        assert frame.columns == ["a", "b"]
        assert frame.target_columns == ["b"]  # generic default: last column

    def test_shuffled_timestamps_rejected(self, tmp_path):
        path = _write(tmp_path, [
            "2021-01-01 02:00:00,1.0,2.0",
            "2021-01-01 00:00:00,3.0,4.0",
            "2021-01-01 01:00:00,5.0,6.0",
        ])
        with pytest.raises(DataError):
            load_csv(path)

    def test_irregular_spacing_rejected(self, tmp_path):
        path = _write(tmp_path, [
            "2021-01-01 00:00:00,1.0,2.0",
            "2021-01-01 01:00:00,3.0,4.0",
            "2021-01-01 03:00:00,5.0,6.0",
        ])
        with pytest.raises(DataError, match=r"^irregular timestamp spacing at data row 3 "
                                            r"\(2021-01-01 03:00:00\)$"):
            load_csv(path)

    @pytest.mark.parametrize("first, second", [("", "+00:00"), ("+00:00", ""),
                                               ("", "Z")])
    def test_mixed_naive_and_offset_timestamps_name_the_row(self, tmp_path, capsys,
                                                            first, second):
        """datetime cannot subtract a naive stamp from an aware one; the frame
        names the first data row whose kind differs from the first one's
        instead, so that ``sparsecast train`` exits 2."""
        path = _write(tmp_path, [
            f"2021-01-01 00:00:00{first},1.0,2.0",
            f"2021-01-01 01:00:00{first},3.0,4.0",
            f"2021-01-01 02:00:00{second},5.0,6.0",
        ])
        offset = {"": "", "+00:00": "+00:00", "Z": "+00:00"}
        message = (f"data row 3 (2021-01-01 02:00:00{offset[second]}): mixes naive and "
                   f"UTC-offset timestamps (data row 1 is 2021-01-01 00:00:00{offset[first]})")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": {"path": str(path)},
                                      "model": {"L_x": 3, "label_len": 1, "L_y": 1}}))
        assert cli(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "data row 3 (2021-01-01 02:00:00" in capsys.readouterr().err

    @pytest.mark.parametrize("header, message", [
        ("date,a,a", "CSV header repeats value column 'a' (header columns 2 and 3)"),
        ("date,a,b,c,b", "CSV header repeats value column 'b' (header columns 3 and 5)"),
        ("date", "CSV has no value columns"),
    ], ids=["repeated", "repeated_apart", "date_only"])
    def test_value_columns_unique_and_present(self, tmp_path, capsys, header, message):
        """A repeated name would leave the default target ambiguous (a univariate
        model trained on the first ``a`` of ``date,a,a``), and no value column
        leaves no target at all: both are a ``DataError``, so ``train`` exits 2."""
        cells = ",1.0" * header.count(",")
        path = _write(tmp_path, [f"2021-01-01 0{h}:00:00{cells}" for h in range(3)],
                      header=header)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": {"path": str(path)},
                                      "model": {"L_x": 3, "label_len": 1, "L_y": 1}}))
        assert cli(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = _write(tmp_path, [
            "2021-01-01 00:00:00,1.0,2.0",
            "2021-01-01 01:00:00,oops,4.0",
        ])
        with pytest.raises(DataError, match="^line 3, column 'a': non-numeric cell 'oops'$"):
            load_csv(path)

    def test_aiops_schema_roundtrip(self, tmp_path):
        frame = synthetic_aiops_frame(50)
        path = tmp_path / "aiops.csv"
        write_csv(frame, path)
        loaded = load_csv(path, schema="aiops")
        assert loaded.columns == AIOPS_COLUMNS
        assert loaded.target_columns == ["RESP-TIME"]
        npt.assert_allclose(loaded.values, frame.values, atol=1e-15)

    def test_aiops_schema_enforces_20_columns(self, tmp_path):
        path = _write(tmp_path, ["2021-01-01 00:00:00,1.0,2.0",
                                 "2021-01-01 00:05:00,2.0,3.0"])
        with pytest.raises(DataError, match="20 columns"):
            load_csv(path, schema="aiops")

    def test_nan_cell_rejected(self, tmp_path):
        path = _write(tmp_path, [
            "2021-01-01 00:00:00,1.0,2.0",
            "2021-01-01 01:00:00,nan,4.0",
        ])
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_named(self, tmp_path, cell):
        path = _write(tmp_path, [
            "2021-01-01 00:00:00,1.0,2.0",
            "2021-01-01 01:00:00,3.0,4.0",
            f"2021-01-01 02:00:00,5.0,{cell}",
        ])
        with pytest.raises(DataError, match=(r"non-finite values: first at data row 3 "
                                             rf"\(2021-01-01 02:00:00\), column 'b': {cell}$")):
            load_csv(path)

    @pytest.mark.parametrize("schema, own", [("aiops", "RESP-TIME"), ("ett", "OT")])
    def test_schema_takes_only_its_own_target(self, schema, own):
        with pytest.raises(DataError, match=f"^target: the {schema} schema predicts "
                                            f"'{own}', got 'a'$"):
            load_csv("never-opened.csv", schema=schema, target="a")

    def test_ett_schema_needs_ot(self, tmp_path):
        header = "date,c1,c2,c3,c4,c5,c6,c7"
        path = _write(tmp_path, ["2021-01-01 00:00:00,1,2,3,4,5,6,7",
                                 "2021-01-01 01:00:00,1,2,3,4,5,6,7"], header=header)
        with pytest.raises(DataError, match="OT"):
            load_csv(path, schema="ett")


def _per_cell_loader(path):
    """Timestamps and values as the per-cell loader read them: every stamp
    through ``strptime`` first, every cell through its own ``float``."""
    timestamps, rows = [], []
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        next(reader)
        for record in reader:
            if not record:
                continue
            text = record[0].strip()
            try:
                timestamps.append(datetime.strptime(text, "%Y-%m-%d %H:%M:%S"))
            except ValueError:
                timestamps.append(datetime.fromisoformat(text))
            rows.append([float(cell) for cell in record[1:]])
    return timestamps, np.asarray(rows, dtype=np.float64)


def _no_per_row_reader(path):
    raise AssertionError(f"{path} went to the per-row reader")


def _count_per_row_reads(monkeypatch) -> list:
    """Record each path ``load_csv`` hands to the per-row reader."""
    calls, real = [], data_module._read_rows
    monkeypatch.setattr(data_module, "_read_rows", lambda path: calls.append(path) or real(path))
    return calls


def _stamp_loop(timestamps):
    """The per-timestamp stamp builder: the oracle for ``timestamp_features``."""
    out = np.empty((len(timestamps), 5), dtype=np.intp)
    for i, ts in enumerate(timestamps):
        out[i] = (ts.month, ts.day, ts.weekday(), ts.hour, ts.minute // 15)
    return out


# Each id keeps the "row N" its message said before the reader named file
# lines, so the cases keep their names.
_READER_FAULTS = [
    (["2021-01-01 00:00:00,1,2", "  ", "2021-01-01 01:00:00,3,4"],
     "line 3: expected 3 cells, got 1"),
    (["2021-01-01 00:00:00,1,2", "2021-01-01 01:00:00,3"], "line 3: expected 3 cells, got 2"),
    (["2021-01-01 00:00:00,1,2", "2021-01-01 01:00:00,3,4,5"],
     "line 3: expected 3 cells, got 4"),
    (["2021-01-01 00:00:00,1,2", "2021-01-01 01:00:00,1e,4"],
     "line 3, column 'a': non-numeric cell '1e'"),
    (["2021-01-01 00:00:00,,2", "2021-01-01 01:00:00,3,4"],
     "line 2, column 'a': non-numeric cell ''"),
    (["2021-01-01 23:00:00,1,2", "2021-01-01 24:00:00,3,4"],
     "line 3: cannot parse timestamp '2021-01-01 24:00:00'"),
    (["2021-02-28 00:00:00,1,2", "2021-02-30 00:00:00,3,4"],
     "line 3: cannot parse timestamp '2021-02-30 00:00:00'"),
    (["0000-12-31 23:00:00,1,2", "0001-01-01 00:00:00,3,4"],
     "line 2: cannot parse timestamp '0000-12-31 23:00:00'"),
    (["", ""], "CSV has a header but no data rows"),
]


class TestFastParsing:
    def test_odd_valid_cells_match_per_cell_loader(self, tmp_path):
        path = _write(tmp_path, [
            "2021-01-01 00:00:00, 1.5,1e3",
            "2021-01-01T01:00:00,-0,+2.25 ",
            " 2021-1-1 2:00:00 ,1_000,-1E-3",
            "",
            "2021-01-01 03:00:00,0.1,.5",
        ])
        frame = load_csv(path)
        timestamps, values = _per_cell_loader(path)
        assert frame.timestamps == timestamps
        assert frame.values.tobytes() == values.tobytes()  # -0.0 keeps its sign
        assert np.signbit(frame.values[1, 0])

    def test_bad_cell_after_good_cells_is_named(self, tmp_path):
        path = _write(tmp_path, ["2021-01-01 00:00:00,1.0,2.0",
                                 "2021-01-01 01:00:00,3.0,1.2.3"])
        with pytest.raises(DataError, match=r"^line 3, column 'b': non-numeric cell '1\.2\.3'$"):
            load_csv(path)

    @pytest.mark.parametrize("dialect", ["benchmark", "repr"])
    def test_generated_20_columns_take_one_numpy_pass(self, tmp_path, monkeypatch, dialect):
        """A 20-column file in the benchmark's dialect (space-joined stamps,
        three decimals) and in ``repr`` floats (signs, exponents, -0.0,
        "T"-joined stamps) never reaches the per-row reader and reads the
        same bytes as it."""
        rng = np.random.default_rng(20)
        start, tick = datetime(2021, 1, 4), timedelta(minutes=5)
        if dialect == "benchmark":
            cells = np.rint(rng.uniform(0.0, 500.0, (400, 20)) * 1000.0).astype(np.int64)
            rows = [f"{start + i * tick:%Y-%m-%d %H:%M:%S}," +
                    ",".join(f"{m // 1000}.{m % 1000:03d}" for m in row)
                    for i, row in enumerate(cells.tolist())]
        else:
            values = rng.standard_normal((400, 20)) * 10.0 ** rng.integers(-12, 12, (400, 20))
            values[3, 4] = -0.0
            rows = [f"{start + i * tick:%Y-%m-%dT%H:%M:%S}," + ",".join(map(repr, row))
                    for i, row in enumerate(values.tolist())]
        path = _write(tmp_path, rows, header=",".join(["date", *AIOPS_COLUMNS]))
        monkeypatch.setattr(data_module, "_read_rows", _no_per_row_reader)
        frame = load_csv(path, schema="aiops")
        timestamps, values = _per_cell_loader(path)
        assert frame.timestamps == timestamps
        assert all(type(ts) is datetime for ts in frame.timestamps)
        assert frame.values.tobytes() == values.tobytes()
        assert frame.values.flags.c_contiguous and frame.values.dtype == np.float64

    @pytest.mark.parametrize("rows", [
        ['"2021-01-01 00:00:00",1.5,2', '2021-01-01 01:00:00,"3",4'],  # quotes
        ["2021-01-01 00:00:00,1_000,2", "2021-01-01 01:00:00,3,4"],  # digit separator
        ["2021-01-01,1,2", "2021-01-02,3,4"],  # date only
        ["2021-01-01 00:00:00.5,1,2", "2021-01-01 01:00:00.5,3,4"],  # fractional second
        ["2021-01-01T00:00:00+05:00,1,2", "2021-01-01T01:00:00+05:00,3,4"],  # offset
        ["2021-01-01T00:00+05,1,2", "2021-01-01T01:00+05,3,4"],  # 19 bytes, offset
        [" 2021-01-01 00:00:00,1,2", "2021-01-01 01:00:00,3,4"],  # padded stamp
        ["2021-01-01 00:00:00,\t1,2", "2021-01-01 01:00:00,3,4"],  # tab
        ["2021-01-01 00:00:00,1,2\r", "2021-01-01 01:00:00,3,4\r"],  # CRLF
        ["2021-01-01 00:00:00,1,2", "2021-01-01 01:00:00,3,4\u00a0"],  # not ASCII
    ])
    def test_valid_files_outside_the_fast_subset_match_per_cell_loader(
            self, tmp_path, monkeypatch, rows):
        path = _write(tmp_path, rows)
        calls = _count_per_row_reads(monkeypatch)
        frame = load_csv(path)
        timestamps, values = _per_cell_loader(path)
        assert calls == [path]
        assert frame.timestamps == timestamps
        assert frame.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("rows, message", [
        pytest.param(rows, message, id=f"rows{i}-" + message.replace("line ", "row ", 1))
        for i, (rows, message) in enumerate(_READER_FAULTS)])
    def test_faults_are_named_by_the_per_row_reader(self, tmp_path, monkeypatch, rows,
                                                   message):
        path = _write(tmp_path, rows)
        calls = _count_per_row_reads(monkeypatch)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(path)
        assert calls == [path]

    @pytest.mark.parametrize("third, message", [
        ("2021-01-01 02:00:00,x,6", r"^line 4, column 'a': non-numeric cell 'x'$"),
        ("2021-01-01 02:00:00,nan,6", r"first at data row 3 \(2021-01-01 02:00:00\), "
                                      r"column 'a': nan$"),
        ("2021-01-01 03:00:00,5,6", r"^irregular timestamp spacing at data row 3 "
                                    r"\(2021-01-01 03:00:00\)$"),
    ])
    def test_one_row_numbering_per_source(self, tmp_path, third, message):
        """The third data row, on file line 4: the reader names its file line,
        the frame its data row and timestamp, with no other numbering."""
        path = _write(tmp_path, ["2021-01-01 00:00:00,1,2", "2021-01-01 01:00:00,3,4", third])
        with pytest.raises(DataError, match=message):
            load_csv(path)

    def test_line_counts_every_line_of_a_quoted_record(self, tmp_path):
        """A quoted cell may span lines; the reader still names the file line."""
        path = _write(tmp_path, ['2021-01-01 00:00:00,"1\n",2', "2021-01-01 01:00:00,x,4"])
        with pytest.raises(DataError, match="^line 4, column 'a': non-numeric cell 'x'$"):
            load_csv(path)

    def test_synthetic_frame_names_the_data_row(self):
        frame = synthetic_seasonal_frame(5, 2, seed=1)
        values = frame.values.copy()
        values[0, 1] = np.inf
        with pytest.raises(DataError, match=rf"first at data row 1 "
                                            rf"\({re.escape(str(frame.timestamps[0]))}\)"):
            frame.with_values(values)

    @pytest.mark.parametrize("columns, message", [
        (["a", "a"], "frame repeats column 'a' (columns 1 and 2)"),
        (["a", "b", "c", "b"], "frame repeats column 'b' (columns 2 and 4)"),
    ], ids=["repeated", "repeated_apart"])
    def test_frame_refuses_repeated_column_names(self, columns, message):
        """A frame built without ``load_csv`` refuses a repeated name too,
        where a univariate window read the first ``a`` as the target."""
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            synthetic_seasonal_frame(50, len(columns), columns=columns)

    def test_timestamp_features_match_loop(self):
        step = timedelta(days=3, hours=5, minutes=7, seconds=13)
        cases = [
            [datetime(1, 1, 1) + i * step for i in range(3000)],
            [datetime(1969, 12, 25) + i * timedelta(minutes=7) for i in range(5000)],
            [datetime(2020, 2, 27, tzinfo=timezone(timedelta(hours=-5))) + i * step
             for i in range(500)],
            [],
        ]
        for stamps in cases:
            got = timestamp_features(stamps)
            assert got.dtype == np.intp and got.shape == (len(stamps), 5)
            npt.assert_array_equal(got, _stamp_loop(stamps))


class TestSplit:
    def test_ten_rows_split_6_2_2(self):
        frame = synthetic_seasonal_frame(10, 1, seed=0)
        train, val, test = split_622(frame)
        assert (len(train), len(val), len(test)) == (6, 2, 2)

    def test_large_split_reconciles_to_published_counts(self):
        # pure arithmetic check of the rounding rule at the published length
        L = 101583
        n_train = int(0.6 * L)
        n_val = (L - n_train) // 2
        assert (n_train, n_val, L - n_train - n_val) == (60949, 20317, 20317)

    def test_window_guard(self):
        frame = synthetic_seasonal_frame(100, 1, seed=1)
        with pytest.raises(DataError, match="too short"):
            split_622(frame, min_len=96)

    def test_chronological_and_contiguous(self):
        frame = synthetic_seasonal_frame(50, 2, seed=2)
        train, val, test = split_622(frame)
        assert train.timestamps[-1] < val.timestamps[0] < test.timestamps[0]
        npt.assert_array_equal(np.vstack([train.values, val.values, test.values]),
                               frame.values)


class TestScaler:
    def test_two_point_standardize(self):
        scaler = StandardScaler("standardize_per_dim").fit(np.array([[1.0], [3.0]]))
        npt.assert_allclose(scaler.apply(np.array([[1.0], [3.0]])),
                            [[-1.0], [1.0]], atol=1e-12)

    def test_none_is_identity(self):
        values = np.random.default_rng(3).standard_normal((10, 2))
        scaler = StandardScaler("none").fit(values)
        npt.assert_array_equal(scaler.apply(values), values)

    def test_normalize_global_uses_shared_minmax(self):
        values = np.array([[0.0, 100.0], [5.0, 200.0]])
        scaler = StandardScaler("normalize_global").fit(values)
        out = scaler.apply(values)
        assert out.min() == 0.0 and out.max() == 1.0
        npt.assert_allclose(out, (values - 0.0) / 200.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["standardize_per_dim", "normalize_per_dim",
                                      "standardize_global", "normalize_global", "none"])
    def test_roundtrip_every_mode(self, mode):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((40, 3)) * [1.0, 10.0, 100.0] + [0.0, -5.0, 42.0]
        scaler = StandardScaler(mode).fit(values)
        npt.assert_allclose(scaler.inverse(scaler.apply(values)), values, atol=1e-9)

    def test_zero_variance_names_column(self):
        values = np.ones((10, 2))
        values[:, 0] = np.arange(10)
        with pytest.raises(DataError, match="'flat'"):
            StandardScaler("standardize_per_dim").fit(values, columns=["ok", "flat"])

    def test_train_only_scope_ignores_test(self):
        frame = synthetic_seasonal_frame(100, 2, seed=5)
        train, val, test = split_622(frame)
        (_, _, _), scaler_a = fit_apply_scaler(train, [val, test])
        poisoned = test.with_values(test.values + 1000.0)
        (_, _, _), scaler_b = fit_apply_scaler(train, [val, poisoned])
        npt.assert_array_equal(scaler_a.shift_, scaler_b.shift_)
        npt.assert_array_equal(scaler_a.scale_, scaler_b.scale_)

    def test_train_plus_test_scope_sees_test(self):
        frame = synthetic_seasonal_frame(100, 2, seed=6)
        train, val, test = split_622(frame)
        (_, _, _), scaler_a = fit_apply_scaler(train, [val, test],
                                               scope="train_plus_test")
        poisoned = test.with_values(test.values + 1000.0)
        (_, _, _), scaler_b = fit_apply_scaler(train, [val, poisoned],
                                               scope="train_plus_test")
        assert not np.array_equal(scaler_a.shift_, scaler_b.shift_)


class TestWindows:
    def test_count_formula(self):
        frame = synthetic_seasonal_frame(100, 1, seed=7)
        samples = make_windows(frame, 48, 24, 24)
        assert len(samples) == 100 - 48 - 24 + 1 == 29

    def test_exact_boundary_single_window(self):
        frame = synthetic_seasonal_frame(30, 1, seed=8)
        samples = make_windows(frame, 20, 5, 10)
        assert len(samples) == 1

    def test_horizon_gap_shifts_targets(self):
        frame = synthetic_seasonal_frame(100, 1, seed=9)
        no_gap = make_windows(frame, 48, 24, 24, h=0)
        gap = make_windows(frame, 48, 24, 24, h=5)
        assert len(gap) == len(no_gap) - 5
        npt.assert_array_equal(gap[0].target, frame.values[48 + 5:48 + 5 + 24, -1:])

    def test_too_short_frame(self):
        frame = synthetic_seasonal_frame(20, 1, seed=10)
        with pytest.raises(DataError, match="too short"):
            make_windows(frame, 20, 5, 10)

    def test_univariate_selects_target(self):
        frame = synthetic_aiops_frame(60)
        samples = make_windows(frame, 16, 8, 8, univariate=True)
        target_col = frame.columns.index("RESP-TIME")
        npt.assert_array_equal(samples[0].enc_values[:, 0],
                               frame.values[:16, target_col])
        assert samples[0].target.shape == (8, 1)

    def test_window_pieces_align(self):
        frame = synthetic_seasonal_frame(60, 2, seed=11)
        sample = make_windows(frame, 16, 8, 4)[5]
        npt.assert_array_equal(sample.enc_values, frame.values[5:21])
        npt.assert_array_equal(sample.known_tail, frame.values[13:21])
        npt.assert_array_equal(sample.target, frame.values[21:25])
        npt.assert_array_equal(sample.enc_stamps,
                               timestamp_features(frame.timestamps[5:21]))


def _copying_windows(frame, L_x, label_len, L_y, h=0, univariate=False):
    """The windows as built by fancy-index copies: the oracle for the views."""
    cols = frame.target_indices() if univariate else list(range(len(frame.columns)))
    stamps = timestamp_features(frame.timestamps)
    out = []
    for t in range(len(frame) - (L_x + h + L_y) + 1):
        enc_stop = t + L_x
        tgt_start = enc_stop + h
        out.append((frame.values[t:enc_stop, cols],
                    stamps[t:enc_stop],
                    np.vstack([stamps[enc_stop - label_len:enc_stop],
                               stamps[tgt_start:tgt_start + L_y]]),
                    frame.values[enc_stop - label_len:enc_stop, cols],
                    frame.values[tgt_start:tgt_start + L_y, cols],
                    t))
    return out


def _fields(sample):
    return (sample.enc_values, sample.enc_stamps, sample.dec_stamps,
            sample.known_tail, sample.target)


class TestWindowViews:
    @pytest.mark.parametrize("h", [0, 3])
    @pytest.mark.parametrize("univariate", [True, False])
    def test_equal_to_copying_oracle(self, h, univariate):
        frame = synthetic_aiops_frame(90, seed=4)
        samples = make_windows(frame, 16, 8, 8, h=h, univariate=univariate)
        oracle = _copying_windows(frame, 16, 8, 8, h=h, univariate=univariate)
        n = len(oracle)
        assert len(samples) == n
        picks = [(samples, oracle), ([samples[-1], samples[-n]], [oracle[-1], oracle[-n]])]
        picks += [(samples[cut], oracle[cut]) for cut in (
            slice(2, 9, 3), slice(None, None, -4), slice(-5, None), slice(n - 2, n + 10),
            slice(n, None), np.s_[np.intp(1):np.intp(3)])]
        picks.append(([samples[i] for i in np.arange(0, n, 7)], oracle[::7]))
        for got_windows, want_windows in picks:
            assert isinstance(got_windows, list) or got_windows is samples
            assert len(got_windows) == len(want_windows)
            for sample, expected in zip(got_windows, want_windows):
                for got, want in zip(_fields(sample), expected):
                    assert got.dtype == want.dtype
                    npt.assert_array_equal(got, want)
                assert sample.origin == expected[-1]
        for index in (n, -n - 1, n + 100):
            with pytest.raises(IndexError, match=f"window index {index} out of range"):
                samples[index]

    @pytest.mark.parametrize("univariate", [True, False])
    def test_fields_are_read_only_views_of_shared_arrays(self, univariate):
        frame = synthetic_seasonal_frame(80, 3, seed=5)
        samples = make_windows(frame, 16, 8, 8, univariate=univariate)
        values = samples[0].enc_values.base
        stamps = samples[0].enc_stamps.base
        assert not np.shares_memory(values, frame.values)
        n = len(samples)
        for sample in [*samples, samples[-1], samples[-n], *samples[3:40:5], *samples[::-9]]:
            enc_values, enc_stamps, dec_stamps, known_tail, target = _fields(sample)
            for arr in (enc_values, known_tail, target):
                assert np.shares_memory(arr, values)
            for arr in (enc_stamps, dec_stamps):
                assert np.shares_memory(arr, stamps)
            for arr in _fields(sample):
                assert arr.flags.c_contiguous and not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    def test_horizon_gap_copies_only_decoder_stamps(self):
        frame = synthetic_seasonal_frame(80, 2, seed=6)
        sample = make_windows(frame, 16, 8, 8, h=2)[0]
        assert not sample.dec_stamps.flags.writeable
        assert not np.shares_memory(sample.dec_stamps, sample.enc_stamps.base)
        assert np.shares_memory(sample.target, sample.enc_values.base)

    def test_long_univariate_windows_stay_small(self):
        """Every buffer the windows of a 17,280-row, 20-column frame reference,
        counted once: about a megabyte, not the ~800 MB of per-window copies."""
        frame = synthetic_aiops_frame(17280, seed=1)
        train, val, test = split_622(frame)
        splits, _ = fit_apply_scaler(train, [val, test])
        owners = {}
        for split in splits:
            for sample in make_windows(split, 1440, 720, 576, univariate=True):
                for arr in _fields(sample):
                    while arr.base is not None:
                        arr = arr.base
                    owners[id(arr)] = arr.nbytes
        assert sum(owners.values()) / 2**20 < 5.0


class TestMetrics:
    def test_perfect_fit(self):
        result = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.corr == pytest.approx(1.0, abs=1e-12)
        assert (result.mse, result.mae) == (0.0, 0.0)

    def test_reversed_series(self):
        result = metrics([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert result.corr == pytest.approx(-1.0, abs=1e-12)
        assert result.mse == pytest.approx(8 / 3, abs=1e-12)
        assert result.mae == pytest.approx(4 / 3, abs=1e-12)

    def test_offset_series(self):
        result = metrics([0.0, 2.0], [1.0, 3.0])
        assert result.corr == pytest.approx(1.0, abs=1e-12)
        assert result.mse == pytest.approx(1.0, abs=1e-12)
        assert result.mae == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_flagged(self):
        result = metrics([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert result.corr == 0.0
        assert "zero_variance_truth" in result.flags

    def test_one_row_scores_like_a_constant_series(self):
        """A one-row block (an ``L_y`` 1 window) has no variance to correlate:
        CORR 0 with both flags, and exact MSE and MAE."""
        result = metrics([[2.0]], [[3.5]])
        assert (result.corr, result.mse, result.mae, result.n) == (0.0, 2.25, 1.5, 1)
        assert result.flags == ["zero_variance_truth", "zero_variance_prediction"]

    @pytest.mark.parametrize("y", [np.float64(1.0), np.zeros(0), np.zeros((0, 3))])
    def test_empty_or_0d_block_rejected(self, y):
        with pytest.raises(DataError, match="^metrics need at least one row$"):
            metrics(y, y)

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(50)
        p = rng.standard_normal(50)
        a = metrics(y, p)
        b = metrics(y + 13.5, p + 13.5)
        assert b.corr == pytest.approx(a.corr, abs=1e-12)
        assert b.mse == pytest.approx(a.mse, abs=1e-9)
        assert b.mae == pytest.approx(a.mae, abs=1e-9)

    def test_multivariate_reduces_to_per_dim_average(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((30, 3))
        p = rng.standard_normal((30, 3))
        combined = metrics(y, p)
        per_dim = [metrics(y[:, d], p[:, d]).corr for d in range(3)]
        assert combined.corr == pytest.approx(np.mean(per_dim), abs=1e-12)

    def test_json_shape(self):
        blob = metrics([0.0, 2.0], [1.0, 3.0]).to_json()
        import json
        parsed = json.loads(blob)
        assert set(parsed) == {"corr", "mse", "mae", "n", "flags"}
