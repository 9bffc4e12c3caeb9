import csv
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hakan import data
from hakan.data import (
    RawDataset,
    SegmentBounds,
    SplitSpec,
    load_csv,
    prepare,
    split,
    standardize,
    window_count,
)
from hakan.errors import ConfigError, DataError

from helpers import require_dataset, write_synthetic_csv


def fake_dataset(total: int, channels: int = 2, seed: int = 0, name="fake") -> RawDataset:
    rng = np.random.default_rng(seed)
    return RawDataset(
        name=name,
        timestamps=[str(i) for i in range(total)],
        values=rng.normal(1.0, 2.0, size=(total, channels)),
    )


class TestLoadCsv:
    def test_toy_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(
            "date,a,b\n2020-01-01,1.0,4.0\n2020-01-02,2.0,5.0\n2020-01-03,3.0,6.0\n"
        )
        ds = load_csv(path)
        assert ds.values.shape == (3, 2)
        np.testing.assert_array_equal(ds.values[:, 0], [1.0, 2.0, 3.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(path)

    def test_errors_name_the_file_line(self, tmp_path):
        # the quoted header cell spans two lines, so the ragged row is line 4
        path = tmp_path / "quoted.csv"
        path.write_text('date,"a\nb",c\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n')
        with pytest.raises(DataError, match=r"quoted\.csv:4: ragged"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,a\n2020-01-01,1.0\n2020-01-02,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path)

    def test_non_monotone_timestamps(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("date,a\n2020-01-02,1.0\n2020-01-01,2.0\n")
        with pytest.raises(DataError, match="increasing"):
            load_csv(path)
        path.write_text("date,a\n2020-01-01,1.0\n2020-01-01,2.0\n")
        with pytest.raises(DataError, match="increasing"):
            load_csv(path)

    def test_integer_index_stamps(self, tmp_path):
        # numeric stamps compare as numbers, so 9 comes before 10
        path = tmp_path / "num.csv"
        path.write_text("t,a\n" + "".join(f"{i},{i}.5\n" for i in range(31)))
        assert_loaders_agree(path)
        assert load_csv(path).values.shape == (31, 1)
        path.write_text("t,a\n8,1.0\n10,2.0\n9,3.0\n")
        with pytest.raises(DataError, match=r"num\.csv:4: timestamps not strictly "
                                            r"increasing \('10' then '9'\)"):
            load_csv(path)
        path.write_text("t,a\n2020-01-01,1.0\n5,2.0\n")
        with pytest.raises(DataError, match=r"num\.csv:3: mixed timestamp formats"):
            load_csv(path)

    def test_load_is_order_stable(self, tmp_path):
        path = write_synthetic_csv(tmp_path / "s.csv", rows=40, channels=3)
        first = load_csv(path).values
        second = load_csv(path).values
        np.testing.assert_array_equal(first, second)

    def test_plain_file_skips_the_row_parser(self, tmp_path):
        # plain lines, behind a BOM or with CRLF endings, are parsed in one pass
        path = write_synthetic_csv(tmp_path / "s.csv", rows=40, channels=3)
        expected = load_csv(path)
        for raw in (b"\xef\xbb\xbf" + path.read_bytes(),
                    path.read_bytes().replace(b"\n", b"\r\n")):
            path.write_bytes(raw)
            with mock.patch.object(data, "_read_rows", side_effect=AssertionError):
                ds = load_csv(path)
            assert ds.timestamps == expected.timestamps
            np.testing.assert_array_equal(ds.values, expected.values)

    def test_peak_memory_is_a_small_multiple_of_the_values(self, tmp_path):
        # a Python float per cell cost 5.7x the array; one loadtxt pass 1.5x
        path = write_synthetic_csv(tmp_path / "wide.csv", rows=4000, channels=50)
        tracemalloc.start()
        try:
            ds = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * ds.values.nbytes

    @pytest.mark.slow
    def test_etth1_shape(self):
        ds = load_csv(require_dataset("ETTh1.csv"))
        assert ds.values.shape == (17420, 7)

    @pytest.mark.slow
    def test_illness_shape(self):
        ds = load_csv(require_dataset("national_illness.csv"))
        assert ds.values.shape == (966, 7)


ODD_CELLS = [" 1.5 ", "+1e5", "1_000", "\u0661\u0662", "1#2", '"2.5"', "\t3", "-0",
             "\u00a07", "1.", ".5", "0x10", "", " ", "\x1c4", "4\x1f", "nan", "-inf",
             "1e999", "1e-400"]
LOADER_EDITS = ("bom", "crlf", "blank_line", "odd_cell", "quoted_stamps", "extra_cell",
                "missing_cell", "long_stamp", "hash_stamp", "non_iso_stamp",
                "duplicate_stamp", "quoted_header", "long_header")


@st.composite
def loader_csv(draw) -> bytes:
    """A small CSV, plain or with up to two edits the fast loader must not misread."""
    width = draw(st.integers(1, 3))
    number = (st.floats(-1e6, 1e6, allow_nan=False).map(repr)
              | st.integers(-999, 999).map(str))
    rows = [[f"2020-01-01 00:00:{i:02d}"] + [draw(number) for _ in range(width)]
            for i in range(draw(st.integers(1, 6)))]
    row = st.integers(0, len(rows) - 1)
    edits = draw(st.lists(st.sampled_from(LOADER_EDITS), max_size=2))
    # cells are added or removed last, so the other edits index full rows
    for edit in sorted(edits, key=lambda e: e in ("extra_cell", "missing_cell")):
        i = draw(row)
        if edit == "odd_cell":
            rows[i][draw(st.integers(1, width))] = draw(st.sampled_from(ODD_CELLS))
        elif edit == "quoted_stamps":  # as some writers quote every string
            for r in rows:
                r[0] = f'"{r[0]}"'
        elif edit == "extra_cell":
            rows[i].append("0.5")
        elif edit == "missing_cell":
            rows[i].pop()
        elif edit == "long_stamp":  # not ISO, one character over csv's field limit
            rows[i][0] = "x" * (csv.field_size_limit() + 1)
        elif edit == "hash_stamp":
            rows[i][0] = "#" + rows[i][0]
        elif edit == "non_iso_stamp":
            rows[i][0] = "day 5"
        elif edit == "duplicate_stamp" and i > 0:
            rows[i][0] = rows[i - 1][0]
    header = ["date"] + [f"c{j}" for j in range(width)]
    if "quoted_header" in edits:  # a comma inside quotes is not a separator
        header[-1] = '"c,x"'
    if "long_header" in edits:
        header[-1] = "c" * (csv.field_size_limit() + 1)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    if "blank_line" in edits:
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = "\r\n" if "crlf" in edits else "\n"
    raw = (newline.join(lines) + newline).encode("utf-8")
    return b"\xef\xbb\xbf" + raw if "bom" in edits else raw


def load_outcome(path):
    """load_csv's (stamps, values), or the text of the DataError it raised."""
    try:
        ds = load_csv(path)
    except DataError as err:
        return str(err)
    return ds.timestamps, ds.values


def assert_loaders_agree(path):
    # load_csv as shipped against load_csv with only its row-by-row parser:
    # the same stamps and bitwise values, or the same error message
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
        fast = load_outcome(path)
        with mock.patch.object(data, "_read_plain", side_effect=data._NotPlain):
            slow = load_outcome(path)
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert not isinstance(fast, str), fast
        assert fast[0] == slow[0]
        assert fast[1].shape == slow[1].shape
        assert fast[1].tobytes() == slow[1].tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(raw=loader_csv())
def test_fast_and_row_by_row_loaders_agree(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(raw)
        assert_loaders_agree(path)


@pytest.mark.parametrize("cells", ODD_CELLS + ["1.5,2.5"])
def test_loaders_agree_on_a_lone_odd_row(tmp_path, cells):
    # one row, so no other row's defect can hide the one under test
    path = tmp_path / "series.csv"
    path.write_text(f"date,a\n2020-01-01 00:00:00,{cells}\n", encoding="utf-8")
    assert_loaders_agree(path)


class TestSplit:
    def test_ett_month_arithmetic(self):
        ds = fake_dataset(20 * 30 * 24)
        lookback = 96
        train, val, test = split(ds, SplitSpec("ett_months", "hourly"), lookback)
        assert (train.start, train.end) == (0, 8640)
        assert (val.start, val.end) == (8640 - lookback, 8640 + 2880)
        assert (test.start, test.end) == (11520 - lookback, 11520 + 2880)

    def test_ratio_boundaries(self):
        ds = fake_dataset(1000)
        train, val, test = split(ds, SplitSpec("ratio"), lookback=10)
        assert (train.start, train.end) == (0, 700)
        assert (val.start, val.end) == (690, 800)
        assert (test.start, test.end) == (790, 1000)

    def test_illness_sized_ratio(self):
        ds = fake_dataset(966)
        train, val, test = split(ds, SplitSpec("ratio"), lookback=104)
        assert len(train) == 676
        assert val.end - train.end == 96
        assert test.end - val.end == 194

    def test_too_short_segment(self):
        ds = fake_dataset(300)
        with pytest.raises(ConfigError):
            split(ds, SplitSpec("ratio"), lookback=250)

    def test_month_split_needs_enough_rows(self):
        ds = fake_dataset(5000)
        with pytest.raises(ConfigError):
            split(ds, SplitSpec("ett_months", "hourly"), lookback=96)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            SplitSpec("bogus")
        with pytest.raises(ConfigError):
            SplitSpec("ett_months", frequency="weekly")


class TestStandardize:
    def test_constant_column_warns_and_zeroes(self):
        ds = fake_dataset(100)
        ds.values[:, 1] = 3.0
        with pytest.warns(UserWarning, match="constant"):
            out, mean, std = standardize(ds, SegmentBounds(0, 70))
        np.testing.assert_array_equal(out[:, 1], np.zeros(100))

    def test_empty_train_range_rejected(self):
        with pytest.raises(ConfigError, match="empty train range"):
            standardize(fake_dataset(10), SegmentBounds(4, 4))

    def test_identity_when_already_standard(self):
        ds = fake_dataset(4000, channels=1, seed=3)
        ds.values = (ds.values - ds.values[:2800].mean()) / ds.values[:2800].std()
        out, mean, std = standardize(ds, SegmentBounds(0, 2800))
        np.testing.assert_allclose(out, ds.values, atol=1e-12)

    def test_round_trip(self):
        ds = fake_dataset(200, channels=3, seed=4)
        out, mean, std = standardize(ds, SegmentBounds(0, 140))
        np.testing.assert_allclose(out * std + mean, ds.values,
                                   atol=1e-9)

    @pytest.mark.parametrize("rows, cell, message", [
        (slice(0, 2), 1e308, "fake: CSV column 3: the train range's mean is not finite"),
        (slice(5, 6), 1e308, "fake: CSV column 3: the train range's std is not finite"),
        (slice(150, 151), 1.7e308, r"fake: row 150: CSV column 3: 1\.7e\+308 does not standardize"),
    ], ids=["mean", "std", "value"])
    def test_overflow_is_a_data_error(self, rows, cell, message):
        # finite cells whose train statistics or standardized value overflow
        ds = fake_dataset(200)
        ds.values[:, 1] *= 0.1  # a train std of ~0.2
        ds.values[rows, 1] = cell
        with pytest.raises(DataError, match=message):
            standardize(ds, SegmentBounds(0, 140))

    def test_statistics_ignore_test_rows(self):
        ds_a = fake_dataset(200, seed=5)
        ds_b = fake_dataset(200, seed=5)
        ds_b.values[150:] += 100.0
        _, mean_a, std_a = standardize(ds_a, SegmentBounds(0, 140))
        _, mean_b, std_b = standardize(ds_b, SegmentBounds(0, 140))
        np.testing.assert_array_equal(mean_a, mean_b)
        np.testing.assert_array_equal(std_a, std_b)


def brute_force_origins(total: int, lookback: int, horizon: int) -> list:
    """Every window origin whose input and target rows fit in `total` rows."""
    return [o for o in range(total) if o + lookback + horizon <= total]


class TestWindows:
    def test_counts(self):
        assert window_count(10, 4, 2) == 5

    def test_exactly_one_sample(self):
        assert window_count(6, 4, 2) == 1

    @settings(max_examples=60, deadline=None)
    @given(total=st.integers(1, 60), lookback=st.integers(1, 20),
           horizon=st.integers(1, 20))
    def test_count_formula(self, total, lookback, horizon):
        expected = len(brute_force_origins(total, lookback, horizon))
        assert window_count(total, lookback, horizon) == expected


class TestPrepare:
    def test_no_target_leaks_across_boundary(self):
        ds = fake_dataset(1000)
        lookback, horizon = 24, 8
        splits = prepare(ds, SplitSpec("ratio"), lookback)
        for bounds in (splits.train, splits.val, splits.test):
            n = window_count(len(bounds), lookback, horizon)
            assert n == len(brute_force_origins(len(bounds), lookback, horizon))
            last_target_row = bounds.start + (n - 1) + lookback + horizon
            assert last_target_row == bounds.end

    def test_prepared_statistics_come_from_train(self):
        ds = fake_dataset(1000, seed=9)
        splits = prepare(ds, SplitSpec("ratio"), lookback=24)
        train_rows = splits.values[:len(splits.train)]
        np.testing.assert_allclose(train_rows.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train_rows.std(axis=0), 1.0, atol=1e-12)
