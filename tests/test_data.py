import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hakan.data import (
    RawDataset,
    SegmentBounds,
    SplitSpec,
    destandardize,
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
        assert ds.n_channels == 2
        np.testing.assert_array_equal(ds.values[:, 0], [1.0, 2.0, 3.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n")
        with pytest.raises(DataError, match="ragged"):
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

    def test_load_is_order_stable(self, tmp_path):
        path = write_synthetic_csv(tmp_path / "s.csv", rows=40, channels=3)
        first = load_csv(path).values
        second = load_csv(path).values
        np.testing.assert_array_equal(first, second)

    @pytest.mark.slow
    def test_etth1_shape(self):
        ds = load_csv(require_dataset("ETTh1.csv"))
        assert ds.values.shape == (17420, 7)

    @pytest.mark.slow
    def test_illness_shape(self):
        ds = load_csv(require_dataset("national_illness.csv"))
        assert ds.values.shape == (966, 7)


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

    def test_without_context_extension(self):
        ds = fake_dataset(1000)
        spec = SplitSpec("ratio", prepend_context=False)
        train, val, test = split(ds, spec, lookback=10)
        assert val.start == train.end
        assert test.start == val.end

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

    def test_identity_when_already_standard(self):
        ds = fake_dataset(4000, channels=1, seed=3)
        ds.values = (ds.values - ds.values[:2800].mean()) / ds.values[:2800].std()
        out, mean, std = standardize(ds, SegmentBounds(0, 2800))
        np.testing.assert_allclose(out, ds.values, atol=1e-12)

    def test_round_trip(self):
        ds = fake_dataset(200, channels=3, seed=4)
        out, mean, std = standardize(ds, SegmentBounds(0, 140))
        np.testing.assert_allclose(destandardize(out, mean, std), ds.values,
                                   atol=1e-9)

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
