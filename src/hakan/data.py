"""CSV ingestion, chronological splits, global standardization, windowing.

Input files are UTF-8 CSV with a header row; the first column is a
timestamp (checked for strict increase, otherwise unused) and every other
column is a numeric feature.  Splits are contiguous train/val/test ranges;
val and test are extended on the left by the lookback so their first
targets sit right at the segment boundary without leaking future rows
into training.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

ROWS_PER_MONTH = {
    "hourly": 30 * 24,
    "15min": 30 * 24 * 4,
}

RATIO_SPLIT = (0.70, 0.10, 0.20)


@dataclass
class RawDataset:
    name: str
    timestamps: list
    values: np.ndarray  # [total_len, n_channels]
    frequency: str = ""

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    kind: str  # "ett_months" or "ratio"
    frequency: str = "hourly"

    def __post_init__(self):
        if self.kind not in ("ett_months", "ratio"):
            raise ConfigError(f"split kind must be ett_months or ratio, got {self.kind!r}")
        if self.kind == "ett_months" and self.frequency not in ROWS_PER_MONTH:
            raise ConfigError(
                f"ett_months split needs frequency in {sorted(ROWS_PER_MONTH)}, "
                f"got {self.frequency!r}"
            )


@dataclass(frozen=True)
class SegmentBounds:
    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


def load_csv(path, name: str | None = None, frequency: str = "") -> RawDataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file")
            if len(header) < 2:
                raise DataError(f"{path}: need a timestamp column plus features")
            width = len(header)
            timestamps = []
            rows = []
            linenos = []
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num  # file lines, quoted newlines included
                if len(row) != width:
                    raise DataError(
                        f"{path}:{lineno}: ragged row, {len(row)} cells vs {width} columns"
                    )
                timestamps.append(row[0])
                linenos.append(lineno)
                try:
                    rows.append([float(cell) for cell in row[1:]])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric feature cell")
    except csv.Error as err:
        raise DataError(f"{path}:{reader.line_num}: {err}")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err.reason})")
    except OSError as err:
        raise DataError(f"{path}: cannot read ({err.strerror})")
    if not rows:
        raise DataError(f"{path}: no data rows")
    keys = [_time_key(t) for t in timestamps]
    for i in range(1, len(keys)):
        try:
            increasing = keys[i - 1] < keys[i]
        except TypeError:  # an ISO stamp next to a non-ISO one
            raise DataError(
                f"{path}:{linenos[i]}: mixed timestamp formats "
                f"({timestamps[i - 1]!r} then {timestamps[i]!r})"
            )
        if not increasing:
            raise DataError(
                f"{path}:{linenos[i]}: timestamps not strictly increasing "
                f"({timestamps[i - 1]!r} then {timestamps[i]!r})"
            )
    values = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise DataError(f"{path}:{linenos[row]}: non-finite feature cell (nan or inf)")
    return RawDataset(name=name or path.stem, timestamps=timestamps,
                      values=values, frequency=frequency)


def _time_key(stamp: str):
    try:
        return datetime.fromisoformat(stamp.strip())
    except ValueError:
        return stamp


def split(ds: RawDataset, spec: SplitSpec, lookback: int) -> tuple:
    """Train/val/test row ranges as (SegmentBounds, SegmentBounds, SegmentBounds)."""
    total = len(ds)
    if spec.kind == "ett_months":
        per_month = ROWS_PER_MONTH[spec.frequency]
        n_train = 12 * per_month
        n_val = 4 * per_month
        n_test = 4 * per_month
        if n_train + n_val + n_test > total:
            raise ConfigError(
                f"{ds.name}: {total} rows cannot cover the 12/4/4 month split "
                f"({n_train + n_val + n_test} rows needed)"
            )
    else:
        n_train = int(total * RATIO_SPLIT[0])
        n_val = int(total * RATIO_SPLIT[1])
        n_test = total - n_train - n_val
    train = SegmentBounds(0, n_train)
    val = SegmentBounds(n_train - lookback, n_train + n_val)
    test = SegmentBounds(n_train + n_val - lookback, n_train + n_val + n_test)
    for label, seg in (("train", train), ("val", val), ("test", test)):
        if seg.start < 0 or len(seg) < lookback + 1:
            raise ConfigError(
                f"{ds.name}: {label} segment of {len(seg)} rows is too short "
                f"for lookback {lookback}"
            )
    return train, val, test


def standardize(ds: RawDataset, train_range: SegmentBounds) -> tuple:
    """Z-score every column with train-range statistics.

    Returns (standardized values, per-column mean, per-column std).  Metrics
    downstream are computed in this standardized space.
    """
    if len(train_range) < 1:
        raise ConfigError("empty train range for standardization")
    train = ds.values[train_range.start:train_range.end]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    flat = std == 0.0
    if flat.any():
        warnings.warn(
            f"{ds.name}: {int(flat.sum())} constant column(s) in the train range",
            stacklevel=2,
        )
        std = np.where(flat, 1.0, std)
    return (ds.values - mean) / std, mean, std


def window_count(segment_len: int, lookback: int, horizon: int) -> int:
    return max(0, segment_len - lookback - horizon + 1)


@dataclass
class DatasetSplits:
    """Standardized values plus the three segment ranges, ready for training."""

    name: str
    values: np.ndarray
    train: SegmentBounds
    val: SegmentBounds
    test: SegmentBounds
    mean: np.ndarray
    std: np.ndarray

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def prepare(ds: RawDataset, spec: SplitSpec, lookback: int) -> DatasetSplits:
    train, val, test = split(ds, spec, lookback)
    values, mean, std = standardize(ds, train)
    return DatasetSplits(name=ds.name, values=values, train=train, val=val,
                         test=test, mean=mean, std=std)
