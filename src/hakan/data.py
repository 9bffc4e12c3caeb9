"""CSV ingestion, chronological splits, global standardization, windowing.

Input files are UTF-8 CSV with a header row; the first column is a
timestamp (an ISO date-time, a number or a string, checked for strict
increase, otherwise unused) and every other column is a numeric feature.
Splits are contiguous train/val/test ranges; val and test are extended on
the left by the lookback so their first targets sit right at the segment
boundary without leaking future rows into training.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from collections.abc import Sequence
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
    path: str = ""  # the file it was read from; empty if built in memory
    lines: Sequence[int] = ()  # the file line of each row, for a dataset read from a file

    def __len__(self) -> int:
        return self.values.shape[0]

    def where(self, row: int | None = None) -> str:
        """A message prefix: the file and a row's file line, or the name and row index."""
        if not self.path:
            return self.name if row is None else f"{self.name}: row {row}"
        return self.path if row is None else f"{self.path}:{self.lines[row]}"


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
    """Read a dataset file, checking its shape, stamp order and finiteness.

    A file whose every line is plain (see `_plain_lines`) is parsed in one
    `np.loadtxt` pass, row i coming from file line i + 2.  Any other file is
    read row by row.  Either way a defect is reported with its file line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        timestamps, values = _read_plain(path)
        linenos = range(2, len(timestamps) + 2)
    except (_NotPlain, ValueError, OSError):  # UnicodeDecodeError is a ValueError
        timestamps, values, linenos = _read_rows(path)
    defect = _first_defect(timestamps, values)
    if defect is not None:
        row, what = defect
        raise DataError(f"{path}:{linenos[row]}: {what}")
    return RawDataset(name=name or path.stem, timestamps=timestamps, values=values,
                      frequency=frequency, path=str(path), lines=linenos)


class _NotPlain(Exception):
    """The file has a line that only the row-by-row parser reads correctly."""


def _read_plain(path: Path) -> tuple:
    """(stamps, values) of a file of plain lines; _NotPlain or loadtxt's ValueError if not.

    A stamp is the text before its line's first comma, and the rest of every
    line goes through one `np.loadtxt` call.  loadtxt only checks that rows
    agree with each other, so the shape is checked against the header.
    """
    limit = csv.field_size_limit()
    stamps = []
    with path.open(encoding="utf-8") as fh:
        header = fh.readline()
        if '"' in header or len(header) > limit:
            raise _NotPlain
        lines = _plain_lines(fh, stamps, limit)
        first = next(lines, None)
        if first is None:  # loadtxt would warn on a file with no data
            raise _NotPlain
        values = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                            comments=None, ndmin=2)
    if values.shape != (len(stamps), header.count(",")):
        raise _NotPlain
    return stamps, values


def _plain_lines(fh, stamps: list, limit: int):
    """Yield each line's text after its first comma, appending its stamp.

    A plain line is one `csv` splits at every comma and whose cells `float`
    and `np.loadtxt` read alike: it has a comma but does not end in one, and
    has no quote, no cell over the field size limit and only printable
    characters.  loadtxt strips the separators U+001C-U+001F around a number
    where `float` rejects them, skips an empty line where `float` rejects
    an empty cell, and blank or quoted lines change what `csv` reads.
    """
    for line in fh:
        body = line[:-1] if line.endswith("\n") else line
        cut = body.find(",")
        if (cut < 0 or body.endswith(",") or '"' in body or len(body) > limit
                or not body.isprintable()):
            raise _NotPlain
        stamps.append(body[:cut])
        yield body[cut + 1:]


def _read_rows(path: Path) -> tuple:
    """(stamps, values, file line of each row), parsed cell by cell with `csv`."""
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
    return timestamps, np.asarray(rows, dtype=np.float64), linenos


def _first_defect(timestamps: list, values: np.ndarray) -> tuple | None:
    """(row, what is wrong) for the first stamp out of order or non-finite row."""
    keys = [_time_key(t) for t in timestamps]
    for i in range(1, len(keys)):
        try:
            increasing = keys[i - 1] < keys[i]
        except TypeError:  # stamps of two kinds, e.g. an ISO one next to a number
            return i, (f"mixed timestamp formats "
                       f"({timestamps[i - 1]!r} then {timestamps[i]!r})")
        if not increasing:
            return i, (f"timestamps not strictly increasing "
                       f"({timestamps[i - 1]!r} then {timestamps[i]!r})")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        return int(np.argmin(finite)), "non-finite feature cell (nan or inf)"
    return None


def _time_key(stamp: str):
    """An ISO date-time, else a number (an integer index), else the string."""
    for parse in (datetime.fromisoformat, float):
        try:
            return parse(stamp.strip())
        except ValueError:
            pass
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
    downstream are computed in this standardized space.  A value too large
    for float64 arithmetic to standardize, in a column's statistics or in
    the result, is a DataError naming its file, CSV column and, for a
    value, file line: an infinite std would zero the whole column.
    """
    if len(train_range) < 1:
        raise ConfigError("empty train range for standardization")
    train = ds.values[train_range.start:train_range.end]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        std = train.std(axis=0)
    for what, stat in (("mean", mean), ("std", std)):
        finite = np.isfinite(stat)
        if not finite.all():
            raise DataError(f"{ds.where()}: CSV column {int(np.argmin(finite)) + 2}: the train "
                            f"range's {what} is not finite (values too large to standardize)")
    flat = std == 0.0
    if flat.any():
        warnings.warn(
            f"{ds.name}: {int(flat.sum())} constant column(s) in the train range",
            stacklevel=2,
        )
        std = np.where(flat, 1.0, std)
    with np.errstate(over="ignore"):
        values = (ds.values - mean) / std
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.unravel_index(np.argmin(finite), finite.shape)
        raise DataError(f"{ds.where(row)}: CSV column {col + 2}: {float(ds.values[row, col])!r} "
                        f"does not standardize to a finite value (train mean "
                        f"{float(mean[col]):g}, std {float(std[col]):g})")
    return values, mean, std


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

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def prepare(ds: RawDataset, spec: SplitSpec, lookback: int) -> DatasetSplits:
    train, val, test = split(ds, spec, lookback)
    values = standardize(ds, train)[0]
    return DatasetSplits(name=ds.name, values=values, train=train, val=val, test=test)
