"""Seeded synthetic series shaped like the paper's benchmark files.

No dataset files ship with the repository, so every workload loads a CSV
written here: the same seed writes the same bytes.  Timestamps are real,
strictly increasing ISO datetimes one hour apart, so `hakan.data.load_csv`
parses every one of them as a datetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SeriesShape:
    """Layout of one synthetic hourly CSV."""

    rows: int
    columns: tuple  # feature column names, in file order
    start: str  # first timestamp, ISO format
    decimals: int | None  # None writes whole numbers, like the electricity file

    @property
    def channels(self) -> int:
        return len(self.columns)


# ETTh1: 17,420 hourly rows of 7 transformer-load features, 3 decimals.
ETT_HOURLY = SeriesShape(
    rows=17420,
    columns=("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"),
    start="2016-07-01T00:00:00",
    decimals=3,
)

# electricity: 26,304 hourly rows of 321 clients' consumption, whole numbers.
ELECTRICITY = SeriesShape(
    rows=26304,
    columns=tuple(str(i) for i in range(320)) + ("OT",),
    start="2016-07-01T02:00:00",
    decimals=None,
)


def with_channels(shape: SeriesShape, channels: int) -> SeriesShape:
    """The same shape restricted to its first `channels` columns."""
    return SeriesShape(shape.rows, shape.columns[:channels], shape.start, shape.decimals)


def hourly_stamps(start: str, rows: int) -> list:
    """`rows` timestamps one hour apart, formatted as 'YYYY-MM-DD HH:MM:SS'."""
    first = np.datetime64(start, "s")
    stamps = first + np.arange(rows).astype("timedelta64[h]")
    return [s.replace("T", " ") for s in np.datetime_as_string(stamps, unit="s")]


def series_values(shape: SeriesShape, seed: int) -> np.ndarray:
    """[rows, channels] values: daily and weekly cycles, drift and AR(1) noise."""
    rng = np.random.default_rng(seed)
    rows, channels = shape.rows, shape.channels
    t = np.arange(rows, dtype=np.float64)[:, None]
    level = rng.uniform(5.0, 50.0, size=channels)
    daily = rng.uniform(0.2, 0.6, size=channels) * level
    weekly = rng.uniform(0.05, 0.2, size=channels) * level
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(2, channels))
    drift = rng.normal(0.0, 0.1, size=channels) * level / rows
    noise = rng.normal(0.0, 1.0, size=(rows, channels)) * (0.05 * level)
    for i in range(1, rows):
        noise[i] += 0.8 * noise[i - 1]
    values = (level + drift * t
              + daily * np.sin(2.0 * np.pi * t / 24.0 + phase[0])
              + weekly * np.sin(2.0 * np.pi * t / 168.0 + phase[1])
              + noise)
    if shape.decimals is None:
        return np.maximum(np.rint(values * 10.0), 0.0)
    return np.round(values, shape.decimals)


def write_csv(path, shape: SeriesShape, seed: int) -> Path:
    """Write the seeded series for `shape` to `path` and return the path."""
    path = Path(path)
    values = series_values(shape, seed)
    if shape.decimals is None:
        cells = values.astype(np.int64).tolist()
        fmt = str
    else:
        cells = values.tolist()
        fmt = f"{{:.{shape.decimals}f}}".format
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("date," + ",".join(shape.columns) + "\n")
        for stamp, row in zip(hourly_stamps(shape.start, shape.rows), cells):
            fh.write(stamp + "," + ",".join(map(fmt, row)) + "\n")
    return path
