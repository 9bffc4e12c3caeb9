"""Plain test helpers: repository paths, dataset lookup, synthetic CSVs."""

import os
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = Path(os.environ.get("HAKAN_DATA", REPO_ROOT / "data"))


def require_dataset(filename: str) -> Path:
    path = DATA_DIR / filename
    if not path.exists():
        pytest.skip(
            f"benchmark file {filename} not present; place it under {DATA_DIR} "
            f"(or set HAKAN_DATA) to run this reproduction"
        )
    return path


def write_synthetic_csv(path: Path, rows: int, channels: int, seed: int = 0) -> Path:
    """A small sinusoid-plus-noise multivariate CSV in the expected layout."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows)
    cols = []
    for c in range(channels):
        period = 12 + 5 * c
        cols.append(np.sin(2 * np.pi * t / period) + 0.05 * rng.normal(size=rows) + c)
    values = np.stack(cols, axis=1)
    lines = ["date," + ",".join(f"f{c}" for c in range(channels))]
    for i in range(rows):
        stamp = f"2020-01-01 {i // 3600:02d}:{(i // 60) % 60:02d}:{i % 60:02d}"
        lines.append(stamp + "," + ",".join(f"{v:.6f}" for v in values[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
