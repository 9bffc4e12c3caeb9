"""Run configuration: a flat `key = value` file format.

A RunConfig nests the library's own settings objects -- SplitSpec under
`data`, ModelConfig under `model`, TrainSpec under `train` -- beside a few
run-level fields, and every file key is derived from those dataclasses: a
nested field is `section.field`, a run-level `data_<x>` field is `data.<x>`
and any other run-level field is `run.<field>`.  ALIASES shortens a few.

Files hold one key per line, with `#` comments.  Every key has a default,
serialization emits every key, and parse(serialize(cfg)) round-trips
exactly, so a resolved config written into a run manifest reproduces the
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .data import SplitSpec
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainSpec

# Fields bound when a run starts, never read from a file: the dataset fixes
# the channel count and every entry of run.seeds is its own run.
PER_RUN = ("n_channels", "seed")

# derived key -> file key
ALIASES = {
    "data.kind": "data.split",
    "model.n_blocks": "model.blocks",
    "model.bottleneck_dim": "model.bottleneck",
    "run.out_dir": "run.out",
}


@dataclass
class RunConfig:
    data_path: str = ""
    data_name: str = ""
    data: SplitSpec = field(default_factory=lambda: SplitSpec("ratio"))
    model: ModelConfig = field(default_factory=lambda: ModelConfig(lookback=96, horizon=96))
    train: TrainSpec = field(default_factory=TrainSpec)
    seeds: tuple = (2021, 2022, 2023)
    out_dir: str = "runs"

    def bind(self, n_channels: int, seed: int) -> tuple:
        """(ModelConfig, TrainSpec) of the run with this seed on this dataset."""
        model = replace(self.model, n_channels=n_channels, seed=seed)
        return model, replace(self.train, seed=seed)


def _key_table() -> dict:
    """{file key: (section attribute or None, field name, type)} in file order."""
    table = {}
    default = RunConfig()
    for outer in fields(RunConfig):
        nested = getattr(default, outer.name)
        if is_dataclass(nested):
            entries = [(outer.name, f, f"{outer.name}.{f.name}")
                       for f in fields(nested) if f.name not in PER_RUN]
        else:
            prefix, _, rest = outer.name.partition("_")
            key = f"data.{rest}" if prefix == "data" else f"run.{outer.name}"
            entries = [(None, outer, key)]
        for section, f, key in entries:
            table[ALIASES.get(key, key)] = (section, f.name, f.type)
    return table


KEYS = _key_table()


def _parse(kind: str, raw: str):
    if kind == "tuple":  # run.seeds: distinct numpy seeds, each a non-negative int
        seeds = tuple(int(s) for s in raw.split(",") if s.strip())
        if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
            raise ValueError(raw)
        return seeds
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
        return value
    if "\x00" in raw:  # no path or file name can hold a NUL byte
        raise ValueError(raw)
    return raw


def parse_value(key: str, raw: str):
    """Parse one raw value for a file key; files, CLI flags and sweeps share it."""
    raw = raw.strip()
    try:
        return _parse(KEYS[key][2], raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse value {raw!r}")


def find_key(name: str) -> str:
    """The file key `name` stands for: a full key or a unique `.suffix`."""
    if name in KEYS:
        return name
    matches = [key for key in KEYS if key.endswith("." + name)]
    if len(matches) != 1:
        raise ConfigError(f"{name!r} names no single config key; keys: {', '.join(KEYS)}")
    return matches[0]


def with_values(cfg: RunConfig, values: dict) -> RunConfig:
    """A copy of `cfg` with {file key: parsed value} applied."""
    top, nested = {}, {}
    for key, value in values.items():
        section, name, _ = KEYS[key]
        if section is None:
            top[name] = value
        else:
            nested.setdefault(section, {})[name] = value
    for section, changes in nested.items():
        top[section] = replace(getattr(cfg, section), **changes)
    return replace(cfg, **top)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = parse_value(key, raw)
    return with_values(RunConfig(), values)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    section = ""
    for key, (owner, name, _) in KEYS.items():
        prefix = key.split(".", 1)[0]
        if prefix != section:
            if section:
                lines.append("")
            section = prefix
        value = getattr(cfg if owner is None else getattr(cfg, owner), name)
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason})")
    except OSError as err:
        raise ConfigError(f"{path}: cannot read ({err.strerror})")
    return parse_config(text)
