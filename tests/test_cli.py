import contextlib
import csv
import io
import json
import os
import platform
import shlex
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hakan.tensor as tt
from hakan import cli, errors, pool
from hakan import model as model_mod
from hakan.config import (RunConfig, load_config, parse_config, serialize_config,
                          with_values)
from hakan.data import SplitSpec, load_csv, prepare, window_count
from hakan.errors import ConfigError, ContractError, DataError
from hakan.model import HaKanModel, HahnKanBlock, ModelConfig, count_breakdown
from hakan.training import TrainSpec

from helpers import REPO_ROOT, write_synthetic_csv

TINY_MODEL_KEYS = """
model.lookback = 16
model.horizon = 4
model.patch_len = 4
model.stride = 2
model.embed_dim = 4
model.blocks = 1
model.bottleneck = 6
model.degree = 2
train.max_epochs = 3
train.patience = 3
train.lr = 1e-3
train.batch_size = 32
"""


@pytest.fixture
def tiny_run(tmp_path):
    """A synthetic dataset plus a small config file, ready for the CLI."""
    data = write_synthetic_csv(tmp_path / "series.csv", rows=240, channels=2)
    cfg_text = (
        f"data.path = {data}\n"
        "data.name = synthetic\n"
        "data.split = ratio\n"
        f"run.out = {tmp_path / 'runs'}\n"
        "run.seeds = 11\n"
        + TINY_MODEL_KEYS
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    return cfg_path, data, tmp_path / "runs"


# `\n\` marks the trailing space after an empty value.
DEFAULT_CONFIG_TEXT = """\
data.path = \n\
data.name = \n\
data.split = ratio
data.frequency = hourly

model.lookback = 96
model.horizon = 96
model.patch_len = 16
model.stride = 8
model.embed_dim = 128
model.blocks = 5
model.bottleneck = 336
model.basis = hahn
model.hahn_a = 1.0
model.hahn_b = 1.0
model.hahn_n = 7
model.degree = 3
model.mode = kan
model.components = both
model.revin_eps = 1e-05

train.max_epochs = 100
train.patience = 10
train.lr = 0.0001
train.batch_size = 64

run.seeds = 2021,2022,2023
run.out = runs
"""


def read_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigFormat:
    def test_round_trip(self):
        cfg = RunConfig(data_path="x.csv",
                        model=ModelConfig(lookback=104, horizon=96, components="inter-only"),
                        train=TrainSpec(lr=2.5e-3), seeds=(1, 2, 3))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_default_serialization_is_pinned(self):
        assert serialize_config(RunConfig()) == DEFAULT_CONFIG_TEXT

    @pytest.mark.parametrize("key", ["run.deterministic", "run.finite_guards",
                                     "data.prepend_context", "model.init_scale",
                                     "train.clip_grad", "model.intra", "model.inter"])
    def test_removed_keys_are_unknown(self, tmp_path, key, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = true\n")
        assert cli.main(["params", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="model.width"):
            parse_config("model.width = 3\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="model.lookback"):
            parse_config("model.lookback = twelve\n")

    def test_line_without_equals_is_named(self):
        with pytest.raises(ConfigError, match="config line 2: expected 'key = value'"):
            parse_config("model.lookback = 48\nmodel.horizon 96\n")

    def test_missing_config_file_exits_config_code(self, tmp_path, capsys):
        gone = tmp_path / "gone.cfg"
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(gone)
        assert cli.main(["params", "--config", str(gone)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config file not found: {gone}\n"

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nmodel.lookback = 48  # inline\n")
        assert cfg.model.lookback == 48

    def test_shipped_configs_parse(self):
        for path in sorted((REPO_ROOT / "configs").rglob("*.cfg")):
            cfg = load_config(path)
            assert cfg.data_path, path


class TestTrainCommand:
    def test_writes_metrics_checkpoint_manifest(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        rows = read_metrics(out_dir / "metrics.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["dataset"] == "synthetic" and row["seed"] == "11"
        assert float(row["mse"]) >= 0.0
        ckpt = out_dir / "synthetic_T4_seed11.npz"
        assert ckpt.exists()
        manifest = out_dir / "synthetic_T4_seed11.manifest"
        # the manifest body is itself a valid config that reproduces the run
        reparsed = parse_config(manifest.read_text())
        assert reparsed == load_config(cfg_path)
        assert "result.mse" in manifest.read_text()

    def test_manifest_records_the_machine(self, tiny_run):
        # numpy, the BLAS, the CPU count, the pool size, the BLAS thread
        # count and the heap setting ride along as comments, so the manifest
        # still parses as the config of the run
        cfg_path, _, out_dir = tiny_run
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        text = (out_dir / "synthetic_T4_seed11.manifest").read_text()
        notes = dict(line[2:].split(" = ", 1) for line in text.splitlines()
                     if line.startswith("# run."))
        assert notes["run.numpy"] == np.__version__
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert notes["run.blas"] == f"{blas['name']} {blas['version']}"
        assert int(notes["run.cpus"]) == len(os.sched_getaffinity(0)) >= 1
        assert int(notes["run.pool"]) == pool.size() >= 1
        threads = pool.blas_threads()
        assert notes["run.blas_threads"] == ("unknown" if threads is None else str(threads))
        if pool.size() > 1:  # the pool runs only where BLAS is pinned to one thread
            assert threads == 1
        assert notes["run.heap"] == ("retained" if pool.heap_retained() else "default")
        if platform.libc_ver()[0] == "glibc":  # glibc has mallopt and takes both thresholds
            assert notes["run.heap"] == "retained"
        assert parse_config(text) == load_config(cfg_path)

    def test_multi_seed_appends_summary(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["train", "--config", str(cfg_path),
                         "--seeds", "1,2,3", "--max-epochs", "1"])
        assert code == 0
        rows = read_metrics(out_dir / "metrics.csv")
        seeds = [row["seed"] for row in rows]
        assert seeds == ["1", "2", "3", "mean", "std"]

    def test_non_finite_training_names_epoch_and_step(self, tiny_run, capsys):
        # the first Adam step moves every weight by ~lr, so the second
        # forward overflows and the op guard stops training
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["train", "--config", str(cfg_path), "--lr", "1e300"])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == ("numeric error: epoch 1 step 2: "
                       "operation produced non-finite values\n")
        assert not (out_dir / "metrics.csv").exists()
        assert not tt._tape()  # the failed step's nodes are freed

    def test_adam_overflow_names_epoch_and_step(self, tiny_run, capsys):
        # the gradients stay finite, but their squares overflow Adam's
        # second moment before any forward does
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["train", "--config", str(cfg_path), "--lr", "1e30"])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric error: epoch 1 step 3: adam second moment is not finite\n"
        assert not (out_dir / "metrics.csv").exists()

    def test_non_finite_test_metric_exits_numeric_code(self, tiny_run, capsys):
        # finite values whose squared test errors sum past float range
        cfg_path, data, out_dir = tiny_run
        lines = data.read_text().splitlines()
        for i in range(len(lines) - 10, len(lines)):
            stamp, _, *rest = lines[i].split(",")
            lines[i] = ",".join([stamp, "3e153", *rest])
        data.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: evaluation metrics are not finite: mse inf")
        assert len(err.splitlines()) == 1
        assert not (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("line, cell, message", [
        (6, "1e308", ": CSV column 2: the train range's std is not finite"),
        (241, "1.7e308", ":241: CSV column 2: 1.7e+308 does not standardize to a finite value"),
    ], ids=["train-std", "test-value"])
    def test_value_too_large_to_standardize_exits_data_code(self, tiny_run, capsys,
                                                            line, cell, message):
        # finite cells whose standardization overflows: an infinite train std
        # zeroed the channel and trained on it; an infinite standardized test
        # value failed only after training, as a non-finite metric
        cfg_path, data, out_dir = tiny_run
        lines = data.read_text().splitlines()
        stamp, _, *rest = lines[line - 1].split(",")
        lines[line - 1] = ",".join([stamp, cell, *rest])
        data.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}{message}") and len(err.splitlines()) == 1
        assert not (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("flags, key", [
        (["--horizon", "1000000000000"], None),
        ([], "model.embed_dim = 1000000000000"),
        (["--horizon", "100000000000000000000"], None),
        ([], "model.embed_dim = 100000000000000000000"),
        ([], "model.bottleneck = 100000000000000000000"),
    ], ids=["horizon", "embed_dim", "horizon-past-int64", "embed_dim-past-int64",
            "bottleneck-past-int64"])
    def test_absurd_model_size_exits_config_code(self, tiny_run, capsys, flags, key):
        # sizes whose first parameter allocation fails at once; past int64,
        # numpy refuses the shape before allocating anything
        cfg_path, _, out_dir = tiny_run
        if key:
            cfg_path.write_text(cfg_path.read_text() + key + "\n")
        code = cli.main(["train", "--config", str(cfg_path), *flags])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: the model's ") and "do not fit in memory" in err
        assert len(err.splitlines()) == 1
        assert not (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("bytes_per_parameter, code", [(3 * 8, cli.EXIT_CONFIG), (4 * 8, 0)])
    def test_memory_guard_counts_four_arrays_per_parameter(self, tiny_run, monkeypatch, capsys,
                                                           bytes_per_parameter, code):
        # a train step holds four float64 arrays per parameter: the parameter,
        # its gradient and Adam's two moments; `Adam.step` works in its
        # workers' task scratch
        cfg_path, _, out_dir = tiny_run
        physical = bytes_per_parameter * load_config(cfg_path).model.parameter_count()
        sysconf = os.sysconf
        reported = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical}
        monkeypatch.setattr(os, "sysconf", lambda name: reported.get(name) or sysconf(name))
        assert cli.main(["train", "--config", str(cfg_path)]) == code
        err = capsys.readouterr().err
        if code:
            assert "do not fit in memory" in err and len(err.splitlines()) == 1
            assert not (out_dir / "metrics.csv").exists()
        else:
            assert (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_memory_guard_without_sysconf_lets_train_run(self, tiny_run, monkeypatch, error):
        # a platform that cannot report its memory gives nothing to compare
        cfg_path, _, out_dir = tiny_run

        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert (out_dir / "metrics.csv").exists()

    def test_no_dataset_path_exits_config_code(self, tiny_run, capsys):
        cfg_path, _, out_dir = tiny_run
        cfg_path.write_text(cfg_path.read_text() + "data.path = \n")
        assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: no dataset path configured (data.path)\n"
        assert not (out_dir / "metrics.csv").exists()

    def test_missing_dataset_exits_data_code(self, tiny_run, tmp_path):
        cfg_path, _, _ = tiny_run
        code = cli.main(["train", "--config", str(cfg_path),
                         "--data", str(tmp_path / "gone.csv")])
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("stamp, cell, message", [
        ("day 5", None, "mixed timestamp formats"),
        (None, "nan", "non-finite"),
        (None, "inf", "non-finite"),
        ("2020-01-01 00:00:03", None, "not strictly increasing"),  # line 5's stamp
    ])
    def test_malformed_row_exits_data_code(self, tiny_run, capsys, stamp, cell, message):
        # line 6 of the file gets a non-ISO stamp among ISO ones, or a bad cell
        cfg_path, data, out_dir = tiny_run
        lines = data.read_text().splitlines()
        old_stamp, first, *rest = lines[5].split(",")
        lines[5] = ",".join([stamp or old_stamp, cell or first, *rest])
        data.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{data}:6:" in err and message in err
        assert not (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("damage, where, message", [
        ("bad_utf8", "", "not UTF-8 text"),
        ("long_field", ":6:", "field larger than field limit"),
        ("directory", "", "Is a directory"),
    ])
    def test_unreadable_csv_exits_data_code(self, tiny_run, capsys, damage, where, message):
        cfg_path, data, out_dir = tiny_run
        raw = data.read_bytes().split(b"\n")
        if damage == "bad_utf8":
            raw[5] = raw[5].replace(b"2020", b"\xff\xfe20", 1)
            data.write_bytes(b"\n".join(raw))
        elif damage == "long_field":
            raw[5] = b"x" * 131073 + raw[5][raw[5].index(b","):]
            data.write_bytes(b"\n".join(raw))
        else:
            data.unlink()
            data.mkdir()
        assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{data}{where}" in err and message in err
        assert not (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("damage, message", [
        ("bad_utf8", "not UTF-8 text"),
        ("directory", "Is a directory"),
    ])
    def test_unreadable_config_exits_config_code(self, tmp_path, capsys, damage, message):
        cfg = tmp_path / "run.cfg"
        if damage == "bad_utf8":
            cfg.write_bytes(b"model.lookback = 96\n# caf\xe9\n")
        else:
            cfg.mkdir()
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(cfg) in err and message in err

    def test_unknown_config_key_exits_config_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.magic = 1\n")
        assert cli.main(["train", "--config", str(bad)]) == cli.EXIT_CONFIG


# Each defect on its own makes load_csv reject the file.
CSV_DEFECTS = ("ragged", "duplicate_stamp", "mixed_stamp", "non_finite",
               "bad_utf8", "header_only", "empty")


@st.composite
def malformed_csv(draw) -> bytes:
    """A small CSV with at least one defect, sometimes behind a UTF-8 BOM."""
    rows = [[f"2020-01-01 00:00:{i:02d}", f"{np.sin(i):.4f}", f"{np.cos(i):.4f}"]
            for i in range(60)]
    defects = draw(st.sets(st.sampled_from(CSV_DEFECTS), min_size=1, max_size=2))
    line = st.integers(1, len(rows) - 1)
    if "non_finite" in defects:
        rows[draw(line)][draw(st.integers(1, 2))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]))
    if "duplicate_stamp" in defects:
        i = draw(line)
        rows[i][0] = rows[i - 1][0]
    if "mixed_stamp" in defects:
        rows[draw(line)][0] = draw(st.sampled_from(["day 5", "", "05/01/2020",
                                                     "2020-13-01"]))
    if "ragged" in defects:  # last, so the edits above index full rows
        i = draw(line)
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0.0"]
    text = "date,a,b\n" + "".join(",".join(row) + "\n" for row in rows)
    if "header_only" in defects:
        text = "date,a,b\n"
    if "empty" in defects:
        text = ""
    raw = text.encode("utf-8")
    if "bad_utf8" in defects:
        cut = draw(st.integers(0, len(raw)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"]))
        raw = raw[:cut] + bad + raw[cut:]
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    return raw


@settings(max_examples=50, derandomize=True, deadline=None)
@given(raw=malformed_csv())
def test_malformed_csv_fuzz(raw):
    # the exit-code contract at the CSV boundary: a contract code and a
    # one-line message naming the file, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "series.csv"
        data.write_bytes(raw)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(f"data.path = {data}\nrun.out = {Path(tmp) / 'runs'}\n"
                       f"run.seeds = 1\n{TINY_MODEL_KEYS}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["train", "--config", str(cfg)])
    assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    assert len(err.getvalue().splitlines()) == 1
    assert str(data) in err.getvalue()


CHECKPOINT_DEFECTS = ("drop_key", "dtype", "non_finite", "reshape", "truncate",
                      "config_text", "config_json", "config_field", "config_size")
HUGE_INTS = st.sampled_from([10**9, 10**15, 2**63])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | HUGE_INTS | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_checkpoint(draw) -> tuple:
    """(the file's bytes, whether the defect must exit 3) for a tiny saved model."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        HaKanModel(parse_config(TINY_MODEL_KEYS).bind(2, seed=1)[0]).save(path)
        with np.load(path) as archive:
            arrays = dict(archive)
    params = sorted(k for k in arrays if k != "__model_config__")
    key = draw(st.sampled_from(params))
    damage = draw(st.sampled_from(CHECKPOINT_DEFECTS))
    if damage == "drop_key":
        del arrays[draw(st.sampled_from(sorted(arrays)))]
    elif damage == "dtype":
        arrays[key] = draw(st.sampled_from([
            arrays[key].astype(str), arrays[key].astype(complex),
            arrays[key].astype(object), arrays[key] > 0,
        ]))
    elif damage == "non_finite":
        flat = arrays[key].reshape(-1).copy()
        flat[draw(st.integers(0, flat.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        arrays[key] = flat.reshape(arrays[key].shape)
    elif damage == "reshape":
        arrays[key] = draw(st.sampled_from([
            arrays[key].reshape(-1), arrays[key][..., None], arrays[key][1:],
            arrays[key].T,
        ]))
    elif damage == "config_text":
        arrays["__model_config__"] = np.array(draw(st.text(max_size=40)))
    elif damage == "config_json":
        arrays["__model_config__"] = np.array(json.dumps(draw(JSON_VALUES)))
    elif damage == "config_field":
        config = json.loads(str(arrays["__model_config__"]))
        config[draw(st.sampled_from(sorted(config)))] = draw(JSON_VALUES)
        arrays["__model_config__"] = np.array(json.dumps(config))
    elif damage == "config_size":  # an int field that no real model could hold
        config = json.loads(str(arrays["__model_config__"]))
        ints = sorted(k for k, v in config.items() if type(v) is int)
        config[draw(st.sampled_from(ints))] = draw(HUGE_INTS)
        arrays["__model_config__"] = np.array(json.dumps(config))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    raw = buffer.getvalue()
    if damage == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    return raw, damage in ("dtype", "non_finite")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=damaged_checkpoint())
def test_damaged_checkpoint_fuzz(case):
    # the exit-code contract at the checkpoint boundary: a contract code and
    # at most one stderr line, never a traceback; a bad dtype or value is 3
    raw, must_reject = case
    with tempfile.TemporaryDirectory() as tmp:
        data = write_synthetic_csv(Path(tmp) / "series.csv", rows=240, channels=2)
        ckpt = Path(tmp) / "model.npz"
        ckpt.write_bytes(raw)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(f"data.path = {data}\nrun.out = {Path(tmp) / 'runs'}\n"
                       f"{TINY_MODEL_KEYS}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    assert len(err.getvalue().splitlines()) == (0 if code == cli.EXIT_OK else 1)
    if must_reject:
        assert code == cli.EXIT_DATA


class TestEvalCommand:
    def test_matches_training_row(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        trained = read_metrics(out_dir / "metrics.csv")[0]
        ckpt = out_dir / "synthetic_T4_seed11.npz"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--config", str(cfg_path)]) == 0
        rows = read_metrics(out_dir / "metrics.csv")
        assert rows[-1]["mse"] == trained["mse"]
        assert rows[-1]["mae"] == trained["mae"]

    def test_channel_mismatch_is_config_error(self, tiny_run, tmp_path):
        cfg_path, _, out_dir = tiny_run
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        other = write_synthetic_csv(tmp_path / "wide.csv", rows=240, channels=5)
        code = cli.main(["eval",
                         "--checkpoint", str(out_dir / "synthetic_T4_seed11.npz"),
                         "--config", str(cfg_path), "--data", str(other)])
        assert code == cli.EXIT_CONFIG

    def test_horizon_mismatch_rejected(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        code = cli.main(["eval",
                         "--checkpoint", str(out_dir / "synthetic_T4_seed11.npz"),
                         "--config", str(cfg_path), "--horizon", "8"])
        assert code == cli.EXIT_CONFIG

    def test_zero_parameter_checkpoint_hits_mean_baseline(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        cfg = load_config(cfg_path)
        splits = prepare(load_csv(cfg.data_path), SplitSpec("ratio"), cfg.model.lookback)
        model = HaKanModel(cfg.bind(splits.n_channels, seed=1)[0])
        for p in model.parameters():
            p.data[:] = 0.0
        ckpt = out_dir
        ckpt.mkdir(parents=True, exist_ok=True)
        model.save(ckpt / "zero.npz")
        assert cli.main(["eval", "--checkpoint", str(ckpt / "zero.npz"),
                         "--config", str(cfg_path)]) == 0
        row = read_metrics(out_dir / "metrics.csv")[-1]

        # independent baseline: each window predicts its own input mean
        seg = splits.values[splits.test.start:splits.test.end]
        L, T = cfg.model.lookback, cfg.model.horizon
        n = window_count(len(seg), L, T)
        errs = []
        for o in range(n):
            for c in range(splits.n_channels):
                mean = seg[o:o + L, c].mean()
                errs.append((seg[o + L:o + L + T, c] - mean) ** 2)
        baseline = float(np.mean(errs))
        assert float(row["mse"]) == pytest.approx(baseline, rel=1e-6)

    @pytest.mark.parametrize("damage, message", [
        ("missing_key", "checkpoint key w_up is missing"),
        ("not_a_zip", "is not a readable checkpoint"),
        ("truncated", "is not a readable checkpoint"),
        ("empty", "is not a readable checkpoint"),
        ("npy_array", "is not a model checkpoint"),
        ("object_array", "checkpoint key w_up is unreadable"),
        ("config_not_json", "__model_config__"),
        ("config_not_object", "__model_config__"),
        ("config_bad_field", "__model_config__"),
        ("config_field_type", "revin_eps must be float"),
        ("config_huge_size", "key w_down: shape (6, 32) != (1000000000000000, 32)"),
        ("config_huge_blocks",
         "n_blocks 1000000000 with components 'both' needs 2,000,000,000 block arrays, "
         "2 stored"),
        ("config_huge_float", "int too large to convert to float"),
        ("config_negative_seed", "seed must be >= 0, got -1"),
        ("config_nan_float", "hahn_a must be finite, got nan"),
        ("config_inf_float", "revin_eps must be finite, got inf"),
        ("config_unknown_components", "components must be one of"),
        ("config_old_switches",
         "n_blocks 1 with components 'both' needs 2 block arrays, 1 stored"),
        ("renamed_block", "checkpoint key block.0.inter.gamma is missing"),
        ("str_dtype", "checkpoint key w_up holds <U"),
        ("complex_dtype", "checkpoint key w_up holds complex128"),
        ("nan_value", "checkpoint key w_up holds float64"),
        ("inf_value", "checkpoint key w_up holds float64"),
        ("oversized_header", "checkpoint key w_down does not fit in memory"),
        ("block_header", "checkpoint key block.0.intra.gamma is unreadable"),
        ("directory", "is not a readable checkpoint"),
    ])
    def test_damaged_checkpoint_exits_data_code(self, tiny_run, capsys, monkeypatch,
                                                damage, message):
        cfg_path, _, out_dir = tiny_run
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt = out_dir / "damaged.npz"
        HaKanModel(load_config(cfg_path).bind(2, seed=1)[0]).save(ckpt)
        with np.load(ckpt) as archive:
            arrays = dict(archive)
        if damage == "missing_key":
            del arrays["w_up"]
            np.savez(ckpt, **arrays)
        elif damage == "not_a_zip":
            ckpt.write_text("w_up,w_down\n1,2\n")
        elif damage == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:-100])
        elif damage == "empty":
            ckpt.write_bytes(b"")
        elif damage == "npy_array":  # a bare array holding the config key's name
            with ckpt.open("wb") as fh:
                np.save(fh, np.array(["__model_config__"]))
        elif damage.startswith("config_"):
            stored = json.loads(str(arrays["__model_config__"]))
            arrays["__model_config__"] = np.array({
                "config_not_json": "{lookback: 16",
                "config_not_object": "[16, 4]",
                "config_bad_field": '{"lookback": "x"}',
                "config_field_type": json.dumps({**stored, "revin_eps": "x"}),
                # sizes that would not fit in memory are rejected before any allocation
                "config_huge_size": json.dumps({**stored, "bottleneck_dim": 10**15}),
                "config_huge_blocks": json.dumps({**stored, "n_blocks": 10**9}),
                "config_huge_float": json.dumps({**stored, "hahn_a": 10**400}),
                # values JSON holds that a model cannot seed or compute with
                "config_negative_seed": json.dumps({**stored, "seed": -1}),
                "config_nan_float": json.dumps({**stored, "hahn_a": float("nan")}),
                "config_inf_float": json.dumps({**stored, "revin_eps": float("inf")}),
                "config_unknown_components": json.dumps({**stored, "n_blocks": 10**6,
                                                         "components": "neither"}),
                # the two switches `components` replaced, with the intra layer off
                "config_old_switches": json.dumps(
                    {**{k: v for k, v in stored.items() if k != "components"},
                     "intra_enabled": False, "inter_enabled": True}),
            }[damage])
            if damage == "config_unknown_components":
                # the config is refused before the first block is built
                arrays = {k: v for k, v in arrays.items() if not k.startswith("block.")}
                monkeypatch.setattr(HahnKanBlock, "__init__",
                                    lambda *_: pytest.fail("a block was built"))
            if damage == "config_old_switches":
                del arrays["block.0.intra.gamma"]
            if damage in ("config_huge_blocks", "config_old_switches"):
                # the block arrays are counted by name before any is read
                read_key = model_mod._read_key
                monkeypatch.setattr(model_mod, "_read_key", lambda archive, path, key: (
                    pytest.fail(f"{key} was read") if key.startswith("block.")
                    else read_key(archive, path, key)))
            np.savez(ckpt, **arrays)
        elif damage == "renamed_block":  # the count by name matches, the name does not
            arrays["block.5.inter.gamma"] = arrays.pop("block.0.inter.gamma")
            np.savez(ckpt, **arrays)
        elif damage == "object_array":
            arrays["w_up"] = np.array([{"w": 1}], dtype=object)
            np.savez(ckpt, **arrays)
        elif damage == "oversized_header":  # w_down.npy declares 10^12 float64 values
            np.savez(ckpt, **{k: v for k, v in arrays.items() if k != "w_down"})
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, {"descr": "<f8", "fortran_order": False, "shape": (10**6, 10**6)})
            with zipfile.ZipFile(ckpt, "a") as archive:
                archive.writestr("w_down.npy", header.getvalue() + bytes(64))
        elif damage == "block_header":  # counted by name, then read in its turn
            np.savez(ckpt, **{k: v for k, v in arrays.items() if k != "block.0.intra.gamma"})
            with zipfile.ZipFile(ckpt, "a") as archive:
                archive.writestr("block.0.intra.gamma.npy", b"\x93NUMPY\x01\x00\x08\x00garbage\n")
        elif damage == "directory":
            ckpt.unlink()
            ckpt.mkdir()
        else:
            w_up = arrays["w_up"]
            arrays["w_up"] = {
                "str_dtype": w_up.astype(str),
                "complex_dtype": w_up + 0.5j,
                "nan_value": np.where(w_up > 0, np.nan, w_up),
                "inf_value": np.full_like(w_up, np.inf),
            }[damage]
            np.savez(ckpt, **arrays)
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(ckpt) in err and message in err

    def test_a_model_that_memory_cannot_hold_is_refused(self, tiny_run, capsys, monkeypatch):
        # numpy's MemoryError as the parameters are drawn: the constructor
        # names the parameter count, and `eval` of a sound checkpoint exits 3
        cfg_path, _, out_dir = tiny_run
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt = out_dir / "sound.npz"
        model_cfg = load_config(cfg_path).bind(2, seed=1)[0]
        HaKanModel(model_cfg).save(ckpt)

        def no_memory(*_):
            raise MemoryError

        monkeypatch.setattr(model_mod, "_uniform", no_memory)
        with pytest.raises(ConfigError, match="parameters do not fit in memory"):
            HaKanModel(model_cfg)
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(ckpt) in err and "builds no model" in err and "do not fit in memory" in err


class TestSweepCommand:
    def test_components_axis(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "components",
                         "--values", "both,intra-only,inter-only",
                         "--max-epochs", "1"])
        assert code == 0
        with open(out_dir / "sweep_components.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["components"] for r in rows] == ["both", "intra-only", "inter-only"]
        for row in rows:
            assert float(row["mse"]) > 0.0

    def test_blocks_axis_params_column(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["sweep", "--config", str(cfg_path), "--axis", "blocks",
                         "--values", "0,1", "--max-epochs", "1"])
        assert code == 0
        with open(out_dir / "sweep_blocks.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        delta = int(rows[1]["params"]) - int(rows[0]["params"])
        assert delta == (4 * 4 + 8 * 8) * 3  # (D^2 + N^2)(degree + 1)

    def test_unknown_axis(self, tiny_run, capsys):
        cfg_path, _, _ = tiny_run
        for axis in ("nope", "mlp"):  # `mlp` was a second spelling of `mode`
            assert cli.main(["sweep", "--config", str(cfg_path), "--axis", axis,
                             "--values", "kan"]) == cli.EXIT_CONFIG
            assert f"{axis!r} names no single config key" in capsys.readouterr().err

    def test_axis_value_derivations(self):
        variants = dict(cli._axis_variants("patch_len", "4, 8,16"))
        assert variants["4"] == {"model.patch_len": 4, "model.stride": 2}
        assert variants["16"] == {"model.patch_len": 16, "model.stride": 8}
        variants = dict(cli._axis_variants("lookback", "48,96"))
        assert variants["96"] == {"model.lookback": 96}
        variants = dict(cli._axis_variants("mode", "kan,linear"))
        assert variants["linear"] == {"model.mode": "linear"}
        variants = dict(cli._axis_variants("components", "both,intra-only"))
        assert variants["intra-only"] == {"model.components": "intra-only"}

    @pytest.mark.parametrize("axis, values, message", [
        ("degree", "2,9", "degree 9 exceeds n=7"),
        ("lookback", "16,2", "patch_len 4 exceeds lookback 2"),
        ("components", "both,intra", "components must be one of"),
        ("lr", "1e-3,0", "learning rate must be positive"),
        ("lookback", "16,200", "too short for lookback 200"),
        ("horizon", "4,200", "has no windows for lookback 16 and horizon 200"),
    ])
    def test_invalid_later_value_exits_before_training(self, tiny_run, capsys,
                                                       axis, values, message):
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["sweep", "--config", str(cfg_path), "--axis", axis,
                         "--values", values, "--max-epochs", "1"])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert f"[{axis}=" not in captured.out  # no variant trained
        assert not (out_dir / f"sweep_{axis}.csv").exists()

    def test_any_key_is_an_axis(self, tiny_run, monkeypatch):
        cfg_path, _, out_dir = tiny_run
        reads = []
        monkeypatch.setattr(cli, "load_csv", lambda *args: reads.append(args) or load_csv(*args))
        code = cli.main(["sweep", "--config", str(cfg_path), "--axis", "degree",
                         "--values", "1,2,3", "--max-epochs", "1"])
        assert code == 0
        assert len(reads) == 1  # the variants share one file: checked and trained from one read
        with open(out_dir / "sweep_degree.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["degree"] for r in rows] == ["1", "2", "3"]
        delta = int(rows[1]["params"]) - int(rows[0]["params"])
        assert delta == 4 * 4 + 8 * 8  # one more basis term per block

    def test_a_frequency_axis_reads_the_file_once(self, tiny_run, monkeypatch):
        # load_csv reads data.path and data.name; the frequency only shapes the split
        cfg_path, _, out_dir = tiny_run
        reads = []
        monkeypatch.setattr(cli, "load_csv", lambda *args: reads.append(args) or load_csv(*args))
        code = cli.main(["sweep", "--config", str(cfg_path), "--axis", "frequency",
                         "--values", "hourly,15min", "--max-epochs", "1"])
        assert code == 0
        assert len(reads) == 1
        assert (out_dir / "sweep_frequency.csv").exists()

    def test_no_values_exits_config_code(self, tiny_run, capsys):
        cfg_path, _, out_dir = tiny_run
        assert cli.main(["sweep", "--config", str(cfg_path), "--axis", "blocks",
                         "--values", ","]) == cli.EXIT_CONFIG
        assert "--values" in capsys.readouterr().err
        assert not (out_dir / "sweep_blocks.csv").exists()


@pytest.mark.parametrize("argv", [
    ["train"],
    ["eval", "--checkpoint", "CKPT"],
    ["sweep", "--axis", "blocks", "--values", "1", "--max-epochs", "1"],
])
def test_out_naming_a_file_exits_config_code(tiny_run, capsys, argv):
    cfg_path, _, out_dir = tiny_run
    if "CKPT" in argv:
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
    ckpt = out_dir / "synthetic_T4_seed11.npz"
    argv = [str(ckpt) if arg == "CKPT" else arg for arg in argv]
    blocker = cfg_path.parent / "not_a_dir"
    blocker.write_text("")
    code = cli.main([*argv, "--config", str(cfg_path), "--out", str(blocker)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "run.out" in err and str(blocker) in err


@pytest.mark.parametrize("argv, name", [
    (["train"], "metrics.csv"),
    (["train"], "synthetic_T4_seed11.npz"),
    (["eval", "--checkpoint", "CKPT"], "metrics.csv"),
    (["sweep", "--axis", "blocks", "--values", "1", "--max-epochs", "1"], "sweep_blocks.csv"),
], ids=["train-metrics", "train-checkpoint", "eval-metrics", "sweep"])
def test_failed_write_under_out_exits_config_code(tiny_run, capsys, argv, name):
    # a directory where a file under run.out goes: one config error line
    # naming run.out and the file, not a traceback
    cfg_path, _, out_dir = tiny_run
    ckpt = out_dir / "synthetic_T4_seed11.npz"
    if "CKPT" in argv:
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
    argv = [str(ckpt) if arg == "CKPT" else arg for arg in argv]
    blocker = out_dir / name
    blocker.unlink(missing_ok=True)
    blocker.mkdir(parents=True)
    assert cli.main([*argv, "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: run.out")
    assert str(blocker) in err


@pytest.mark.parametrize("key", ["run.out", "data.name", "data.path"])
@pytest.mark.parametrize("argv", [
    ["train"],
    ["sweep", "--axis", "blocks", "--values", "1", "--max-epochs", "1"],
    ["eval", "--checkpoint", "CKPT"],
], ids=["train", "sweep", "eval"])
def test_nul_byte_in_a_string_value_exits_config_code(tiny_run, capsys, argv, key):
    # no file path or name holds a NUL byte: the key is refused as it is
    # parsed, not by the first file operation that meets it
    cfg_path, _, out_dir = tiny_run
    if "CKPT" in argv:
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
    argv = [str(out_dir / "synthetic_T4_seed11.npz") if arg == "CKPT" else arg
            for arg in argv]
    bad = cfg_path.parent / "nul.cfg"
    bad.write_text(cfg_path.read_text() + f"{key} = x\x00y\n")
    assert cli.main([*argv, "--config", str(bad)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: config key {key}:")
    assert captured.out == ""


def test_train_refuses_a_data_name_holding_a_slash_before_reading(tiny_run, capsys,
                                                                  monkeypatch):
    # every file a run writes is named after data.name
    cfg_path, _, out_dir = tiny_run
    reads = []
    monkeypatch.setattr(cli, "load_csv", lambda *args: reads.append(args))
    cfg_path.write_text(cfg_path.read_text() + "data.name = a/b\n")
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: data.name 'a/b'")
    assert not reads and not out_dir.exists()


@pytest.mark.parametrize("key", ["data.name", "data.path"])
def test_train_refuses_a_data_name_too_long_for_a_file_before_training(tiny_run, capsys,
                                                                       monkeypatch, key):
    # a seed's longest file name, its manifest's, one byte past what run.out
    # holds: refused before any seed trains, naming the key the name came from
    cfg_path, data, out_dir = tiny_run
    limit = os.pathconf(data.parent, "PC_NAME_MAX")
    name = "n" * (limit - len("_T4_seed11.manifest") + 1)
    if key == "data.name":
        extra = f"data.name = {name}\n"
    else:  # the CSV's stem names the dataset
        extra = f"data.path = {data.rename(data.with_name(name + '.csv'))}\ndata.name = \n"
    cfg_path.write_text(cfg_path.read_text() + extra)
    monkeypatch.setattr(cli, "train", lambda *_: pytest.fail("a seed trained"))
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"config error: {key} makes file names of {limit + 1} bytes, over run.out's {limit}")
    assert out_dir.is_dir() and not any(out_dir.iterdir())


@pytest.mark.parametrize("argv, cfg_line", [
    (["train"], "run.seeds = 1,1"),
    (["train", "--seeds", "1,2,1"], ""),
    (["sweep", "--axis", "blocks", "--values", "1", "--max-epochs", "1"], "run.seeds = 1,1"),
], ids=["train", "train-flag", "sweep"])
def test_a_repeated_seed_exits_config_code_before_training(tiny_run, capsys, monkeypatch,
                                                           argv, cfg_line):
    # train would run the seed once and sweep would average it twice
    cfg_path, _, out_dir = tiny_run
    cfg_path.write_text(cfg_path.read_text() + cfg_line + "\n")
    monkeypatch.setattr(cli, "train", lambda *_: pytest.fail("a seed trained"))
    command, *flags = argv
    assert cli.main([command, "--config", str(cfg_path), *flags]) == cli.EXIT_CONFIG
    raw = cfg_line.partition(" = ")[2] or flags[1]
    assert capsys.readouterr().err == (
        f"config error: config key run.seeds: cannot parse value '{raw}'\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 2, "config error"),
    (DataError, 3, "data error"),
    (ContractError, 4, "numeric error"),
])
def test_each_error_class_exits_with_its_own_code(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("the reason")
    monkeypatch.setattr(cli, "cmd_params", fail)
    assert cli.main(["params"]) == code
    assert capsys.readouterr().err == f"{prefix}: the reason\n"


def test_one_error_class_per_exit_code():
    defined = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.HakanError)}
    assert defined == {errors.HakanError, ConfigError, DataError, ContractError}


class TestParamsCommand:
    def test_default_breakdown_shows_block_increment(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("model.lookback = 96\nmodel.horizon = 96\ndata.path = x\n")
        assert cli.main(["params", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "66,112" in out
        assert "total" in out

    def test_no_blocks_no_block_lines(self, capsys):
        assert cli.main(["params", "--blocks", "0"]) == 0
        out = capsys.readouterr().out
        assert "block" not in out

    def test_linear_mode_is_smaller(self, capsys, tmp_path):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text("model.mode = linear\nmodel.lookback = 96\nmodel.horizon = 96\n")
        assert cli.main(["params", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "16,528" in out  # (128^2 + 12^2) with no degree factor

    @pytest.mark.parametrize("flags, field", [
        (["--lookback", "8"], "patch_len"),
        (["--blocks", "-1"], "n_blocks"),
        (["--horizon", "0"], "horizon"),
        (["model.degree = 9", "model.hahn_n = 7"], "degree 9 exceeds n=7"),
        (["model.basis = bspline"], "bspline"),
        (["model.hahn_a = -3"], "a > -1"),
        (["model.components = neither", "--blocks", "1000000"],
         "components must be one of"),
    ])
    def test_invalid_model_exits_config_code(self, capsys, tmp_path, flags, field):
        # the same settings that make `train` exit 2; keys without a flag
        # go into a config file
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"{line}\n" for line in flags if " = " in line))
        argv = [flag for flag in flags if " = " not in flag]
        assert cli.main(["params", "--config", str(cfg), *argv]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert field in captured.err
        assert "total" not in captured.out

    @pytest.mark.parametrize("command", ["params", "train"])
    def test_blocks_past_memory_exit_config_code(self, tiny_run, monkeypatch, capsys,
                                                 command):
        # refused from a count of at most one block's shapes, never by
        # walking the 10**20 blocks or building them
        _walk_at_most_one_block(monkeypatch)
        cfg_path, _, out_dir = tiny_run
        cfg_path.write_text(cfg_path.read_text() + "model.blocks = 100000000000000000000\n")
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "do not fit in memory" in err and len(err.splitlines()) == 1
        assert not (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("command, code", [("params", 0), ("train", 2)])
    def test_a_trillion_blocks_answer_at_once(self, tiny_run, monkeypatch, capsys,
                                              command, code):
        # 6.6e16 parameters pass validation (< 2**63 bytes); params prints
        # one block's row with the count, and train refuses them against
        # the machine's memory before it loads data or builds anything.
        # Neither walks past one block, so neither does work that grows
        # with the block count.
        _walk_at_most_one_block(monkeypatch)
        cfg_path, _, out_dir = tiny_run
        cfg_path.write_text(cfg_path.read_text() + "model.blocks = 1000000000000\n")
        assert cli.main([command, "--config", str(cfg_path)]) == code
        captured = capsys.readouterr()
        if command == "params":
            assert not captured.err
            assert "1,000,000,000,000 x block" in captured.out
        else:
            assert len(captured.err.splitlines()) == 1
            assert "do not fit in memory" in captured.err
        assert not (out_dir / "metrics.csv").exists()

    def test_counts_a_model_too_large_to_allocate(self, capsys):
        # params allocates nothing, so it counts a model `train` refuses (exit 2)
        assert cli.main(["params", "--horizon", "1000000000000"]) == 0
        total = capsys.readouterr().out.splitlines()[-1]
        assert total.split() == ["total", "336,000,000,850,240"]


def _walk_at_most_one_block(monkeypatch) -> None:
    """Fail at once if the model's shapes are walked past one block, or
    if a block is built."""
    shapes = ModelConfig._shapes

    def bounded(config, n_blocks):
        assert n_blocks <= 1, "the shapes of every block were walked"
        return shapes(config, n_blocks)

    def no_block(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(ModelConfig, "_shapes", bounded)
    monkeypatch.setattr(model_mod, "HahnKanBlock", no_block)


@pytest.mark.parametrize("argv, cfg_line, key", [
    (["sweep", "--axis", "blocks", "--values", "x"], "", "model.blocks"),
    (["sweep", "--axis", "lookback", "--values", "1.5"], "", "model.lookback"),
    (["train", "--seeds", "1,x"], "", "run.seeds"),
    (["train", "--lr", "fast"], "", "train.lr"),
    (["params", "--blocks", "x"], "", "model.blocks"),
    (["params"], "run.seeds =", "run.seeds"),
    (["train"], "run.seeds =", "run.seeds"),
    (["train", "--max-epochs", "0"], "", "train.max_epochs"),
    (["train", "--lr", "nan"], "", "train.lr"),
    (["train", "--lr", "inf"], "", "train.lr"),
    (["params"], "model.hahn_a = nan", "model.hahn_a"),
    (["train"], "model.revin_eps = -inf", "model.revin_eps"),
    (["train"], "train.patience = 0", "train.patience"),
    (["train"], "train.patience = -5", "train.patience"),
    (["params"], "run.seeds = -1", "run.seeds"),
    (["train"], "run.seeds = -1", "run.seeds"),
    (["train"], "run.seeds = 3,-1", "run.seeds"),
    (["train", "--seed", "-1"], "", "run.seeds"),
    (["train"], "model.stride = 10000000000000000000000", "stride"),
    (["params"], "model.stride = 10000000000000000000000", "stride"),
    (["train"], "model.revin_eps = -1e-5", "revin_eps"),
    (["params"], "model.revin_eps = -1e-5", "revin_eps"),
])
def test_bad_values_exit_config_code(tiny_run, capsys, argv, cfg_line, key):
    cfg_path, _, out_dir = tiny_run
    cfg_path.write_text(cfg_path.read_text() + cfg_line + "\n")
    command, *flags = argv
    assert cli.main([command, "--config", str(cfg_path), *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and len(err.splitlines()) == 1
    assert not (out_dir / "metrics.csv").exists()


OVERFLOWING_HAHN = {
    "n": "model.hahn_n = 1" + "0" * 400,
    "a-degree-1": "model.degree = 1\nmodel.hahn_a = 1e308",
    "a": "model.hahn_a = 1e308",
    "b": "model.hahn_b = 1e200",
}


@pytest.mark.parametrize("command", ["params", "gradcheck", "train"])
@pytest.mark.parametrize("lines, message", [
    *((lines, "the Hahn recurrence overflows float64 for") for lines in OVERFLOWING_HAHN.values()),
    ("model.hahn_a = -0.25\nmodel.hahn_b = -0.75",
     "A_1 denominator factor 2r+a+b-1 is zero for (a=-0.25, b=-0.75)"),
], ids=[*OVERFLOWING_HAHN, "a-plus-b-is-minus-1"])
def test_hahn_the_recurrence_cannot_run_exits_config_code(tmp_path, capsys, command, lines,
                                                          message):
    # refused where the config is read: train exits 2 before it opens
    # data.path, which does not exist (exit 3 had it read data)
    cfg = tmp_path / "hahn.cfg"
    cfg.write_text(f"data.path = {tmp_path / 'missing.csv'}\nrun.out = {tmp_path}\n{lines}\n")
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert len(err.splitlines()) == 1


def test_readme_quick_start_commands_parse():
    # a Quick start line naming a removed flag, key or axis fails here
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("hakan ")]
    assert len(commands) == 11
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "sweep":  # every value must build a model, as cmd_sweep checks
            base = load_config(REPO_ROOT / args.config)
            for _, changes in cli._axis_variants(args.axis, args.values):
                count_breakdown(with_values(base, changes).model)


class TestGradcheckCommand:
    def test_passes_by_default(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tolerance_flag_honored(self, capsys):
        assert cli.main(["gradcheck", "--tolerance", "1e-13"]) == cli.EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_nonsense_tolerance_exits_config_code(self, value, capsys):
        # nan and -1 would fail every model and inf pass every one
        assert cli.main(["gradcheck", "--tolerance", value]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: --tolerance must be finite and at least 0, "
                                f"got {float(value)}\n")

    @pytest.mark.parametrize("lines, degree", [
        ("model.basis = chebyshev\nmodel.degree = 9\n", 9),
        ("model.basis = Lucas\nmodel.degree = 9\n", 9),
        ("model.basis = HAHN\nmodel.degree = 9\nmodel.blocks = 0\n", 7),
    ], ids=["chebyshev", "lucas", "hahn"])
    def test_config_degree_is_checked(self, tmp_path, monkeypatch, capsys, lines, degree):
        # only a Hahn degree is capped, at n = 7, whatever the basis name's case
        path = tmp_path / "check.cfg"
        path.write_text(lines)
        checked = []
        monkeypatch.setattr(cli, "grad_check", lambda cfg: checked.append(cfg) or {"w_p": 0.0})
        assert cli.main(["gradcheck", "--config", str(path)]) == 0
        assert [cfg.degree for cfg in checked] == [degree]
        out = capsys.readouterr().out
        basis = lines.split("\n")[0].split("= ")[1].lower()
        assert out.startswith(f"checking {basis} degree {degree}, kan mode\n")
        assert "PASS" in out

    @pytest.mark.parametrize("basis, degree", [("hahn", 7), ("lucas", 9), ("chebyshev", 9),
                                               ("hahn", 24)])
    def test_high_degree_models_pass(self, tmp_path, capsys, basis, degree):
        # one central-difference step of 1e-4 read FAIL on the first two
        # (directional 0.17 and 1.5e-3); the step ladder reads <= 1.8e-5.
        # Hahn runs at n = degree: 24 reads 2.5e-9, where folding Hahn into
        # Chebyshev weights read 6.5e-2
        path = tmp_path / "check.cfg"
        path.write_text(f"model.basis = {basis}\nmodel.degree = {degree}\n"
                        f"model.hahn_n = {degree}\n")
        assert cli.main(["gradcheck", "--config", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_backward_detected(self, monkeypatch, capsys):
        # every derivative the backward takes comes through D
        from hakan.basis import Basis
        true_fn = Basis.derivative_matrix
        monkeypatch.setattr(Basis, "derivative_matrix", lambda self: true_fn(self) * 1.01)
        assert cli.main(["gradcheck"]) == cli.EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out
