import csv

import numpy as np
import pytest

from hakan import cli
from hakan.config import RunConfig, load_config, parse_config, serialize_config
from hakan.data import SplitSpec, load_csv, prepare, window_count
from hakan.errors import ConfigError
from hakan.model import HaKanModel, ModelConfig
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
data.prepend_context = true

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
model.intra = true
model.inter = true
model.revin_eps = 1e-05
model.init_scale = 1.0

train.max_epochs = 100
train.patience = 10
train.lr = 0.0001
train.batch_size = 64
train.clip_grad = none

run.seeds = 2021,2022,2023
run.out = runs
"""


def read_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigFormat:
    def test_round_trip(self):
        cfg = RunConfig(data_path="x.csv",
                        model=ModelConfig(lookback=104, horizon=96, intra_enabled=False),
                        train=TrainSpec(lr=2.5e-3, clip_grad=0.5), seeds=(1, 2, 3))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_default_serialization_is_pinned(self):
        assert serialize_config(RunConfig()) == DEFAULT_CONFIG_TEXT

    @pytest.mark.parametrize("key", ["run.deterministic", "run.finite_guards"])
    def test_removed_keys_are_unknown(self, tmp_path, key, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = true\n")
        assert cli.main(["params", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="model.width"):
            parse_config("model.width = 3\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="model.lookback"):
            parse_config("model.lookback = twelve\n")

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

    def test_multi_seed_appends_summary(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["train", "--config", str(cfg_path),
                         "--seeds", "1,2,3", "--max-epochs", "1"])
        assert code == 0
        rows = read_metrics(out_dir / "metrics.csv")
        seeds = [row["seed"] for row in rows]
        assert seeds == ["1", "2", "3", "mean", "std"]

    def test_missing_dataset_exits_data_code(self, tiny_run, tmp_path):
        cfg_path, _, _ = tiny_run
        code = cli.main(["train", "--config", str(cfg_path),
                         "--data", str(tmp_path / "gone.csv")])
        assert code == cli.EXIT_DATA

    def test_unknown_config_key_exits_config_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.magic = 1\n")
        assert cli.main(["train", "--config", str(bad)]) == cli.EXIT_CONFIG


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

    def test_unknown_axis(self, tiny_run):
        cfg_path, _, _ = tiny_run
        assert cli.main(["sweep", "--config", str(cfg_path), "--axis", "nope",
                         "--values", "1"]) == cli.EXIT_CONFIG

    def test_axis_value_derivations(self):
        variants = dict(cli._axis_variants("patch_len", "4, 8,16"))
        assert variants["4"] == {"model.patch_len": 4, "model.stride": 2}
        assert variants["16"] == {"model.patch_len": 16, "model.stride": 8}
        variants = dict(cli._axis_variants("lookback", "48,96"))
        assert variants["96"] == {"model.lookback": 96}
        variants = dict(cli._axis_variants("mlp", "kan,linear"))
        assert variants["linear"] == {"model.mode": "linear"}
        with pytest.raises(ConfigError):
            list(cli._axis_variants("components", "intra"))

    def test_any_key_is_an_axis(self, tiny_run):
        cfg_path, _, out_dir = tiny_run
        code = cli.main(["sweep", "--config", str(cfg_path), "--axis", "degree",
                         "--values", "1,2", "--max-epochs", "1"])
        assert code == 0
        with open(out_dir / "sweep_degree.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["degree"] for r in rows] == ["1", "2"]
        delta = int(rows[1]["params"]) - int(rows[0]["params"])
        assert delta == 4 * 4 + 8 * 8  # one more basis term per block


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


@pytest.mark.parametrize("argv, cfg_line, key", [
    (["sweep", "--axis", "blocks", "--values", "x"], "", "model.blocks"),
    (["sweep", "--axis", "lookback", "--values", "1.5"], "", "model.lookback"),
    (["train", "--seeds", "1,x"], "", "run.seeds"),
    (["train", "--lr", "fast"], "", "train.lr"),
    (["params", "--blocks", "x"], "", "model.blocks"),
    (["params"], "run.seeds =", "run.seeds"),
    (["train"], "run.seeds =", "run.seeds"),
])
def test_bad_values_exit_config_code(tiny_run, capsys, argv, cfg_line, key):
    cfg_path, _, out_dir = tiny_run
    cfg_path.write_text(cfg_path.read_text() + cfg_line + "\n")
    command, *flags = argv
    assert cli.main([command, "--config", str(cfg_path), *flags]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (out_dir / "metrics.csv").exists()


class TestGradcheckCommand:
    def test_passes_by_default(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tolerance_flag_honored(self, capsys):
        assert cli.main(["gradcheck", "--tolerance", "1e-13"]) == cli.EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_backward_detected(self, monkeypatch, capsys):
        from hakan.basis import HahnBasis
        true_fn = HahnBasis.eval_terms_with_deriv

        def corrupted(self, x):
            vals, ders = true_fn(self, x)
            return vals, [d * 1.01 for d in ders]

        monkeypatch.setattr(HahnBasis, "eval_terms_with_deriv", corrupted)
        assert cli.main(["gradcheck"]) == cli.EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out
