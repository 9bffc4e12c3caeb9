"""The exit-code contract over the whole config file.

Every command is run with each config key set, one at a time, to each edge
value.  Each run must exit 0 (ok), 2 (config), 3 (data) or 4 (numeric),
never 1 with a traceback, and a failing run prints exactly one stderr line.
"""

import contextlib
import io
import time

import pytest

from hakan import cli
from hakan.basis import MAX_DEGREE
from hakan.config import KEYS, parse_config
from hakan.model import HaKanModel

from helpers import write_synthetic_csv

# negative, zero, past int64, near the float limit, nan, empty, a word, a
# list and a trillion
EDGE_VALUES = ("-5", "0", str(2**63), "1e308", "nan", "", "word", "1,2", str(10**12))

TINY_RUN = """\
run.seeds = 11
model.lookback = 16
model.horizon = 4
model.patch_len = 4
model.stride = 2
model.embed_dim = 4
model.blocks = 1
model.bottleneck = 6
model.degree = 2
train.patience = 3
train.lr = 1e-3
train.batch_size = 32
"""

COMMANDS = {
    "params": ["params"],
    "train": ["train", "--max-epochs", "1"],
    "eval": ["eval", "--checkpoint", "CKPT"],
    "sweep": ["sweep", "--axis", "data.name", "--values", "a,b", "--max-epochs", "1"],
}


def _tiny_run(tmp_path) -> tuple:
    """(config text, checkpoint path) of a 2-channel synthetic run."""
    data = write_synthetic_csv(tmp_path / "series.csv", rows=120, channels=2)
    base = f"data.path = {data}\nrun.out = {tmp_path / 'runs'}\n{TINY_RUN}"
    ckpt = tmp_path / "model.npz"
    HaKanModel(parse_config(base).bind(2, seed=1)[0]).save(ckpt)
    return base, ckpt


@pytest.mark.parametrize("command", COMMANDS)
def test_every_key_at_every_edge_value_keeps_the_contract(tmp_path, monkeypatch, command):
    # run.out names relative directories, so the runs write under tmp_path
    monkeypatch.chdir(tmp_path)
    base, ckpt = _tiny_run(tmp_path)
    argv = [str(ckpt) if arg == "CKPT" else arg for arg in COMMANDS[command]]
    cfg = tmp_path / "run.cfg"
    broken = []
    for key in KEYS:
        for value in EDGE_VALUES:
            cfg.write_text(f"{base}{key} = {value}\n")  # the last line of a key wins
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--config", str(cfg)])
            lines = err.getvalue().splitlines()
            if code not in (0, 2, 3, 4) or (code != 0 and len(lines) != 1):
                broken.append(f"{key} = {value!r}: exit {code}, stderr {lines}")
    assert not broken


@pytest.mark.parametrize("value", ["0", "-5"])
def test_eval_checks_the_train_section(tmp_path, capsys, value):
    # eval reads only train.batch_size of that section, and once traced back on it
    base, ckpt = _tiny_run(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{base}train.batch_size = {value}\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: batch_size must be >= 1\n"
    assert not (tmp_path / "runs" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["params", "train"])
@pytest.mark.parametrize("keys", [
    "model.basis = chebyshev\nmodel.degree = 1000000000000\n",
    "model.hahn_n = 1000000000000\nmodel.degree = 1000000000000\n",
], ids=["chebyshev", "hahn"])
def test_a_huge_degree_exits_config_code_at_once(tmp_path, capsys, command, keys):
    # two keys together: the basis builds one recurrence step per degree, so
    # an unbounded degree once ran out of memory (chebyshev) or looped in
    # the Hahn coefficients until a timeout
    base, _ = _tiny_run(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(base + keys)
    started = time.perf_counter()
    assert cli.main([*COMMANDS[command], "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        f"config error: degree must be in [0, {MAX_DEGREE}], got 1000000000000\n")
