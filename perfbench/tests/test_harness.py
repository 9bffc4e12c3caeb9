"""The benchmark harness against the library it drives.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import math
import time
from datetime import datetime

import numpy as np
import pytest

import harness
import metrics
import synth
from hakan import data, training
from hakan.data import _time_key
from hakan.model import HaKanModel, ModelConfig
from tracing import Tracer

SPEC = json.loads((harness.REFERENCE_PATH.parents[1] / "BENCHMARK.json").read_text())

TINY_SERIES = synth.SeriesShape(rows=300, columns=("a", "b", "c"),
                                start="2020-01-01T00:00:00", decimals=3)


def tiny_splits(tmp_path):
    path = synth.write_csv(tmp_path / "tiny.csv", TINY_SERIES, seed=4)
    return data.prepare(data.load_csv(path), data.SplitSpec("ratio"), lookback=32)


def tiny_config():
    return ModelConfig(lookback=32, horizon=8, n_channels=3, patch_len=8, stride=4,
                       embed_dim=8, n_blocks=2, bottleneck_dim=16, degree=3, seed=3)


def test_step_loop_matches_one_training_epoch(tmp_path):
    splits = tiny_splits(tmp_path)
    spec = training.TrainSpec(max_epochs=1, patience=1, lr=1e-3, batch_size=16, seed=5)
    trained, _ = training.train(HaKanModel(tiny_config()), splits, spec)

    model = HaKanModel(tiny_config())
    optimizer = training.Adam(model.parameters(), lr=spec.lr)
    loop = harness.StepLoop(model, optimizer, splits, spec.batch_size, spec.seed)
    steps_per_epoch = math.ceil(loop.origins.size / spec.batch_size)
    assert steps_per_epoch > 2
    for _ in range(steps_per_epoch):
        loop.step()

    for (name, want), (_, got) in zip(trained.named_parameters(), model.named_parameters()):
        assert np.array_equal(want.data, got.data), name


def test_synthetic_csv_is_seeded_and_has_real_hourly_stamps(tmp_path):
    shape = synth.SeriesShape(rows=90_000, columns=("x",), start="2016-07-01T00:00:00",
                              decimals=None)
    path = synth.write_csv(tmp_path / "a.csv", shape, seed=1)
    again = synth.write_csv(tmp_path / "b.csv", shape, seed=1)
    other = synth.write_csv(tmp_path / "c.csv", shape, seed=2)
    assert path.read_bytes() == again.read_bytes()
    assert path.read_bytes() != other.read_bytes()
    raw = data.load_csv(path)
    keys = [_time_key(s) for s in raw.timestamps]
    assert all(isinstance(k, datetime) for k in keys)
    assert all((b - a).total_seconds() == 3600 for a, b in zip(keys, keys[1:]))
    assert np.all(raw.values >= 0) and np.all(raw.values == np.rint(raw.values))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics.TARGETS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


def test_gate_reference_is_recorded_for_every_workload():
    stored = json.loads(harness.REFERENCE_PATH.read_text())
    assert set(stored) == set(harness.WORKLOADS)
    for ref in stored.values():
        assert len(ref["train_losses"]) == harness.GATE_STEPS


@pytest.mark.parametrize("scale, failures", [(1.0, 0), (1.0 + 1e-13, 0), (1.0 + 1e-6, 2)])
def test_gate_tolerance(scale, failures):
    name = "train-l336"
    reference = json.loads(harness.REFERENCE_PATH.read_text())[name]
    observed = {"train_losses": [v * scale for v in reference["train_losses"]],
                "eval_mse": reference["eval_mse"] * scale}
    ops = harness.Ops()
    harness.check_reference(name, observed, ops)
    assert ops.failed == failures


def test_span_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("a"):
            time.sleep(0.01)
        with tracer.span("b"):
            with tracer.span("c"):
                time.sleep(0.01)
    a, b, c = tracer.spans[1:]
    assert (a.parent, b.parent, c.parent) == (0, 0, 2)
    assert outer.self_time == pytest.approx(outer.duration - a.duration - b.duration)
    assert tracer.descendants(outer) == [a, b, c]
    assert tracer.descendants(b) == [c]


def test_patch_restores_instance_and_class_attributes():
    model = HaKanModel(tiny_config())
    tracer = Tracer()
    with tracer.patch_all([(model, "forward", "fwd"), (HaKanModel, "load", "load")]):
        model.forward(np.zeros(32))
    assert "forward" not in vars(model)
    assert isinstance(vars(HaKanModel)["load"], classmethod)
    assert [s.name for s in tracer.spans] == ["fwd"]


def test_kan_counts_by_hand():
    # 8 patches embedded in 6 dims, 4 basis terms, 2 blocks, batch 2
    config = ModelConfig(lookback=32, horizon=8, patch_len=8, stride=4, embed_dim=6,
                         n_blocks=2, degree=3)
    flop, byte = metrics.kan_counts(config, batch_size=2)
    intra_rows, inter_rows = 2 * 8, 2 * 6
    assert flop == 2 * 3 * 2 * 4 * (intra_rows * 6 * 6 + inter_rows * 8 * 8)
    assert byte == 2 * 8 * 11 * (intra_rows * 6 + inter_rows * 8)
