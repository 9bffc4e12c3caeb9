"""The library surface the benchmark in perfbench/ wraps and calls.

The benchmark's traced run patches named functions and methods of hakan
and drives a train step, `evaluate`, `predict` and an isolated KAN
backward through them.  This runs that path once on a tiny model, so a
rename or removal it depends on fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import synth  # noqa: E402
from tracing import Tracer  # noqa: E402

from hakan import data, training  # noqa: E402
from hakan.model import HaKanModel, ModelConfig  # noqa: E402

SERIES = synth.SeriesShape(rows=300, columns=("a", "b", "c"),
                           start="2020-01-01T00:00:00", decimals=3)


def test_traced_step_records_every_target(tmp_path):
    cfg = ModelConfig(lookback=32, horizon=8, n_channels=3, patch_len=8, stride=4,
                      embed_dim=8, n_blocks=2, bottleneck_dim=16, degree=3, seed=3)
    model = HaKanModel(cfg)
    model.save(tmp_path / "model.npz")
    optimizer = training.Adam(model.parameters(), lr=1e-3)
    csv_path = synth.write_csv(tmp_path / "tiny.csv", SERIES, seed=4)
    targets = harness.module_targets() + harness.instance_targets(model, optimizer)
    tracer = Tracer()
    inputs = {}
    # entered in the order the harness enters them, so they unwind cleanly
    with harness.capture_layer_inputs(model.blocks[0], inputs), tracer.patch_all(targets):
        splits = data.prepare(data.load_csv(csv_path, frequency="hourly"),
                              data.SplitSpec("ratio"), cfg.lookback)
        HaKanModel.load(tmp_path / "model.npz")
        loop = harness.StepLoop(model, optimizer, splits, batch_size=16, seed=5)
        _, nodes = loop.step()
        training.evaluate(model, splits, splits.val, harness.EVAL_BATCH)
        forecast = model.predict(splits.values[:cfg.lookback])
        isolated = harness.isolated_kan_backward(model, inputs)
    assert forecast.shape == (cfg.horizon, 3)
    assert nodes == 6 + 3 * cfg.n_blocks
    assert sorted(isolated) == ["inter", "intra"]
    recorded = {span.name for span in tracer.spans}
    missing = [name for _, _, name in targets if name not in recorded]
    assert not missing
