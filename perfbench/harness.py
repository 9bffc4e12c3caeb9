"""The benchmark's workloads, run through the public hakan API in one process.

One caller drives a closed loop: each train step, `evaluate` or `predict`
call starts when the previous one returns.  Every workload runs the same
pipeline on its own synthetic CSV:

1. the correctness gate: a short fixed-seed run whose train losses and
   eval MSE must match `reference.json`, recorded on the code it checks;
2. set-up, repeated (see SETUP_REPEATS): `load_csv`, `prepare`, model
   construction, a `save` / `HaKanModel.load` round trip and the optimizer;
3. one untimed warm-up train step, then rounds until the requested seconds
   have passed.  A round takes the workload's count of train steps (batch
   for batch the ones `hakan.training.train` takes), `evaluate` calls over
   one fixed batch of windows, and `predict` calls on successive test
   windows, checking every forecast;
4. the channel-independence check.

Rounds interleave the three kinds of work so that each one's median is
drawn from the whole run; on a shared machine, load drifts within a run.
With tracing on, rounds alternate untraced and traced: per-layer metrics
come from the traced rounds, and the traced-minus-untraced step time is
the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from hakan import data, training
from hakan import model as model_mod
from hakan import tensor as tt
from hakan.errors import HakanError
from hakan.tensor import Tensor

import metrics
import synth
from tracing import Tracer

HORIZON = 96
LEARNING_RATE = 1e-4  # every shipped config trains at this rate
EVAL_BATCH = 512  # evaluate's default batch; each evaluate call is one batch
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S of it is
# measured, so the fast set-up of train-l336 gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 20
ISOLATED_BACKWARD_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    series: synth.SeriesShape
    split: str  # hakan SplitSpec kind
    lookback: int
    n_blocks: int
    batch_size: int
    eval_segment: str  # "val" or "test"
    eval_origins: int  # window origins in the evaluated slice, one batch of windows
    round_steps: int
    round_evals: int
    round_predicts: int

    def model_config(self, seed: int, channels: int | None = None) -> model_mod.ModelConfig:
        return model_mod.ModelConfig(
            lookback=self.lookback, horizon=HORIZON,
            n_channels=channels or self.series.channels,
            patch_len=16, stride=8, embed_dim=128, n_blocks=self.n_blocks,
            bottleneck_dim=336, basis="hahn", hahn_a=1.0, hahn_b=1.0, hahn_n=7,
            degree=3, seed=seed,
        )

    def split_spec(self) -> data.SplitSpec:
        return data.SplitSpec(kind=self.split, frequency="hourly")

    @property
    def eval_windows(self) -> int:
        return self.eval_origins * self.series.channels


WORKLOADS = {w.name: w for w in (
    # configs/etth1.cfg, the paper's main shape: 2.06M parameters.  A round
    # is 2 steps of ~1.5 s, 2 evaluate calls of ~1.1 s, 8 predicts of ~35 ms.
    Workload("train-l336", synth.ETT_HOURLY, "ett_months", lookback=336, n_blocks=3,
             batch_size=256, eval_segment="val", eval_origins=73,
             round_steps=2, round_evals=2, round_predicts=8),
    # configs/electricity.cfg, 321 channels, where predict is the main cost:
    # a round is 2 predicts of ~1.8 s, 2 evaluate calls of ~0.8 s, and 2
    # train steps of ~0.25 s at that config's batch of 32.
    Workload("serve-electricity", synth.ELECTRICITY, "ratio", lookback=336, n_blocks=3,
             batch_size=32, eval_segment="test", eval_origins=1,
             round_steps=2, round_evals=2, round_predicts=2),
)}


@dataclass
class Ops:
    """Attempted and failed ops: set-ups, steps, eval batches, predict calls, checks."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


@dataclass
class Setup:
    splits: data.DatasetSplits
    model: model_mod.HaKanModel
    optimizer: training.Adam
    seconds: float  # whole set-up, start to first timed op


def set_up(workload: Workload, csv_path: Path, seed: int, workdir: Path) -> Setup:
    """load_csv -> prepare -> model -> checkpoint round trip -> optimizer."""
    started = time.perf_counter()
    raw = data.load_csv(csv_path, name=workload.name, frequency="hourly")
    splits = data.prepare(raw, workload.split_spec(), workload.lookback)
    checkpoint = workdir / "model.npz"
    model_mod.HaKanModel(workload.model_config(seed)).save(checkpoint)
    model = model_mod.HaKanModel.load(checkpoint)
    optimizer = training.Adam(model.parameters(), lr=LEARNING_RATE)
    return Setup(splits, model, optimizer, time.perf_counter() - started)


class StepLoop:
    """Train steps taken batch for batch as `hakan.training.train` takes them.

    Each epoch draws `rng.permutation` over the (origin, channel) pool from
    a generator seeded like `TrainSpec.seed`, then walks it in batches;
    each step gathers, runs forward, `mse_loss`, `backward`, Adam's `step`
    and `zero_grad`.  The harness-equals-trainer test pins this.
    """

    def __init__(self, model, optimizer, splits, batch_size: int, seed: int):
        cfg = model.config
        self.model = model
        self.optimizer = optimizer
        self.splits = splits
        self.batch_size = batch_size
        self.origins, self.chans = training._sample_pool(
            splits, cfg.lookback, cfg.horizon, splits.train)
        self.rng = np.random.default_rng(seed)
        self.perm = np.empty(0, dtype=np.int64)
        self.pos = 0

    def _next_selection(self) -> np.ndarray:
        if self.pos >= self.perm.size:
            self.perm = self.rng.permutation(self.origins.size)
            self.pos = 0
        sel = self.perm[self.pos:self.pos + self.batch_size]
        self.pos += self.batch_size
        return sel

    def step(self) -> tuple:
        """One step; returns (loss, tape nodes recorded by forward and loss)."""
        cfg = self.model.config
        sel = self._next_selection()
        x, y = training._gather(self.splits.values, self.splits.train.start,
                                self.origins[sel], self.chans[sel],
                                cfg.lookback, cfg.horizon)
        loss = training.mse_loss(self.model.forward_batch(x), Tensor(y))
        nodes = len(tt._tape())
        tt.backward(loss)
        self.optimizer.step()
        self.optimizer.zero_grad()
        return loss.item(), nodes


def eval_slice(workload: Workload, splits: data.DatasetSplits,
               origins: int) -> data.SegmentBounds:
    """The first `origins` window origins of the evaluated segment."""
    seg = getattr(splits, workload.eval_segment)
    return data.SegmentBounds(seg.start, seg.start + workload.lookback + HORIZON - 1 + origins)


def predict_window(workload: Workload, splits: data.DatasetSplits, i: int) -> np.ndarray:
    """The i-th successive [lookback, channels] window of the test segment."""
    test = splits.test
    start = test.start + i % (len(test) - workload.lookback + 1)
    return splits.values[start:start + workload.lookback]


# correctness gate -----------------------------------------------------------

GATE_SEED = 2021
GATE_CHANNELS = 8
GATE_BATCH = 16
GATE_STEPS = 3
GATE_EVAL_ORIGINS = 8
# Reordered float64 reductions move these values by ~1e-15 relative; one
# wrong gradient term changes the second loss by far more than 1e-9.
GATE_RTOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")
GATE_CHECKS = 2


def gate_run(workload: Workload, workdir: Path) -> dict:
    """Train losses and eval MSE of a short run fixed by GATE_SEED.

    It takes the workload's model shape and split on at most GATE_CHANNELS
    channels of its series, through the same pipeline as the timed run.
    """
    shape = synth.with_channels(workload.series, min(GATE_CHANNELS, workload.series.channels))
    path = synth.write_csv(workdir / "gate.csv", shape, GATE_SEED)
    splits = data.prepare(data.load_csv(path), workload.split_spec(), workload.lookback)
    model = model_mod.HaKanModel(workload.model_config(GATE_SEED, shape.channels))
    optimizer = training.Adam(model.parameters(), lr=LEARNING_RATE)
    loop = StepLoop(model, optimizer, splits, GATE_BATCH, GATE_SEED)
    losses = [loop.step()[0] for _ in range(GATE_STEPS)]
    bounds = eval_slice(workload, splits, GATE_EVAL_ORIGINS)
    eval_mse, _ = training.evaluate(model, splits, bounds, EVAL_BATCH)
    return {"train_losses": losses, "eval_mse": eval_mse}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= GATE_RTOL * abs(want)


def check_reference(name: str, observed: dict, ops: Ops) -> None:
    """The gate's two checks: loss trajectory and eval MSE match the reference."""
    reference = json.loads(REFERENCE_PATH.read_text()).get(name)
    if reference is None:
        for _ in range(GATE_CHECKS):
            ops.fail(f"gate: no reference recorded for {name}")
        return
    want, got = reference["train_losses"], observed["train_losses"]
    if len(want) != len(got) or not all(map(_close, got, want)):
        ops.fail(f"gate: train losses {got} != reference {want}")
    if not _close(observed["eval_mse"], reference["eval_mse"]):
        ops.fail(f"gate: eval MSE {observed['eval_mse']} != reference {reference['eval_mse']}")


def record_reference(names, workdir: Path) -> dict:
    """Re-record the gate reference of the named workloads into reference.json."""
    stored = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name in names:
        stored[name] = gate_run(WORKLOADS[name], workdir)
    REFERENCE_PATH.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return stored


# tracing targets ------------------------------------------------------------


def module_targets() -> list:
    """Public functions the traced run wraps, as (owner, attribute, span name)."""
    return [
        (data, "load_csv", "data.load_csv"),
        (data, "prepare", "data.prepare"),
        (model_mod.HaKanModel, "load", "model.checkpoint_load"),
        (training, "_gather", "training.gather"),
        (training, "mse_loss", "training.mse_loss"),
        (training, "evaluate", "training.evaluate"),
        (tt, "backward", "tensor.backward"),
    ]


def instance_targets(model, optimizer) -> list:
    """Instance methods the traced run wraps, as (owner, attribute, span name)."""
    targets = [
        (model, "forward_batch", "model.forward_batch"),
        (model, "predict", "model.predict"),
        (optimizer, "step", "training.adam_step"),
        (optimizer, "zero_grad", "training.zero_grad"),
    ]
    for i, block in enumerate(model.blocks):
        targets.append((block, "forward", f"block{i}.forward"))
        for kind in ("intra", "inter"):
            layer = getattr(block, kind)
            targets.append((layer, "forward", f"block{i}.{kind}.forward"))
            targets.append((layer.basis, "eval_terms", f"block{i}.{kind}.basis.eval"))
            targets.append((layer.basis, "eval_terms_with_deriv",
                            f"block{i}.{kind}.basis.eval_deriv"))
    return targets


@contextmanager
def capture_layer_inputs(block, seen: dict):
    """Keep in `seen` the first input array of the block's intra and inter layers.

    Activations are never written in place, so holding a reference is
    enough.
    """
    layers = {kind: getattr(block, kind) for kind in ("intra", "inter")}
    for kind, layer in layers.items():
        def grab(x, _kind=kind, _forward=layer.forward):
            seen.setdefault(_kind, x.data)
            return _forward(x)
        layer.forward = grab
    try:
        yield
    finally:
        for layer in layers.values():
            del layer.forward


def isolated_kan_backward(model, inputs: dict) -> dict:
    """Median ms of `backward` through one KAN layer of each shape.

    Runs `KanLayer.forward` of block 0 on a leaf tensor holding a real
    activation from a traced step, then `tensor.backward` of its sum.  Gradients it leaves on
    the parameters are cleared.
    """
    out = {}
    block = model.blocks[0]
    for kind, x in inputs.items():
        layer = getattr(block, kind)
        times = []
        for _ in range(ISOLATED_BACKWARD_REPEATS):
            total = layer.forward(Tensor(x, requires_grad=True)).sum()
            t0 = time.perf_counter()
            tt.backward(total)
            times.append(time.perf_counter() - t0)
        out[kind] = median(times) * 1e3
    for p in model.parameters():
        p.zero_grad()
    return out


def _basis_count(model) -> int:
    return sum(getattr(b, kind).basis.eval_count
               for b in model.blocks for kind in ("intra", "inter"))


# the timed rounds -------------------------------------------------------------


@dataclass
class Timings:
    """What the rounds of one kind, untraced or traced, measured."""

    step_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    predict_s: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    tape_nodes: set = field(default_factory=set)
    basis_elements: set = field(default_factory=set)


class Runner:
    """Runs the ops of a workload on one set-up and counts them."""

    def __init__(self, workload: Workload, setup: Setup, seed: int, ops: Ops):
        self.workload = workload
        self.setup = setup
        self.ops = ops
        self.loop = StepLoop(setup.model, setup.optimizer, setup.splits,
                             workload.batch_size, seed)
        self.bounds = eval_slice(workload, setup.splits, workload.eval_origins)
        self.predicted = 0

    def step(self, into: Timings, tracer: Tracer | None = None) -> None:
        model = self.setup.model
        self.ops.attempted += 1
        before = _basis_count(model)
        t0 = time.perf_counter()
        with tracer.span("training.step") if tracer else nullcontext():
            loss, nodes = self.loop.step()
        into.step_s.append(time.perf_counter() - t0)
        if not math.isfinite(loss):
            raise HakanError(f"train step: loss {loss}")
        into.losses.append(loss)
        into.tape_nodes.add(nodes)
        into.basis_elements.add(_basis_count(model) - before)

    def evaluate(self, into: Timings) -> None:
        self.ops.attempted += 1  # the slice is one batch
        t0 = time.perf_counter()
        mse, mae = training.evaluate(self.setup.model, self.setup.splits, self.bounds,
                                     EVAL_BATCH)
        into.eval_s.append(time.perf_counter() - t0)
        if not (math.isfinite(mse) and math.isfinite(mae)):
            raise HakanError(f"evaluate: mse {mse}, mae {mae}")

    def predict(self, into: Timings) -> None:
        window = predict_window(self.workload, self.setup.splits, self.predicted)
        self.predicted += 1
        self.ops.attempted += 1
        t0 = time.perf_counter()
        forecast = self.setup.model.predict(window)
        into.predict_s.append(time.perf_counter() - t0)
        want = (HORIZON, self.setup.splits.n_channels)
        if forecast.shape != want or not np.all(np.isfinite(forecast)):
            raise HakanError(f"predict: forecast of shape {forecast.shape} is not a "
                             f"finite {want}")

    def round(self, into: Timings, tracer: Tracer | None = None) -> None:
        w = self.workload
        for _ in range(w.round_steps):
            self.step(into, tracer)
        for _ in range(w.round_evals):
            self.evaluate(into)
        for _ in range(w.round_predicts):
            self.predict(into)

    def check_channel_independence(self, seed: int) -> int:
        """One seeded channel's forecast equals `predict` on that channel alone, bitwise."""
        splits = self.setup.splits
        channel = int(np.random.default_rng(seed).integers(splits.n_channels))
        window = predict_window(self.workload, splits, 0)
        self.ops.attempted += 1
        together = self.setup.model.predict(window)[:, channel]
        alone = self.setup.model.predict(window[:, [channel]])[:, 0]
        if not np.array_equal(together, alone):
            self.ops.fail(f"channel independence: channel {channel} differs when "
                          f"predicted alone")
        return channel


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Software and machine the result came from."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var)
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


@dataclass
class Outcome:
    ops: Ops
    metrics: dict  # name -> value; empty when an op or a check failed
    details: dict
    spans: list  # the traced run's spans; empty when untraced


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> Outcome:
    """Run one workload; end-to-end metrics untraced, per-layer metrics traced."""
    ops = Ops()
    details = {}
    csv_path = synth.write_csv(workdir / f"{workload.name}.csv", workload.series, seed)
    tracer = Tracer() if trace else None
    plain, traced = Timings(), Timings()
    layer_inputs, isolated = {}, {}
    ops.attempted += GATE_CHECKS
    try:
        details["gate"] = gate_run(workload, workdir)
        check_reference(workload.name, details["gate"], ops)

        setup_s = []
        with tracer.patch_all(module_targets()) if tracer else nullcontext():
            while len(setup_s) < SETUP_REPEATS or (
                    sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS):
                setup = None  # free the previous set-up before building the next
                ops.attempted += 1
                setup = set_up(workload, csv_path, seed, workdir)
                setup_s.append(setup.seconds)
        details.update(params=setup.model.param_count(), setup_s=setup_s)

        runner = Runner(workload, setup, seed, ops)
        runner.step(Timings())  # warm-up: the first step pays one-off allocations
        started = time.perf_counter()
        rounds = 0
        while rounds < 2 or time.perf_counter() - started < seconds:
            if tracer and rounds % 2:
                with ExitStack() as stack:
                    stack.enter_context(
                        capture_layer_inputs(setup.model.blocks[0], layer_inputs))
                    stack.enter_context(tracer.patch_all(
                        module_targets() + instance_targets(setup.model, setup.optimizer)))
                    runner.round(traced, tracer)
            else:
                runner.round(plain)
            rounds += 1
        details["rounds"] = rounds
        details["channel_checked"] = runner.check_channel_independence(seed)
        if tracer:
            isolated = isolated_kan_backward(setup.model, layer_inputs)
    except HakanError as exc:  # the op that raised is already counted as attempted
        ops.fail(f"{type(exc).__name__}: {exc}")

    losses = plain.losses + traced.losses
    details.update(
        steps=[len(plain.step_s), len(traced.step_s)],
        eval_calls=[len(plain.eval_s), len(traced.eval_s)],
        eval_windows_per_call=workload.eval_windows,
        predict_calls=[len(plain.predict_s), len(traced.predict_s)],
        train_loss_first_last=[losses[0], losses[-1]] if losses else None,
        errors=ops.errors,
    )
    spans = tracer.spans if tracer else []
    if ops.failed:
        return Outcome(ops, {}, details, spans)
    if tracer:
        values = metrics.per_layer(tracer, setup.model, workload.batch_size, plain, traced,
                                   isolated, details)
    else:
        values = metrics.end_to_end(setup_s, plain, workload.batch_size,
                                    workload.eval_windows, peak_rss_mb())
    return Outcome(ops, values, details, spans)
