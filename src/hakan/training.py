"""Training objective, optimizer, loop, metrics, gradient checker, seed summary.

Training flattens (window origin, channel) pairs into one sample pool, so
a minibatch mixes channels while every channel runs through the shared
backbone.  Early stopping tracks validation MSE and restores the best
snapshot before the test pass.  All metrics are computed in the globally
standardized space produced by data.prepare.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from . import pool
from . import tensor as tt
from .basis import BLOCK_ELEMENTS
from .data import DatasetSplits, window_count
from .errors import ConfigError, ContractError
from .model import HaKanModel, ModelConfig
from .tensor import Tensor

logger = logging.getLogger(__name__)


def mse_loss(pred: Tensor, truth) -> Tensor:
    """Mean squared error over every element, one node differentiable in `pred`.

    `truth` (a Tensor or an array) is data.  The backward adds g/n * diff
    to itself, the bits of 2 g/n * diff that a square node would give.
    """
    truth = truth.data if isinstance(truth, Tensor) else np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ContractError(f"mse_loss: shapes {pred.shape} vs {truth.shape}")
    diff = pred.data - truth
    inv = 1.0 / diff.size

    def back(g):
        half = (g * inv) * diff
        pred.accumulate_grad(half + half)

    return tt._make((diff * diff).mean(), (pred,), back)


# Adam's moment decay rates and denominator guard, Kingma and Ba's defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# float64 arrays a train step holds per parameter: the parameter, its
# gradient and Adam's two moments (`cli._require_memory` counts them)
ARRAYS_PER_PARAMETER = 4


class Adam:
    """Adaptive-moment optimizer over a list of parameter tensors."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update of every parameter, written in place.

        The work is cut into the fixed flat slices of the tensor module's
        whole-array passes (`tensor._cuts`), one pool task per slice, whose
        arithmetic runs through two slice-sized halves of its worker's task
        scratch (`pool.scratch`), in the order of m = b1 m + (1 - b1) g,
        v = b2 v + (1 - b2) g^2 and p -= lr (m / bc1) / (sqrt(v / bc2) + eps).
        The update is elementwise, so the slicing changes no bit.  A slice of
        a C-contiguous array is a view, so every array must be one.
        """
        if any(p.grad is None for p in self.params):
            raise ContractError("adam step with a missing gradient")
        arrays = [(p.data, p.grad, m, v) for p, m, v in zip(self.params, self.m, self.v)]
        if not all(a.flags.c_contiguous for group in arrays for a in group):
            raise ContractError("adam needs C-contiguous parameters, gradients and moments")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t

        def update(item):
            flats, cut = item
            p, g, m, v = (f[cut] for f in flats)
            num, den = pool.scratch("task", 2 * len(p)).reshape(2, -1)
            np.multiply(g, 1.0 - BETA1, out=num)
            m *= BETA1
            m += num
            np.multiply(g, g, out=den)
            den *= 1.0 - BETA2
            v *= BETA2
            v += den
            if not np.isfinite(v.max()):
                raise ContractError("adam second moment is not finite")
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            num /= den
            p -= num

        flats = [[a.reshape(-1) for a in group] for group in arrays]
        pool.map(update, [(f, cut) for f in flats for cut in tt._cuts(f[0].size)])

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass(frozen=True)
class TrainSpec:
    max_epochs: int = 100
    patience: int = 10
    lr: float = 1e-4
    batch_size: int = 64
    seed: int = 2021

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ConfigError(f"train.max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"train.patience must be >= 1, got {self.patience}")
        if not 0 < self.lr < np.inf:  # NaN fails both
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class MetricRecord:
    dataset: str
    horizon: int
    seed: int
    mse: float
    mae: float
    epoch_stopped: int
    wall_time: float


def _windows(splits: DatasetSplits, lookback: int, horizon: int, bounds) -> int:
    n_origins = window_count(len(bounds), lookback, horizon)
    if n_origins < 1:
        raise ConfigError(
            f"{splits.name}: segment [{bounds.start}, {bounds.end}) has no "
            f"windows for lookback {lookback} and horizon {horizon}"
        )
    return n_origins


def _sample_pool(splits: DatasetSplits, lookback: int, horizon: int, bounds) -> tuple:
    n_origins, channels = _windows(splits, lookback, horizon, bounds), splits.n_channels
    return np.repeat(np.arange(n_origins), channels), np.tile(np.arange(channels), n_origins)


def train_pool(splits: DatasetSplits, lookback: int, horizon: int) -> tuple:
    """The train segment's (origins, channels); ConfigError if any segment has no window."""
    for bounds in (splits.train, splits.val, splits.test):
        _windows(splits, lookback, horizon, bounds)
    return _sample_pool(splits, lookback, horizon, splits.train)


def _gather(values: np.ndarray, start: int, origins: np.ndarray,
            chans: np.ndarray, lookback: int, horizon: int) -> tuple:
    rows = start + origins[:, None]
    x = values[rows + np.arange(lookback)[None, :], chans[:, None]]
    y = values[rows + lookback + np.arange(horizon)[None, :], chans[:, None]]
    return x, y


def evaluate(model: HaKanModel, splits: DatasetSplits, bounds,
             batch_size: int = 512) -> tuple:
    """Test/validation MSE and MAE over every window of a segment."""
    cfg = model.config
    origins, chans = _sample_pool(splits, cfg.lookback, cfg.horizon, bounds)
    sq_sum = 0.0
    abs_sum = 0.0
    count = 0
    with tt.no_grad():
        for lo in range(0, origins.size, batch_size):
            sel = slice(lo, lo + batch_size)
            x, y = _gather(splits.values, bounds.start, origins[sel],
                           chans[sel], cfg.lookback, cfg.horizon)
            pred = model.forward_batch(x).data
            diff = pred - y
            sq_sum += float(np.sum(diff * diff))
            abs_sum += float(np.sum(np.abs(diff)))
            count += diff.size
    mse, mae = sq_sum / count, abs_sum / count
    if not np.isfinite([mse, mae]).all():
        raise ContractError(f"evaluation metrics are not finite: mse {mse}, mae {mae}")
    return mse, mae


def train(model: HaKanModel, splits: DatasetSplits, spec: TrainSpec) -> tuple:
    """Fit the model and return (model, MetricRecord on the test split)."""
    cfg = model.config
    started = time.perf_counter()
    origins, chans = train_pool(splits, cfg.lookback, cfg.horizon)
    rng = np.random.default_rng(spec.seed)
    optimizer = Adam(model.parameters(), lr=spec.lr)
    best, bad_epochs = np.inf, 0
    for epoch in range(1, spec.max_epochs + 1):
        perm = rng.permutation(origins.size)
        loss_sum = 0.0
        for step, lo in enumerate(range(0, perm.size, spec.batch_size), start=1):
            sel = perm[lo:lo + spec.batch_size]
            x, y = _gather(splits.values, splits.train.start, origins[sel],
                           chans[sel], cfg.lookback, cfg.horizon)
            try:
                loss = mse_loss(model.forward_batch(x), y)
                value = loss.item()
                if not np.isfinite(value):
                    raise ContractError(f"training loss is {value}")
                tt.backward(loss)
                optimizer.step()
            except ContractError as err:
                tt._tape().clear()  # the failed step's nodes, as backward frees them
                raise ContractError(f"epoch {epoch} step {step}: {err}") from err
            optimizer.zero_grad()
            loss_sum += value * sel.size
        val_mse, _ = evaluate(model, splits, splits.val, spec.batch_size)
        if val_mse < best:
            best, bad_epochs = val_mse, 0
            snapshot = {name: t.data.copy() for name, t in model.named_parameters()}
        else:
            bad_epochs += 1
        logger.info("%s seed %d epoch %d: train %.4f val %.4f%s",
                    splits.name, spec.seed, epoch, loss_sum / origins.size,
                    val_mse, "" if bad_epochs else " *")
        if bad_epochs >= spec.patience:
            break
    # evaluate refuses a non-finite MSE, so epoch 1 always improves on inf
    for name, t in model.named_parameters():
        t.data = snapshot[name]
    mse, mae = evaluate(model, splits, splits.test, spec.batch_size)
    record = MetricRecord(
        dataset=splits.name,
        horizon=cfg.horizon,
        seed=spec.seed,
        mse=mse,
        mae=mae,
        epoch_stopped=epoch,
        wall_time=time.perf_counter() - started,
    )
    return model, record


# gradient checking -----------------------------------------------------------


# Central-difference steps: each probe keeps its smallest gap over them.
# Truncation grows as h^2 and with the degree (Hahn 7 needs 1e-6), round-off
# as 1/h (low degrees want 1e-4); a wrong gradient's gap holds at every step.
CHECK_STEPS = (1e-4, 1e-5, 1e-6)
# the worst relative error `hakan gradcheck` allows by default, per model.mode
CHECK_TOLERANCE = {"kan": 1e-4, "linear": 1e-6}
# grad_check's windows, directional_check's directions, and the seed of both
CHECK_WINDOWS = 3
DIRECTIONS = 3
CHECK_SEED = 0


def grad_check(config: ModelConfig) -> dict:
    """Compare tape gradients against central differences, per parameter group.

    Returns {group name: worst relative error}, with relative error
    |analytic - fd| / max(1, |analytic|), and under "directional" the
    worst error of `directional_check` on `block_crossing(config)`.
    Meant for configurations with fewer than a few thousand parameters.
    """
    model, loss_value = _check_problem(config, CHECK_WINDOWS)
    report = {}
    for name, t in model.named_parameters():
        flat = t.data.reshape(-1)
        worst = 0.0
        for i, (saved, analytic) in enumerate(zip(flat.copy(), t.grad.reshape(-1))):

            def loss_at(h):
                flat[i] = saved + h
                return loss_value()

            worst = max(worst, _probe(loss_at, analytic, lambda fd: max(1.0, abs(analytic))))
            flat[i] = saved
        report[name] = worst
    report["directional"] = directional_check(*block_crossing(config))
    return report


def directional_check(config: ModelConfig, n_windows: int) -> float:
    """Worst relative gap between <grad L, v> and the central difference
    along v, over DIRECTIONS directions v.

    Each v is a random unit direction over all parameters at once, so the
    check reads every gradient the backward forms without knowing how it
    forms them; the gap is relative to the larger of the two derivatives.
    """
    model, loss_value = _check_problem(config, n_windows)
    params = model.parameters()
    saved = [p.data for p in params]
    rng = np.random.default_rng(CHECK_SEED + 1)
    worst = 0.0
    for _ in range(DIRECTIONS):
        v = [rng.normal(size=p.shape) for p in params]
        norm = np.sqrt(sum(float(np.vdot(d, d)) for d in v))
        analytic = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, v)) / norm

        def loss_at(h):
            for p, start, d in zip(params, saved, v):
                p.data = start + (h / norm) * d
            return loss_value()

        worst = max(worst, _probe(loss_at, analytic,
                                  lambda fd: max(abs(analytic), abs(fd)) or 1.0))
    for p, start in zip(params, saved):
        p.data = start
    return worst


def _probe(loss_at, analytic: float, scale) -> float:
    """Smallest |analytic - fd| / scale(fd) over the steps h of CHECK_STEPS,
    with fd = (loss_at(h) - loss_at(-h)) / 2h; loss_at moves the parameters."""
    fds = [(loss_at(h) - loss_at(-h)) / (2.0 * h) for h in CHECK_STEPS]
    return min(abs(analytic - fd) / scale(fd) for fd in fds)


def tiny_check_config(base: ModelConfig | None = None) -> ModelConfig:
    """`base` (by default a Hahn model) shrunk to grad_check's scale (< 5000 parameters)."""
    base = base or ModelConfig(lookback=8, horizon=4, patch_len=4, degree=2)
    hahn = base.basis.lower() == "hahn"  # the check's block builds the basis: degree <= n
    return replace(base, lookback=8, horizon=4, patch_len=4, stride=2, embed_dim=3,
                   n_blocks=1, bottleneck_dim=5, seed=7,
                   degree=min(base.degree, base.hahn_n) if hahn else base.degree)


def block_crossing(config: ModelConfig) -> tuple:
    """(config, batch): `config` at a shape where each KAN layer's input spans
    three cache blocks (`basis.BLOCK_ELEMENTS`), the last of them one row.

    With 3 patches of width d, the patch-axis layer's rows hold 3d
    elements, so a block takes q = E // 3d of them and a batch of 2q + 1
    makes three blocks, the last one row.  The embedding-axis layer sees
    3(2q + 1) rows of d elements, which split the same way when E // d,
    its rows per block, is 3q + 1.  The first d at or below 128 where that
    holds sets the shape; basis, mode and components are kept.
    """
    total = BLOCK_ELEMENTS
    embed = next(d for d in range(min(128, total // 4), 0, -1) if (total // d) % 3 == 1)
    shaped = replace(config, lookback=12, horizon=4, patch_len=8, stride=4,
                     embed_dim=embed, n_blocks=2, bottleneck_dim=5)
    return shaped, 2 * (total // (3 * embed)) + 1


def _check_problem(config: ModelConfig, n_windows: int) -> tuple:
    """(model, loss at the current parameters) for seeded random windows,
    after one backward has left the tape gradients on the parameters."""
    model = HaKanModel(config)
    rng = np.random.default_rng(CHECK_SEED)
    x = rng.uniform(-2.0, 2.0, size=(n_windows, config.lookback))
    y = rng.uniform(-2.0, 2.0, size=(n_windows, config.horizon))
    tt.backward(mse_loss(model.forward_batch(x), y))

    def loss_value() -> float:
        with tt.no_grad():
            return mse_loss(model.forward_batch(x), y).item()

    return model, loss_value


# seed protocol ---------------------------------------------------------------


def seed_summary(records) -> tuple:
    """(mse mean, mse std, mae mean, mae std) over the records of one run's seeds.

    The std is the sample std (ddof 1) when there is more than one seed.
    """
    mses = np.array([r.mse for r in records])
    maes = np.array([r.mae for r in records])
    ddof = 1 if len(records) > 1 else 0
    return (float(mses.mean()), float(mses.std(ddof=ddof)),
            float(maes.mean()), float(maes.std(ddof=ddof)))
