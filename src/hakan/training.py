"""Training objective, optimizer, loop, metrics, and the gradient checker.

Training flattens (window origin, channel) pairs into one sample pool, so
a minibatch mixes channels while every channel runs through the shared
backbone.  Early stopping tracks validation MSE and restores the best
snapshot before the test pass.  All metrics are computed in the globally
standardized space produced by data.prepare.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .data import DatasetSplits, window_count
from .errors import ConfigError, ContractError, DimensionError
from .model import HaKanModel, ModelConfig
from .tensor import Tensor

logger = logging.getLogger(__name__)


def mse_loss(pred: Tensor, truth) -> Tensor:
    """Mean squared error over every element; differentiable."""
    truth = truth if isinstance(truth, Tensor) else Tensor(truth)
    if pred.shape != truth.shape:
        raise DimensionError(f"mse_loss: shapes {pred.shape} vs {truth.shape}")
    diff = pred - truth
    return (diff * diff).mean()


def mae_metric(pred, truth) -> float:
    """Mean absolute error; evaluation only, never differentiated."""
    p = pred.data if isinstance(pred, Tensor) else np.asarray(pred)
    t = truth.data if isinstance(truth, Tensor) else np.asarray(truth)
    if p.shape != t.shape:
        raise DimensionError(f"mae_metric: shapes {p.shape} vs {t.shape}")
    return float(np.mean(np.abs(p - t)))


class Adam:
    """Adaptive-moment optimizer over a list of parameter tensors."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError("adam step with a missing gradient")
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


@dataclass
class TrainSpec:
    max_epochs: int = 100
    patience: int = 10
    lr: float = 1e-4
    batch_size: int = 64
    seed: int = 2021
    clip_grad: float | None = None

    def validate(self) -> "TrainSpec":
        if self.patience > self.max_epochs:
            raise ConfigError("patience exceeds max_epochs")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        return self


@dataclass
class MetricRecord:
    dataset: str
    horizon: int
    seed: int
    mse: float
    mae: float
    epoch_stopped: int
    wall_time: float


class EarlyStopper:
    """Stop after `patience` consecutive epochs without a new best value."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = 0
        self.bad_epochs = 0
        self.epoch = 0

    def update(self, value: float) -> bool:
        """Record one epoch's validation value; True if it is a new best."""
        self.epoch += 1
        if value < self.best:
            self.best = value
            self.best_epoch = self.epoch
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


def _sample_pool(splits: DatasetSplits, lookback: int, horizon: int,
                 bounds) -> tuple:
    n_origins = window_count(len(bounds), lookback, horizon)
    channels = splits.n_channels
    if n_origins < 1:
        raise ConfigError(
            f"{splits.name}: segment [{bounds.start}, {bounds.end}) has no "
            f"windows for lookback {lookback} and horizon {horizon}"
        )
    origins = np.repeat(np.arange(n_origins), channels)
    chans = np.tile(np.arange(channels), n_origins)
    return origins, chans


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
    return sq_sum / count, abs_sum / count


def train(model: HaKanModel, splits: DatasetSplits, spec: TrainSpec) -> tuple:
    """Fit the model and return (model, MetricRecord on the test split)."""
    spec.validate()
    cfg = model.config
    started = time.perf_counter()
    origins, chans = _sample_pool(splits, cfg.lookback, cfg.horizon, splits.train)
    for bounds in (splits.val, splits.test):
        _sample_pool(splits, cfg.lookback, cfg.horizon, bounds)
    rng = np.random.default_rng(spec.seed)
    optimizer = Adam(model.parameters(), lr=spec.lr)
    stopper = EarlyStopper(spec.patience)
    snapshot = None
    for epoch in range(1, spec.max_epochs + 1):
        perm = rng.permutation(origins.size)
        loss_sum = 0.0
        for lo in range(0, perm.size, spec.batch_size):
            sel = perm[lo:lo + spec.batch_size]
            x, y = _gather(splits.values, splits.train.start, origins[sel],
                           chans[sel], cfg.lookback, cfg.horizon)
            loss = mse_loss(model.forward_batch(x), Tensor(y))
            tt.backward(loss)
            if spec.clip_grad is not None:
                clip_gradients(model.parameters(), spec.clip_grad)
            optimizer.step()
            optimizer.zero_grad()
            loss_sum += loss.item() * sel.size
        val_mse, _ = evaluate(model, splits, splits.val, spec.batch_size)
        improved = stopper.update(val_mse)
        if improved:
            snapshot = {name: t.data.copy() for name, t in model.named_parameters()}
        logger.info("%s seed %d epoch %d: train %.4f val %.4f%s",
                    splits.name, spec.seed, epoch, loss_sum / origins.size,
                    val_mse, " *" if improved else "")
        if stopper.should_stop:
            break
    if snapshot is not None:
        for name, t in model.named_parameters():
            t.data = snapshot[name]
    mse, mae = evaluate(model, splits, splits.test, spec.batch_size)
    record = MetricRecord(
        dataset=splits.name,
        horizon=cfg.horizon,
        seed=spec.seed,
        mse=mse,
        mae=mae,
        epoch_stopped=stopper.epoch,
        wall_time=time.perf_counter() - started,
    )
    return model, record


# gradient checking -----------------------------------------------------------


def grad_check(config: ModelConfig, step: float = 1e-5, n_windows: int = 3,
               seed: int = 0) -> dict:
    """Compare tape gradients against central differences, per parameter group.

    Returns {group name: worst relative error}, with relative error
    |analytic - fd| / max(1, |analytic|).  Meant for configurations with
    fewer than a few thousand parameters.
    """
    model = HaKanModel(config)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n_windows, config.lookback))
    y = rng.uniform(-2.0, 2.0, size=(n_windows, config.horizon))
    truth = Tensor(y)

    loss = mse_loss(model.forward_batch(x), truth)
    tt.backward(loss)
    analytic = {name: t.grad.copy() for name, t in model.named_parameters()}
    for p in model.parameters():
        p.zero_grad()

    def loss_value() -> float:
        with tt.no_grad():
            pred = model.forward_batch(x).data
        return float(np.mean((pred - y) ** 2))

    report = {}
    for name, t in model.named_parameters():
        flat = t.data.reshape(-1)
        grads = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up = loss_value()
            flat[i] = saved - step
            down = loss_value()
            flat[i] = saved
            fd = (up - down) / (2.0 * step)
            rel = abs(grads[i] - fd) / max(1.0, abs(grads[i]))
            worst = max(worst, rel)
        report[name] = worst
    return report


# aggregation -----------------------------------------------------------------


@dataclass
class CellStats:
    mse_mean: float
    mse_std: float
    mae_mean: float
    mae_std: float
    n_seeds: int


@dataclass
class ForecastReport:
    cells: dict = field(default_factory=dict)  # (dataset, horizon) -> CellStats
    per_dataset: dict = field(default_factory=dict)  # dataset -> (mse, mae)
    overall: tuple | None = None  # (mse, mae)

    def table(self) -> str:
        lines = ["dataset     horizon      mse ± std        mae ± std   seeds"]
        for (dataset, horizon), c in sorted(self.cells.items()):
            lines.append(
                f"{dataset:<12}{horizon:>6}  {c.mse_mean:.4f} ± {c.mse_std:.4f}"
                f"  {c.mae_mean:.4f} ± {c.mae_std:.4f}  {c.n_seeds:>4}"
            )
        for dataset, (mse, mae) in sorted(self.per_dataset.items()):
            lines.append(f"{dataset:<12}  avg.  {mse:.4f}           {mae:.4f}")
        if self.overall is not None:
            lines.append(f"overall mse {self.overall[0]:.4f}  mae {self.overall[1]:.4f}")
        return "\n".join(lines)


def aggregate_report(records) -> ForecastReport:
    """Mean over seeds per (dataset, horizon), then over horizons, then overall."""
    report = ForecastReport()
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.dataset, rec.horizon), []).append(rec)
    for key, recs in groups.items():
        mses = np.array([r.mse for r in recs])
        maes = np.array([r.mae for r in recs])
        ddof = 1 if len(recs) > 1 else 0
        report.cells[key] = CellStats(
            mse_mean=float(mses.mean()),
            mse_std=float(mses.std(ddof=ddof)),
            mae_mean=float(maes.mean()),
            mae_std=float(maes.std(ddof=ddof)),
            n_seeds=len(recs),
        )
    by_dataset: dict = {}
    for (dataset, _), stats in report.cells.items():
        by_dataset.setdefault(dataset, []).append(stats)
    for dataset, cells in by_dataset.items():
        report.per_dataset[dataset] = (
            float(np.mean([c.mse_mean for c in cells])),
            float(np.mean([c.mae_mean for c in cells])),
        )
    if report.per_dataset:
        report.overall = (
            float(np.mean([m for m, _ in report.per_dataset.values()])),
            float(np.mean([a for _, a in report.per_dataset.values()])),
        )
    return report
