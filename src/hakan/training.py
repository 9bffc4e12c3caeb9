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
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import DatasetSplits, window_count
from .errors import ConfigError, ContractError, DimensionError
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
        raise DimensionError(f"mse_loss: shapes {pred.shape} vs {truth.shape}")
    diff = pred.data - truth
    inv = 1.0 / diff.size

    def back(g):
        half = (g * inv) * diff
        pred.accumulate_grad(half + half)

    return tt._make((diff * diff).mean(), (pred,), back)


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
            if not np.isfinite(self.v[i].max()):
                raise ContractError("adam second moment is not finite")
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainSpec:
    max_epochs: int = 100
    patience: int = 10
    lr: float = 1e-4
    batch_size: int = 64
    seed: int = 2021

    def validate(self) -> "TrainSpec":
        if self.max_epochs < 1:
            raise ConfigError(f"train.max_epochs must be >= 1, got {self.max_epochs}")
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
    mse, mae = sq_sum / count, abs_sum / count
    if not np.isfinite([mse, mae]).all():
        raise ContractError(f"evaluation metrics are not finite: mse {mse}, mae {mae}")
    return mse, mae


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

    loss = mse_loss(model.forward_batch(x), y)
    tt.backward(loss)
    analytic = {name: t.grad.copy() for name, t in model.named_parameters()}
    for p in model.parameters():
        p.zero_grad()

    def loss_value() -> float:
        with tt.no_grad():
            return mse_loss(model.forward_batch(x), y).item()

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
