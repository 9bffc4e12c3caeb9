"""The forecasting network.

One univariate window of length `lookback` flows through: instance
normalization, patching, linear patch embedding plus a learnable position
table, a stack of residual mixing blocks (an intra-patch KAN layer over
the embedding axis and an inter-patch KAN layer over the patch axis),
then a flatten and a two-matrix bottleneck head that emits the whole
horizon at once.  The instance statistics denormalize the output.

Channels of a multivariate series share one backbone: they are folded
into the batch axis and never mix.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as tt
from .basis import make_basis
from .errors import ConfigError, ContractError, DataError, DimensionError
from .layers import KanLayer
from .tensor import Tensor

CHECKPOINT_CONFIG_KEY = "__model_config__"


@dataclass
class ModelConfig:
    lookback: int
    horizon: int
    n_channels: int = 1
    patch_len: int = 16
    stride: int = 8
    embed_dim: int = 128
    n_blocks: int = 5
    bottleneck_dim: int = 336
    basis: str = "hahn"
    hahn_a: float = 1.0
    hahn_b: float = 1.0
    hahn_n: int = 7
    degree: int = 3
    mode: str = "kan"
    intra_enabled: bool = True
    inter_enabled: bool = True
    seed: int = 2021
    revin_eps: float = 1e-5
    init_scale: float = 1.0

    @property
    def n_patches(self) -> int:
        return patch_count(self.lookback, self.patch_len, self.stride)

    def validate(self) -> "ModelConfig":
        if self.patch_len > self.lookback:
            raise ConfigError(
                f"patch_len {self.patch_len} exceeds lookback {self.lookback}"
            )
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        for name in ("lookback", "horizon", "patch_len", "embed_dim",
                     "bottleneck_dim", "n_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_blocks < 0:
            raise ConfigError("n_blocks must be >= 0")
        if self.mode not in ("kan", "linear"):
            raise ConfigError(f"mode must be kan or linear, got {self.mode!r}")
        if self.n_patches < 2:
            raise ConfigError("derived patch count fell below 2")
        return self

    def make_basis(self):
        return make_basis(self.basis, self.degree, self.hahn_a, self.hahn_b, self.hahn_n)


# instance normalization ----------------------------------------------------


@dataclass(frozen=True)
class RevInState:
    mean: np.ndarray | float
    std: np.ndarray | float
    eps: float


def revin_normalize(x: np.ndarray, eps: float = 1e-5) -> tuple:
    """Standardize each window (the last axis) by its own mean and population std."""
    x = np.asarray(x, dtype=np.float64)
    state = RevInState(mean=x.mean(axis=-1, keepdims=True),
                       std=x.std(axis=-1, keepdims=True), eps=eps)
    return (x - state.mean) / (state.std + eps), state


def revin_denormalize(pred, state: RevInState):
    """Undo revin_normalize; a Tensor `pred` stays differentiable."""
    if not isinstance(pred, Tensor):
        pred = np.asarray(pred, dtype=np.float64)
    return pred * (state.std + state.eps) + state.mean


# channel handling -----------------------------------------------------------


def split_channels(x: np.ndarray) -> np.ndarray:
    """View an [L, M] series as M univariate rows [M, L]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected [length, channels], got shape {x.shape}")
    return x.T


def combine_channels(rows: np.ndarray) -> np.ndarray:
    """Inverse of split_channels: [M, T] rows back to a [T, M] series."""
    return np.asarray(rows, dtype=np.float64).T


# patching -------------------------------------------------------------------


def patch_count(lookback: int, patch_len: int, stride: int) -> int:
    return (lookback - patch_len) // stride + 2


def make_patches(x: np.ndarray, patch_len: int, stride: int) -> np.ndarray:
    """Slice a window into overlapping patches.

    Patch j covers indices [j*stride, j*stride + patch_len); positions past
    the end repeat the final value.  Works on a single window [L] or a
    batch [B, L], patching the last axis.
    """
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[-1]
    if patch_len > length:
        raise ConfigError(f"patch_len {patch_len} exceeds window length {length}")
    n = patch_count(length, patch_len, stride)
    idx = np.arange(n)[:, None] * stride + np.arange(patch_len)[None, :]
    idx = np.minimum(idx, length - 1)
    return x[..., idx]


# embedding and blocks --------------------------------------------------------


def embed(patches: Tensor, w_p: Tensor, w_pos: Tensor) -> Tensor:
    """Project patches to the embedding width and add the position table."""
    return tt.matmul(patches, w_p) + w_pos


class HahnKanBlock:
    """Residual mixing block: intra-patch layer, inter-patch layer, skip.

    A disabled layer is replaced by the identity map and owns no
    parameters.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        kwargs = dict(mode=config.mode, rng=rng, init_scale=config.init_scale)
        d, n = config.embed_dim, config.n_patches
        self.intra = (KanLayer(d, d, basis=config.make_basis(), **kwargs)
                      if config.intra_enabled else None)
        self.inter = (KanLayer(n, n, basis=config.make_basis(), **kwargs)
                      if config.inter_enabled else None)
        self.intra_enabled = config.intra_enabled
        self.inter_enabled = config.inter_enabled

    def forward(self, x: Tensor) -> Tensor:
        h = self.intra.forward(x) if self.intra is not None else x
        h = tt.swap_last_axes(h)
        h = self.inter.forward(h) if self.inter is not None else h
        h = tt.swap_last_axes(h)
        return h + x

    __call__ = forward


class HaKanModel:
    """Shared-backbone forecaster for univariate windows."""

    def __init__(self, config: ModelConfig):
        self.config = config.validate()
        rng = np.random.default_rng(config.seed)
        n, p = config.n_patches, config.patch_len
        d, h, t = config.embed_dim, config.bottleneck_dim, config.horizon
        self.w_p = Tensor(_uniform(rng, p, (p, d)), requires_grad=True)
        self.w_pos = Tensor(rng.normal(0.0, 0.02, size=(n, d)), requires_grad=True)
        self.blocks = [HahnKanBlock(config, rng) for _ in range(config.n_blocks)]
        self.w_down = Tensor(_uniform(rng, n * d, (h, n * d)), requires_grad=True)
        self.w_up = Tensor(_uniform(rng, h, (t, h)), requires_grad=True)

    def named_parameters(self) -> list:
        items = [("w_p", self.w_p), ("w_pos", self.w_pos)]
        for i, block in enumerate(self.blocks):
            if block.intra is not None:
                items.append((f"block.{i}.intra.gamma", block.intra.gamma))
            if block.inter is not None:
                items.append((f"block.{i}.inter.gamma", block.inter.gamma))
        items.append(("w_down", self.w_down))
        items.append(("w_up", self.w_up))
        return items

    def parameters(self) -> list:
        return [t for _, t in self.named_parameters()]

    def param_count(self) -> int:
        return sum(t.size for t in self.parameters())

    def forward_batch(self, windows: np.ndarray) -> Tensor:
        """Forecast a batch of univariate windows [B, lookback] -> [B, horizon].

        Differentiable with respect to parameters; the instance statistics
        are treated as constants of each window.
        """
        cfg = self.config
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != cfg.lookback:
            raise DimensionError(
                f"expected [batch, {cfg.lookback}] windows, got {x.shape}"
            )
        normed, state = revin_normalize(x, cfg.revin_eps)
        patches = make_patches(normed, cfg.patch_len, cfg.stride)
        _expect(patches.shape == (x.shape[0], cfg.n_patches, cfg.patch_len),
                "patch stack shape")
        h = embed(Tensor(patches), self.w_p, self.w_pos)
        for block in self.blocks:
            h = block.forward(h)
        _expect(h.shape == (x.shape[0], cfg.n_patches, cfg.embed_dim),
                "block stack shape")
        flat = tt.reshape(h, (x.shape[0], cfg.n_patches * cfg.embed_dim))
        hidden = tt.matmul(flat, tt.transpose(self.w_down))
        pred = tt.matmul(hidden, tt.transpose(self.w_up))
        _expect(pred.shape == (x.shape[0], cfg.horizon), "head output shape")
        return revin_denormalize(pred, state)

    def forward(self, series: np.ndarray) -> np.ndarray:
        """Forecast one univariate window [lookback] -> [horizon]."""
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 1:
            raise DimensionError(f"expected a 1-d series, got shape {series.shape}")
        with tt.no_grad():
            return self.forward_batch(series[None, :]).data[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forecast every channel of an [L, M] series, returning [T, M].

        Channels run through the backbone one at a time, so a channel's
        forecast is bit-identical whether or not others are present.
        """
        rows = split_channels(x)
        if rows.shape[1] != self.config.lookback:
            raise DimensionError(
                f"expected lookback {self.config.lookback}, got {rows.shape[1]}"
            )
        with tt.no_grad():
            preds = [self.forward_batch(row[None]).data[0] for row in rows]
        return combine_channels(np.stack(preds))

    # checkpointing ---------------------------------------------------------

    def save(self, path) -> None:
        arrays = {name: t.data for name, t in self.named_parameters()}
        arrays[CHECKPOINT_CONFIG_KEY] = np.array(json.dumps(asdict(self.config)))
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "HaKanModel":
        try:
            archive = np.load(path, allow_pickle=False)
        except FileNotFoundError:
            raise DataError(f"checkpoint not found: {path}")
        if CHECKPOINT_CONFIG_KEY not in archive:
            raise DataError(f"{path} is not a model checkpoint")
        raw = json.loads(str(archive[CHECKPOINT_CONFIG_KEY]))
        known = {f.name for f in fields(ModelConfig)}
        config = ModelConfig(**{k: v for k, v in raw.items() if k in known})
        model = cls(config)
        for name, t in model.named_parameters():
            stored = archive[name]
            if stored.shape != t.data.shape:
                raise DataError(
                    f"checkpoint key {name}: shape {stored.shape} != {t.data.shape}"
                )
            t.data = stored.astype(np.float64)
        return model


def _uniform(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    k = np.sqrt(1.0 / fan_in)
    return rng.uniform(-k, k, size=shape)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise ContractError(f"internal shape invariant violated: {what}")


# parameter accounting --------------------------------------------------------


def count_breakdown(config: ModelConfig) -> list:
    """Per-component parameter counts implied by a configuration."""
    n, p = config.n_patches, config.patch_len
    d, h, t = config.embed_dim, config.bottleneck_dim, config.horizon
    terms = config.degree + 1 if config.mode == "kan" else 1
    per_block = (d * d if config.intra_enabled else 0) * terms
    per_block += (n * n if config.inter_enabled else 0) * terms
    items = [("w_p", p * d), ("w_pos", n * d)]
    for i in range(config.n_blocks):
        items.append((f"block.{i}", per_block))
    items.append(("w_down", h * n * d))
    items.append(("w_up", t * h))
    return items


def model_param_count(config: ModelConfig) -> int:
    return sum(count for _, count in count_breakdown(config))
