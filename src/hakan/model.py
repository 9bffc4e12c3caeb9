"""The forecasting network.

One univariate window of length `lookback` flows through: instance
normalization, patching, linear patch embedding plus a learnable position
table, a stack of residual mixing blocks (an intra-patch KAN layer over
the embedding axis and an inter-patch KAN layer over the patch axis),
then a flatten and a two-matrix bottleneck head that emits the whole
horizon at once.  The head applies its matrices through `layers.linear`,
the product a linear-mode KAN layer uses.  The instance statistics
denormalize the output.

Channels of a multivariate series share one backbone: they are folded
into the batch axis and never mix.
"""

from __future__ import annotations

import json
import numbers
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from math import isfinite, prod

import numpy as np

from . import pool
from . import tensor as tt
from .basis import make_basis
from .errors import ConfigError, ContractError, DataError, DimensionError
from .layers import KanLayer, linear
from .tensor import Tensor

CHECKPOINT_CONFIG_KEY = "__model_config__"
# Channels per `predict` forward.  A row's float64 result depends on the
# batch size (BLAS picks kernels by shape), so it is fixed, never derived
# from the channel count; 8 is faster than batch-1 forwards at 7 and at
# 321 channels, where 32 made a 7-channel call 2-3x slower.
PREDICT_CHUNK = 8
FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}
INT64_MAX = int(np.iinfo(np.int64).max)
# ModelConfig.components -> the layers each block holds, in build order
COMPONENTS = {"both": ("intra", "inter"), "intra-only": ("intra",),
              "inter-only": ("inter",)}


@dataclass(frozen=True)
class ModelConfig:
    """A model's settings, checked when built: a ModelConfig that exists is valid."""

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
    components: str = "both"
    seed: int = 2021
    revin_eps: float = 1e-5

    def __post_init__(self):
        for f in fields(self):  # a checkpoint's config is JSON, not a parsed file
            value = getattr(self, f.name)
            if not isinstance(value, FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.patch_len > self.lookback:
            raise ConfigError(
                f"patch_len {self.patch_len} exceeds lookback {self.lookback}"
            )
        if not 1 <= self.stride <= INT64_MAX:
            raise ConfigError(f"stride must be in [1, 2**63 - 1], got {self.stride}")
        if self.revin_eps < 0:
            raise ConfigError(f"revin_eps must be >= 0, got {self.revin_eps}")
        for name in ("lookback", "horizon", "patch_len", "embed_dim",
                     "bottleneck_dim", "n_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("n_blocks", "seed"):  # numpy seeds are non-negative
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.components not in COMPONENTS:
            raise ConfigError(f"components must be one of ({', '.join(COMPONENTS)}), "
                              f"got {self.components!r}")
        if self.mode not in ("kan", "linear"):
            raise ConfigError(f"mode must be kan or linear, got {self.mode!r}")
        if 8 * self.parameter_count() > INT64_MAX:  # more bytes than numpy addresses
            raise _no_room(self)
        if self.n_blocks:  # only blocks build the basis, so only they can fail on it
            self.make_basis()

    @property
    def n_patches(self) -> int:
        return patch_count(self.lookback, self.patch_len, self.stride)

    def make_basis(self):
        return make_basis(self.basis, self.degree, self.hahn_a, self.hahn_b, self.hahn_n)

    def parameter_shapes(self) -> dict:
        """{name: shape} of the parameters HaKanModel builds, in its order."""
        return self._shapes(self.n_blocks)

    def parameter_count(self) -> int:
        """The parameters of `parameter_shapes`, counted from at most one block's shapes."""
        head, one = (sum(prod(shape) for shape in self._shapes(k).values()) for k in (0, 1))
        return head + self.n_blocks * (one - head)

    def _shapes(self, n_blocks: int) -> dict:
        """{name: shape} of this model's parameters had it `n_blocks` blocks."""
        n, p, d = self.n_patches, self.patch_len, self.embed_dim
        coeffs = (self.degree + 1,) if self.mode == "kan" else ()
        shapes = {"w_p": (p, d), "w_pos": (n, d)}
        gamma = {"intra": (d, d) + coeffs, "inter": (n, n) + coeffs}
        for i in range(n_blocks):
            for layer in COMPONENTS[self.components]:
                shapes[f"block.{i}.{layer}.gamma"] = gamma[layer]
        shapes["w_down"] = (self.bottleneck_dim, n * d)
        shapes["w_up"] = (self.horizon, self.bottleneck_dim)
        return shapes


def _no_room(config: ModelConfig) -> ConfigError:
    return ConfigError(f"the model's {config.parameter_count():,} parameters do not fit in memory")


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
    """Undo revin_normalize; a Tensor `pred` becomes one differentiable node."""
    scale = state.std + state.eps
    if not isinstance(pred, Tensor):
        return np.asarray(pred, dtype=np.float64) * scale + state.mean

    def back(g):
        pred.accumulate_grad(g * scale)

    return tt._make(pred.data * scale + state.mean, (pred,), back)


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
    # a stride past the window gives the same clamped positions as the
    # window length, and keeps the index arithmetic inside int64
    idx = np.arange(n)[:, None] * min(stride, length) + np.arange(patch_len)[None, :]
    idx = np.minimum(idx, length - 1)
    return x[..., idx]


# embedding and blocks --------------------------------------------------------


def embed(patches: np.ndarray, w_p: Tensor, w_pos: Tensor) -> Tensor:
    """Project patches [n, p] or [B, n, p] by w_p [p, d] and add w_pos [n, d].

    One node; the patches are data, so only w_p and w_pos get gradients.
    """
    if patches.shape[-2:] != (w_pos.shape[0], w_p.shape[0]):
        raise DimensionError(f"embed: patches {patches.shape} do not fit "
                             f"w_p {w_p.shape} and w_pos {w_pos.shape}")
    out = np.matmul(patches, w_p.data)
    out += w_pos.data

    def back(g):
        if w_p.requires_grad:
            rows = patches.reshape(-1, w_p.shape[0])
            w_p.accumulate_grad(rows.T @ g.reshape(-1, w_p.shape[1]))
        if w_pos.requires_grad:
            w_pos.accumulate_grad(g.reshape((-1,) + w_pos.shape).sum(axis=0))

    return tt._make(out, (w_p, w_pos), back)


class HahnKanBlock:
    """Residual mixing block: intra-patch layer, inter-patch layer, skip.

    Both layers take [B, n, d]: intra contracts the embedding axis d and
    inter the patch axis n, in place.  A layer that `config.components`
    leaves out is None: the identity map, with no parameters.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        kwargs = dict(mode=config.mode, rng=rng)
        d, n = config.embed_dim, config.n_patches
        layers = COMPONENTS[config.components]
        self.intra = (KanLayer(d, d, basis=config.make_basis(), **kwargs)
                      if "intra" in layers else None)
        self.inter = (KanLayer(n, n, basis=config.make_basis(), axis=-2, **kwargs)
                      if "inter" in layers else None)

    def forward(self, x: Tensor) -> Tensor:
        h = self.intra.forward(x) if self.intra is not None else x
        h = self.inter.forward(h) if self.inter is not None else h
        return h + x


class HaKanModel:
    """Shared-backbone forecaster for univariate windows."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        n, p = config.n_patches, config.patch_len
        d, h, t = config.embed_dim, config.bottleneck_dim, config.horizon
        try:
            self.w_p = Tensor(_uniform(rng, p, (p, d)), requires_grad=True)
            self.w_pos = Tensor(rng.normal(0.0, 0.02, size=(n, d)), requires_grad=True)
            self.blocks = [HahnKanBlock(config, rng) for _ in range(config.n_blocks)]
            self.w_down = Tensor(_uniform(rng, n * d, (h, n * d)), requires_grad=True)
            self.w_up = Tensor(_uniform(rng, h, (t, h)), requires_grad=True)
        except (MemoryError, ValueError):  # ValueError: a shape numpy cannot represent
            raise _no_room(config)

    def named_parameters(self) -> list:
        """The names of `parameter_shapes` paired with the tensors in build order."""
        gammas = [layer.gamma for block in self.blocks
                  for layer in (block.intra, block.inter) if layer is not None]
        tensors = [self.w_p, self.w_pos, *gammas, self.w_down, self.w_up]
        shapes = self.config.parameter_shapes()
        _expect([t.shape for t in tensors] == list(shapes.values()), "parameter shapes")
        return list(zip(shapes, tensors))

    def parameters(self) -> list:
        return [t for _, t in self.named_parameters()]

    def param_count(self) -> int:
        return self.config.parameter_count()

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
        h = embed(patches, self.w_p, self.w_pos)
        for block in self.blocks:
            h = block.forward(h)
        _expect(h.shape == (x.shape[0], cfg.n_patches, cfg.embed_dim),
                "block stack shape")
        flat = tt.reshape(h, (x.shape[0], cfg.n_patches * cfg.embed_dim))
        pred = linear(linear(flat, self.w_down), self.w_up)
        _expect(pred.shape == (x.shape[0], cfg.horizon), "head output shape")
        return revin_denormalize(pred, state)

    def forward(self, series: np.ndarray) -> np.ndarray:
        """Forecast one univariate window [lookback] -> [horizon], as `predict` does."""
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 1:
            raise DimensionError(f"expected a 1-d series, got shape {series.shape}")
        return self.predict(series[:, None])[:, 0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forecast every channel of an [L, M] series, returning [T, M].

        Channels run through the backbone PREDICT_CHUNK at a time, one
        pool task per chunk.  A short last chunk is padded with copies of
        its first window, so every forward has the same batch size and a
        channel's forecast is bit-identical whether or not other channels
        are present.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise DimensionError(f"expected [length, channels], got shape {x.shape}")
        if x.shape[0] != self.config.lookback:
            raise DimensionError(
                f"expected lookback {self.config.lookback}, got {x.shape[0]}"
            )
        channels = x.shape[1]
        preds = np.empty((channels, self.config.horizon))

        def chunk_task(lo):
            windows = x[:, lo:lo + PREDICT_CHUNK].T
            n = windows.shape[0]
            chunk = np.empty((PREDICT_CHUNK, self.config.lookback))
            chunk[:n] = windows
            chunk[n:] = windows[0]  # a zero row would divide 0/0 when revin_eps = 0
            preds[lo:lo + n] = self.forward_batch(chunk).data[:n]

        with tt.no_grad():
            pool.map(chunk_task, range(0, channels, PREDICT_CHUNK))
        return preds.T

    # checkpointing ---------------------------------------------------------

    def save(self, path) -> None:
        arrays = {name: t.data for name, t in self.named_parameters()}
        arrays[CHECKPOINT_CONFIG_KEY] = np.array(json.dumps(asdict(self.config)))
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "HaKanModel":
        """Rebuild a saved model; an unreadable or incomplete file is a DataError.

        The stored config's sizes are checked against the stored arrays
        before anything is allocated, so a damaged config cannot make the
        model it names.
        """
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            raise DataError(f"checkpoint not found: {path}")
        except OSError as err:
            raise DataError(f"{path} is not a readable checkpoint: {err}")
        with fh:
            try:
                archive = np.load(fh, allow_pickle=False)
            except (OSError, ValueError, EOFError, zipfile.BadZipFile) as err:
                raise DataError(f"{path} is not a readable checkpoint: {err}")
            if not isinstance(archive, np.lib.npyio.NpzFile):  # a .npy array
                raise DataError(f"{path} is not a model checkpoint")
            with archive:
                config, params = _read_checkpoint(archive, path)
        try:
            model = cls(config)
        except ConfigError as err:
            raise DataError(f"{path}: {CHECKPOINT_CONFIG_KEY} builds no model: {err}")
        for name, t in model.named_parameters():
            t.data = params[name]
        return model


def _read_checkpoint(archive, path) -> tuple:
    """(ModelConfig, {name: float64 array}) read and checked from an open archive."""
    if CHECKPOINT_CONFIG_KEY not in archive:
        raise DataError(f"{path} is not a model checkpoint")
    known = {f.name for f in fields(ModelConfig)}
    try:
        raw = json.loads(str(_read_key(archive, path, CHECKPOINT_CONFIG_KEY)))
        # OverflowError: a float field stored as an int past float range
        config = ModelConfig(**{k: v for k, v in raw.items() if k in known})
    except (ValueError, TypeError, AttributeError, OverflowError, ConfigError) as err:
        raise DataError(f"{path}: {CHECKPOINT_CONFIG_KEY} builds no model: {err}")
    # parameter_shapes loops over the blocks, so the block parameters the
    # config counts are checked first, against the stored arrays' headers
    needed = sum(count * copies for group, count, copies in count_breakdown(config)
                 if group == "block")
    stored_count = sum(_stored_size(archive, path, key) for key in archive.files
                       if key.startswith("block."))
    if needed != stored_count:
        raise DataError(f"{path}: {CHECKPOINT_CONFIG_KEY} n_blocks {config.n_blocks} "
                        f"with components {config.components!r} needs {needed:,} "
                        f"block parameters, {stored_count:,} stored")
    params = {}
    for name, shape in config.parameter_shapes().items():
        stored = _read_key(archive, path, name)
        if stored.dtype.kind not in "fiu" or not np.isfinite(stored).all():
            raise DataError(f"{path}: checkpoint key {name} holds {stored.dtype} "
                            f"values that are not all finite real numbers")
        if stored.shape != shape:
            raise DataError(f"{path}: checkpoint key {name}: shape {stored.shape} "
                            f"!= {shape}")
        params[name] = stored.astype(np.float64, copy=False)
    return config, params


def _stored_size(archive, path, key: str) -> int:
    """Elements of the array stored under `key`, read from its .npy header
    alone, so nothing the header describes is read or decompressed."""
    member = key if key in archive.zip.namelist() else key + ".npy"
    try:
        with archive.zip.open(member) as fh:
            version = np.lib.format.read_magic(fh)
            read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                           else np.lib.format.read_array_header_2_0)
            shape = read_header(fh)[0]
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as err:
        raise DataError(f"{path}: checkpoint key {key} is unreadable: {err}")
    return prod(shape)


def _read_key(archive, path, key: str) -> np.ndarray:
    try:
        return archive[key]
    except KeyError:
        raise DataError(f"{path}: checkpoint key {key} is missing")
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as err:
        raise DataError(f"{path}: checkpoint key {key} is unreadable: {err}")


def _uniform(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    k = np.sqrt(1.0 / fan_in)
    return rng.uniform(-k, k, size=shape)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise ContractError(f"internal shape invariant violated: {what}")


# parameter accounting --------------------------------------------------------


def count_breakdown(config: ModelConfig) -> list:
    """(component, parameters, copies) of the model a configuration builds.

    Every block has the same parameters, so the blocks are one row, "block",
    counting one block with `config.n_blocks` copies; a model without blocks
    has no such row.  It walks no block and allocates none of the model, so
    it counts models too large for `HaKanModel` to allocate.
    """
    counts = {}
    for name, shape in config._shapes(min(1, config.n_blocks)).items():
        group = name.split(".")[0]  # block.0.* -> block
        counts[group] = counts.get(group, 0) + prod(shape)
    return [(group, count, config.n_blocks if group == "block" else 1)
            for group, count in counts.items()]
