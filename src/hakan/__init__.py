"""Time series forecasting with Hahn-polynomial Kolmogorov-Arnold networks."""

from .basis import make_basis
from .layers import KanLayer
from .model import (
    HaKanModel,
    ModelConfig,
    make_patches,
    revin_denormalize,
    revin_normalize,
)
from .tensor import Tensor, backward, no_grad
from .training import Adam, MetricRecord, TrainSpec, grad_check, mse_loss, train

__all__ = [
    "Adam",
    "HaKanModel",
    "KanLayer",
    "MetricRecord",
    "ModelConfig",
    "Tensor",
    "TrainSpec",
    "backward",
    "grad_check",
    "make_basis",
    "make_patches",
    "mse_loss",
    "no_grad",
    "revin_denormalize",
    "revin_normalize",
    "train",
]

__version__ = "0.1.0"
