import pytest

from hakan.model import ModelConfig


@pytest.fixture
def tiny_config() -> ModelConfig:
    return ModelConfig(
        lookback=8, horizon=4, patch_len=4, stride=2, embed_dim=3,
        n_blocks=1, bottleneck_dim=5, degree=2, seed=7,
    )
