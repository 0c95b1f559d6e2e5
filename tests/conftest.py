import numpy as np
import pytest

from momentspot.config import ModelConfig


def away_from_zero(arr, margin=0.05):
    """Push tiny magnitudes away from 0 so finite differences avoid kinks."""
    return arr + np.sign(arr + (arr == 0)) * margin


def pairs(leaves):
    """The (w, b) pairs of a flat [w1, b1, w2, b2, ...] list of layer parameters."""
    return tuple(zip(leaves[::2], leaves[1::2]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tiny_config(**overrides):
    base = dict(
        hidden_dim=16,
        heads=2,
        ffn_dim=32,
        num_queries=4,
        max_text_len=8,
        max_clips=16,
        dropout=0.0,
        input_dropout=0.0,
        video_parts=(("clip_v", 10),),
        text_parts=(("clip_t", 6),),
        dtype="float64",
        epochs=2,
        batch_size=4,
        val_fraction=0.0,
        eval_every=0,
    )
    base.update(overrides)
    return ModelConfig(**base)
