import numpy as np
import pytest

from pointdiff import data_io
from pointdiff.model import ModelConfig


def toy_config(**overrides):
    """Small configuration used across the unit tests."""
    base = dict(
        latent_width=16,
        enc_blocks=1,
        enc_heads=2,
        dec_blocks=1,
        dec_heads=2,
        num_groups=8,
        group_size=16,
        mask_ratio=0.75,
        timesteps=10,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def sphere_cloud():
    return data_io.synth_shape("sphere", 128, seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# independent brute-force oracles: exhaustive O(n^2) distance matrices.
# Squared distances are the dense definition that ``geometry.sq_dists``, the
# library's one point-to-point arithmetic, is pinned to, so comparisons with
# it can be exact.


def dense_d2(a, b):
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def brute_chamfer(a, b):
    d2 = dense_d2(a, b)
    return float(np.mean(np.min(d2, axis=1)) + np.mean(np.min(d2, axis=0)))


def brute_hausdorff(a, b):
    d2 = dense_d2(a, b)
    return float(np.sqrt(max(np.max(np.min(d2, axis=1)), np.max(np.min(d2, axis=0)))))
