import numpy as np
import pytest

from pointdiff import data_io, metrics
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
    with np.errstate(over="ignore"):  # a square past the float range is inf
        return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def brute_chamfer(a, b):
    d2 = dense_d2(a, b)
    return float(np.mean(np.min(d2, axis=1)) + np.mean(np.min(d2, axis=0)))


def brute_hausdorff(a, b):
    d2 = dense_d2(a, b)
    return float(np.sqrt(max(np.max(np.min(d2, axis=1)), np.max(np.min(d2, axis=0)))))


# ---------------------------------------------------------------------------
# the distance metrics composed from their one-pair public functions: the
# oracle that the pruned set metrics must equal bitwise


def composed_report(gen, ref, ids=None, grid_resolution=32):
    """``metrics.evaluate``'s report, rebuilt from ``chamfer_l2``,
    ``hausdorff`` and ``jsd`` over every pair, minima summed one by one."""
    cd = [[metrics.chamfer_l2(g, r) for r in ref] for g in gen]
    hd = [[metrics.hausdorff(g, r) for r in ref] for g in gen]
    mmd, one_nn = 0.0, 0.0
    for j in range(len(ref)):
        mmd += min(row[j] for row in cd)
    for row in cd:
        one_nn += min(row)
    per_item = []
    if len(gen) == len(ref):
        ids = [str(i) for i in range(len(gen))] if ids is None else ids
        per_item = [(item_id, cd[i][i], hd[i][i]) for i, item_id in enumerate(ids)]
    return metrics.MetricReport(
        mmd_cd=mmd / len(ref), one_nn_cd=one_nn / len(gen),
        jsd=metrics.jsd(gen, ref, grid_resolution),
        hd=float(np.mean([min(row) for row in hd])), per_item=per_item)


def translated_shapes(sizes, seed):
    """Four distinct synthetic shapes, scaled by 0.2 into the four corners of
    a square inside [-0.5, 0.5]^3: every pair of different shapes lies far
    apart, so the metrics can prune all their second searches."""
    corners = [(-0.25, -0.25, 0.0), (0.25, -0.25, 0.0), (-0.25, 0.25, 0.0), (0.25, 0.25, 0.0)]
    kinds = ("sphere", "cube", "torus", "cylinder")
    return [0.2 * data_io.synth_shape(kind, n, seed=seed + k).points + corner
            for k, (kind, n, corner) in enumerate(zip(kinds, sizes, corners))]


@pytest.fixture
def nn_searches(monkeypatch):
    """Every ``nearest_sq_dists`` call the metrics make, as (tree size, query
    rows).  A search of fewer than ``metrics._SEARCH_ROWS`` rows is one call."""
    calls = []
    search = metrics.nearest_sq_dists

    def counting(tree, queries):
        calls.append((tree.n, len(queries)))
        return search(tree, queries)

    monkeypatch.setattr(metrics, "nearest_sq_dists", counting)
    return calls
