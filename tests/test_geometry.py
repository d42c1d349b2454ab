from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdiff import geometry as geo
from pointdiff.errors import InvalidArgument
from pointdiff.geometry import MaskStrategy, PointCloud


def test_point_cloud_validation():
    with pytest.raises(InvalidArgument):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(InvalidArgument):
        PointCloud(np.array([[np.nan, 0.0, 0.0]]))
    with pytest.raises(InvalidArgument):
        PointCloud(np.zeros((0, 3)))


def test_fps_first_pick_is_seed(rng):
    cloud = PointCloud(rng.normal(size=(50, 3)))
    idx = geo.fps(cloud, 8)
    assert idx[0] == 0
    assert len(set(idx.tolist())) == 8


def test_fps_matches_greedy_oracle(rng):
    pts = rng.normal(size=(40, 3))
    cloud = PointCloud(pts)
    idx = geo.fps(cloud, 10)

    # independent greedy max-min re-implementation
    chosen = [0]
    for _ in range(9):
        d2 = np.full(len(pts), np.inf)
        for c in chosen:
            d2 = np.minimum(d2, np.sum((pts - pts[c]) ** 2, axis=1))
        chosen.append(int(np.argmax(d2)))
    assert idx.tolist() == chosen


def test_fps_tie_breaks_to_lowest_index():
    # two candidates equidistant from the seed; index 1 must win over 2
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [0.1, 0, 0]])
    idx = geo.fps(PointCloud(pts), 2)
    assert idx.tolist() == [0, 1]


def test_knn_group_sorted_and_stable():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [2.0, 0, 0]])
    groups = geo.knn_group(PointCloud(pts), pts[[0]], 3)
    # distances 0, 1, 1, 4 -> ties on 1 resolved to the lower index first
    assert groups[0].tolist() == [0, 1, 2]


def test_segment_patch_geometry(sphere_cloud):
    ps = geo.segment(sphere_cloud, 8, 16)
    assert ps.centers.shape == (8, 3)
    assert ps.patches.shape == (8, 16, 3)
    # patches are center-relative: absolute() puts them back on the cloud
    absolute = ps.absolute()
    assert absolute.shape == (8, 16, 3)
    d2 = np.sum((absolute[:, :, None, :] - sphere_cloud.points[None, None]) ** 2, axis=3)
    assert np.min(d2, axis=2).max() < 1e-20


def test_mask_count_half_up():
    assert geo.mask_count(0.75, 64) == 48
    assert geo.mask_count(0.5, 5) == 3  # 2.5 rounds up
    assert geo.mask_count(0.25, 6) == 2  # 1.5 rounds up
    assert geo.mask_count(0.1, 64) == 6  # 6.4 rounds down


def test_apply_mask_random_properties():
    spec = geo.apply_mask(16, 0.75, "random", rng_seed=7)
    assert spec.indicator.sum() == 12
    assert spec.strategy is MaskStrategy.RANDOM
    assert np.array_equal(np.sort(np.concatenate([spec.masked_indices, spec.visible_indices])),
                          np.arange(16))
    again = geo.apply_mask(16, 0.75, "random", rng_seed=7)
    assert np.array_equal(spec.indicator, again.indicator)


def test_apply_mask_block_is_a_connected_chain(rng):
    centers = rng.normal(size=(16, 3))
    spec = geo.apply_mask(16, 0.5, "block", rng_seed=3, centers=centers)
    masked = set(spec.masked_indices.tolist())
    assert len(masked) == 8
    # every masked center's nearest masked neighbor is closer than the
    # farthest pairwise distance — weak but deterministic contiguity signal;
    # the strong check is against a chain oracle below
    chain = _block_oracle(centers, 8, seed=3)
    assert masked == set(chain)


def _block_oracle(centers, m, seed):
    rng = np.random.default_rng(seed)
    start = int(rng.integers(len(centers)))
    chain = [start]
    remaining = sorted(set(range(len(centers))) - {start})
    while len(chain) < m:
        d2 = np.sum((centers[remaining] - centers[chain[-1]]) ** 2, axis=1)
        nxt = remaining[int(np.argmin(d2))]
        chain.append(nxt)
        remaining.remove(nxt)
    return chain


def test_apply_mask_block_requires_centers():
    with pytest.raises(InvalidArgument):
        geo.apply_mask(16, 0.5, "block", rng_seed=0)


def test_apply_mask_degenerate_ratio():
    with pytest.raises(InvalidArgument):
        geo.apply_mask(4, 0.05, "random", rng_seed=0)  # rounds to zero masked
    with pytest.raises(InvalidArgument):
        geo.apply_mask(4, 0.95, "random", rng_seed=0)  # leaves nothing visible


def test_assemble_round_trip(sphere_cloud):
    ps = geo.segment(sphere_cloud, 8, 16)
    out = geo.assemble(ps, np.ones(8, dtype=bool))
    assert np.array_equal(out.points, ps.absolute().reshape(-1, 3))


def test_assemble_with_overrides(sphere_cloud):
    ps = geo.segment(sphere_cloud, 4, 8)
    override = [None, np.zeros((5, 3)), None, np.ones((2, 3))]
    out = geo.assemble(ps, np.ones(4, dtype=bool), override_points=override)
    assert len(out) == 8 + 5 + 8 + 2
    # overridden blocks land at their centers
    assert np.allclose(out.points[8:13], ps.centers[1])


def test_assemble_override_count_mismatch(sphere_cloud):
    ps = geo.segment(sphere_cloud, 4, 8)
    with pytest.raises(InvalidArgument):
        geo.assemble(ps, np.ones(4, dtype=bool), override_points=[None])


def test_build_kdtree_agrees_with_brute(rng):
    pts = rng.normal(size=(64, 3))
    queries = rng.normal(size=(16, 3))
    tree = geo.build_kdtree(pts)
    _, idx = tree.query(queries)
    d2 = np.sum((queries[:, None] - pts[None]) ** 2, axis=2)
    assert np.array_equal(idx, d2.argmin(axis=1))


# ---------------------------------------------------------------------------
# exact squared-distance kernel and the blocked nearest-index search, against
# the dense np.sum + argmin definition


def _dense_d2(a, b):
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def _assert_nearest_matches_dense(a, b):
    d2 = _dense_d2(a, b)
    a_to_b, b_to_a = geo.nearest_indices(a, b)
    assert np.array_equal(a_to_b, d2.argmin(axis=1))
    assert np.array_equal(b_to_a, d2.argmin(axis=0))


_coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)
_grid = st.integers(min_value=-2, max_value=2).map(float)  # duplicates and ties


def _clouds(elements, max_points=40):
    return st.integers(1, max_points).flatmap(
        lambda n: st.lists(st.tuples(elements, elements, elements), min_size=n, max_size=n)
    ).map(lambda rows: np.array(rows, dtype=np.float64))


@settings(max_examples=60, deadline=None)
@given(_clouds(_coords), _clouds(_coords), st.sampled_from([np.float64, np.float32]))
def test_sq_dists_bitwise_equals_dense_sum(a, b, dtype):
    a, b = a.astype(dtype), b.astype(dtype)
    d2 = geo.sq_dists(a, b)
    assert d2.dtype == dtype
    assert np.array_equal(d2, _dense_d2(a, b))


@settings(max_examples=80, deadline=None)
@given(_clouds(_grid), _clouds(_grid), st.integers(1, 50))
def test_nearest_indices_ties_go_to_lowest_index(a, b, block_elems):
    # grid points repeat, so most rows and columns have several equal minima;
    # small block budgets put them in different blocks
    with mock.patch.object(geo, "_NN_BLOCK_ELEMS", block_elems):
        _assert_nearest_matches_dense(a, b)
    _assert_nearest_matches_dense(a, b)


def test_nearest_indices_one_by_one():
    a = np.array([[0.5, -1.0, 2.0]])
    b = np.array([[3.0, 0.0, 0.0]])
    a_to_b, b_to_a = geo.nearest_indices(a, b)
    assert a_to_b.tolist() == [0] and b_to_a.tolist() == [0]


def test_nearest_indices_rows_not_a_multiple_of_block_rows(rng):
    m = 512  # -> 128 rows per block; 300 rows leave a partial last block
    a = rng.normal(size=(300, 3))
    b = rng.normal(size=(m, 3))
    assert geo._NN_BLOCK_ELEMS // m == 128
    _assert_nearest_matches_dense(a, b)


def test_nearest_indices_one_row_blocks_above_the_budget(rng):
    m = geo._NN_BLOCK_ELEMS + 3  # one row per block
    b = np.round(rng.normal(size=(m, 3)), 1)
    a = np.concatenate([b[[5, 5, m - 1]], np.round(rng.normal(size=(4, 3)), 1)])
    _assert_nearest_matches_dense(a, b)
