from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_d2
from pointdiff import data_io, geometry as geo
from pointdiff.errors import InvalidArgument, ShapeError
from pointdiff.geometry import PointCloud


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


def test_fps_matches_greedy_oracle_on_a_large_cloud():
    # the incremental greedy max-min over contiguous rows, at codec size
    pts = data_io.synth_shape("cube", 32768, seed=4).points
    chosen = [0]
    min_d2 = np.sum((pts - pts[0]) ** 2, axis=1)
    for _ in range(255):
        chosen.append(int(np.argmax(min_d2)))
        np.minimum(min_d2, np.sum((pts - pts[chosen[-1]]) ** 2, axis=1), out=min_d2)
    assert geo.fps(PointCloud(pts), 256).tolist() == chosen


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


def _knn_oracle(pts, centers, k):
    # stable argsort of whole rows of the dense definition, 16 centers at a time
    return np.concatenate([np.argsort(dense_d2(centers[lo : lo + 16], pts), axis=1,
                                      kind="stable")[:, :k]
                           for lo in range(0, len(centers), 16)])


def _assert_knn_matches_oracle(pts, center_idx, k):
    got = geo.knn_group(PointCloud(pts), pts[center_idx], k)
    want = _knn_oracle(pts, pts[center_idx], k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _dense_rows(cloud, centers, k):
    """The center rows knn_group recomputes densely (its only ``sq_dists``
    calls), and its result."""
    with mock.patch.object(geo, "sq_dists", wraps=geo.sq_dists) as exact:
        groups = geo.knn_group(cloud, centers, k)
    rows = [call.args[0] for call in exact.call_args_list]
    assert all(len(r) == 1 for r in rows)
    return (np.concatenate(rows) if rows else np.empty((0, 3))), groups


def _tied_grid(rng):
    return np.floor(rng.uniform(0.0, 1.0, size=(512, 3)) * 8) / 8


def _duplicates(rng):
    # every point appears 7 times, in shuffled positions
    return np.repeat(rng.normal(size=(40, 3)), 7, axis=0)[rng.permutation(280)]


@pytest.mark.parametrize("margin", [1, 100, None, 0])
@pytest.mark.parametrize("k", [1, 7, 100, 512])
def test_knn_group_matches_stable_argsort_on_tied_grid(rng, k, margin):
    # a 1/8 grid: every center has many points at each of a few distances,
    # so the k-th distance is almost always tied; k = 512 is the whole cloud.
    # The candidate margin moves rows between the KD-tree and the dense
    # recomputation; at margin 0 the tree's last candidate is the k-th
    # itself, so every row is recomputed densely
    pts = _tied_grid(rng)
    center_idx = rng.choice(512, size=20, replace=False)
    if margin is None:
        _assert_knn_matches_oracle(pts, center_idx, k)
        return
    with mock.patch.object(geo, "_KNN_MARGIN", margin):
        _assert_knn_matches_oracle(pts, center_idx, k)
        if margin == 0:
            dense, _ = _dense_rows(PointCloud(pts), pts[center_idx], k)
            assert np.array_equal(dense, pts[center_idx])


@pytest.mark.parametrize("k", [1, 3, 7, 8, 20, 280])
def test_knn_group_matches_stable_argsort_with_duplicates(rng, k):
    pts = _duplicates(rng)
    _assert_knn_matches_oracle(pts, rng.choice(280, size=9, replace=False), k)


def test_knn_group_matches_stable_argsort_on_torus():
    cloud = data_io.synth_shape("torus", 4096, seed=2)
    _assert_knn_matches_oracle(cloud.points, geo.fps(cloud, 64), 32)


@pytest.mark.parametrize("n", [8192, 32768])
def test_knn_group_matches_stable_argsort_on_large_synth_clouds(n):
    # the codec's G256 x 128 segmentation of large clouds
    cloud = data_io.synth_shape("two-spheres", n, seed=5)
    _assert_knn_matches_oracle(cloud.points, geo.fps(cloud, 256), 128)


@pytest.mark.parametrize("k", [1, 16, 300])
def test_knn_group_matches_stable_argsort_far_from_origin(rng, k):
    # coordinates near 1e3, spread 1e-3: differences carry few digits
    pts = 1e3 + 1e-3 * rng.normal(size=(300, 3))
    _assert_knn_matches_oracle(pts, rng.choice(300, size=40, replace=False), k)


def test_knn_group_matches_stable_argsort_when_distances_overflow(rng):
    # coordinates near 1e200, spread 1e197: every squared distance but a
    # point's own is inf, and cKDTree returns no candidate past the first
    pts = 1e200 * (1 + 1e-3 * rng.normal(size=(60, 3)))
    _assert_knn_matches_oracle(pts, rng.choice(60, size=10, replace=False), 5)


@pytest.mark.parametrize("k", [1, 5])
def test_knn_group_dense_rows_are_only_those_the_bound_rejects(rng, k):
    # one point repeated more than k + margin times: a center on it has all
    # its k + margin tree candidates at distance 0, so the tree cannot tell
    # which copies come first and the row must be recomputed; every center
    # among the distinct points is settled by the tree
    copies = k + geo._KNN_MARGIN + 5
    pts = np.concatenate([rng.normal(size=(500, 3)), np.repeat([[0.1, 0.2, 0.3]], copies, axis=0)])
    pts = pts[rng.permutation(len(pts))]
    tied = np.flatnonzero(np.all(pts == [0.1, 0.2, 0.3], axis=1))
    center_idx = np.concatenate([rng.choice(np.setdiff1d(np.arange(len(pts)), tied), 30,
                                            replace=False), tied[[0, -1]]])
    dense, groups = _dense_rows(PointCloud(pts), pts[center_idx], k)
    assert np.array_equal(dense, pts[tied[[0, -1]]])
    assert np.array_equal(groups, _knn_oracle(pts, pts[center_idx], k))
    assert np.array_equal(groups[-2:], tied[None, :k].repeat(2, axis=0))


def test_knn_group_rejects_bad_sizes_and_centers():
    cloud = PointCloud(np.eye(3))
    for k in (0, 4):
        with pytest.raises(InvalidArgument):
            geo.knn_group(cloud, cloud.points, k)
    with pytest.raises(InvalidArgument):
        geo.knn_group(cloud, [[np.nan, 0.0, 0.0]], 2)


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
        d2 = dense_d2(centers[remaining], centers[chain[-1]][None])[:, 0]
        nxt = remaining[int(np.argmin(d2))]
        chain.append(nxt)
        remaining.remove(nxt)
    return chain


@pytest.mark.parametrize("strategy", ["bogus", None, 3])
def test_apply_mask_rejects_unknown_strategy(strategy):
    with pytest.raises(InvalidArgument, match="unknown mask strategy"):
        geo.apply_mask(8, 0.5, strategy, 0, centers=np.zeros((8, 3)))


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
    out = geo.assemble(ps.centers, ps.patches)
    assert np.array_equal(out.points, ps.absolute().reshape(-1, 3))


def test_assemble_with_overrides(sphere_cloud):
    ps = geo.segment(sphere_cloud, 4, 8)
    blocks = [ps.patches[0], np.zeros((5, 3)), ps.patches[2], np.ones((2, 3))]
    out = geo.assemble(ps.centers, blocks)
    assert len(out) == 8 + 5 + 8 + 2
    # blocks of any size land at their centers, in order
    assert np.array_equal(out.points[:8], ps.absolute([0])[0])
    assert np.allclose(out.points[8:13], ps.centers[1])


def test_assemble_override_count_mismatch(sphere_cloud):
    ps = geo.segment(sphere_cloud, 4, 8)
    with pytest.raises(InvalidArgument):
        geo.assemble(ps.centers, ps.patches[:1])


# ---------------------------------------------------------------------------
# exact squared-distance kernel and the blocked nearest-index search, against
# the dense np.sum + argmin definition


def _assert_nearest_matches_dense(a, b):
    d2 = dense_d2(a, b)
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
    assert np.array_equal(d2, dense_d2(a, b))


def test_sq_dists_writes_into_out(rng):
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
    d, scratch = np.full((2, 5, 7), np.nan)
    assert geo.sq_dists(a, b, out=(d, scratch)) is d
    assert np.array_equal(d, dense_d2(a, b))
    buf = np.empty((2, 5, 7), dtype=np.float32)
    a32, b32 = a.astype(np.float32), b.astype(np.float32)
    assert np.array_equal(geo.sq_dists(a32, b32, out=tuple(buf)), dense_d2(a32, b32))


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


@pytest.mark.parametrize("n, m", [(3, 0), (0, 3), (0, 0)])
def test_nearest_indices_rejects_an_empty_cloud(n, m):
    # no nearest neighbour exists; numpy's reduction error must not escape
    with pytest.raises(ShapeError, match="empty cloud"):
        geo.nearest_indices(np.zeros((n, 3)), np.zeros((m, 3)))


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


# the Chamfer search's BLAS filter: every case compares both directions with
# the dense argmin, so a filter bound that is too small shows as a mismatch


@settings(max_examples=100, deadline=None)
@given(_clouds(_coords), _clouds(_coords), st.sampled_from([np.float64, np.float32]))
def test_nearest_indices_equals_dense_argmin(a, b, dtype):
    _assert_nearest_matches_dense(a.astype(dtype), b.astype(dtype))


def _near_ties(rng, dtype):
    """Queries on a 10x10x10 unit grid and, around each, two points whose
    distances to it agree to within a few ulps: an offset, its negation, and
    a random nudge of the second by one to three ulps per coordinate."""
    a = np.stack(np.unravel_index(np.arange(1000), (10, 10, 10)), axis=1).astype(dtype)
    off = (0.1 * rng.normal(size=a.shape)).astype(dtype)
    twin = a - off
    for _ in range(3):
        nudge = rng.choice(np.array([-np.inf, np.inf], dtype=dtype), size=a.shape)
        twin = np.where(rng.random(a.shape) < 0.5, np.nextafter(twin, nudge), twin)
    b = np.empty((2 * len(a), 3), dtype=dtype)
    b[0::2], b[1::2] = a + off, twin
    return a, b


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_nearest_indices_near_ties(rng, dtype):
    a, b = _near_ties(rng, dtype)
    d2 = dense_d2(a, b)
    pair = d2.reshape(len(a), len(a), 2)[np.arange(len(a)), np.arange(len(a))]
    assert np.mean(pair[:, 0] == pair[:, 1]) < 0.9  # not just exact ties
    _assert_nearest_matches_dense(a, b)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_nearest_indices_offset_clouds(rng, dtype):
    # far from the origin and tightly spread: unshifted norms would cancel
    a = (1e3 + 1e-3 * rng.normal(size=(300, 3))).astype(dtype)
    b = (1e3 + 1e-3 * rng.normal(size=(257, 3))).astype(dtype)
    _assert_nearest_matches_dense(a, b)


def test_nearest_indices_rechecks_only_ambiguous_rows(rng):
    # row 1 and row 4 have two equally near points; with 3 rows per block
    # they fall in different blocks, and only they are recomputed exactly
    b = rng.normal(size=(20, 3))
    b[7] = b[3]
    a = rng.normal(size=(6, 3))
    a[1], a[4] = b[3] + 1e-9, b[3] - 1e-9
    with mock.patch.object(geo, "_NN_BLOCK_ELEMS", 3 * len(b)), \
            mock.patch.object(geo, "sq_dists", wraps=geo.sq_dists) as exact:
        a_to_b = geo._nearest_rows(a, b)
    assert [len(call.args[0]) for call in exact.call_args_list] == [1, 1]
    assert np.array_equal(a_to_b, dense_d2(a, b).argmin(axis=1))
    assert a_to_b[1] == a_to_b[4] == 3


# the float32 filter's edges, for float64 input: each set is one that float32
# cannot order by itself, so every row it does not settle must be rechecked


def _finer_than_float32(rng):
    """Queries on a unit grid, each with a point at an offset and, at a lower
    index, one at the negated offset stretched by 1e-10: the exact nearest is
    the second, farther by less than float32 resolves."""
    a = np.stack(np.unravel_index(np.arange(512), (8, 8, 8)), axis=1).astype(float)
    off = 0.1 * rng.normal(size=a.shape)
    b = np.empty((2 * len(a), 3))
    b[0::2], b[1::2] = a - off * (1 + 1e-10), a + off
    return a, b


_FLOAT32_EDGES = {
    "finer-than-float32": _finer_than_float32,
    # squares underflow in float32, to zero or to subnormals
    "1e-30": lambda rng: (1e-30 * rng.normal(size=(300, 3)), 1e-30 * rng.normal(size=(257, 3))),
    "1e-21": lambda rng: (1e-21 * rng.normal(size=(300, 3)), 1e-21 * rng.normal(size=(257, 3))),
    # finite in float64, past float32's range
    "1e39": lambda rng: (1e39 * rng.normal(size=(300, 3)), 1e39 * rng.normal(size=(257, 3))),
    # one far point in each cloud among unit-scale ones
    "1e39-outlier": lambda rng: tuple(np.concatenate([rng.normal(size=(n, 3)), [[1e39, 0, 0]]])
                                      for n in (300, 257)),
}


@pytest.mark.parametrize("name", list(_FLOAT32_EDGES))
def test_nearest_indices_where_float32_cannot_order(rng, name):
    a, b = _FLOAT32_EDGES[name](rng)
    _assert_nearest_matches_dense(a, b)


def test_near_ties_finer_than_float32_defeat_a_float32_argmin(rng):
    # the set above is a real test of the recheck: float32 alone gets it wrong
    a, b = _finer_than_float32(rng)
    exact = dense_d2(a, b).argmin(axis=1)
    assert np.all(exact % 2 == 1)
    assert np.any(dense_d2(a.astype(np.float32), b.astype(np.float32)).argmin(axis=1) != exact)


def test_float32_filter_settles_almost_every_training_row():
    # the Chamfer loss's searches: 512-point clouds against noisy copies.  A
    # filter bound that sent every row to the exact recheck would still give
    # exact indices, only slowly; this count is what catches it
    rechecked = []
    for seed in range(2):
        for kind in data_io.SYNTH_KINDS:
            a = data_io.synth_shape(kind, 512, seed=seed).points
            b = a + 0.01 * np.random.default_rng(seed).normal(size=a.shape)
            for x, y in ((a, b), (b, a)):
                with mock.patch.object(geo, "sq_dists", wraps=geo.sq_dists) as exact:
                    assert np.array_equal(geo._nearest_rows(x, y), dense_d2(x, y).argmin(axis=1))
                rechecked.append(sum(len(call.args[0]) for call in exact.call_args_list))
    assert max(rechecked) <= 10, rechecked


# ---------------------------------------------------------------------------
# clouds whose squared distances overflow: each path equals the dense
# definition, in which a square past the float range is inf, and warns nothing

_OVERFLOW_CLOUDS = {
    # near 1e200, spread 1e197: every squared distance but a point's own is inf
    "1e200": lambda rng: 1e200 * (1 + 1e-3 * rng.normal(size=(300, 3))),
    # spread 1e154: some squared distances are finite, others inf
    "1e154": lambda rng: 1e154 * rng.normal(size=(300, 3)),
}


def _fps_oracle(pts, k):
    chosen = [0]
    min_d2 = dense_d2(pts, pts[:1])[:, 0]
    for _ in range(k - 1):
        chosen.append(int(np.argmax(min_d2)))
        min_d2 = np.minimum(min_d2, dense_d2(pts, pts[chosen[-1:]])[:, 0])
    return chosen


@pytest.mark.parametrize("scale", list(_OVERFLOW_CLOUDS))
def test_fps_and_segment_match_dense_oracle_when_distances_overflow(rng, scale):
    pts = _OVERFLOW_CLOUDS[scale](rng)
    chosen = _fps_oracle(pts, 16)
    assert geo.fps(PointCloud(pts), 16).tolist() == chosen
    ps = geo.segment(PointCloud(pts), 16, 8)
    centers = pts[chosen]
    assert np.array_equal(ps.centers, centers)
    assert np.array_equal(ps.patches, pts[_knn_oracle(pts, centers, 8)] - centers[:, None])


@pytest.mark.parametrize("scale", list(_OVERFLOW_CLOUDS))
def test_nearest_indices_match_dense_argmin_when_distances_overflow(rng, scale):
    pts = _OVERFLOW_CLOUDS[scale](rng)
    _assert_nearest_matches_dense(pts, (1 + 1e-6) * pts[::-1])


@pytest.mark.parametrize("scale", list(_OVERFLOW_CLOUDS))
def test_apply_mask_block_matches_chain_oracle_when_distances_overflow(rng, scale):
    centers = _OVERFLOW_CLOUDS[scale](rng)[:32]
    spec = geo.apply_mask(32, 0.5, "block", rng_seed=3, centers=centers)
    assert set(spec.masked_indices.tolist()) == set(_block_oracle(centers, 16, seed=3))


_TIED_CLOUDS = {"tied-grid": _tied_grid, "duplicates": _duplicates,
                **{f"overflow-{scale}": make for scale, make in _OVERFLOW_CLOUDS.items()}}


@pytest.mark.parametrize("k", [1, 7, 100, "all"])
@pytest.mark.parametrize("name", list(_TIED_CLOUDS))
def test_knn_group_rows_do_not_depend_on_the_other_centers(rng, name, k):
    # the tasks group only the visible patches, which equals grouping all of
    # them and keeping the visible rows only if each row is its own center's
    pts = _TIED_CLOUDS[name](rng)
    k = len(pts) if k == "all" else k
    centers = pts[rng.choice(len(pts), size=24, replace=False)]
    every = geo.knn_group(PointCloud(pts), centers, k)
    for size in (1, 2, 6, 18, 24):
        rows = rng.choice(24, size=size, replace=False)  # a random subset, in random order
        assert np.array_equal(geo.knn_group(PointCloud(pts), centers[rows], k), every[rows])
