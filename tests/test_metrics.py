from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import (brute_chamfer, brute_hausdorff, composed_report, dense_d2,
                      translated_shapes)
from pointdiff import data_io, geometry, metrics
from pointdiff.errors import InvalidArgument
from pointdiff.geometry import PointCloud


def clouds(rng, n_sets, max_pts=64):
    return [rng.normal(size=(int(rng.integers(8, max_pts)), 3)) for _ in range(n_sets)]


def bounded_clouds(rng, n_sets, max_pts=64):
    # JSD expects normalized coordinates in [-0.5, 0.5]^3
    return [rng.uniform(-0.45, 0.45, size=(int(rng.integers(8, max_pts)), 3))
            for _ in range(n_sets)]


def test_chamfer_matches_brute_force(rng):
    for _ in range(20):
        a = rng.normal(size=(int(rng.integers(4, 100)), 3))
        b = rng.normal(size=(int(rng.integers(4, 100)), 3))
        assert metrics.chamfer_l2(a, b) == brute_chamfer(a, b)


def test_chamfer_identity_and_symmetry(rng):
    a = rng.normal(size=(32, 3))
    b = rng.normal(size=(40, 3))
    assert metrics.chamfer_l2(a, a) == 0.0
    assert metrics.chamfer_l2(a, b) == metrics.chamfer_l2(b, a)


def test_chamfer_kdtree_path_matches_brute(rng):
    # clouds of hundreds of points: the candidates' distances must still be
    # recomputed with identical arithmetic
    a = rng.normal(size=(700, 3))
    b = rng.normal(size=(650, 3))
    assert metrics.chamfer_l2(a, b) == brute_chamfer(a, b)
    assert metrics.hausdorff(a, b) == brute_hausdorff(a, b)


def test_hausdorff_matches_brute_force(rng):
    for _ in range(20):
        a = rng.normal(size=(int(rng.integers(4, 80)), 3))
        b = rng.normal(size=(int(rng.integers(4, 80)), 3))
        assert metrics.hausdorff(a, b) == brute_hausdorff(a, b)


def test_mmd_cd_convention(rng):
    # mean over REFERENCE clouds of the best chamfer match in the generated set
    gen = clouds(rng, 4)
    ref = clouds(rng, 3)
    expected = np.mean(
        [min(brute_chamfer(g, r) for g in gen) for r in ref]
    )
    assert metrics.mmd_cd(gen, ref) == expected


def test_one_nn_cd_convention(rng):
    # mean over GENERATED clouds of the chamfer to their nearest reference
    gen = clouds(rng, 4)
    ref = clouds(rng, 3)
    expected = np.mean(
        [min(brute_chamfer(g, r) for r in ref) for g in gen]
    )
    assert metrics.one_nn_cd(gen, ref) == expected


def test_jsd_identity_is_zero(rng):
    s = bounded_clouds(rng, 3)
    assert metrics.jsd(s, s) == pytest.approx(0.0, abs=1e-12)


def test_jsd_disjoint_support_is_ln2():
    a = [np.full((10, 3), -0.4)]
    b = [np.full((10, 3), 0.4)]
    assert metrics.jsd(a, b) == pytest.approx(np.log(2.0), abs=1e-12)


def test_jsd_two_voxel_hand_case():
    # gen: 3 points in voxel A, 1 in voxel B;  ref: all 4 points in voxel A.
    # p = (3/4, 1/4), q = (1, 0), m = (7/8, 1/8)
    A = np.full((1, 3), -0.4)
    B = np.full((1, 3), 0.4)
    gen = [np.concatenate([np.repeat(A, 3, axis=0), B])]
    ref = [np.repeat(A, 4, axis=0)]
    p = np.array([0.75, 0.25])
    q = np.array([1.0, 0.0])
    m = 0.5 * (p + q)

    def kl(x, y):
        mask = x > 0
        return float(np.sum(x[mask] * np.log(x[mask] / y[mask])))

    expected = 0.5 * kl(p, m) + 0.5 * kl(q, m)
    assert metrics.jsd(gen, ref) == pytest.approx(expected, abs=1e-12)


def test_jsd_rejects_out_of_range_points(rng):
    from pointdiff.errors import InvalidArgument

    with pytest.raises(InvalidArgument):
        metrics.jsd([rng.normal(size=(8, 3)) * 10], [np.zeros((4, 3))])


def _dense_jsd(gen_set, ref_set, res):
    """JSD from dense res^3 histograms, the definition the sparse cells keep."""
    def occupancy(clouds):
        hist = np.zeros(res**3)
        for pts in clouds:
            cells = np.clip(np.floor((pts + 0.5) * res).astype(np.int64), 0, res - 1)
            np.add.at(hist, (cells[:, 0] * res + cells[:, 1]) * res + cells[:, 2], 1.0)
        return hist / hist.sum()

    def kl(p, q):
        mask = p > 0
        return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))

    p, q = occupancy(gen_set), occupancy(ref_set)
    m = 0.5 * (p + q)
    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def test_jsd_occupied_cells_equal_dense_histogram(rng):
    for _ in range(5):
        gen = bounded_clouds(rng, 3, max_pts=400)
        ref = [0.5 * c for c in bounded_clouds(rng, 2, max_pts=400)]  # partial overlap
        assert metrics.jsd(gen, ref, 32) == _dense_jsd(gen, ref, 32)
    # points on the upper boundary fall into the last cell on both paths
    edge = [np.array([[0.5, 0.5, 0.5], [-0.5, 0.0, 0.5]])]
    assert metrics.jsd(edge, gen, 32) == _dense_jsd(edge, gen, 32)


def test_jsd_grid_bounds(rng):
    gen, ref = bounded_clouds(rng, 2), bounded_clouds(rng, 2)
    # flat cell indices of a 2^20 grid fit int64; past it they could not
    assert 0.0 <= metrics.jsd(gen, ref, 2**20) <= np.log(2.0) + 1e-12
    with pytest.raises(InvalidArgument, match="grid_resolution"):
        metrics.jsd(gen, ref, 2**20 + 1)


def test_jsd_bounded_by_ln2(rng):
    gen = bounded_clouds(rng, 2)
    ref = bounded_clouds(rng, 2)
    val = metrics.jsd(gen, ref)
    assert 0.0 <= val <= np.log(2.0) + 1e-12


def test_evaluate_and_csv(tmp_path, rng):
    gen = [PointCloud(c) for c in bounded_clouds(rng, 3)]
    ref = [PointCloud(c.points.copy()) for c in gen]
    report = metrics.evaluate(gen, ref, ids=["a", "b", "c"])
    assert report.mmd_cd == 0.0
    assert report.one_nn_cd == 0.0
    assert report.jsd == pytest.approx(0.0, abs=1e-12)
    assert [item[0] for item in report.per_item] == ["a", "b", "c"]
    out = tmp_path / "m.csv"
    metrics.report_to_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "id,cd,hd"
    # full-precision round trip: the summary line parses back exactly
    summary = lines[-1].split(",")
    assert float(summary[1]) == report.mmd_cd
    assert float(summary[3]) == report.jsd


# ---------------------------------------------------------------------------
# evaluate, mmd_cd and one_nn_cd prune pairs; they must equal the one-pair
# public functions composed over every pair, bitwise


def _assert_equals_composed(gen, ref, ids=None):
    report = metrics.evaluate(gen, ref, ids=ids)
    want = composed_report(gen, ref, ids)
    for name in ("mmd_cd", "one_nn_cd", "jsd", "hd"):
        assert type(getattr(report, name)) is float, name
        assert getattr(report, name) == want.__dict__[name], name
    assert report.per_item == want.per_item
    for _, cd, hd in report.per_item:
        assert type(cd) is float and type(hd) is float
    for fn in (metrics.mmd_cd, metrics.one_nn_cd):
        value = fn(gen, ref)
        assert type(value) is float and value == want.__dict__[fn.__name__], fn.__name__
    return report


@pytest.mark.parametrize("sizes", [
    pytest.param(((20, 64), (30, 90)), id="brute-force"),   # tens of points
    pytest.param(((300, 400), (260, 500)), id="kd-tree"),  # hundreds of points
    pytest.param(((40, 300), (250, 600)), id="mixed"),
])
@pytest.mark.parametrize("n_gen, n_ref", [(3, 3), (3, 2), (1, 4)])
def test_evaluate_equals_composed_public_functions(rng, sizes, n_gen, n_ref):
    gen_sizes, ref_sizes = sizes
    gen = [rng.uniform(-0.45, 0.45, size=(int(rng.integers(*gen_sizes)), 3))
           for _ in range(n_gen)]
    ref = [PointCloud(rng.uniform(-0.45, 0.45, size=(int(rng.integers(*ref_sizes)), 3)))
           for _ in range(n_ref)]
    report = _assert_equals_composed(gen, ref, ids=[f"item{i}" for i in range(n_gen)])
    assert len(report.per_item) == (n_gen if n_gen == n_ref else 0)


def _near(rng, clouds, scale):
    return [c + scale * rng.normal(size=c.shape) for c in clouds]


def _huge(rng, n):
    # coordinates near 1e200, spread 1e197: every squared distance overflows
    return 1e200 * (1 + 1e-3 * rng.normal(size=(n, 3)))


def _paired(rng):
    # each reference near its generated cloud, so some pairs are pruned
    gen = [rng.uniform(-0.45, 0.45, size=(200 + 7 * i, 3)) for i in range(4)]
    return gen, _near(rng, gen, 0.01)


def _identical(rng):
    cloud = rng.uniform(-0.45, 0.45, size=(120, 3))
    return [cloud] * 3, [cloud.copy() for _ in range(3)]


_PRUNING_CASES = {
    "paired": _paired,
    "unpaired-3x5": lambda rng: (translated_shapes((150, 160, 170, 180), 1)[:3],
                                 _near(rng, translated_shapes((190, 200, 210, 220), 5), 0.01)
                                 + [rng.uniform(-0.45, 0.45, size=(90, 3))]),
    "unpaired-4x2": lambda rng: (translated_shapes((150, 160, 170, 180), 1),
                                 translated_shapes((190, 200, 210, 220), 5)[2:]),
    "identical": _identical,
    "overflow": lambda rng: ([_huge(rng, 60), 0.1 * rng.normal(size=(70, 3)), _huge(rng, 80)],
                             [_huge(rng, 50), 0.1 * rng.normal(size=(40, 3)), _huge(rng, 90)]),
}


@pytest.mark.parametrize("case", list(_PRUNING_CASES))
def test_pruned_metrics_equal_composed_public_functions(rng, monkeypatch, nn_searches, case):
    gen, ref = _PRUNING_CASES[case](rng)
    if case == "overflow":
        # jsd takes only [-0.5, 0.5]^3; the distances are what is under test
        monkeypatch.setattr(metrics, "jsd", lambda *args: 0.0)
    report = _assert_equals_composed(gen, ref)
    if case == "overflow":
        assert np.isinf(report.mmd_cd) and np.isinf(report.hd)
        assert np.isfinite(report.per_item[1][1])
    nn_searches.clear()
    metrics.evaluate(gen, ref)
    if case in ("identical", "overflow"):
        # identical clouds tie on every pair, and an overflowing pair (or one
        # of a row or column whose minimum overflows) cannot exceed inf:
        # none is pruned
        assert len(nn_searches) == 2 * len(gen) * len(ref)
    else:
        assert len(nn_searches) < 2 * len(gen) * len(ref)


def test_pruning_skips_every_off_diagonal_second_search(nn_searches):
    # gen and ref sizes all differ, so each call names its pair and direction
    gen = translated_shapes((300, 310, 320, 330), seed=1)
    ref = translated_shapes((305, 315, 325, 335), seed=5)
    metrics.evaluate(gen, ref)
    calls = list(nn_searches)
    diagonal = [(len(r), len(g)) for g, r in zip(gen, ref)] + [(len(g), len(r))
                                                                for g, r in zip(gen, ref)]
    assert sorted(c for c in calls if c in diagonal) == sorted(diagonal)
    off = sorted(c for c in calls if c not in diagonal)
    # one search per off-diagonal pair, in the direction with fewer query rows
    assert off == sorted((max(len(g), len(r)), min(len(g), len(r)))
                         for i, g in enumerate(gen) for j, r in enumerate(ref) if i != j)


def _bench_shaped(rng):
    # the codec bench's evaluate in small: the four kinds around one origin,
    # each reference against a noisy two-thirds of its own points, as the
    # codec's decoded visible points are; all eight sizes differ
    ref = [data_io.synth_shape(kind, n, seed=k).points
           for k, (kind, n) in enumerate(zip(data_io.SYNTH_KINDS, (400, 410, 420, 430)))]
    gen = [np.clip(r[: len(r) * 2 // 3] + 0.003 * rng.normal(size=(len(r) * 2 // 3, 3)),
                   -0.5, 0.5) for r in ref]
    return gen, ref


# the pruning cases with searches of many strided blocks: at _SEARCH_ROWS = 7
# most clouds are not a whole number of blocks, and "ragged" adds clouds of
# fewer rows than one block, of exactly one, and of one row more
_BLOCKED_CASES = dict(_PRUNING_CASES, **{
    "ragged": lambda rng: (translated_shapes((5, 13, 50, 99), 1),
                           _near(rng, translated_shapes((7, 8, 22, 51), 5), 0.01)),
    "bench-shaped": _bench_shaped,
})


@pytest.mark.parametrize("case", list(_BLOCKED_CASES))
def test_blocked_searches_equal_composed_public_functions(rng, monkeypatch, case):
    gen, ref = _BLOCKED_CASES[case](rng)
    if case == "overflow":
        monkeypatch.setattr(metrics, "jsd", lambda *args: 0.0)
    monkeypatch.setattr(metrics, "_SEARCH_ROWS", 7)
    _assert_equals_composed(gen, ref)


def _search_runs(calls):
    """``nn_searches`` calls grouped into searches, as (tree size, query
    rows): a search's strided blocks are consecutive calls on one tree."""
    runs = []
    for n, rows in calls:
        if runs and runs[-1][0] == n:
            runs[-1][1] += rows
        else:
            runs.append([n, rows])
    return [tuple(run) for run in runs]


@pytest.mark.parametrize("rows", [7, 32])
def test_first_searches_stop_early_on_bench_shaped_sets(rng, monkeypatch, nn_searches, rows):
    gen, ref = _bench_shaped(rng)
    monkeypatch.setattr(metrics, "_SEARCH_ROWS", rows)
    metrics.evaluate(gen, ref)
    runs = _search_runs(nn_searches)
    # the diagonal pairs come first and are searched in full, both ways
    assert runs[:8] == [way for g, r in zip(gen, ref) for way in ((len(r), len(g)),
                                                                  (len(g), len(r)))]
    # then one first search per off-diagonal pair, each stopped before the
    # last row of its smaller cloud, and no second search
    off = [(i, j) for i in range(4) for j in range(4) if i != j]
    assert [n for n, _ in runs[8:]] == [len(ref[j]) for i, j in off]
    for (i, j), (_, searched) in zip(off, runs[8:]):
        assert searched < min(len(gen[i]), len(ref[j])), (i, j)


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4100])
def test_search_equals_one_dense_search_and_never_stops_on_a_tie(rng, nn_searches, n):
    # at the default _SEARCH_ROWS: one block up to 2048 rows, then strided ones
    queries = rng.uniform(-0.5, 0.5, size=(n, 3))
    points = rng.uniform(-0.5, 0.5, size=(300, 3))
    tree = geometry.nearest_tree(points)
    want = dense_d2(queries, points).min(axis=1)
    d = metrics._search(queries, tree)
    assert d.tobytes() == want.tobytes()
    k = -(-n // 2048)
    assert [rows for _, rows in nn_searches] == [len(range(s, n, k)) for s in range(k)]
    cd, hd = np.mean(want), np.sqrt(np.max(want))
    for cd_bound, hd_bound in ((cd, -1.0), (-np.inf, hd), (cd, hd), (np.inf, -1.0)):
        d = metrics._search(queries, tree, cd_bound=cd_bound, hd_bound=hd_bound)
        assert d is not None and d.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [7, 2048])
def test_search_stops_only_when_both_bounds_are_exceeded(rng, monkeypatch, nn_searches, rows):
    monkeypatch.setattr(metrics, "_SEARCH_ROWS", rows)
    queries = rng.uniform(-0.5, 0.5, size=(3000, 3))
    points = rng.uniform(-0.5, 0.5, size=(200, 3)) + [0.2, 0.0, 0.0]
    tree = geometry.nearest_tree(points)
    want = dense_d2(queries, points).min(axis=1)
    cd, hd = np.mean(want), np.sqrt(np.max(want))
    for cd_bound in (-np.inf, 0.0, cd / 4, np.nextafter(cd, 0.0), cd, np.inf):
        for hd_bound in (-np.inf, 0.0, hd / 4, np.nextafter(hd, 0.0), hd, np.inf):
            d = metrics._search(queries, tree, cd_bound=cd_bound, hd_bound=hd_bound)
            if d is None:
                assert cd > cd_bound and hd > hd_bound, (cd_bound, hd_bound)
            else:
                assert d.tobytes() == want.tobytes()
    # the first block, at least 7 of the 3000 rows, proves a mean above
    # cd / 1000 and holds a d above 0
    nn_searches.clear()
    assert metrics._search(queries, tree, cd_bound=cd / 1000, hd_bound=0.0) is None
    assert len(nn_searches) == 1


def test_evaluate_builds_each_tree_once(rng, monkeypatch):
    built = []

    def counting_tree(points):
        built.append(len(points))
        return cKDTree(points)

    monkeypatch.setattr(geometry, "cKDTree", counting_tree)
    gen = [rng.uniform(-0.45, 0.45, size=(300 + i, 3)) for i in range(3)]
    ref = [rng.uniform(-0.45, 0.45, size=(400 + i, 3)) for i in range(3)]
    metrics.evaluate(gen, ref)
    # 3 diagonal pairs searched both ways, the other 6 one or both ways;
    # one tree per cloud
    assert sorted(built) == [300, 301, 302, 400, 401, 402]


@pytest.mark.parametrize("ids", [["a"], ["a", "b", "c", "d"]])
def test_evaluate_rejects_ids_of_the_wrong_length(rng, ids):
    gen = bounded_clouds(rng, 3)
    with pytest.raises(InvalidArgument, match="ids"):
        metrics.evaluate(gen, [c.copy() for c in gen], ids=ids)


@pytest.mark.parametrize("fn", [metrics.evaluate, metrics.mmd_cd, metrics.one_nn_cd, metrics.jsd])
def test_set_metrics_reject_empty_sets(rng, fn):
    cloud = rng.uniform(-0.4, 0.4, size=(8, 3))
    for gen, ref in (([], [cloud]), ([cloud], []), ([], [])):
        with pytest.raises(InvalidArgument):
            fn(gen, ref)


# ---------------------------------------------------------------------------
# the exact KD-tree search at its edges, against the dense oracle


def _grid(rng, n):
    return np.floor(rng.uniform(0.0, 1.0, size=(n, 3)) * 8) / 8


def _quantized(rng, n):
    # the codec's decoded points: few distinct values, most rows repeated
    return np.round(rng.uniform(-0.5, 0.5, size=(n, 3)) * 8) / 8


def _jittered(rng, b):
    return b + 1e-9 * rng.normal(size=b.shape), b


_EDGE_CASES = {
    "grid": lambda rng: (_grid(rng, 700), _grid(rng, 650)),
    "grid-vs-cloud": lambda rng: (rng.uniform(0.0, 1.0, size=(400, 3)), _grid(rng, 900)),
    "quantized-tree-side": lambda rng: (rng.uniform(-0.5, 0.5, size=(800, 3)),
                                        _quantized(rng, 3000)),
    "offset-1e3-spread-1e-3": lambda rng: (1e3 + 1e-3 * rng.normal(size=(700, 3)),
                                           1e3 + 1e-3 * rng.normal(size=(650, 3))),
    "jitter-1e-9": lambda rng: _jittered(rng, rng.normal(size=(600, 3))),
    "one-distinct-point": lambda rng: (rng.normal(size=(50, 3)),
                                       np.repeat(rng.normal(size=(1, 3)), 9, axis=0)),
    "two-distinct-points": lambda rng: (rng.normal(size=(50, 3)),
                                        np.repeat(rng.normal(size=(2, 3)), [5, 30], axis=0)),
    "single-points": lambda rng: (rng.normal(size=(1, 3)), rng.normal(size=(1, 3))),
    # every distance overflows to inf: cKDTree finds no candidate at all
    "overflow-1e200": lambda rng: (_huge(rng, 60), _huge(rng, 70)),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_chamfer_and_hausdorff_exact_at_the_edges(rng, case):
    a, b = _EDGE_CASES[case](rng)
    for x, y in ((a, b), (b, a)):
        assert metrics.chamfer_l2(x, y) == brute_chamfer(x, y)
        assert metrics.hausdorff(x, y) == brute_hausdorff(x, y)
        d = geometry.nearest_sq_dists(geometry.nearest_tree(y), x)
        assert np.array_equal(d, dense_d2(x, y).min(axis=1))


def test_nearest_sq_dists_dense_rows_are_only_those_the_bound_rejects(rng):
    # quantized gens keep few distinct points; as candidates their copies
    # would tie, but the tree holds each distinct point once, so no query is
    # recomputed densely but the two halfway between two distinct points
    gens = np.concatenate([_quantized(rng, 4000), [[0.0, 0.0, 0.0], [0.125, 0.0, 0.0]]])
    assert len(np.unique(gens, axis=0)) < len(gens) // 2
    tied = np.array([[0.0625, 0.0, 0.0], [0.0625, 0.0, 0.0]])
    ref = np.concatenate([rng.uniform(-0.5, 0.5, size=(900, 3)), tied])
    with mock.patch.object(geometry, "sq_dists", wraps=geometry.sq_dists) as exact:
        d = geometry.nearest_sq_dists(geometry.nearest_tree(gens), ref)
    assert np.array_equal(np.concatenate([c.args[0] for c in exact.call_args_list]), tied)
    assert np.array_equal(d, dense_d2(ref, gens).min(axis=1))


def test_nearest_tree_key_collisions_change_no_value(rng, monkeypatch):
    # when every key collides, copies meet only where the argsort of equal
    # keys happens to put them side by side; the others stay in the tree and
    # tie as candidates, so rows go dense, and no value changes
    pts = np.tile(_quantized(rng, 300), (3, 1))[rng.permutation(900)]
    queries = np.concatenate([rng.uniform(-0.5, 0.5, size=(400, 3)), pts[:50]])
    want = geometry.nearest_sq_dists(geometry.nearest_tree(pts), queries)
    scores = metrics.chamfer_l2(queries, pts), metrics.hausdorff(queries, pts)
    assert geometry.nearest_tree(pts).n == len(np.unique(pts, axis=0))
    monkeypatch.setattr(geometry, "_copy_key", lambda p: np.zeros(len(p), dtype=np.uint64))
    d = geometry.nearest_sq_dists(geometry.nearest_tree(pts), queries)
    assert np.array_equal(d, want) and np.array_equal(d, dense_d2(queries, pts).min(axis=1))
    assert (metrics.chamfer_l2(queries, pts), metrics.hausdorff(queries, pts)) == scores


def test_nearest_tree_counts_signed_zeros_as_copies():
    pts = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0, 3.0]])
    assert geometry.nearest_tree(pts).n == 2


_NON_FINITE = {
    "chamfer_l2": lambda bad, ok: metrics.chamfer_l2(bad, ok),
    "hausdorff": lambda bad, ok: metrics.hausdorff(ok, bad),
    "evaluate": lambda bad, ok: metrics.evaluate([ok], [ok, bad]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("n", [8, 2000])
@pytest.mark.parametrize("fn", list(_NON_FINITE))
def test_metrics_reject_non_finite_clouds(rng, fn, n, value):
    ok = rng.uniform(-0.4, 0.4, size=(n, 3))
    bad = ok.copy()
    bad[n // 2, 1] = value
    with pytest.raises(InvalidArgument, match="non-finite"):
        _NON_FINITE[fn](bad, ok)
