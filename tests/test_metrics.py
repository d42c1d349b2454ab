from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import brute_chamfer, brute_hausdorff, dense_d2
from pointdiff import geometry, metrics
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
# evaluate reads one pair table; it must equal the public functions composed


def _composed(gen, ref, ids):
    """What evaluate reports, rebuilt from the public single-metric calls."""
    hd = float(np.mean([min(metrics.hausdorff(g, r) for r in ref) for g in gen]))
    per_item = []
    if len(gen) == len(ref):
        per_item = [(i, metrics.chamfer_l2(g, r), metrics.hausdorff(g, r))
                    for i, g, r in zip(ids, gen, ref)]
    return dict(mmd_cd=metrics.mmd_cd(gen, ref), one_nn_cd=metrics.one_nn_cd(gen, ref),
                jsd=metrics.jsd(gen, ref), hd=hd, per_item=per_item)


def _loop_mmd_cd(gen, ref):
    # reference: the definition as a loop over chamfer_l2, summed into a float
    total = 0.0
    for r in ref:
        total += min(metrics.chamfer_l2(g, r) for g in gen)
    return total / len(ref)


def _loop_one_nn_cd(gen, ref):
    total = 0.0
    for g in gen:
        total += min(metrics.chamfer_l2(g, r) for r in ref)
    return total / len(gen)


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
    ids = [f"item{i}" for i in range(n_gen)]
    report = metrics.evaluate(gen, ref, ids=ids)
    want = _composed(gen, ref, ids)
    for name in ("mmd_cd", "one_nn_cd", "jsd", "hd"):
        assert type(getattr(report, name)) is float, name
        assert getattr(report, name) == want[name], name
    assert report.per_item == want["per_item"]
    assert len(report.per_item) == (n_gen if n_gen == n_ref else 0)
    for _, cd, hd in report.per_item:
        assert type(cd) is float and type(hd) is float
    # the set metrics sum the minima one by one, as a Python float
    assert want["mmd_cd"] == _loop_mmd_cd(gen, ref)
    assert want["one_nn_cd"] == _loop_one_nn_cd(gen, ref)
    assert type(want["mmd_cd"]) is float and type(want["one_nn_cd"]) is float


def test_evaluate_builds_each_tree_once(rng, monkeypatch):
    built = []

    def counting_tree(points):
        built.append(len(points))
        return cKDTree(points)

    monkeypatch.setattr(geometry, "cKDTree", counting_tree)
    gen = [rng.uniform(-0.45, 0.45, size=(300 + i, 3)) for i in range(3)]
    ref = [rng.uniform(-0.45, 0.45, size=(400 + i, 3)) for i in range(3)]
    metrics.evaluate(gen, ref)
    # 9 pairs searched both ways; one tree per cloud
    assert sorted(built) == [300, 301, 302, 400, 401, 402]


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
