"""Evaluation metrics: Chamfer-L2, Hausdorff, MMD-CD, 1-NN-CD and JSD.

The nearest-neighbor searches run through a KD-tree for large clouds; the
reported distances are always recomputed from the matched coordinates with
the same arithmetic as the O(n^2) definition, so accelerated and brute-force
paths agree bitwise.

The set metrics share one table over every (gen, ref) pair: each pair costs
one nearest-neighbour search each way, from which both its Chamfer and its
Hausdorff distance are read, and each cloud's KD-tree is built at most once
per call.  ``evaluate`` over G generated and R reference clouds thus runs
2·G·R searches and builds at most G + R trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidArgument
from .geometry import PointCloud

# below this size a full distance matrix is cheaper than tree construction
_BRUTE_FORCE_LIMIT = 512


def _as_points(cloud):
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise InvalidArgument(f"expected a non-empty (N, 3) cloud, got shape {pts.shape}")
    return pts


def _brute_force(a, b):
    return a.shape[0] * b.shape[0] <= _BRUTE_FORCE_LIMIT * _BRUTE_FORCE_LIMIT // 4


def _nn_sq_dists(a, b, tree=None):
    """For each point of ``a``, squared distance to its nearest point in ``b``.

    ``tree`` is ``b``'s KD-tree when the caller has one; it is only used
    above the brute-force limit.
    """
    if _brute_force(a, b):
        diff = a[:, None, :] - b[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        idx = np.argmin(d2, axis=1)
    else:
        _, idx = (cKDTree(b) if tree is None else tree).query(a, k=1)
    diff = a - b[idx]
    return np.einsum("ij,ij->i", diff, diff)


def _chamfer(d_ab, d_ba):
    return float(np.mean(d_ab) + np.mean(d_ba))


def _hausdorff(d_ab, d_ba):
    return float(np.sqrt(max(np.max(d_ab), np.max(d_ba))))


def chamfer_l2(a, b):
    """Symmetric mean-of-squared nearest-neighbor distance."""
    a, b = _as_points(a), _as_points(b)
    return _chamfer(_nn_sq_dists(a, b), _nn_sq_dists(b, a))


def hausdorff(a, b):
    """Symmetric Hausdorff distance (Euclidean, unsquared)."""
    a, b = _as_points(a), _as_points(b)
    return _hausdorff(_nn_sq_dists(a, b), _nn_sq_dists(b, a))


def _pair_table(what, gen_set, ref_set):
    """``chamfer_l2(g, r)`` and ``hausdorff(g, r)`` of every pair, as two
    nested lists of floats indexed ``[gen][ref]``.

    One search each way per pair; a cloud's KD-tree is built the first time
    a search into it needs one and reused after that.
    """
    if not len(gen_set) or not len(ref_set):
        raise InvalidArgument(f"{what}: both sets must be non-empty")
    gen = [_as_points(c) for c in gen_set]
    ref = [_as_points(c) for c in ref_set]
    trees = {}

    def nn(a, b, key):
        if key not in trees and not _brute_force(a, b):
            trees[key] = cKDTree(b)
        return _nn_sq_dists(a, b, trees.get(key))

    cd = [[0.0] * len(ref) for _ in gen]
    hd = [[0.0] * len(ref) for _ in gen]
    for i, g in enumerate(gen):
        for j, r in enumerate(ref):
            d_gr, d_rg = nn(g, r, ("ref", j)), nn(r, g, ("gen", i))
            cd[i][j], hd[i][j] = _chamfer(d_gr, d_rg), _hausdorff(d_gr, d_rg)
    return cd, hd


def _mean_of_row_minima(rows):
    """Mean of each row's minimum, summed left to right from 0.0."""
    total = 0.0
    for row in rows:
        total += min(row)
    return total / len(rows)


def mmd_cd(gen_set, ref_set):
    """Mean over references of the best Chamfer match in the generated set."""
    cd, _ = _pair_table("mmd_cd", gen_set, ref_set)
    return _mean_of_row_minima(list(zip(*cd)))


def one_nn_cd(gen_set, ref_set):
    """Mean over generated clouds of the Chamfer distance to the nearest reference."""
    cd, _ = _pair_table("one_nn_cd", gen_set, ref_set)
    return _mean_of_row_minima(cd)


def _occupancy(clouds, resolution):
    hist = np.zeros(resolution**3, dtype=np.float64)
    for cloud in clouds:
        pts = _as_points(cloud)
        if np.any(pts < -0.5) or np.any(pts > 0.5):
            bad = pts[np.any((pts < -0.5) | (pts > 0.5), axis=1)][0]
            raise InvalidArgument(f"jsd requires points in [-0.5, 0.5]^3, found {bad}")
        cells = np.floor((pts + 0.5) * resolution).astype(np.int64)
        np.clip(cells, 0, resolution - 1, out=cells)  # upper boundary into last voxel
        flat = (cells[:, 0] * resolution + cells[:, 1]) * resolution + cells[:, 2]
        np.add.at(hist, flat, 1.0)
    return hist / hist.sum()


def _kl(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jsd(gen_set, ref_set, grid_resolution=32):
    """Jensen-Shannon divergence between voxel-occupancy distributions.

    Natural log, so the value is bounded by ln 2.
    """
    if not len(gen_set) or not len(ref_set):
        raise InvalidArgument("jsd: both sets must be non-empty")
    if grid_resolution < 1:
        raise InvalidArgument(f"jsd: grid_resolution must be >= 1, got {grid_resolution}")
    p = _occupancy(gen_set, grid_resolution)
    q = _occupancy(ref_set, grid_resolution)
    m = 0.5 * (p + q)
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


@dataclass
class MetricReport:
    mmd_cd: float
    one_nn_cd: float
    jsd: float
    hd: float
    per_item: list = field(default_factory=list)  # (id, cd, hd) for paired sets


def evaluate(gen_set, ref_set, grid_resolution=32, ids=None) -> MetricReport:
    """All four metrics, plus per-item CD/HD when the sets are paired.

    Every distance comes from one pair table (see the module docstring).
    """
    divergence = jsd(gen_set, ref_set, grid_resolution)  # first: it checks the grid
    cd, hd = _pair_table("evaluate", gen_set, ref_set)
    report = MetricReport(
        mmd_cd=_mean_of_row_minima(list(zip(*cd))),
        one_nn_cd=_mean_of_row_minima(cd),
        jsd=divergence,
        hd=float(np.mean([min(row) for row in hd])),
    )
    if len(gen_set) == len(ref_set):
        if ids is None:
            ids = [str(i) for i in range(len(gen_set))]
        for item_id, i in zip(ids, range(len(gen_set))):
            report.per_item.append((item_id, cd[i][i], hd[i][i]))
    return report


def report_to_csv(report: MetricReport, path):
    """One row per item plus a summary row, full-precision scientific notation."""
    with open(path, "w") as fh:
        fh.write("id,cd,hd\n")
        for item_id, cd, hd in report.per_item:
            fh.write(f"{item_id},{cd:.17e},{hd:.17e}\n")
        fh.write("summary,mmd_cd,one_nn_cd,jsd,hd\n")
        fh.write(
            f"summary,{report.mmd_cd:.17e},{report.one_nn_cd:.17e},"
            f"{report.jsd:.17e},{report.hd:.17e}\n"
        )
