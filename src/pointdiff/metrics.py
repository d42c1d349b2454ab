"""Evaluation metrics: Chamfer-L2, Hausdorff, MMD-CD, 1-NN-CD and JSD.

The nearest-neighbor searches run through a KD-tree for large clouds; the
reported distances are always recomputed from the matched coordinates with
the same arithmetic as the O(n^2) definition, so accelerated and brute-force
paths agree bitwise.
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


def _nn_sq_dists(a, b):
    """For each point of ``a``, squared distance to its nearest point in ``b``."""
    if a.shape[0] * b.shape[0] <= _BRUTE_FORCE_LIMIT * _BRUTE_FORCE_LIMIT // 4:
        diff = a[:, None, :] - b[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        idx = np.argmin(d2, axis=1)
    else:
        _, idx = cKDTree(b).query(a, k=1)
    diff = a - b[idx]
    return np.einsum("ij,ij->i", diff, diff)


def chamfer_l2(a, b):
    """Symmetric mean-of-squared nearest-neighbor distance."""
    a, b = _as_points(a), _as_points(b)
    return float(np.mean(_nn_sq_dists(a, b)) + np.mean(_nn_sq_dists(b, a)))


def hausdorff(a, b):
    """Symmetric Hausdorff distance (Euclidean, unsquared)."""
    a, b = _as_points(a), _as_points(b)
    d_ab = np.max(_nn_sq_dists(a, b))
    d_ba = np.max(_nn_sq_dists(b, a))
    return float(np.sqrt(max(d_ab, d_ba)))


def mmd_cd(gen_set, ref_set):
    """Mean over references of the best Chamfer match in the generated set."""
    if not len(gen_set) or not len(ref_set):
        raise InvalidArgument("mmd_cd: both sets must be non-empty")
    total = 0.0
    for ref in ref_set:
        total += min(chamfer_l2(gen, ref) for gen in gen_set)
    return total / len(ref_set)


def one_nn_cd(gen_set, ref_set):
    """Mean over generated clouds of the Chamfer distance to the nearest reference."""
    if not len(gen_set) or not len(ref_set):
        raise InvalidArgument("one_nn_cd: both sets must be non-empty")
    total = 0.0
    for gen in gen_set:
        total += min(chamfer_l2(gen, ref) for ref in ref_set)
    return total / len(gen_set)


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
    """All four metrics, plus per-item CD/HD when the sets are paired."""
    report = MetricReport(
        mmd_cd=mmd_cd(gen_set, ref_set),
        one_nn_cd=one_nn_cd(gen_set, ref_set),
        jsd=jsd(gen_set, ref_set, grid_resolution),
        hd=float(np.mean([min(hausdorff(g, r) for r in ref_set) for g in gen_set])),
    )
    if len(gen_set) == len(ref_set):
        if ids is None:
            ids = [str(i) for i in range(len(gen_set))]
        for item_id, g, r in zip(ids, gen_set, ref_set):
            report.per_item.append((item_id, chamfer_l2(g, r), hausdorff(g, r)))
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
