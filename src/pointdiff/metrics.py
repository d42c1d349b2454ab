"""Evaluation metrics: Chamfer-L2, Hausdorff, MMD-CD, 1-NN-CD and JSD.

Every distance metric reads ``_pair_minima``.  Of each (gen, ref) pair's
Chamfer distance CD = fl(mean(d_gr) + mean(d_rg)) and Hausdorff distance
HD = sqrt(max(max(d_gr), max(d_rg))) it returns only what the metrics report:
each row's CD and HD minimum, each column's CD minimum and, for paired sets,
the diagonal.  Each search is an exact ``geometry.nearest_sq_dists``, bitwise
the dense ``sq_dists`` minimum, and each cloud's ``geometry.nearest_tree`` is
built once per call.

Pruning.  First every row and every column gets one pair (the diagonal
when G = R), then come the other pairs.  Each pair searches first in the
direction with fewer query rows, giving d1, and skips the second direction
when ``mean(d1)`` exceeds both its row's and its column's CD minimum so far
and ``sqrt(max(d1))`` exceeds its row's HD minimum so far.  When only the HD
test fails, the second direction is searched in blocks of ``_SEARCH_ROWS``
rows and stops at the first block holding a d with ``sqrt(d)`` above the
row's HD minimum.  So ``evaluate`` over G and R clouds builds G + R trees
and runs between G·R + max(G, R) and 2·G·R searches.

Why it stays exact, with no margin.  Every d is >= 0, so ``mean(d2) >= 0``,
and IEEE rounding is monotone: CD = fl(mean(d1) + mean(d2)) >=
fl(mean(d1) + 0) = mean(d1).  ``sqrt`` is correctly rounded, hence monotone
too: HD >= sqrt(max(d1)), and HD >= sqrt(d) for every d of d2.  The minima
so far are no smaller than the final ones, so a skipped pair is strictly
greater than every minimum it could change and is none of them: every
reported float is the one the full G×R table gives.  Ties (``==``) are
never skipped.  A row or column with no pair yet stands at inf, and inf
never exceeds inf, so an overflowing pair is searched in full.  A maximum
does not depend on the order of the blocks, so the HD stop is exact; the
CD tests read only whole means, never a partial sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .geometry import PointCloud, nearest_sq_dists, nearest_tree


def _as_points(cloud):
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise InvalidArgument(f"expected a non-empty (N, 3) cloud, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgument("cloud contains non-finite coordinates")
    return pts


# query rows per block of a search that may stop early (see the module docstring)
_SEARCH_ROWS = 2048


def chamfer_l2(a, b):
    """Symmetric mean-of-squared nearest-neighbor distance."""
    *_, diagonal = _pair_minima("chamfer_l2", [a], [b])
    return diagonal[0][0]


def hausdorff(a, b):
    """Symmetric Hausdorff distance (Euclidean, unsquared)."""
    *_, diagonal = _pair_minima("hausdorff", [a], [b])
    return diagonal[0][1]


def _search(queries, tree, hd_bound=np.inf):
    """``nearest_sq_dists(tree, queries)``, ``_SEARCH_ROWS`` rows at a time,
    or None as soon as a block holds a d with ``sqrt(d) > hd_bound``."""
    blocks = []
    for lo in range(0, len(queries), _SEARCH_ROWS):
        blocks.append(nearest_sq_dists(tree, queries[lo : lo + _SEARCH_ROWS]))
        if np.sqrt(np.max(blocks[-1])) > hd_bound:
            return None
    return np.concatenate(blocks)


def _pair_minima(what, gen_set, ref_set):
    """Of ``chamfer_l2(g, r)`` and ``hausdorff(g, r)`` over every pair:
    each gen's CD minimum, each ref's CD minimum, each gen's HD minimum, and
    the (CD, HD) of each diagonal pair when the sets are paired, as Python
    floats.  Pairs that cannot change a minimum are pruned (see the module
    docstring).
    """
    if not len(gen_set) or not len(ref_set):
        raise InvalidArgument(f"{what}: both sets must be non-empty")
    gen = [_as_points(c) for c in gen_set]
    ref = [_as_points(c) for c in ref_set]
    gen_trees, ref_trees = [nearest_tree(g) for g in gen], [nearest_tree(r) for r in ref]
    n_gen, n_ref = len(gen), len(ref)
    row_cd, col_cd, row_hd = [np.inf] * n_gen, [np.inf] * n_ref, [np.inf] * n_gen
    diagonal = []
    cover = [(k % n_gen, k % n_ref) for k in range(max(n_gen, n_ref))]
    rest = sorted(set(np.ndindex(n_gen, n_ref)) - set(cover))
    for i, j in cover + rest:
        # (queries, tree) each way, the one with fewer query rows first
        first, second = sorted([(gen[i], ref_trees[j]), (ref[j], gen_trees[i])],
                               key=lambda way: len(way[0]))
        d1 = _search(*first)
        cd_low, hd_low = np.mean(d1), np.sqrt(np.max(d1))
        cd_pruned = cd_low > row_cd[i] and cd_low > col_cd[j]
        if cd_pruned and hd_low > row_hd[i]:
            continue
        d2 = _search(*second, hd_bound=row_hd[i] if cd_pruned else np.inf)
        if d2 is None:
            continue
        cd = float(cd_low + np.mean(d2))
        hd = float(np.sqrt(max(np.max(d1), np.max(d2))))
        row_cd[i], col_cd[j], row_hd[i] = min(row_cd[i], cd), min(col_cd[j], cd), min(row_hd[i], hd)
        if i == j and n_gen == n_ref:
            diagonal.append((cd, hd))
    return row_cd, col_cd, row_hd, diagonal


def _mean(minima):
    """Mean of the minima, summed left to right from 0.0."""
    total = 0.0
    for value in minima:
        total += value
    return total / len(minima)


def mmd_cd(gen_set, ref_set):
    """Mean over references of the best Chamfer match in the generated set."""
    _, col_cd, _, _ = _pair_minima("mmd_cd", gen_set, ref_set)
    return _mean(col_cd)


def one_nn_cd(gen_set, ref_set):
    """Mean over generated clouds of the Chamfer distance to the nearest reference."""
    row_cd, _, _, _ = _pair_minima("one_nn_cd", gen_set, ref_set)
    return _mean(row_cd)


# flat cell indices reach grid**3, which must stay inside int64
_MAX_GRID = 2**20


def _occupancy(clouds, resolution):
    """The occupied cells of the ``resolution``^3 voxel grid, in ascending
    flat-index order, and the share of all points each one holds."""
    flat = []
    for cloud in clouds:
        pts = _as_points(cloud)
        if np.any(pts < -0.5) or np.any(pts > 0.5):
            bad = pts[np.any((pts < -0.5) | (pts > 0.5), axis=1)][0]
            raise InvalidArgument(f"jsd requires points in [-0.5, 0.5]^3, found {bad}")
        cells = np.floor((pts + 0.5) * resolution).astype(np.int64)
        np.clip(cells, 0, resolution - 1, out=cells)  # upper boundary into last voxel
        flat.append((cells[:, 0] * resolution + cells[:, 1]) * resolution + cells[:, 2])
    occupied, counts = np.unique(np.concatenate(flat), return_counts=True)
    return occupied, counts / counts.sum()


def _kl(cells_p, p, cells_q, q):
    """KL(p || (p + q) / 2) over the occupied cells of ``p``, in their order."""
    q_at_p = np.zeros_like(p)
    pos = np.minimum(np.searchsorted(cells_q, cells_p), len(cells_q) - 1)
    hit = cells_q[pos] == cells_p
    q_at_p[hit] = q[pos[hit]]
    return float(np.sum(p * np.log(p / (0.5 * (p + q_at_p)))))


def jsd(gen_set, ref_set, grid_resolution=32):
    """Jensen-Shannon divergence between voxel-occupancy distributions.

    Natural log, so the value is bounded by ln 2.  Only occupied cells are
    held, so the cost follows the point count, not ``grid_resolution``^3.
    """
    if not len(gen_set) or not len(ref_set):
        raise InvalidArgument("jsd: both sets must be non-empty")
    if not 1 <= grid_resolution <= _MAX_GRID:
        raise InvalidArgument(
            f"jsd: grid_resolution must be in [1, {_MAX_GRID}], got {grid_resolution}"
        )
    p = _occupancy(gen_set, grid_resolution)
    q = _occupancy(ref_set, grid_resolution)
    return 0.5 * _kl(*p, *q) + 0.5 * _kl(*q, *p)


@dataclass
class MetricReport:
    mmd_cd: float
    one_nn_cd: float
    jsd: float
    hd: float
    per_item: list = field(default_factory=list)  # (id, cd, hd) for paired sets


def evaluate(gen_set, ref_set, grid_resolution=32, ids=None) -> MetricReport:
    """All four metrics, plus per-item CD/HD when the sets are paired.

    Every distance comes from ``_pair_minima`` (see the module docstring).
    Paired sets take one id per item, "0", "1", ... when ``ids`` is None.
    """
    paired = len(gen_set) == len(ref_set)
    if paired and ids is not None and len(ids) != len(gen_set):
        raise InvalidArgument(f"evaluate: {len(ids)} ids for {len(gen_set)} paired clouds")
    divergence = jsd(gen_set, ref_set, grid_resolution)  # first: it checks the grid
    row_cd, col_cd, row_hd, diagonal = _pair_minima("evaluate", gen_set, ref_set)
    report = MetricReport(
        mmd_cd=_mean(col_cd),
        one_nn_cd=_mean(row_cd),
        jsd=divergence,
        hd=float(np.mean(row_hd)),
    )
    if paired:
        if ids is None:
            ids = [str(i) for i in range(len(gen_set))]
        report.per_item = [(item_id, cd, hd) for item_id, (cd, hd) in zip(ids, diagonal)]
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
