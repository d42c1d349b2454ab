"""Point-set segmentation into center-anchored patches and mask handling.

All operations are pure functions of their inputs (plus an explicit seed
where randomness is involved) and break distance ties by lowest index, so
every result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidArgument

# distance-matrix elements per block in nearest_indices (~0.5 MiB at 64-bit)
_NN_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of N 3-D points (float64, model coordinates)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise InvalidArgument(f"point cloud must be (N, 3) with N >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgument("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


class MaskStrategy(Enum):
    RANDOM = "random"
    BLOCK = "block"


@dataclass(frozen=True)
class MaskSpec:
    """Boolean masked/visible partition of the patch index range."""

    indicator: np.ndarray  # (G,) bool, True = masked
    ratio: float
    strategy: MaskStrategy

    @property
    def num_groups(self):
        return self.indicator.shape[0]

    @property
    def masked_indices(self):
        return np.flatnonzero(self.indicator)

    @property
    def visible_indices(self):
        return np.flatnonzero(~self.indicator)


@dataclass(frozen=True)
class PatchSet:
    """G patches of group_size points each, stored relative to their center."""

    centers: np.ndarray  # (G, 3)
    patches: np.ndarray  # (G, group_size, 3), center-relative
    group_size: int

    @property
    def num_groups(self):
        return self.centers.shape[0]

    def absolute(self, indices=None):
        """Patch points in world coordinates, (k, group_size, 3)."""
        if indices is None:
            return self.patches + self.centers[:, None, :]
        indices = np.asarray(indices)
        return self.patches[indices] + self.centers[indices, None, :]


def mask_count(ratio, num_groups):
    """Half-up rounding of ratio * G (the masked patch count)."""
    return int(np.floor(ratio * num_groups + 0.5))


def sq_dists(a, b):
    """Squared distances between the rows of ``a`` (n, 3) and ``b`` (m, 3).

    Returns the (n, m) matrix, accumulated one axis at a time as
    ``(dx*dx + dy*dy) + dz*dz``.  That is the order in which
    ``np.sum((a[:, None] - b[None]) ** 2, axis=2)`` adds, so the result is
    bitwise equal to that dense definition without its (n, m, 3) temporary.
    This is the only place the library forms point-to-point squared
    distances, apart from the metrics' einsum path.
    """
    d = np.subtract.outer(a[:, 0], b[:, 0])
    d *= d
    for axis in (1, 2):
        dk = np.subtract.outer(a[:, axis], b[:, axis])
        dk *= dk
        d += dk
    return d


def nearest_indices(a, b):
    """Nearest-neighbour indices both ways: a -> b (n,) and b -> a (m,).

    Equal to ``sq_dists(a, b).argmin(axis=1)`` and ``.argmin(axis=0)`` for
    finite inputs, ties going to the lowest index, but the matrix is only
    ever held in blocks of rows of about ``_NN_BLOCK_ELEMS`` elements.  A
    column's running nearest row moves only when a later block is strictly
    closer, so the earliest of equally near rows is kept.
    """
    n, m = len(a), len(b)
    rows = max(1, _NN_BLOCK_ELEMS // m)
    a_to_b = np.empty(n, dtype=np.intp)
    b_to_a = np.zeros(m, dtype=np.intp)
    best = np.full(m, np.inf, dtype=np.result_type(a, b))
    for lo in range(0, n, rows):
        d = sq_dists(a[lo : lo + rows], b)
        a_to_b[lo : lo + rows] = d.argmin(axis=1)
        col_min = d.min(axis=0)
        closer = col_min < best
        if closer.any():
            best[closer] = col_min[closer]
            b_to_a[closer] = lo + d[:, closer].argmin(axis=0)
    return a_to_b, b_to_a


def fps(cloud: PointCloud, k: int, seed_index: int = 0):
    """Greedy farthest point sampling; returns k point indices.

    The first index is ``seed_index``; every next pick maximizes the minimum
    distance to all picks so far, ties broken by lowest index.
    """
    n = len(cloud)
    if not 1 <= k <= n:
        raise InvalidArgument(f"fps: k={k} out of range for cloud of {n} points")
    if not 0 <= seed_index < n:
        raise InvalidArgument(f"fps: seed_index={seed_index} out of range")

    pts = cloud.points
    selected = np.empty(k, dtype=np.int64)
    selected[0] = seed_index
    min_d2 = sq_dists(pts, pts[seed_index : seed_index + 1])[:, 0]
    for i in range(1, k):
        nxt = int(np.argmax(min_d2))  # argmax takes the first (lowest) index on ties
        selected[i] = nxt
        np.minimum(min_d2, sq_dists(pts, pts[nxt : nxt + 1])[:, 0], out=min_d2)
    return selected


def knn_group(cloud: PointCloud, centers, group_size: int):
    """For each center, the indices of its group_size nearest cloud points.

    Ordered by ascending distance, ties broken by lowest point index.
    """
    n = len(cloud)
    if group_size > n:
        raise InvalidArgument(f"knn_group: group_size={group_size} exceeds cloud size {n}")
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    d2 = sq_dists(centers, cloud.points)
    # stable lexsort on (distance, index) gives the deterministic tie-break
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :group_size]


def segment(cloud: PointCloud, num_groups: int, group_size: int) -> PatchSet:
    """FPS centers + KNN grouping; patches stored center-relative."""
    if num_groups > len(cloud):
        raise InvalidArgument(f"segment: G={num_groups} exceeds cloud size {len(cloud)}")
    center_idx = fps(cloud, num_groups, seed_index=0)
    centers = cloud.points[center_idx]
    groups = knn_group(cloud, centers, group_size)
    patches = cloud.points[groups] - centers[:, None, :]
    return PatchSet(centers=centers, patches=patches, group_size=group_size)


def apply_mask(num_groups, ratio, strategy, rng_seed, centers=None) -> MaskSpec:
    """Draw a masked/visible split of the patch indices.

    RANDOM masks a uniform subset of round(ratio*G) indices.  BLOCK masks a
    spatially contiguous run: a nearest-unvisited-center chain starting from
    a random center (``centers`` required for BLOCK).
    """
    if isinstance(strategy, str):
        strategy = MaskStrategy(strategy.lower())
    if not 0.0 < ratio < 1.0:
        raise InvalidArgument(f"mask ratio must be in (0,1), got {ratio}")
    m = mask_count(ratio, num_groups)
    if m < 1 or m > num_groups - 1:
        raise InvalidArgument(
            f"degenerate mask: round({ratio}*{num_groups})={m} leaves no masked or visible patches"
        )

    rng = np.random.default_rng(rng_seed)
    indicator = np.zeros(num_groups, dtype=bool)
    if strategy is MaskStrategy.RANDOM:
        masked = rng.choice(num_groups, size=m, replace=False)
        indicator[masked] = True
    else:
        if centers is None:
            raise InvalidArgument("block masking requires patch centers")
        centers = np.asarray(centers, dtype=np.float64)
        start = int(rng.integers(num_groups))
        chain = [start]
        remaining = set(range(num_groups)) - {start}
        while len(chain) < m:
            cur = centers[chain[-1]]
            cand = sorted(remaining)
            d2 = sq_dists(centers[cand], cur[None])[:, 0]
            nxt = cand[int(np.argmin(d2))]
            chain.append(nxt)
            remaining.discard(nxt)
        indicator[chain] = True
    return MaskSpec(indicator=indicator, ratio=float(ratio), strategy=strategy)


def assemble(patchset: PatchSet, subset, override_points=None) -> PointCloud:
    """Concatenate selected patches back into a cloud (center + offsets).

    ``subset`` is a G-length boolean mask choosing patches.  When
    ``override_points`` is given it must hold one (n_i, 3) array per selected
    patch (center-relative) replacing the stored offsets.
    """
    subset = np.asarray(subset, dtype=bool)
    if subset.shape[0] != patchset.num_groups:
        raise InvalidArgument(
            f"subset length {subset.shape[0]} != patch count {patchset.num_groups}"
        )
    sel = np.flatnonzero(subset)
    if override_points is not None and len(override_points) != sel.size:
        raise InvalidArgument(
            f"override holds {len(override_points)} patches, expected {sel.size}"
        )
    blocks = []
    for j, i in enumerate(sel):
        rel = patchset.patches[i]
        if override_points is not None and override_points[j] is not None:
            rel = np.asarray(override_points[j])
        if rel.ndim != 2 or rel.shape[1] != 3:
            raise InvalidArgument(f"override patch {j} has shape {rel.shape}, expected (n, 3)")
        blocks.append(rel + patchset.centers[i])
    return PointCloud(np.concatenate(blocks, axis=0))


def build_kdtree(points):
    """KD-tree over a point array (thin scipy wrapper)."""
    return cKDTree(np.asarray(points, dtype=np.float64))
