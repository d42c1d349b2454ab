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

# distance-matrix elements per block of the blocked searches (~0.5 MiB at 64-bit)
_NN_BLOCK_ELEMS = 1 << 16

# candidates per row beyond k that knn_group takes from its KD-tree.  One is
# enough where no two distances tie; a few more settle rows whose k-th point
# has a handful of exact duplicates without the dense recomputation.
_KNN_MARGIN = 8


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

    @classmethod
    def parse(cls, value):
        """``value`` as a member: a member itself or its value in any case."""
        try:
            return cls(value.lower() if isinstance(value, str) else value)
        except ValueError:
            raise InvalidArgument(
                f"unknown mask strategy {value!r}; expected one of "
                + ", ".join(m.value for m in cls)
            ) from None


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


def sq_dists(a, b, out=None):
    """Squared distances between the rows of ``a`` (n, 3) and ``b`` (m, 3).

    Returns the (n, m) matrix, accumulated one axis at a time as
    ``(dx*dx + dy*dy) + dz*dz``.  That is the order in which
    ``np.sum((a[:, None] - b[None]) ** 2, axis=2)`` adds, so the result is
    bitwise equal to that dense definition without its (n, m, 3) temporary.
    ``out``, when given, is a pair of (n, m) arrays of the result dtype: the
    matrix is written into the first and returned, the second holds each
    axis' term, and nothing is allocated.
    This is the library's exact point-to-point squared distance:
    ``knn_group`` and ``nearest_sq_dists`` recompute their KD-tree
    candidates in the same arithmetic, and ``nearest_indices`` filters with
    a BLAS approximation and rechecks near-ties here.
    """
    d, dk = (None, None) if out is None else out
    d = np.subtract.outer(a[:, 0], b[:, 0], out=d)
    d *= d
    for axis in (1, 2):
        dk = np.subtract.outer(a[:, axis], b[:, axis], out=dk)
        dk *= dk
        d += dk
    return d


def nearest_indices(a, b):
    """Nearest-neighbour indices both ways: a -> b (n,) and b -> a (m,).

    Equal to ``sq_dists(a, b).argmin(axis=1)`` and ``.argmin(axis=0)`` for
    finite floating-point inputs, ties going to the lowest index.  The
    b -> a search is the same row search on ``sq_dists(b, a)``, which is
    bitwise the transpose because ``b - a`` is exactly ``-(a - b)``.
    """
    return _nearest_rows(a, b), _nearest_rows(b, a)


def _nearest_rows(a, b):
    """``sq_dists(a, b).argmin(axis=1)``, ties to the lowest index.

    Rows go in blocks of about ``_NN_BLOCK_ELEMS`` elements.  One BLAS
    product per block gives approximate squared distances from shifted,
    augmented coordinates, ``[x, |x|^2, 1] @ [-2y, 1, |y|^2]^T`` with
    ``x = a - c`` and ``y = b - c`` for ``c`` the centre of b's bounding
    box.  A row whose second-smallest approximate value exceeds its
    smallest by more than ``2 * delta`` has the same unique minimum in
    ``sq_dists``; every other row is recomputed exactly.

    ``delta`` bounds |approx - sq_dists| for a row at x.  With u = eps / 2
    of the input dtype and S = |x|^2 + max |y|^2, to first order in u:
      - ``sq_dists`` is within 5u * |a - b|^2 <= 10u * S of the true
        distance (one rounding on each difference, doubled by the square,
        one on each square and two on the sums);
      - the shift rounds x and y by at most u * |x| and u * |y|, which
        moves the true distance by at most 2u * (|x| + |y|)^2 <= 4u * S;
      - the norms are sums of three squares, each within 3u: 3u * S;
      - the 5-term product in any order, fused or not, is within 5u times
        the sum of its terms' magnitudes, at most 2S: 10u * S.
    That is 27u * S = 13.5 eps * S.  ``delta = 16 eps * S + 64 tiny``, with
    tiny the smallest subnormal: the 16 leaves room for the second order
    terms and for the rounding of delta, S and the gap themselves, and at
    most twelve products may underflow, each off by at most tiny / 2.  Rows
    with S past an eighth of the dtype's largest value may overflow the
    product and are always recomputed.
    """
    dt = np.result_type(a, b)
    a, b = np.asarray(a, dtype=dt), np.asarray(b, dtype=dt)
    n, m = len(a), len(b)
    finfo = np.finfo(dt)
    c = (b.min(axis=0) + b.max(axis=0)) / 2
    x, y = a - c, b - c
    xs = np.empty((n, 5), dtype=dt)  # [x, |x|^2, 1]
    xs[:, :3] = x
    xs[:, 3] = np.einsum("ij,ij->i", x, x)
    xs[:, 4] = 1
    ys = np.empty((5, m), dtype=dt)  # [-2y, 1, |y|^2]^T
    ys[:3] = -2 * y.T
    ys[3] = 1
    ys[4] = np.einsum("ij,ij->i", y, y)
    s = xs[:, 3] + ys[4].max()
    delta = np.where(s <= finfo.max / 8, 16 * finfo.eps * s + 64 * finfo.smallest_subnormal, np.inf)

    nearest = np.empty(n, dtype=np.intp)
    rows = max(1, _NN_BLOCK_ELEMS // m)
    # the approximate block, then the exact rows of its near-ties, in buf[0]
    buf = np.empty((2, min(rows, n), m), dtype=dt)
    for lo in range(0, n, rows):
        d = np.matmul(xs[lo : lo + rows], ys, out=buf[0, : min(rows, n - lo)])
        r = np.arange(len(d))
        j0 = d.argmin(axis=1)
        d0 = d[r, j0]
        d[r, j0] = np.inf
        nearest[lo : lo + len(d)] = j0
        settled = d.min(axis=1) - d0 > 2 * delta[lo : lo + len(d)]
        recheck = lo + np.flatnonzero(~settled)
        if recheck.size:
            exact = sq_dists(a[recheck], b, out=tuple(buf[:, : recheck.size]))
            nearest[recheck] = exact.argmin(axis=1)
    return nearest


def fps(cloud: PointCloud, k: int, seed_index: int = 0):
    """Greedy farthest point sampling; returns k point indices.

    The first index is ``seed_index``; every next pick maximizes the minimum
    distance to all picks so far, ties broken by lowest index.  Each pick's
    distances come from a column-major copy of the cloud, so ``sq_dists``
    reads every coordinate column contiguously, into one reused buffer.
    """
    n = len(cloud)
    if not 1 <= k <= n:
        raise InvalidArgument(f"fps: k={k} out of range for cloud of {n} points")
    if not 0 <= seed_index < n:
        raise InvalidArgument(f"fps: seed_index={seed_index} out of range")

    pts = np.asfortranarray(cloud.points)
    buf = tuple(np.empty((2, n, 1)))
    selected = np.empty(k, dtype=np.int64)
    selected[0] = seed_index
    min_d2 = sq_dists(pts, pts[seed_index : seed_index + 1])[:, 0]
    for i in range(1, k):
        nxt = int(np.argmax(min_d2))  # argmax takes the first (lowest) index on ties
        selected[i] = nxt
        np.minimum(min_d2, sq_dists(pts, pts[nxt : nxt + 1], out=buf)[:, 0], out=min_d2)
    return selected


def _tree_candidates(tree, centers, q, k):
    """Each center's q nearest KD-tree candidates and whether they settle it.

    Returns ``cand`` (m, q), their squared distances ``d`` in ``sq_dists``'
    arithmetic, each row's k-th smallest ``d_k`` and ``settled``: true where
    the tree's last candidate, at squared distance f, proves that no point
    left out comes within d_k, by ``f - d_k > (N + 16) * (eps * f + tiny)``
    with N = ``tree.n``.  Callers recompute the other rows densely (ties
    around d_k: duplicates, grids).

    The bound.  With u = eps / 2 and tiny the smallest subnormal, each
    rounding is off by at most u times its result plus tiny / 2.  cKDTree
    (p = 2, eps = 0) leaves a point out only when its own squared distance,
    or the distance bound of a tree cell holding it, is at least the final
    q-th squared distance f' (a point is taken only when strictly nearer
    than the current q-th, and a cell dropped only when its bound exceeds
    it; the current q-th never grows).  A cell's bound is a sum of squared
    side distances, updated once per tree level by one subtraction and one
    addition of terms no larger than the bound itself, and the tree has
    fewer than N levels: a left-out point's true squared distance is at
    least f' * (1 - (2N + 6)u).  The tree returns sqrt(f'), and squaring it
    again gives f within 3u; ``sq_dists`` is within 5u of the truth.  So a
    left-out point's exact distance is at least f * (1 - (2N + 14)u) less
    (N + 8) tiny, and the test above proves it exceeds d_k, with room for
    the second-order terms and the rounding of the test itself.  Distances
    that overflow make f - d_k infinite or NaN, and such rows are not
    settled.  cKDTree returns a candidate whose distance overflows as index
    N at distance inf; that row has f = inf and is not settled either, so
    the index is clipped only to keep the gather in bounds.
    """
    far, cand = tree.query(centers, q)
    far, cand = far.reshape(-1, q)[:, -1], np.minimum(cand.reshape(-1, q), tree.n - 1)
    dx, dy, dz = np.moveaxis(centers[:, None] - tree.data[cand], -1, 0)
    d = (dx * dx + dy * dy) + dz * dz
    d_k = np.partition(d, k - 1, axis=1)[:, k - 1]
    f = far * far
    finfo = np.finfo(np.float64)
    settled = f - d_k > (tree.n + 16) * (finfo.eps * f + finfo.smallest_subnormal)
    return cand, d, d_k, settled


def knn_group(cloud: PointCloud, centers, group_size: int):
    """For each center, the indices of its group_size nearest cloud points.

    Ordered by ascending distance, ties broken by lowest point index: equal
    to ``np.argsort(sq_dists(centers, points), kind="stable")[:, :k]``.

    One KD-tree gives q = min(k + ``_KNN_MARGIN``, N) candidates per center
    (``_tree_candidates``), sorted by (distance, index).  Rows they do not
    settle, and every row when q = N, are the stable argsort of the whole
    ``sq_dists`` row.
    """
    n, k = len(cloud), group_size
    if not 1 <= k <= n:
        raise InvalidArgument(f"knn_group: group_size={k} out of range for cloud size {n}")
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if not np.all(np.isfinite(centers)):
        raise InvalidArgument("knn_group: centers contain non-finite coordinates")
    pts = np.asfortranarray(cloud.points)
    q = min(k + _KNN_MARGIN, n)
    groups = np.empty((len(centers), k), dtype=np.intp)
    settled = np.zeros(len(centers), dtype=bool)
    # squared distances that overflow are inf, and their rows are not settled
    with np.errstate(over="ignore", invalid="ignore"):
        if q < n:  # at q = N every point is a candidate and the dense rows are cheaper
            cand, d, _, settled = _tree_candidates(cKDTree(cloud.points), centers, q, k)
            order = np.lexsort((cand, d))
            groups[:] = np.take_along_axis(cand, order[:, :k], axis=1)
        for i in np.flatnonzero(~settled):
            groups[i] = np.argsort(sq_dists(centers[i : i + 1], pts)[0], kind="stable")[:k]
    return groups


def _copy_key(points):
    """One 64-bit key per row of ``points``, equal on equal rows: the bits of
    each coordinate of ``points + 0.0`` (so -0.0 keys as 0.0), each step of
    the mix a bijection, so distinct rows rarely collide."""
    bits = (points + 0.0).view(np.uint64)
    key = np.zeros(len(points), dtype=np.uint64)
    for axis in range(3):
        key ^= bits[:, axis]
        key ^= key >> np.uint64(31)
        key *= np.uint64(0x9E3779B97F4A7C15)
    return key


def nearest_tree(points):
    """The KD-tree ``nearest_sq_dists`` searches: over the distinct rows of
    the finite (N, 3) float64 ``points`` (copies would tie as candidates and
    leave rows unsettled), or over ``points`` itself if it holds no copies.

    Copies are found as equal adjacent rows after one argsort of
    ``_copy_key``.  A key collision can only keep apart two copies, which
    then both stay in the tree: some rows go to the dense recomputation,
    and no value changes.
    """
    pts = points[np.argsort(_copy_key(points))]
    keep = np.ones(len(pts), dtype=bool)
    np.any(pts[1:] != pts[:-1], axis=1, out=keep[1:])
    return cKDTree(points if keep.all() else pts[keep])


def nearest_sq_dists(tree, queries):
    """Each query row's squared distance to the nearest point of ``tree``
    (from ``nearest_tree``): bitwise ``sq_dists(queries, points).min(axis=1)``.

    Each row takes its q = min(2, N) nearest candidates, in blocks of
    ``_NN_BLOCK_ELEMS // 8`` rows.  Rows ``_tree_candidates`` does not
    settle are the minimum of their ``sq_dists`` row, in blocks of about
    ``_NN_BLOCK_ELEMS`` elements (at q = N every row is exact either way).
    """
    nearest, settled = np.empty(len(queries)), np.empty(len(queries), dtype=bool)
    # squared distances that overflow are inf, and their rows are not settled
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(queries), _NN_BLOCK_ELEMS // 8):
            rows = slice(lo, lo + _NN_BLOCK_ELEMS // 8)
            _, _, nearest[rows], settled[rows] = _tree_candidates(
                tree, queries[rows], min(2, tree.n), 1)
        dense = np.flatnonzero(~settled)
        for r in np.array_split(dense, max(1, len(dense) * tree.n // _NN_BLOCK_ELEMS)):
            nearest[r] = sq_dists(queries[r], tree.data).min(axis=1)
    return nearest


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
    strategy = MaskStrategy.parse(strategy)
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
