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

from .errors import InvalidArgument, ShapeError

# distance-matrix elements per block of the blocked searches (~0.5 MiB at 64-bit;
# the Chamfer search's float32 blocks take four times as many, 1 MiB)
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
    """G patches of n points each, stored relative to their center."""

    centers: np.ndarray  # (G, 3)
    patches: np.ndarray  # (G, n, 3), center-relative

    @property
    def num_groups(self):
        return self.centers.shape[0]

    def absolute(self, indices=None):
        """Patch points in world coordinates, (k, n, 3)."""
        if indices is None:
            return self.patches + self.centers[:, None, :]
        indices = np.asarray(indices)
        return self.patches[indices] + self.centers[indices, None, :]


def mask_count(ratio, num_groups):
    """Half-up rounding of ratio * G, the masked patch count.  Raises
    ``InvalidArgument`` unless ``ratio`` lies in (0, 1) and the count leaves
    at least one patch masked and one visible."""
    if not 0.0 < ratio < 1.0:
        raise InvalidArgument(f"mask ratio must be in (0,1), got {ratio}")
    m = int(np.floor(ratio * num_groups + 0.5))
    if not 1 <= m <= num_groups - 1:
        raise InvalidArgument(
            f"degenerate mask: round({ratio}*{num_groups})={m} leaves no masked or visible patches"
        )
    return m


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
    a float32 BLAS approximation and rechecks near-ties here.
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
    """Nearest-neighbour indices both ways, item by item: a -> b and b -> a.

    ``a`` is (B, n, 3) and ``b`` (B, m, 3); the results are (B, n) and
    (B, m), item i's equal to ``sq_dists(a[i], b[i]).argmin(axis=1)`` and
    ``.argmin(axis=0)`` for finite floating-point inputs, ties going to the
    lowest index.  A single pair (n, 3) and (m, 3) is the batch of one, and
    its results come back as (n,) and (m,).  The b -> a search is the same
    row search on ``sq_dists(b, a)``, which is bitwise the transpose because
    ``b - a`` is exactly ``-(a - b)``.  An empty cloud on either side has no
    nearest neighbour, and batches of different lengths pair nothing:
    ``ShapeError``.
    """
    a, b = np.asarray(a), np.asarray(b)
    pair = a.ndim == 2
    if pair:
        a, b = a[None], b[None]
    if len(a) != len(b):
        raise ShapeError(f"nearest_indices: batches of {len(a)} and {len(b)} items")
    if not (a.size and b.size):
        raise ShapeError(
            f"nearest_indices: empty cloud ({a.shape[-2]} and {b.shape[-2]} points)")
    # squared distances that overflow are inf, and their rows are rechecked
    with np.errstate(over="ignore", invalid="ignore"):
        a_to_b, b_to_a = _nearest_rows(a, b), _nearest_rows(b, a)
    return (a_to_b[0], b_to_a[0]) if pair else (a_to_b, b_to_a)


def _nearest_rows(a, b):
    """``sq_dists(a[i], b[i]).argmin(axis=1)`` for every item i of the
    batches ``a`` (B, n, 3) and ``b`` (B, m, 3), ties to the lowest index.

    The set-up runs once over the whole batch: the float32 filter's
    coordinates, ``[x, |x|^2, 1]`` and ``[-2y, 1, |y|^2]`` with ``x = a - c``
    and ``y = b - c`` for ``c`` the centre of the item's own b bounding box
    (the shift and the norms in the input dtype, then cast to float32), and
    each row's ``delta``.  Rows then go in blocks of about
    ``4 * _NN_BLOCK_ELEMS`` float32 elements across the batch (1 MiB), one
    batched BLAS product ``(B, r, 5) @ (B, 5, m)`` per block giving
    approximate squared distances.  A row whose second-smallest approximate
    value exceeds its smallest by more than ``2 * delta`` has the same unique
    minimum in ``sq_dists``; every other row of every item is recomputed
    once, at the end, with ``sq_dists`` in the input dtype, item by item in
    chunks of at most as many elements.

    ``delta`` bounds |approx - sq_dists| for a row at x, whatever order and
    fusing the BLAS product uses.  Let u = 2^-24 be float32's unit roundoff,
    U <= u the input dtype's (U = u for float32 input), S = |x|^2 + max |y|^2
    over the row's own item and tiny float32's smallest subnormal.
    Each rounding is off by at most u (or U) times its result plus tiny / 2.
    To first order in u:
      - ``sq_dists`` is within 5U * |a - b|^2 <= 10U * S of the true
        distance (one rounding on each difference, doubled by the square,
        one on each square and two on the sums);
      - the shift rounds x and y by at most U * |x| and U * |y|, which
        moves the true distance by at most 2U * (|x| + |y|)^2 <= 4U * S;
      - the norms are sums of three squares, each within 3U: 3U * S;
      - the casts to float32 are exact for float32 input.  Otherwise each
        coordinate moves by at most u * |x_i| + tiny / 2, so the cross term
        2 x.y moves by at most 4u * |x||y| + tiny * (|x|_1 + |y|_1) <= 3u * S
        (tiny * |v| <= u * v^2 + tiny^2 / 4u, and tiny^2 / 4u is far below
        tiny), and the two norms by u * S: 4u * S;
      - the 5-term float32 product in any order, fused or not, is within 5u
        times the sum of its terms' magnitudes, at most 2S: 10u * S.
    That is 27u * S for float32 input and 14u * S + 17U * S < 15u * S for
    float64 input, at most 13.5 eps * S with eps float32's.  ``delta = 16
    eps * S + 64 tiny``: the 16 leaves room for the second order terms and
    for the rounding of delta, S and the float32 gap themselves, and fewer
    than thirty roundings, each off by at most tiny / 2, may underflow.
    Rows with S past an eighth of float32's largest value may overflow the
    casts or the product and are always recomputed; S is summed in the
    input dtype, so a coordinate past float32's range always puts its row
    there, or every row of its item for a coordinate of b.  Items share
    nothing but the product call, so one item's overflow or near-ties leave
    every other item's rows as they would be alone.
    """
    dt = np.result_type(a, b)
    a, b = np.asarray(a, dtype=dt), np.asarray(b, dtype=dt)
    B, n, m = a.shape[0], a.shape[1], b.shape[1]
    f32 = np.finfo(np.float32)
    bt = np.ascontiguousarray(b.transpose(0, 2, 1))  # coordinate rows reduce faster than columns
    c = (bt.min(axis=2) + bt.max(axis=2)) / 2
    x, yt = a - c[:, None], bt - c[:, :, None]
    x_sq, y_sq = np.einsum("bij,bij->bi", x, x), np.einsum("bij,bij->bj", yt, yt)
    xs = np.empty((B, n, 5), dtype=np.float32)  # [x, |x|^2, 1]
    xs[..., :3] = x
    xs[..., 3] = x_sq
    xs[..., 4] = 1
    ys = np.empty((B, 5, m), dtype=np.float32)  # [-2y, 1, |y|^2]^T
    ys[:, :3] = -2 * yt
    ys[:, 3] = 1
    ys[:, 4] = y_sq
    s = x_sq + y_sq.max(axis=1, keepdims=True)
    gap = np.where(s <= f32.max / 8, 2 * (16 * f32.eps * s + 64 * f32.smallest_subnormal), np.inf)

    nearest = np.empty((B, n), dtype=np.intp)
    settled = np.empty((B, n), dtype=bool)
    elems = 4 * _NN_BLOCK_ELEMS
    rows = max(1, elems // (B * m))
    buf = np.empty(B * min(rows, n) * m, dtype=np.float32)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d = np.matmul(xs[:, lo:hi], ys, out=buf[: B * (hi - lo) * m].reshape(B, hi - lo, m))
        d = d.reshape(-1, m)
        r = np.arange(len(d))
        j0 = d.argmin(axis=1)
        d0 = d[r, j0]
        d[r, j0] = np.inf
        nearest[:, lo:hi] = j0.reshape(B, -1)
        settled[:, lo:hi] = (d[r, d.argmin(axis=1)] - d0).reshape(B, -1) > gap[:, lo:hi]
    step = max(1, elems // m)
    for i, unsettled in enumerate(~settled):
        recheck = np.flatnonzero(unsettled)
        for k in range(0, len(recheck), step):
            q = recheck[k : k + step]
            nearest[i, q] = sq_dists(a[i, q], b[i]).argmin(axis=1)
    return nearest


def fps(cloud: PointCloud, k: int):
    """Greedy farthest point sampling; returns k point indices.

    The first index is 0; every next pick maximizes the minimum
    distance to all picks so far, ties broken by lowest index.  Each pick's
    distances come from a column-major copy of the cloud, so ``sq_dists``
    reads every coordinate column contiguously, into one reused buffer.
    """
    n = len(cloud)
    if not 1 <= k <= n:
        raise InvalidArgument(f"fps: k={k} out of range for cloud of {n} points")

    pts = np.asfortranarray(cloud.points)
    buf = tuple(np.empty((2, n, 1)))
    selected = np.empty(k, dtype=np.int64)
    selected[0] = 0
    # squared distances that overflow are inf, which argmax and minimum order
    with np.errstate(over="ignore", invalid="ignore"):
        min_d2 = sq_dists(pts, pts[:1])[:, 0]
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
    least f' * (1 - (2N + 6)u).  This holds for any build.  A build only
    places the split planes, and the query updates the bounds alike over
    compact cells or not; a sliding-midpoint split, like a median one,
    leaves points on both sides, so there are still fewer than N levels.
    The tree returns sqrt(f'), and squaring it again gives f within 3u;
    ``sq_dists`` is within 5u of the truth.  So a left-out point's exact
    distance is at least f * (1 - (2N + 14)u) less (N + 8) tiny, and the
    test above proves it exceeds d_k, with room for
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
            # G queries cannot repay the median split's and compact cells'
            # longer build, and a sliding-midpoint tree answers them as fast
            tree = cKDTree(cloud.points, balanced_tree=False, compact_nodes=False)
            cand, d, _, settled = _tree_candidates(tree, centers, q, k)
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
    center_idx = fps(cloud, num_groups)
    centers = cloud.points[center_idx]
    groups = knn_group(cloud, centers, group_size)
    patches = cloud.points[groups] - centers[:, None, :]
    return PatchSet(centers=centers, patches=patches)


def _rng(seed):
    """``np.random.default_rng(seed)`` for an int seed or a sequence of them;
    a negative entry raises ``InvalidArgument`` rather than numpy's
    ``ValueError``."""
    try:
        return np.random.default_rng(seed)
    except ValueError:
        raise InvalidArgument(f"seed must be >= 0, got {seed!r}") from None


def apply_mask(num_groups, ratio, strategy, rng_seed, centers=None) -> MaskSpec:
    """Draw a masked/visible split of the patch indices.

    RANDOM masks a uniform subset of round(ratio*G) indices.  BLOCK masks a
    spatially contiguous run: a nearest-unvisited-center chain starting from
    a random center (``centers`` required for BLOCK).
    """
    strategy = MaskStrategy.parse(strategy)
    m = mask_count(ratio, num_groups)

    rng = _rng(rng_seed)
    indicator = np.zeros(num_groups, dtype=bool)
    if strategy is MaskStrategy.RANDOM:
        masked = rng.choice(num_groups, size=m, replace=False)
        indicator[masked] = True
    else:
        if centers is None:
            raise InvalidArgument("block masking requires patch centers")
        centers = np.asarray(centers, dtype=np.float64)
        cur = int(rng.integers(num_groups))
        indicator[cur] = True
        # squared distances that overflow are inf, which argmin orders; the
        # candidates ascend, so a tie goes to the lowest index
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(m - 1):
                cand = np.flatnonzero(~indicator)
                cur = int(cand[np.argmin(sq_dists(centers[cand], centers[cur][None])[:, 0])])
                indicator[cur] = True
    return MaskSpec(indicator=indicator)


def assemble(centers, blocks) -> PointCloud:
    """The cloud of center-relative ``blocks``, one (n_i, 3) array per row
    of ``centers``, each put back at its center, in order."""
    if len(blocks) != len(centers):
        raise InvalidArgument(f"{len(blocks)} blocks for {len(centers)} centers")
    return PointCloud(np.concatenate([b + c for b, c in zip(blocks, centers)]))
