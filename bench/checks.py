"""Output oracles.  Each one checks a property stated by the library's
contract with code of its own, so it keeps its meaning when a fast path in
pointdiff changes."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# blob layout: magic, <BIIB header, 6 float64 bbox, packed mask, packed
# coordinates, truncated sha256
_BLOB_FIXED_BYTES = 4 + 10 + 48
_DIGEST_BYTES = 16


def finite_count(points, expected_count):
    """Problems with an output cloud's size or values (empty when fine)."""
    problems = []
    if points.shape != (expected_count, 3):
        problems.append(f"output shape {points.shape}, expected ({expected_count}, 3)")
    if not np.all(np.isfinite(points)):
        problems.append("output holds non-finite coordinates")
    return problems


def reference_segment(points, num_groups, group_size):
    """Greedy FPS from index 0 and KNN grouping, both breaking distance ties
    by lowest index; returns (centers, center-relative patches)."""
    picks = [0]
    min_d2 = np.sum((points - points[0]) ** 2, axis=1)
    for _ in range(1, num_groups):
        nxt = int(np.argmax(min_d2))
        picks.append(nxt)
        np.minimum(min_d2, np.sum((points - points[nxt]) ** 2, axis=1), out=min_d2)
    centers = points[picks]
    d2 = np.sum((centers[:, None, :] - points[None, :, :]) ** 2, axis=2)
    groups = np.argsort(d2, axis=1, kind="stable")[:, :group_size]
    return centers, points[groups] - centers[:, None, :]


def visible_unchanged(points, block_rows, blocks, expected):
    """The output patches at ``blocks`` equal ``expected`` bitwise."""
    if points.shape[0] % block_rows:
        return [f"{points.shape[0]} output points do not split into patches"]
    if not np.array_equal(points.reshape(-1, block_rows, 3)[blocks], expected):
        return ["visible patches changed"]
    return []


def blob_length(num_groups, group_size, masked, quant_bits):
    """Closed-form byte length of a compressed blob."""
    coords = (num_groups - masked) * group_size + num_groups
    return (_BLOB_FIXED_BYTES + (num_groups + 7) // 8
            + (coords * 3 * quant_bits + 7) // 8 + _DIGEST_BYTES)


def blob_problems(raw, blob, original, num_groups, group_size, masked, quant_bits):
    """Header fields, closed-form length, and a round trip within half a
    quantization cell per axis of some original point."""
    problems = []
    expected = blob_length(num_groups, group_size, masked, quant_bits)
    if len(raw) != expected:
        problems.append(f"blob is {len(raw)} bytes, closed form gives {expected}")
    if (blob.num_groups, blob.group_size, blob.quant_bits) != (num_groups, group_size, quant_bits):
        problems.append("blob header does not match the request")
    if int(blob.indicator.sum()) != masked:
        problems.append(f"blob masks {int(blob.indicator.sum())} patches, expected {masked}")
    decoded = np.concatenate([blob.visible_points, blob.centers], axis=0)
    if decoded.shape[0] != (num_groups - masked) * group_size + num_groups:
        problems.append(f"blob decodes {decoded.shape[0]} points")
        return problems
    lo, hi = blob.bbox
    cell = np.where(hi > lo, (hi - lo) / (1 << quant_bits), 1.0)
    # per-axis error in cell units: Chebyshev distance in the scaled frame
    dist, _ = cKDTree(original / cell).query(decoded / cell, p=np.inf)
    worst = float(np.max(dist))
    if not worst <= 0.5 + 1e-9:
        problems.append(f"round-trip error {worst:.6f} cells exceeds one half")
    return problems
