"""Downstream drivers: reconstruction, completion, upsampling, and the
visible-patch compression codec with bits-per-point accounting.

The codec serializes quantized visible coordinates plus all patch centers
and the mask indicator; the latent is never stored — the receiver re-encodes
the visible patches and samples the missing ones.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import diffusion
from . import engine as eg
from .errors import CorruptBlob, InvalidArgument
from .geometry import (MaskSpec, PointCloud, apply_mask, assemble, fps, knn_group, mask_count,
                       segment)
from .model import LatentSet, Model, predicted_indices

_BLOB_MAGIC = b"DPC1"
_BLOB_VERSION = 1
_DIGEST_BYTES = 16


# ---------------------------------------------------------------------------
# sampling glue


def sample_patches(model: Model, latent: LatentSet, schedule, seed=0, on_step=None):
    """Run the reverse chain for the one cloud of ``latent``, recording no
    autograd graph, and return center-relative predictions at
    ``patch_points`` density for the patches ``model.predicted_indices``
    names, in its order.  ``on_step(t, x)``, when given, sees the chain's
    state in that layout after each reverse step.  ``schedule`` must have
    the model's T.
    """
    cfg = model.cfg
    if schedule.T != cfg.timesteps:
        raise InvalidArgument(f"schedule has T={schedule.T} but model expects {cfg.timesteps}")
    (mask,) = latent.masks
    shape = (predicted_indices(cfg, mask).size, cfg.patch_points, 3)

    def decoder_fn(x_t, t):
        return model.decode(latent, x_t[None], [t]).data.reshape(-1, 3)

    step = None if on_step is None else (lambda t, x: on_step(t, x.reshape(shape)))
    with eg.no_grad():
        x0 = diffusion.sample(decoder_fn, shape[0] * shape[1], schedule, rng_seed=seed,
                              on_step=step)
    return x0.reshape(shape)


def _visible_patches(cloud: PointCloud, cfg, ratio, strategy, seed):
    """``segment``'s centers, the mask drawn from them and only the visible
    blocks: bitwise ``segment(...).patches[mask.visible_indices]``, as each
    ``knn_group`` row depends on its own center alone."""
    if cfg.num_groups > len(cloud):
        raise InvalidArgument(f"segment: G={cfg.num_groups} exceeds cloud size {len(cloud)}")
    centers = cloud.points[fps(cloud, cfg.num_groups)]
    mask = apply_mask(cfg.num_groups, ratio, strategy, seed, centers=centers)
    vis = centers[mask.visible_indices]
    return centers, mask, cloud.points[knn_group(cloud, vis, cfg.group_size)] - vis[:, None, :]


def _generate(model: Model, centers, visible, mask: MaskSpec, schedule, seed,
              on_step=None) -> PointCloud:
    """Encode the ``visible`` center-relative blocks (``mask.visible_indices``
    order) of the patches at ``centers`` (all G), sample the predicted ones
    and assemble the cloud in patch-index order; each prediction replaces its
    patch.  ``on_step(t, cloud)`` sees each step's cloud, built the same way."""
    blocks = [None] * len(centers)
    for i, block in zip(mask.visible_indices, visible):
        blocks[i] = block
    order = predicted_indices(model.cfg, mask)

    def cloud_of(pred):
        for i, block in zip(order, pred):
            blocks[i] = block
        return assemble(centers, blocks)

    step = None if on_step is None else (lambda t, pred: on_step(t, cloud_of(pred)))
    with eg.no_grad():
        latent = model.encode(centers, visible, mask)
        pred = sample_patches(model, latent, schedule, seed=seed, on_step=step)
    return cloud_of(pred)


def reconstruct(cloud: PointCloud, model: Model, schedule, seed=0, mask_strategy="random",
                on_step=None) -> PointCloud:
    """Mask, encode, sample the masked patches and reassemble the object;
    ``on_step(t, cloud)`` sees the whole cloud after each reverse step."""
    cfg = model.cfg
    centers, mask, visible = _visible_patches(cloud, cfg, cfg.mask_ratio, mask_strategy, seed)
    return _generate(model, centers, visible, mask, schedule, seed, on_step)


def complete(partial_cloud: PointCloud, model: Model, schedule, seed=0,
             masked_centers=None) -> PointCloud:
    """Fill in the missing fraction ``cfg.mask_ratio`` of a partial cloud.

    The partial input must contain exactly the visible patches' points.
    With position embeddings enabled the masked centers are side information
    (``masked_centers``); without them the predictions are produced with no
    masked positional term and zero centers.
    """
    cfg = model.cfg
    n_masked = mask_count(cfg.mask_ratio, cfg.num_groups)
    n_visible = cfg.num_groups - n_masked
    expected = n_visible * cfg.group_size
    if len(partial_cloud) != expected:
        raise InvalidArgument(
            f"partial cloud has {len(partial_cloud)} points; expected "
            f"{expected} ({n_visible} visible patches x {cfg.group_size})"
        )
    vis_ps = segment(partial_cloud, n_visible, cfg.group_size)
    if masked_centers is None:
        if cfg.use_position_embedding:
            raise InvalidArgument(
                "masked_centers side information is required when position embeddings are on"
            )
        masked_centers = np.zeros((n_masked, 3))
    masked_centers = np.asarray(masked_centers, dtype=np.float64)
    if masked_centers.shape != (n_masked, 3):
        raise InvalidArgument(
            f"masked_centers must be ({n_masked}, 3), got {masked_centers.shape}"
        )

    mask = MaskSpec(indicator=np.arange(cfg.num_groups) >= n_visible)
    return _generate(model, np.concatenate([vis_ps.centers, masked_centers]), vis_ps.patches,
                     mask, schedule, seed)


def upsample(low_res_cloud: PointCloud, model: Model, schedule, seed=0,
             visible_fraction=0.4) -> PointCloud:
    """Densify a cloud by ``upsample_factor``: encode a visible subset and
    sample every patch at the higher density (requires a Config 2 model)."""
    cfg = model.cfg
    if not cfg.predict_visible:
        raise InvalidArgument("upsampling requires a Config 2 model (predict_visible)")
    try:
        mask_count(1.0 - visible_fraction, cfg.num_groups)
    except InvalidArgument:
        raise InvalidArgument(
            f"visible_fraction={visible_fraction} must leave at least one visible and one "
            f"masked patch of G={cfg.num_groups}") from None
    centers, mask, visible = _visible_patches(low_res_cloud, cfg, 1.0 - visible_fraction,
                                              "random", seed)
    return _generate(model, centers, visible, mask, schedule, seed)


# ---------------------------------------------------------------------------
# compression codec


@dataclass(frozen=True)
class CompressedBlob:
    num_groups: int
    group_size: int
    quant_bits: int
    bbox: np.ndarray  # (2, 3): per-axis min / max
    indicator: np.ndarray  # (G,) bool
    visible_points: np.ndarray  # (N_v, 3) dequantized absolute coordinates
    centers: np.ndarray  # (G, 3) dequantized


def _quantize(points, lo, extent, q):
    levels = 1 << q
    safe = np.where(extent > 0, extent, 1.0)
    idx = np.floor((points - lo) / safe * levels).astype(np.int64)
    return np.clip(idx, 0, levels - 1)


def _dequantize(idx, lo, extent, q):
    levels = 1 << q
    return lo + (idx + 0.5) * extent / levels


def _pack(idx, q):
    """Pack (n, 3) quantized indices at q bits each, most significant bit
    first, zero-padded to whole bytes."""
    shifts = np.arange(q - 1, -1, -1, dtype=np.uint16)
    return np.packbits((idx.astype(np.uint16)[..., None] >> shifts) & 1).tobytes()


def _unpack(payload, n, q):
    """Inverse of ``_pack``: (n, 3) int64 indices."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n * 3 * q)
    return bits.reshape(n, 3, q) @ (1 << np.arange(q - 1, -1, -1))


def compress(cloud: PointCloud, model_cfg, mask_seed=0, quant_bits=10,
             mask_strategy="random") -> bytes:
    """Segment, mask and serialize the visible coordinates + all centers,
    uniformly quantized over the bounding box at ``quant_bits`` per axis."""
    if not 6 <= quant_bits <= 16:
        raise InvalidArgument(f"quant_bits must be in [6, 16], got {quant_bits}")
    cfg = model_cfg
    centers, mask, visible = _visible_patches(cloud, cfg, cfg.mask_ratio, mask_strategy,
                                              mask_seed)
    vis_points = (visible + centers[mask.visible_indices, None, :]).reshape(-1, 3)
    coords = np.concatenate([vis_points, centers], axis=0)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    extent = hi - lo

    header = bytearray()
    header += _BLOB_MAGIC
    header += struct.pack("<BIIB", _BLOB_VERSION, cfg.num_groups, cfg.group_size, quant_bits)
    header += struct.pack("<6d", *lo, *hi)
    header += np.packbits(mask.indicator).tobytes()

    body = bytes(header) + _pack(_quantize(coords, lo, extent, quant_bits), quant_bits)
    return body + hashlib.sha256(body).digest()[:_DIGEST_BYTES]


def parse_blob(raw: bytes) -> CompressedBlob:
    if len(raw) < 4 + 10 + 48 + _DIGEST_BYTES or raw[:4] != _BLOB_MAGIC:
        raise CorruptBlob("not a compressed point-cloud blob")
    body, digest = raw[:-_DIGEST_BYTES], raw[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest()[:_DIGEST_BYTES] != digest:
        raise CorruptBlob("digest mismatch")
    off = 4
    version, num_groups, group_size, q = struct.unpack_from("<BIIB", raw, off)
    off += struct.calcsize("<BIIB")
    if version != _BLOB_VERSION:
        raise CorruptBlob(f"unsupported blob version {version}")
    bbox = np.array(struct.unpack_from("<6d", raw, off)).reshape(2, 3)
    off += 48
    mask_bytes = (num_groups + 7) // 8
    if len(body) < off + mask_bytes:
        raise CorruptBlob("blob truncated inside the mask")
    if not 6 <= q <= 16:
        raise CorruptBlob(f"quant_bits {q} outside [6, 16]")
    indicator = np.unpackbits(
        np.frombuffer(raw[off : off + mask_bytes], dtype=np.uint8)
    )[:num_groups].astype(bool)
    off += mask_bytes

    n_vis = int((~indicator).sum()) * group_size
    n_coords = n_vis + num_groups
    payload = body[off:]
    if len(payload) != (n_coords * 3 * q + 7) // 8:
        raise CorruptBlob(f"payload of {len(payload)} bytes does not match the header")
    idx = _unpack(payload, n_coords, q)
    lo, extent = bbox[0], bbox[1] - bbox[0]
    return CompressedBlob(
        num_groups=num_groups,
        group_size=group_size,
        quant_bits=q,
        bbox=bbox,
        indicator=indicator,
        visible_points=_dequantize(idx[:n_vis], lo, extent, q),
        centers=_dequantize(idx[n_vis:], lo, extent, q),
    )


def decompress(raw: bytes, model: Model, schedule, seed=0) -> PointCloud:
    """Re-encode the transmitted visible patches and sample the masked ones."""
    blob = parse_blob(raw)
    cfg = model.cfg
    if blob.num_groups != cfg.num_groups or blob.group_size != cfg.group_size:
        raise InvalidArgument(
            f"blob geometry G={blob.num_groups}/N={blob.group_size} does not match model "
            f"G={cfg.num_groups}/N={cfg.group_size}"
        )
    expected_masked = mask_count(cfg.mask_ratio, cfg.num_groups)
    if int(blob.indicator.sum()) != expected_masked:
        raise InvalidArgument(
            f"blob masks {int(blob.indicator.sum())} patches; model ratio "
            f"{cfg.mask_ratio} implies {expected_masked}"
        )
    mask = MaskSpec(indicator=blob.indicator)
    vis = mask.visible_indices
    visible = (blob.visible_points.reshape(vis.size, cfg.group_size, 3)
               - blob.centers[vis][:, None, :])
    return _generate(model, blob.centers, visible, mask, schedule, seed)


def bpp(raw: bytes, original_point_count: int) -> float:
    """Total serialized bits divided by the original point count."""
    if original_point_count < 1:
        raise InvalidArgument("original_point_count must be positive")
    return 8.0 * len(raw) / original_point_count
