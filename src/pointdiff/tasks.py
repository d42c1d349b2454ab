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
from .geometry import (
    MaskSpec,
    MaskStrategy,
    PatchSet,
    PointCloud,
    apply_mask,
    assemble,
    mask_count,
    segment,
)
from .model import LatentSet, Model, encode_patches

_BLOB_MAGIC = b"DPC1"
_BLOB_VERSION = 1
_DIGEST_BYTES = 16


# ---------------------------------------------------------------------------
# sampling glue


def sample_patches(model: Model, latent: LatentSet, schedule, seed=0,
                   residual=diffusion.RESIDUAL_SQRT_SIGMA, trace=False):
    """Run the reverse chain, recording no autograd graph, and return
    per-patch center-relative predictions.

    Config 1 predicts the masked patches; Config 2 (``predict_visible``)
    predicts every patch at ``upsample_factor`` density.
    """
    cfg = model.cfg
    n_patches = cfg.num_groups if cfg.predict_visible else latent.mask.masked_indices.size
    n_points = n_patches * cfg.patch_points

    def decoder_fn(x_t, t):
        return model.decode(latent, x_t, t).data.reshape(-1, 3)

    with eg.no_grad():
        result = diffusion.sample(decoder_fn, n_points, schedule, rng_seed=seed,
                                  residual=residual, trace=trace)
    if trace:
        x0, steps = result
        return x0.reshape(n_patches, cfg.patch_points, 3), steps
    return result.reshape(n_patches, cfg.patch_points, 3)


def reconstruct(cloud: PointCloud, model: Model, schedule, seed=0,
                mask_strategy="random", residual=diffusion.RESIDUAL_SQRT_SIGMA) -> PointCloud:
    """Mask, encode, sample the masked patches and reassemble the object."""
    cfg = model.cfg
    ps = segment(cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(seed, centers=ps.centers, strategy=mask_strategy)
    with eg.no_grad():
        latent = model.encode(cloud, mask)
        pred = sample_patches(model, latent, schedule, seed=seed, residual=residual)
    return _assemble_with_predictions(ps, mask, pred, cfg)


def _assemble_with_predictions(ps: PatchSet, mask: MaskSpec, pred, cfg) -> PointCloud:
    """Visible GT patches + predictions; Config 2 predictions replace all."""
    all_patches = np.ones(cfg.num_groups, dtype=bool)
    if cfg.predict_visible:
        order = np.concatenate([mask.visible_indices, mask.masked_indices])
        override = [None] * cfg.num_groups
        for row, patch_index in enumerate(order):
            override[patch_index] = pred[row]
        # selected patches appear in index order; map overrides accordingly
        return assemble(ps, all_patches, override_points=override)
    override = [None] * cfg.num_groups
    for row, patch_index in enumerate(mask.masked_indices):
        override[patch_index] = pred[row]
    return assemble(ps, all_patches, override_points=override)


def complete(partial_cloud: PointCloud, model: Model, schedule, seed=0,
             masked_centers=None, residual=diffusion.RESIDUAL_SQRT_SIGMA) -> PointCloud:
    """Fill in the missing fraction ``cfg.mask_ratio`` of a partial cloud.

    The partial input must contain exactly the visible patches' points.
    With position embeddings enabled the masked centers are side information
    (``masked_centers``); without them the predictions are produced with no
    masked positional term and zero centers.
    """
    cfg = model.cfg
    n_masked = mask_count(cfg.mask_ratio, cfg.num_groups)
    n_visible = cfg.num_groups - n_masked
    if n_masked < 1 or n_visible < 1:
        raise InvalidArgument(f"degenerate completion ratio {cfg.mask_ratio}")
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

    centers = np.concatenate([vis_ps.centers, masked_centers], axis=0)
    indicator = np.zeros(cfg.num_groups, dtype=bool)
    indicator[n_visible:] = True
    mask = MaskSpec(indicator=indicator, ratio=cfg.mask_ratio, strategy=MaskStrategy.RANDOM)

    with eg.no_grad():
        tokens = encode_patches(model.params, vis_ps.patches, vis_ps.centers, cfg)
        latent = LatentSet(tokens=tokens, centers=centers, mask=mask)
        pred = sample_patches(model, latent, schedule, seed=seed, residual=residual)

    patches = np.concatenate(
        [vis_ps.patches, np.zeros((n_masked, cfg.group_size, 3))], axis=0
    )
    full_ps = PatchSet(centers=centers, patches=patches, group_size=cfg.group_size)
    return _assemble_with_predictions(full_ps, mask, pred, cfg)


def upsample(low_res_cloud: PointCloud, model: Model, schedule, seed=0,
             visible_fraction=0.4, residual=diffusion.RESIDUAL_SQRT_SIGMA) -> PointCloud:
    """Densify a cloud by ``upsample_factor``: encode a visible subset and
    sample every patch at the higher density (requires a Config 2 model)."""
    cfg = model.cfg
    if not cfg.predict_visible:
        raise InvalidArgument("upsampling requires a Config 2 model (predict_visible)")
    ps = segment(low_res_cloud, cfg.num_groups, cfg.group_size)
    mask = apply_mask(
        cfg.num_groups, 1.0 - visible_fraction, "random", seed, centers=ps.centers
    )
    vis = mask.visible_indices
    with eg.no_grad():
        tokens = encode_patches(model.params, ps.patches[vis], ps.centers[vis], cfg)
        latent = LatentSet(tokens=tokens, centers=ps.centers, mask=mask)
        pred = sample_patches(model, latent, schedule, seed=seed, residual=residual)
    return _assemble_with_predictions(ps, mask, pred, cfg)


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
    raw: bytes


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value, bits):
        self.acc = (self.acc << bits) | int(value)
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)

    def flush(self):
        if self.nbits:
            self.buf.append((self.acc << (8 - self.nbits)) & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.buf)


class _BitReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def read(self, bits):
        out = 0
        for _ in range(bits):
            byte = self.data[self.pos >> 3]
            out = (out << 1) | ((byte >> (7 - (self.pos & 7))) & 1)
            self.pos += 1
        return out


def _quantize(points, lo, extent, q):
    levels = 1 << q
    safe = np.where(extent > 0, extent, 1.0)
    idx = np.floor((points - lo) / safe * levels).astype(np.int64)
    return np.clip(idx, 0, levels - 1)


def _dequantize(idx, lo, extent, q):
    levels = 1 << q
    return lo + (idx + 0.5) * extent / levels


def compress(cloud: PointCloud, model_cfg, mask_seed=0, quant_bits=10,
             mask_strategy="random") -> bytes:
    """Segment, mask and serialize the visible coordinates + all centers,
    uniformly quantized over the bounding box at ``quant_bits`` per axis."""
    if not 6 <= quant_bits <= 16:
        raise InvalidArgument(f"quant_bits must be in [6, 16], got {quant_bits}")
    cfg = model_cfg
    ps = segment(cloud, cfg.num_groups, cfg.group_size)
    mask = apply_mask(cfg.num_groups, cfg.mask_ratio, mask_strategy, mask_seed,
                      centers=ps.centers)
    vis_points = ps.absolute(mask.visible_indices).reshape(-1, 3)
    coords = np.concatenate([vis_points, ps.centers], axis=0)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    extent = hi - lo

    header = bytearray()
    header += _BLOB_MAGIC
    header += struct.pack("<BIIB", _BLOB_VERSION, cfg.num_groups, cfg.group_size, quant_bits)
    header += struct.pack("<6d", *lo, *hi)
    header += np.packbits(mask.indicator).tobytes()

    writer = _BitWriter()
    for row in _quantize(vis_points, lo, extent, quant_bits):
        for v in row:
            writer.write(v, quant_bits)
    for row in _quantize(ps.centers, lo, extent, quant_bits):
        for v in row:
            writer.write(v, quant_bits)
    body = bytes(header) + writer.flush()
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
    indicator = np.unpackbits(
        np.frombuffer(raw[off : off + mask_bytes], dtype=np.uint8)
    )[:num_groups].astype(bool)
    off += mask_bytes

    n_vis = int((~indicator).sum()) * group_size
    reader = _BitReader(raw[off : len(body)])
    lo, hi = bbox[0], bbox[1]
    extent = hi - lo
    vis_idx = np.array(
        [[reader.read(q) for _ in range(3)] for _ in range(n_vis)], dtype=np.int64
    ).reshape(n_vis, 3)
    ctr_idx = np.array(
        [[reader.read(q) for _ in range(3)] for _ in range(num_groups)], dtype=np.int64
    ).reshape(num_groups, 3)
    return CompressedBlob(
        num_groups=num_groups,
        group_size=group_size,
        quant_bits=q,
        bbox=bbox,
        indicator=indicator,
        visible_points=_dequantize(vis_idx, lo, extent, q),
        centers=_dequantize(ctr_idx, lo, extent, q),
        raw=raw,
    )


def decompress(raw: bytes, model: Model, schedule, seed=0,
               residual=diffusion.RESIDUAL_SQRT_SIGMA) -> PointCloud:
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
    mask = MaskSpec(indicator=blob.indicator, ratio=cfg.mask_ratio,
                    strategy=MaskStrategy.RANDOM)
    vis = mask.visible_indices
    vis_patches = blob.visible_points.reshape(vis.size, cfg.group_size, 3)
    vis_rel = vis_patches - blob.centers[vis][:, None, :]

    with eg.no_grad():
        tokens = encode_patches(model.params, vis_rel, blob.centers[vis], cfg)
        latent = LatentSet(tokens=tokens, centers=blob.centers, mask=mask)
        pred = sample_patches(model, latent, schedule, seed=seed, residual=residual)

    patches = np.zeros((cfg.num_groups, cfg.group_size, 3))
    patches[vis] = vis_rel
    full_ps = PatchSet(centers=blob.centers, patches=patches, group_size=cfg.group_size)
    return _assemble_with_predictions(full_ps, mask, pred, cfg)


def bpp(raw: bytes, original_point_count: int) -> float:
    """Total serialized bits divided by the original point count."""
    if original_point_count < 1:
        raise InvalidArgument("original_point_count must be positive")
    return 8.0 * len(raw) / original_point_count
