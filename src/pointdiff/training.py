"""Encoder pretraining, diffusion-decoder training and checkpointing.

The encoder is always trained first against a Chamfer reconstruction of its
visible patches.  Decoder training freezes the encoder, corrupts the masked
points with the forward process and regresses the clean points under one of
two loss inputs: the entire assembled object or the masked region only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import engine as eg
from .engine import Tensor
from .diffusion import NoiseSchedule, q_sample
from .errors import (
    CorruptCheckpoint,
    InvalidArgument,
    PointdiffError,
    ShapeError,
    UnsupportedVersion,
)
from .geometry import MaskStrategy, PointCloud, nearest_indices, segment
from .model import (
    LatentSet,
    Model,
    ModelConfig,
    decode,
    embed_patches,
    encode_patches,
    encode_tokens,
    encoder_pretrain_head,
    param_layout,
    predicted_indices,
)

_MAGIC = b"PDCK"
_VERSION = 1
_MAX_NDIM = 32  # numpy 1.x's array rank limit; saved tensors have rank <= 3
_DIGEST_BYTES = 32  # the sha256 digest that ends every file
_CHUNK_BYTES = 1 << 16  # the staging buffer every tensor is read through


class LossSetting(Enum):
    ENTIRE_OBJECT = "entire_object"
    MASKED_ONLY = "masked_only"


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    lr: float = 1e-3
    loss_setting: LossSetting = LossSetting.ENTIRE_OBJECT
    seed: int = 0
    checkpoint_every: int = 0  # 0 = only at the end
    mask_strategy: MaskStrategy = MaskStrategy.RANDOM
    remask_every: int = 1  # epochs between fresh mask draws; 0 = fixed mask

    def __post_init__(self):
        try:
            self.loss_setting = LossSetting(self.loss_setting)
        except ValueError:
            raise InvalidArgument(
                f"unknown loss setting {self.loss_setting!r}; expected one of "
                + ", ".join(m.value for m in LossSetting)
            ) from None
        self.mask_strategy = MaskStrategy.parse(self.mask_strategy)
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidArgument("epochs and batch_size must be positive")
        if self.checkpoint_every < 0:
            raise InvalidArgument("checkpoint_every must be >= 0")
        if self.remask_every < 0:
            raise InvalidArgument(f"remask_every must be >= 0, got {self.remask_every}")
        # a NaN rate trains to NaN weights and a negative one ascends the loss
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidArgument(f"lr must be finite and positive, got {self.lr}")
        if self.seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# differentiable chamfer


def chamfer_loss(pred, targets):
    """Mean over a batch of the Chamfer-L2 between each predicted cloud of
    ``pred`` (B, n, 3) and its fixed target ``targets[b]`` (m_b, 3).

    Nearest-neighbour assignments come from the current values, one batched
    ``nearest_indices`` call for all items whose targets have the same size.
    The loss is one tape node whose backward is the composed graph's, term
    for term: with ``d_f`` each predicted point minus its nearest target
    point, ``d_b`` each target point's nearest predicted point minus it,
    ``s = 1 / (B * n)`` and ``w = 1 / (B * m_b)`` per target point, the
    loss is ``sum(d_f^2) * s + sum(sum(d_b^2, axis=1) * w)`` and its
    gradient ``(s d_f + s d_f) + scatter(w d_b + w d_b)``, the scatter
    summing each predicted point's terms in target order.  Targets may
    differ in size; an empty or misshapen prediction or target raises
    ``ShapeError``.
    """
    if pred.data.ndim != 3 or pred.shape[2] != 3 or not pred.data.size:
        raise ShapeError(
            f"chamfer_loss: prediction must be a non-empty (B, n, 3), got {pred.shape}")
    B, n, _ = pred.shape
    if len(targets) != B:
        raise ShapeError(f"chamfer_loss: {len(targets)} targets for a batch of {B}")
    dtype = pred.data.dtype
    targets = [np.asarray(target, dtype=dtype) for target in targets]
    for b, target in enumerate(targets):
        if target.ndim != 2 or target.shape[1:] != (3,) or not len(target):
            raise ShapeError(
                f"chamfer_loss: target {b} must be a non-empty (m, 3), got {target.shape}")
    p = pred.data
    sizes = np.array([len(target) for target in targets])
    first = np.cumsum(sizes) - sizes  # each item's first row in ``target``
    target = np.concatenate(targets)
    matched, rows = np.empty((B, n), dtype=np.intp), [None] * B
    for m in np.unique(sizes):
        items = np.flatnonzero(sizes == m)
        idx_fwd, idx_bwd = nearest_indices(p[items], np.stack([targets[b] for b in items]))
        matched[items] = idx_fwd + first[items, None]
        for b, idx in zip(items, idx_bwd):
            rows[b] = idx + b * n  # row of the flattened (B * n, 3) batch
    rows = np.concatenate(rows)
    weights = np.repeat(1.0 / (B * sizes), sizes).astype(dtype)
    s = dtype.type(1.0 / (B * n))
    # the backward term coordinate-major, (3, M), so that every elementwise
    # step runs along the M targets rather than along rows of three
    d_f = p - np.take(target, matched, axis=0)
    d_b = np.take(p.reshape(-1, 3).T, rows, axis=1) - target.T
    sq_f, sq_b = d_f * d_f, d_b * d_b
    # each point's squares added as numpy's sum over an axis of three adds
    # them, (x + y) + z, as the composed graph's sum_ did
    loss = (((sq_f[..., 0] + sq_f[..., 1]) + sq_f[..., 2]).sum() * s
            + (((sq_b[0] + sq_b[1]) + sq_b[2]) * weights).sum())

    def bwd(g):
        g_f, g_b = g * s, (g * weights) * d_b
        # one flat scatter into cell row * 3 + col; each cell still sums
        # its terms in target order
        scatter = np.zeros_like(p)
        np.add.at(scatter.reshape(-1), (3 * rows + np.arange(3)[:, None]).reshape(-1),
                  (g_b + g_b).reshape(-1))
        return [(pred, (g_f * d_f + g_f * d_f) + scatter)]

    return eg._make(loss, (pred,), bwd)


def _pred_to_points(pred, centers):
    """(B, n_patch, pts, 3) relative predictions and their (B, n_patch, 3)
    centers -> flat (B, n_patch*pts, 3) tensor."""
    B, n, pts, _ = pred.shape
    shifted = eg.add(pred, Tensor(centers[:, :, None, :]))
    return eg.reshape(shifted, (B, n * pts, 3))


def _visible_batch(patchsets, items, masks):
    """A batch's visible patches (B, V, N, 3) and their centers (B, V, 3)."""
    vis = [(patchsets[i], mask.visible_indices) for i, mask in zip(items, masks)]
    return np.stack([ps.patches[v] for ps, v in vis]), np.stack([ps.centers[v] for ps, v in vis])


def _absolute(patches, centers):
    """(B, P, N, 3) center-relative patches -> (B, P * N, 3) world points."""
    return (patches + centers[:, :, None, :]).reshape(len(patches), -1, 3)


# ---------------------------------------------------------------------------
# checkpoint format


def save_checkpoint(path, model_cfg: ModelConfig, params):
    """Serialize parameters: header, JSON metadata (the model config and an
    empty ``extra`` dict), tensor manifest, little-endian float32 payload,
    sha256 digest.

    The header and then each tensor go through one incremental digest into
    ``path.tmp``, which replaces ``path`` once complete; a failed save
    removes it.  Beyond the parameters, memory holds one tensor's float32
    copy.
    """
    names = sorted(params)
    arrays = [params[n].data if isinstance(params[n], Tensor) else params[n] for n in names]
    meta_bytes = json.dumps({"model": model_cfg.to_dict(), "extra": {}}, sort_keys=True).encode()
    digest = hashlib.sha256()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            def write(chunk):
                digest.update(chunk)
                fh.write(chunk)

            write(_MAGIC + struct.pack("<II", _VERSION, len(meta_bytes)) + meta_bytes
                  + struct.pack("<I", len(names)))
            for name, data in zip(names, arrays):
                nb = name.encode()
                write(struct.pack("<I", len(nb)) + nb
                      + struct.pack(f"<I{data.ndim}I", data.ndim, *data.shape))
            for data in arrays:
                write(np.ascontiguousarray(data, dtype="<f4"))
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class _HashedBody:
    """The body of an open checkpoint file, that is all of it but the
    trailing digest, read front to back once.  Each read is checked against
    the body's size before anything is allocated, and every byte read goes
    into one incremental sha256.  Tensors, and the rest of the body when
    the header is rejected, pass through one ``_CHUNK_BYTES`` staging
    buffer."""

    def __init__(self, fh, path):
        size = os.fstat(fh.fileno()).st_size
        self.fh, self.path, self.size, self.off = fh, path, size - _DIGEST_BYTES, 0
        self.sha = hashlib.sha256()
        self.stage = memoryview(bytearray(_CHUNK_BYTES))
        if size < 12 + _DIGEST_BYTES or self.take(4) != _MAGIC:
            raise CorruptCheckpoint(f"{path}: not a checkpoint file")

    def _claim(self, n):
        if n > self.size - self.off:
            raise CorruptCheckpoint(f"{self.path}: {n} bytes at offset {self.off} run past the body")
        self.off += n

    def _fill(self, buf):
        if self.fh.readinto(buf) != len(buf):
            raise CorruptCheckpoint(f"{self.path}: file shrank while it was read")
        self.sha.update(buf)
        return buf

    def take(self, n):
        self._claim(n)
        return self._fill(bytearray(n))

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def array(self, shape, dtype):
        """The next stored tensor as a new ``dtype`` array, its whole length
        claimed first and then filled chunk by chunk from the staging
        buffer.  Widening ``<f4`` to float64 is exact."""
        size = math.prod(shape)
        self._claim(4 * size)
        out = np.empty(shape, dtype=dtype)
        flat, staged = out.reshape(-1), np.frombuffer(self.stage, dtype="<f4")
        for start in range(0, size, len(staged)):
            n = min(len(staged), size - start)
            self._fill(self.stage[: 4 * n])
            flat[start : start + n] = staged[:n]
        return out

    def verify(self):
        """Hash the rest of the body, then compare the stored digest."""
        while self.off < self.size:
            n = min(len(self.stage), self.size - self.off)
            self._claim(n)
            self._fill(self.stage[:n])
        if self.fh.read(_DIGEST_BYTES) != self.sha.digest():
            raise CorruptCheckpoint(f"{self.path}: digest mismatch")


@contextlib.contextmanager
def _checkpoint_body(path):
    """The checkpoint at ``path`` as a ``_HashedBody``.  The digest is
    compared when the block ends, and also before any ``PointdiffError``
    raised in it propagates: a damaged file that was not re-signed always
    reads as a digest mismatch, whatever its header says."""
    with open(path, "rb") as fh:
        body = _HashedBody(fh, path)
        try:
            yield body
        except PointdiffError:
            body.verify()
            raise
        body.verify()


def _read_header(body):
    """Metadata and ``(name, shape)`` manifest, with the manifest's payload
    checked to fill the rest of the body exactly."""
    path = body.path
    version = body.u32()
    if version != _VERSION:
        raise UnsupportedVersion(f"{path}: version {version}, expected {_VERSION}")
    try:
        meta = json.loads(body.take(body.u32()))
        manifest = []
        for _ in range(body.u32()):
            name = body.take(body.u32()).decode()
            ndim = body.u32()
            if ndim > _MAX_NDIM:
                raise CorruptCheckpoint(f"{path}: tensor {name!r} has rank {ndim}")
            manifest.append((name, struct.unpack(f"<{ndim}I", body.take(4 * ndim))))
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested JSON, a non-UTF-8 name
        raise CorruptCheckpoint(f"{path}: unreadable header: {exc}") from exc
    # files written earlier may carry any ``extra`` dict; nothing reads it
    if not (isinstance(meta, dict) and isinstance(meta.get("model"), dict)
            and isinstance(meta.get("extra", {}), dict)):
        raise CorruptCheckpoint(f"{path}: metadata lacks a model config")
    payload, left = 4 * sum(math.prod(shape) for _, shape in manifest), body.size - body.off
    if payload != left:
        raise CorruptCheckpoint(f"{path}: manifest declares {payload} tensor bytes, body holds {left}")
    return meta, manifest


def load_model(path) -> Model:
    """Rebuild a Model from a checkpoint in one pass over the file.

    The config and the manifest's names and shapes are checked against
    ``model.param_layout`` before any tensor is read.  Each tensor is
    allocated in the active dtype and filled through one 64 KiB staging
    buffer, so beyond the model memory holds that buffer and the header.
    """
    with _checkpoint_body(path) as body:
        meta, manifest = _read_header(body)
        try:
            cfg = ModelConfig.from_dict(meta["model"])
            layout = _check_layout(cfg, manifest)
        except InvalidArgument as exc:
            raise CorruptCheckpoint(f"{path}: {exc}") from exc
        params = {name: eg.Tensor(body.array(shape, eg.get_dtype())) for name, shape in manifest}
    return Model(cfg=cfg, params={name: params[name] for name in layout})


def _check_layout(cfg: ModelConfig, stored):
    """The parameter names of ``cfg`` (``model.param_layout``) in order,
    each checked against the stored ``(name, shape)`` pairs.

    The check stops at the first tensor the file lacks, so its work is
    bounded by the file and not by the size the config claims.
    """
    shapes = dict(stored)
    layout = []
    for name, shape in param_layout(cfg):
        if name not in shapes:
            raise InvalidArgument(f"checkpoint missing tensor {name!r}")
        if tuple(shapes[name]) != shape:
            raise InvalidArgument(
                f"tensor {name!r}: checkpoint shape {shapes[name]} "
                f"does not match model shape {shape}"
            )
        layout.append(name)
    return layout


# ---------------------------------------------------------------------------
# training loops


def _segment_dataset(dataset, cfg: ModelConfig):
    """Clouds of ``dataset`` (PointClouds, arrays or (id, cloud) pairs) and
    their patch sets at the encoder's group size.  An empty dataset raises
    ``InvalidArgument``."""
    clouds = []
    for i, item in enumerate(dataset):
        cloud = item[1] if isinstance(item, tuple) else item
        cloud = cloud if isinstance(cloud, PointCloud) else PointCloud(cloud)
        if len(cloud) < cfg.num_groups:
            raise InvalidArgument(
                f"dataset item {i} has {len(cloud)} points, fewer than G={cfg.num_groups}"
            )
        clouds.append(cloud)
    if not clouds:
        raise InvalidArgument("the dataset holds no clouds")
    return clouds, [segment(c, cfg.num_groups, cfg.group_size) for c in clouds]


def _fit(model, prefix, patchsets, train_cfg: TrainConfig, batch_loss):
    """Adam on the ``prefix`` parameters of ``model``; returns the
    per-epoch mean batch losses.

    Dataset item ``i`` draws the mask keyed by
    ``(seed, _mask_key(train_cfg, epoch), i)``.  Each optimizer step takes
    one ``batch_loss(epoch, items, masks)`` over a batch's item indices and
    their masks, and one backward walk that returns the gradients of the
    ``prefix`` parameters, the only tensors Adam updates.  A step's loss
    graph and gradients are released before the next step's forward pass,
    so one tape is alive at a time.
    """
    params = {k: v for k, v in model.params.items() if k.startswith(prefix)}
    opt_state = eg.adam_init(params)
    curve = []
    for epoch in range(train_cfg.epochs):
        epoch_losses = []
        for start in range(0, len(patchsets), train_cfg.batch_size):
            items = range(start, min(start + train_cfg.batch_size, len(patchsets)))
            masks = [
                model.draw_mask(
                    (train_cfg.seed, _mask_key(train_cfg, epoch), i),
                    centers=patchsets[i].centers,
                    strategy=train_cfg.mask_strategy,
                )
                for i in items
            ]
            loss = batch_loss(epoch, items, masks)
            epoch_losses.append(loss.item())
            eg.adam_step(params, eg.backward(loss, params), opt_state, train_cfg.lr)
            del loss
        curve.append(float(np.mean(epoch_losses)))
    return curve


def _mask_key(train_cfg, epoch):
    if train_cfg.remask_every == 0:
        return 0
    return epoch // train_cfg.remask_every


def _checkpoints(curve, every):
    """(end epoch, mean loss since the previous checkpoint) at every multiple
    of ``every`` epochs and at the last epoch."""
    ends = [e for e in range(1, len(curve) + 1) if (every and e % every == 0) or e == len(curve)]
    return [(end, float(np.mean(curve[start:end]))) for start, end in zip([0] + ends, ends)]


def pretrain_encoder(dataset, model_cfg: ModelConfig, train_cfg: TrainConfig):
    """Train the encoder + pretraining head; returns (model, per-epoch losses).

    One "epoch" is one pass over the dataset in batches; a fresh mask is
    drawn per item per epoch.
    """
    _, patchsets = _segment_dataset(dataset, model_cfg)
    model = Model.create(model_cfg, seed=train_cfg.seed)

    def batch_loss(epoch, items, masks):
        patches, centers = _visible_batch(patchsets, items, masks)
        tokens = encode_patches(model.params, patches, centers, model_cfg)
        pred = encoder_pretrain_head(model.params, tokens, model_cfg)
        return chamfer_loss(_pred_to_points(pred, centers), _absolute(patches, centers))

    return model, _fit(model, "enc.", patchsets, train_cfg, batch_loss)


def train_decoder(dataset, encoder_model: Model, train_cfg: TrainConfig, schedule: NoiseSchedule):
    """Train the diffusion decoder with a frozen encoder.

    Returns (model, per-epoch losses, checkpoints) where checkpoints is a
    list of (epoch, mean loss over the window since the previous checkpoint).
    """
    cfg = encoder_model.cfg
    if schedule.T != cfg.timesteps:
        raise InvalidArgument(
            f"schedule has T={schedule.T} but model expects {cfg.timesteps}"
        )
    clouds, patchsets = _segment_dataset(dataset, cfg)
    model = Model.create(cfg, seed=train_cfg.seed + 1)
    # carry the pre-trained encoder weights over; only dec. tensors train
    for name, t in encoder_model.params.items():
        if name.startswith("enc."):
            model.params[name].data = t.data.copy()
    # diffusion targets live at patch_points density; when upsample_factor > 1
    # they come from a denser grouping around the same FPS centers
    if cfg.patch_points != cfg.group_size:
        targets = [segment(c, cfg.num_groups, cfg.patch_points) for c in clouds]
    else:
        targets = patchsets

    def noisy(epoch, i, rows):
        """Item ``i``'s timestep and its corrupted ``rows`` patches."""
        rng = np.random.default_rng((train_cfg.seed, epoch, i, 1))
        t = int(rng.integers(schedule.T))
        x0 = targets[i].patches[rows].reshape(-1, 3)
        return t, q_sample(x0, t, rng.standard_normal(x0.shape), schedule)

    # the frozen encoder's input tokens depend on the patch alone, not on
    # the mask: embed every item's G patches once, then gather each step's
    # visible rows and run only the transformer blocks
    with eg.no_grad():  # the encoder is frozen: its forward records no graph
        embedded = [embed_patches(model.params, ps.patches[None], ps.centers[None], cfg).data[0]
                    for ps in patchsets]

    def batch_loss(epoch, items, masks):
        with eg.no_grad():
            tokens = encode_tokens(model.params, Tensor(np.stack(
                [embedded[i][m.visible_indices] for i, m in zip(items, masks)])), cfg)
        rows = [predicted_indices(cfg, m) for m in masks]
        ts, x_t = zip(*(noisy(epoch, i, r) for i, r in zip(items, rows)))
        latent = LatentSet(tokens=tokens, masks=tuple(masks),
                           centers=np.stack([patchsets[i].centers for i in items]))
        pred_pts = _pred_to_points(
            decode(model.params, latent, np.stack(x_t), ts, cfg),
            np.stack([patchsets[i].centers[r] for i, r in zip(items, rows)]),
        )
        if train_cfg.loss_setting is LossSetting.MASKED_ONLY:
            if cfg.predict_visible:  # masked rows come last
                n_msk = masks[0].masked_indices.size * cfg.patch_points
                _, pred_pts = eg.split(pred_pts, [pred_pts.shape[1] - n_msk, n_msk], axis=1)
            return chamfer_loss(pred_pts, [targets[i].absolute(m.masked_indices).reshape(-1, 3)
                                           for i, m in zip(items, masks)])
        if not cfg.predict_visible:
            visible = _absolute(*_visible_batch(patchsets, items, masks))
            pred_pts = eg.concat([Tensor(visible), pred_pts], axis=1)
        return chamfer_loss(pred_pts, [clouds[i].points for i in items])

    curve = _fit(model, "dec.", patchsets, train_cfg, batch_loss)
    return model, curve, _checkpoints(curve, train_cfg.checkpoint_every)


def curve_to_csv(curve, path):
    with open(path, "w") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(curve):
            fh.write(f"{epoch},{loss:.17e}\n")
