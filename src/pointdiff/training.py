"""Encoder pretraining, diffusion-decoder training and checkpointing.

The encoder is always trained first against a Chamfer reconstruction of its
visible patches.  Decoder training freezes the encoder, corrupts the masked
points with the forward process and regresses the clean points under one of
two loss inputs: the entire assembled object or the masked region only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import engine as eg
from .engine import Tensor
from .diffusion import NoiseSchedule, q_sample
from .errors import CorruptCheckpoint, InvalidArgument, UnsupportedVersion
from .geometry import PointCloud, nearest_indices, segment
from .model import Model, ModelConfig, decode, encode_patches, encoder_pretrain_head

_MAGIC = b"PDCK"
_VERSION = 1


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
    log_every: int = 10
    checkpoint_every: int = 0  # 0 = only at the end
    mask_strategy: str = "random"
    remask_every: int = 1  # epochs between fresh mask draws; 0 = fixed mask

    def __post_init__(self):
        if isinstance(self.loss_setting, str):
            self.loss_setting = LossSetting(self.loss_setting)
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidArgument("epochs and batch_size must be positive")


# ---------------------------------------------------------------------------
# differentiable chamfer


def chamfer_loss(pred, target):
    """Chamfer-L2 between a predicted tensor (n, 3) and a fixed target (m, 3).

    Nearest-neighbor assignments are found on the current values; gradients
    flow through the matched coordinate differences.
    """
    target = np.asarray(target, dtype=pred.data.dtype)
    idx_fwd, idx_bwd = nearest_indices(pred.data, target)

    diff_fwd = eg.sub(pred, Tensor(target[idx_fwd]))
    term_fwd = eg.mean(eg.sum_(eg.mul(diff_fwd, diff_fwd), axis=1))
    gathered = eg.embedding_lookup(pred, idx_bwd)
    diff_bwd = eg.sub(gathered, Tensor(target))
    term_bwd = eg.mean(eg.sum_(eg.mul(diff_bwd, diff_bwd), axis=1))
    return eg.add(term_fwd, term_bwd)


def _pred_to_points(pred, centers):
    """(n_patch, pts, 3) relative predictions -> flat (n_patch*pts, 3) tensor."""
    n, pts, _ = pred.shape
    shifted = eg.add(pred, Tensor(centers[:, None, :]))
    return eg.reshape(shifted, (n * pts, 3))


# ---------------------------------------------------------------------------
# checkpoint format


@dataclass
class Checkpoint:
    config: dict
    tensors: dict  # name -> float32 ndarray
    extra: dict = field(default_factory=dict)


def save_checkpoint(path, model_cfg: ModelConfig, params, extra=None):
    """Serialize parameters: header, JSON config, tensor manifest, little-
    endian float32 payload, sha256 digest.  Writes atomically."""
    names = sorted(params)
    meta = {"model": model_cfg.to_dict(), "extra": extra or {}}
    meta_bytes = json.dumps(meta, sort_keys=True).encode()

    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    out += struct.pack("<I", len(meta_bytes))
    out += meta_bytes
    out += struct.pack("<I", len(names))
    for name in names:
        data = params[name].data if isinstance(params[name], Tensor) else params[name]
        nb = name.encode()
        out += struct.pack("<I", len(nb))
        out += nb
        out += struct.pack("<I", data.ndim)
        out += struct.pack(f"<{data.ndim}I", *data.shape)
    for name in names:
        data = params[name].data if isinstance(params[name], Tensor) else params[name]
        out += np.ascontiguousarray(data, dtype="<f4").tobytes()
    out += hashlib.sha256(bytes(out)).digest()

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(out))
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 44 or raw[:4] != _MAGIC:
        raise CorruptCheckpoint(f"{path}: not a checkpoint file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpoint(f"{path}: digest mismatch")
    off = 4
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != _VERSION:
        raise UnsupportedVersion(f"{path}: version {version}, expected {_VERSION}")
    (meta_len,) = struct.unpack_from("<I", raw, off)
    off += 4
    meta = json.loads(raw[off : off + meta_len])
    off += meta_len
    (n_tensors,) = struct.unpack_from("<I", raw, off)
    off += 4
    manifest = []
    for _ in range(n_tensors):
        (name_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        name = raw[off : off + name_len].decode()
        off += name_len
        (ndim,) = struct.unpack_from("<I", raw, off)
        off += 4
        shape = struct.unpack_from(f"<{ndim}I", raw, off)
        off += 4 * ndim
        manifest.append((name, shape))
    tensors = {}
    for name, shape in manifest:
        count = int(np.prod(shape)) if shape else 1
        end = off + 4 * count
        if end > len(body):
            raise CorruptCheckpoint(f"{path}: truncated payload at tensor {name}")
        tensors[name] = np.frombuffer(raw[off:end], dtype="<f4").reshape(shape).copy()
        off = end
    if off != len(body):
        raise CorruptCheckpoint(f"{path}: {len(body) - off} trailing bytes")
    return Checkpoint(config=meta["model"], tensors=tensors, extra=meta.get("extra", {}))


def load_model(path) -> Model:
    """Rebuild a Model from a checkpoint, validating shapes against config."""
    ckpt = load_checkpoint(path)
    cfg = ModelConfig.from_dict(ckpt.config)
    model = Model.create(cfg, seed=0)
    load_tensors_into(model.params, ckpt.tensors)
    return model


def load_tensors_into(params, tensors):
    for name, param in params.items():
        if name not in tensors:
            raise InvalidArgument(f"checkpoint missing tensor {name!r}")
        if tuple(tensors[name].shape) != tuple(param.data.shape):
            raise InvalidArgument(
                f"tensor {name!r}: checkpoint shape {tensors[name].shape} "
                f"does not match model shape {param.data.shape}"
            )
        param.data = np.asarray(tensors[name], dtype=eg.get_dtype())


# ---------------------------------------------------------------------------
# training loops


def _as_clouds(dataset):
    out = []
    for item in dataset:
        if isinstance(item, tuple):
            out.append(item[1])
        elif isinstance(item, PointCloud):
            out.append(item)
        else:
            out.append(PointCloud(item))
    return out


def _check_divisibility(clouds, cfg: ModelConfig):
    for i, cloud in enumerate(clouds):
        if len(cloud) < cfg.num_groups:
            raise InvalidArgument(
                f"dataset item {i} has {len(cloud)} points, fewer than G={cfg.num_groups}"
            )


def pretrain_encoder(dataset, model_cfg: ModelConfig, train_cfg: TrainConfig, model=None):
    """Train the encoder + pretraining head; returns (model, per-epoch losses).

    One "epoch" is one pass over the dataset in batches; a fresh mask is
    drawn per item per epoch.
    """
    clouds = _as_clouds(dataset)
    _check_divisibility(clouds, model_cfg)
    if model is None:
        model = Model.create(model_cfg, seed=train_cfg.seed)
    model.set_trainable("enc.", True)
    model.set_trainable("dec.", False)
    enc_params = {k: v for k, v in model.params.items() if k.startswith("enc.")}
    opt_state = eg.adam_init(enc_params)

    patchsets = [segment(c, model_cfg.num_groups, model_cfg.group_size) for c in clouds]
    curve = []
    for epoch in range(train_cfg.epochs):
        epoch_losses = []
        for start in range(0, len(clouds), train_cfg.batch_size):
            batch = range(start, min(start + train_cfg.batch_size, len(clouds)))
            losses = []
            for i in batch:
                ps = patchsets[i]
                mask = model.draw_mask(
                    (train_cfg.seed, _mask_key(train_cfg, epoch), i),
                    centers=ps.centers,
                    strategy=train_cfg.mask_strategy,
                )
                vis = mask.visible_indices
                tokens = encode_patches(model.params, ps.patches[vis], ps.centers[vis], model_cfg)
                pred = encoder_pretrain_head(model.params, tokens, model_cfg)
                pred_pts = _pred_to_points(pred, ps.centers[vis])
                gt_pts = ps.absolute(vis).reshape(-1, 3)
                losses.append(chamfer_loss(pred_pts, gt_pts))
            loss = _batch_mean(losses)
            grads = eg.backward(loss, enc_params)
            eg.adam_step(enc_params, grads, opt_state, train_cfg.lr)
            eg.zero_grads(enc_params)
            epoch_losses.append(loss.item())
        curve.append(float(np.mean(epoch_losses)))
    return model, curve


def _mask_key(train_cfg, epoch):
    if train_cfg.remask_every == 0:
        return 0
    return epoch // train_cfg.remask_every


def _batch_mean(losses):
    """Mean batch loss, summed as (l0 + (l1 + ... + l_{B-1})) / B."""
    total = losses[0]
    if len(losses) > 1:
        total = eg.add(total, functools.reduce(eg.add, losses[1:]))
    return eg.scale(total, 1.0 / len(losses))


def train_decoder(
    dataset,
    encoder_model: Model,
    train_cfg: TrainConfig,
    schedule: NoiseSchedule,
    model=None,
):
    """Train the diffusion decoder with a frozen encoder.

    Returns (model, per-epoch losses, checkpoints) where checkpoints is a
    list of (epoch, mean loss over the window since the previous checkpoint).
    """
    model_cfg = encoder_model.cfg
    if schedule.T != model_cfg.timesteps:
        raise InvalidArgument(
            f"schedule has T={schedule.T} but model expects {model_cfg.timesteps}"
        )
    clouds = _as_clouds(dataset)
    _check_divisibility(clouds, model_cfg)
    if model is None:
        model = Model.create(model_cfg, seed=train_cfg.seed + 1)
    # carry the pre-trained encoder weights over; freeze them
    for name, t in encoder_model.params.items():
        if name.startswith("enc."):
            model.params[name].data = t.data.copy()
    model.set_trainable("enc.", False)
    model.set_trainable("dec.", True)
    dec_params = {k: v for k, v in model.params.items() if k.startswith("dec.")}
    opt_state = eg.adam_init(dec_params)

    patchsets = [segment(c, model_cfg.num_groups, model_cfg.group_size) for c in clouds]
    # diffusion targets live at patch_points density; when upsample_factor > 1
    # they come from a denser grouping around the same FPS centers
    if model_cfg.patch_points != model_cfg.group_size:
        targets = [segment(c, model_cfg.num_groups, model_cfg.patch_points) for c in clouds]
    else:
        targets = patchsets
    curve = []
    checkpoints = []
    window = []
    for epoch in range(train_cfg.epochs):
        epoch_losses = []
        for start in range(0, len(clouds), train_cfg.batch_size):
            batch = range(start, min(start + train_cfg.batch_size, len(clouds)))
            losses = []
            for i in batch:
                losses.append(
                    _decoder_item_loss(
                        model, patchsets[i], targets[i], clouds[i], schedule,
                        train_cfg, epoch, i
                    )
                )
            loss = _batch_mean(losses)
            grads = eg.backward(loss, dec_params)
            eg.adam_step(dec_params, grads, opt_state, train_cfg.lr)
            eg.zero_grads(dec_params)
            epoch_losses.append(loss.item())
        curve.append(float(np.mean(epoch_losses)))
        window.append(curve[-1])
        if train_cfg.checkpoint_every and (epoch + 1) % train_cfg.checkpoint_every == 0:
            checkpoints.append((epoch + 1, float(np.mean(window))))
            window = []
    if window:
        checkpoints.append((train_cfg.epochs, float(np.mean(window))))
    return model, curve, checkpoints


def _decoder_item_loss(model, ps, target_ps, cloud, schedule, train_cfg, epoch, item_index):
    cfg = model.cfg
    mask = model.draw_mask(
        (train_cfg.seed, _mask_key(train_cfg, epoch), item_index),
        centers=ps.centers,
        strategy=train_cfg.mask_strategy,
    )
    vis, msk = mask.visible_indices, mask.masked_indices
    # encoder is frozen: this forward records no graph
    tokens = encode_patches(model.params, ps.patches[vis], ps.centers[vis], cfg)
    latent_tokens = Tensor(tokens.data)

    rng = np.random.default_rng((train_cfg.seed, epoch, item_index, 1))
    t = int(rng.integers(schedule.T))
    if cfg.predict_visible:
        order = np.concatenate([vis, msk])
        x0 = target_ps.patches[order].reshape(-1, 3)
    else:
        x0 = target_ps.patches[msk].reshape(-1, 3)
    eps = rng.standard_normal(x0.shape)
    x_t = q_sample(x0, t, eps, schedule)

    from .model import LatentSet  # local import avoids a cycle at module load

    latent = LatentSet(tokens=latent_tokens, centers=ps.centers, mask=mask)
    pred = decode(model.params, latent, x_t, t, cfg)

    if cfg.predict_visible:
        pred_centers = ps.centers[np.concatenate([vis, msk])]
    else:
        pred_centers = ps.centers[msk]
    pred_pts = _pred_to_points(pred, pred_centers)

    if train_cfg.loss_setting is LossSetting.MASKED_ONLY and not cfg.predict_visible:
        target = target_ps.absolute(msk).reshape(-1, 3)
        return chamfer_loss(pred_pts, target)
    if train_cfg.loss_setting is LossSetting.MASKED_ONLY:
        target = target_ps.absolute(msk).reshape(-1, 3)
        n_vis_pts = vis.size * cfg.patch_points
        _, pred_masked = eg.split(pred_pts, [n_vis_pts, msk.size * cfg.patch_points], axis=0)
        return chamfer_loss(pred_masked, target)
    # entire object: combine GT visible points with the predictions
    if cfg.predict_visible:
        full_pred = pred_pts
    else:
        vis_pts = Tensor(ps.absolute(vis).reshape(-1, 3))
        full_pred = eg.concat([vis_pts, pred_pts], axis=0)
    return chamfer_loss(full_pred, cloud.points)


def curve_to_csv(curve, path):
    with open(path, "w") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(curve):
            fh.write(f"{epoch},{loss:.17e}\n")
