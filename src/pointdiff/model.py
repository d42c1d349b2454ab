"""Encoder and decoder networks.

The encoder tokenizes visible patches (shared per-point affine + max-pool),
adds a positional embedding of the patch centers, and runs a pre-norm
transformer over visible tokens only.  The decoder tokenizes the noisy
masked points, concatenates them after the visible latent in a fixed
[visible..., masked...] order, adds positional and time embeddings and runs
its own transformer with a normalization after every block.  Prediction
heads emit center-relative point offsets.

Every layer works on a batch of B clouds along a leading axis; inference is
the same code at B = 1.  Each cloud's rows are computed by their own matrix
products, so a cloud's outputs do not depend on the rest of its batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import engine as eg
from .engine import Tensor
from .errors import InvalidArgument, ShapeError
from .geometry import MaskSpec, PointCloud, apply_mask, segment


@dataclass(frozen=True)
class ModelConfig:
    latent_width: int = 384
    enc_blocks: int = 12
    enc_heads: int = 6
    dec_blocks: int = 4
    dec_heads: int = 4
    num_groups: int = 64
    group_size: int = 32
    mask_ratio: float = 0.75
    timesteps: int = 200
    predict_visible: bool = False  # Config 2 when True
    upsample_factor: int = 1
    use_position_embedding: bool = True

    def __post_init__(self):
        sizes = (self.latent_width, self.enc_heads, self.dec_heads, self.num_groups,
                 self.group_size, self.timesteps)
        if min(sizes) < 1:
            raise InvalidArgument(f"latent_width, heads, G, N and T must be positive: {sizes}")
        if self.latent_width % self.enc_heads or self.latent_width % self.dec_heads:
            raise InvalidArgument(
                f"latent width {self.latent_width} must divide by head counts "
                f"({self.enc_heads}, {self.dec_heads})"
            )
        if self.upsample_factor < 1:
            raise InvalidArgument("upsample_factor must be >= 1")
        if self.latent_width % 2:
            raise InvalidArgument("latent width must be even (sinusoidal time embedding)")

    @property
    def patch_points(self):
        """Points emitted per predicted patch."""
        return self.group_size * self.upsample_factor

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``: every field must be present, with the type
        of its default, and no other key."""
        types = {f.name: type(f.default) for f in fields(cls)}
        if set(d) != set(types):
            raise InvalidArgument(
                f"config keys: missing {sorted(set(types) - set(d))}, "
                f"unknown {sorted(set(d) - set(types))}"
            )
        for key, value in d.items():
            if type(value) is not types[key]:
                raise InvalidArgument(f"config {key}={value!r} is not a {types[key].__name__}")
        return cls(**d)


@dataclass
class LatentSet:
    """Visible-token latents of B clouds plus the geometry needed to decode
    them.  Every mask hides the same number of patches."""

    tokens: Tensor  # (B, V, L)
    centers: np.ndarray  # (B, G, 3), ordered by patch index
    masks: tuple  # B MaskSpecs


def predicted_indices(cfg: ModelConfig, mask: MaskSpec):
    """Patch indices the decoder predicts, in its output row order: the
    masked patches (Config 1), or every patch, visible then masked (Config 2,
    ``predict_visible``).  Either way the masked patches come last."""
    if cfg.predict_visible:
        return np.concatenate([mask.visible_indices, mask.masked_indices])
    return mask.masked_indices


# ---------------------------------------------------------------------------
# parameters


def _trunc_normal(rng, shape, std=0.02):
    x = rng.normal(0.0, std, size=shape)
    # resample the tails beyond 2 std
    bad = np.abs(x) > 2 * std
    while np.any(bad):
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


def param_layout(cfg: ModelConfig):
    """Yield ``(name, shape)`` of every parameter ``cfg`` implies, in
    initialisation order.  Weights end in ``.w``, biases in ``.b`` and
    layer-norm gains in ``.g``.  A generator, so a caller comparing it with
    a checkpoint stops at the first difference, whatever the config claims.
    """
    L = cfg.latent_width

    def affine(name, n_in, n_out):
        yield f"{name}.w", (n_in, n_out)
        yield f"{name}.b", (n_out,)

    def norm(name):
        yield f"{name}.g", (L,)
        yield f"{name}.b", (L,)

    def block(prefix):
        for part in ("q", "k", "v", "o"):
            yield from affine(f"{prefix}.attn.{part}", L, L)
        yield from affine(f"{prefix}.ffn.fc1", L, 4 * L)
        yield from affine(f"{prefix}.ffn.fc2", 4 * L, L)
        yield from norm(f"{prefix}.ln1")
        yield from norm(f"{prefix}.ln2")

    yield from affine("enc.token.fc1", 3, L)
    yield from affine("enc.token.fc2", L, L)
    yield from affine("enc.pos", 3, L)
    for i in range(cfg.enc_blocks):
        yield from block(f"enc.block{i}")
    yield from norm("enc.final_ln")
    yield from affine("enc.head", L, cfg.group_size * 3)

    yield from affine("dec.pos", 3, L)
    yield from affine("dec.time", L, L)
    yield from affine("dec.mask_token", cfg.patch_points * 3, L)
    for i in range(cfg.dec_blocks):
        yield from block(f"dec.block{i}")
        yield from norm(f"dec.post_ln{i}")
    yield from affine("dec.head", L, cfg.patch_points * 3)


def init_params(cfg: ModelConfig, seed=0):
    """Fresh parameter dict: truncated-normal weights (std 0.02), zero biases,
    unit gains."""
    rng = np.random.default_rng(seed)
    p = {}
    for name, shape in param_layout(cfg):
        if name.endswith(".w"):
            data = _trunc_normal(rng, shape)
            # zero the residual-branch outputs: every block starts as identity,
            # which removes the early residual noise and speeds small-scale runs
            if name.endswith((".attn.o.w", ".ffn.fc2.w")):
                data[...] = 0.0
        else:
            data = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        p[name] = eg.parameter(data, name=name)
    return p


def _aff(p, name, x):
    return eg.add(eg.matmul(x, p[f"{name}.w"]), p[f"{name}.b"])


def _ln(p, name, x):
    """Layer normalization over the feature axis with learned gain/bias."""
    return eg.add(eg.mul(eg.layer_norm(x), p[f"{name}.g"]), p[f"{name}.b"])


# ---------------------------------------------------------------------------
# layers


def token_embed(params, patches, cfg: ModelConfig):
    """Per-patch token: shared point-wise affine + GELU, max-pool, affine.

    ``patches`` is (B, P, group_size, 3) center-relative; the max-pool makes
    the token exactly invariant to point order within a patch.
    """
    patches = np.asarray(patches) if not isinstance(patches, Tensor) else patches
    if patches.ndim != 4 or patches.shape[-2:] != (cfg.group_size, 3):
        raise ShapeError(
            f"token_embed: expected (B, P, {cfg.group_size}, 3) patches, got {patches.shape}"
        )
    h = eg.gelu(_aff(params, "enc.token.fc1", eg.as_tensor(patches)))
    pooled = eg.max_pool(h, axis=2)
    return _aff(params, "enc.token.fc2", pooled)


def pos_embed(params, centers, prefix="enc.pos"):
    """Affine 3 -> L plus GELU on patch centers."""
    return eg.gelu(_aff(params, prefix, eg.as_tensor(centers)))


def _attention(params, x, prefix, heads):
    B, n, L = x.shape
    d = L // heads

    def heads_of(part):
        # (B, n, L) -> (B * heads, n, d)
        y = eg.reshape(_aff(params, f"{prefix}.attn.{part}", x), (B, n, heads, d))
        return eg.reshape(eg.transpose(y, (0, 2, 1, 3)), (B * heads, n, d))

    q, k, v = heads_of("q"), heads_of("k"), heads_of("v")
    scores = eg.scale(eg.matmul(q, eg.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(d))
    attn = eg.reshape(eg.matmul(eg.softmax(scores, axis=-1), v), (B, heads, n, d))
    merged = eg.reshape(eg.transpose(attn, (0, 2, 1, 3)), (B, n, L))
    return _aff(params, f"{prefix}.attn.o", merged)


def transformer_block(params, x, prefix, heads):
    """Pre-norm block: x + MHA(LN(x)), then x + FFN(LN(x))."""
    x = eg.add(x, _attention(params, _ln(params, f"{prefix}.ln1", x), prefix, heads))
    h = eg.gelu(_aff(params, f"{prefix}.ffn.fc1", _ln(params, f"{prefix}.ln2", x)))
    return eg.add(x, _aff(params, f"{prefix}.ffn.fc2", h))


# ---------------------------------------------------------------------------
# encoder

def encode_patches(params, vis_patches, vis_centers, cfg: ModelConfig):
    """Encoder core on explicit visible patches, (B, V, group_size, 3) with
    their (B, V, 3) centers; returns (B, V, L) tokens.  The compression
    path uses this directly, bypassing segmentation."""
    tokens = token_embed(params, vis_patches, cfg)
    if cfg.use_position_embedding:
        tokens = eg.add(tokens, pos_embed(params, vis_centers, "enc.pos"))
    for i in range(cfg.enc_blocks):
        tokens = transformer_block(params, tokens, f"enc.block{i}", cfg.enc_heads)
    return _ln(params, "enc.final_ln", tokens)


def encode(params, cloud: PointCloud, mask: MaskSpec, cfg: ModelConfig) -> LatentSet:
    """Segment the cloud and encode its visible patches: a batch of one."""
    patchset = segment(cloud, cfg.num_groups, cfg.group_size)
    vis = mask.visible_indices
    tokens = encode_patches(params, patchset.patches[vis][None], patchset.centers[vis][None], cfg)
    return LatentSet(tokens=tokens, centers=patchset.centers[None], masks=(mask,))


def encoder_pretrain_head(params, tokens, cfg: ModelConfig):
    """Affine L -> group_size*3, reshaped to (B, V, group_size, 3)
    center-relative patches."""
    B, n = tokens.shape[:2]
    flat = _aff(params, "enc.head", tokens)
    return eg.reshape(flat, (B, n, cfg.group_size, 3))


# ---------------------------------------------------------------------------
# decoder

def sinusoid(t, width):
    """Sinusoidal timestep vector: sin block then cos block, base 10000.
    An array of timesteps gives one vector per entry along a last axis."""
    half = width // 2
    freqs = np.power(10000.0, -np.arange(half) / half)
    t = np.asarray(t)[..., None]
    return np.concatenate([np.sin(t * freqs), np.cos(t * freqs)], axis=-1)


def time_embed(params, t, cfg: ModelConfig):
    """(B, 1, L) embedding of the B timesteps ``t``, one per cloud."""
    t = np.asarray(t)
    if t.ndim != 1 or np.any((t < 0) | (t >= cfg.timesteps)):
        raise InvalidArgument(f"timesteps {t} must be one per cloud in [0, {cfg.timesteps})")
    base = sinusoid(t, cfg.latent_width)[:, None, :]
    return eg.gelu(_aff(params, "dec.time", eg.as_tensor(base)))


def mask_tokenize(params, noisy_points, n_patches, cfg: ModelConfig):
    """Shared affine on each flattened noisy patch, then GELU:
    (B, n_patches * patch_points, 3) points -> (B, n_patches, L)."""
    noisy_points = np.asarray(noisy_points)
    expected = n_patches * cfg.patch_points
    if noisy_points.ndim != 3 or noisy_points.shape[1:] != (expected, 3):
        raise ShapeError(
            f"mask_tokenize: expected (B, {expected}, 3) points for {n_patches} patches, "
            f"got {noisy_points.shape}"
        )
    flat = eg.as_tensor(noisy_points.reshape(-1, n_patches, cfg.patch_points * 3))
    return eg.gelu(_aff(params, "dec.mask_token", flat))


def decode(params, latent: LatentSet, x_t, t, cfg: ModelConfig):
    """Predict center-relative points for the patches ``predicted_indices``
    names, in its order, for each of the B clouds of ``latent``.

    ``x_t`` is (B, n_pred * patch_points, 3): each cloud's flat noisy point
    block of those patches.  ``t`` holds one timestep per cloud.  Returns a
    (B, n_pred, patch_points, 3) tensor.
    """
    B, n_vis = latent.tokens.shape[:2]
    masks = latent.masks
    G = latent.centers.shape[1]
    if len(masks) != B or any((m.num_groups, m.visible_indices.size) != (G, n_vis) for m in masks):
        raise InvalidArgument(
            f"latent of {B} clouds, {n_vis} tokens and {G} centers each, does not match its "
            f"masks' (patches, visible): {[(m.num_groups, m.visible_indices.size) for m in masks]}"
        )
    vis_idx = np.stack([m.visible_indices for m in masks])
    msk_idx = np.stack([m.masked_indices for m in masks])
    n_msk = msk_idx.shape[1]
    n_pred = predicted_indices(cfg, masks[0]).size

    noise_tokens = mask_tokenize(params, x_t, n_pred, cfg)
    if cfg.predict_visible:
        tok_vis, tok_msk = eg.split(noise_tokens, [n_vis, n_msk], axis=1)
        seq = eg.concat([eg.add(latent.tokens, tok_vis), tok_msk], axis=1)
    else:
        seq = eg.concat([latent.tokens, noise_tokens], axis=1)

    def centers_at(idx):
        return np.take_along_axis(latent.centers, idx[..., None], axis=1)

    pe_vis = pos_embed(params, centers_at(vis_idx), "dec.pos")
    if cfg.use_position_embedding:
        pe_msk = pos_embed(params, centers_at(msk_idx), "dec.pos")
    else:
        pe_msk = Tensor(np.zeros((B, n_msk, cfg.latent_width)))
    seq = eg.add(seq, eg.concat([pe_vis, pe_msk], axis=1))
    seq = eg.add(seq, time_embed(params, t, cfg))

    for i in range(cfg.dec_blocks):
        seq = transformer_block(params, seq, f"dec.block{i}", cfg.dec_heads)
        seq = _ln(params, f"dec.post_ln{i}", seq)

    # the sequence is [visible..., masked...]; the predictions are its last n_pred rows
    if n_pred < seq.shape[1]:
        _, seq = eg.split(seq, [seq.shape[1] - n_pred, n_pred], axis=1)
    flat = _aff(params, "dec.head", seq)
    return eg.reshape(flat, (B, n_pred, cfg.patch_points, 3))


# ---------------------------------------------------------------------------
# convenience bundle


@dataclass
class Model:
    cfg: ModelConfig
    params: dict = field(default_factory=dict)

    @classmethod
    def create(cls, cfg: ModelConfig, seed=0):
        return cls(cfg=cfg, params=init_params(cfg, seed))

    def encode(self, cloud, mask):
        return encode(self.params, cloud, mask, self.cfg)

    def decode(self, latent, x_t, t):
        return decode(self.params, latent, x_t, t, self.cfg)

    def draw_mask(self, rng_seed, centers=None, strategy="random"):
        return apply_mask(
            self.cfg.num_groups, self.cfg.mask_ratio, strategy, rng_seed, centers=centers
        )

    def set_trainable(self, prefix, trainable):
        for name, t in self.params.items():
            if name.startswith(prefix):
                t.requires_grad = trainable
