import numpy as np
import pytest

from conftest import grad_check, toy_config
from pointdiff import data_io, engine as eg
from pointdiff import model as mdl
from pointdiff.engine import Tensor
from pointdiff.errors import InvalidArgument, ShapeError
from pointdiff.geometry import segment
from pointdiff.model import Model, ModelConfig


@pytest.fixture(autouse=True)
def high_precision():
    with eg.precision(64):
        yield


def test_config_validation():
    with pytest.raises(InvalidArgument):
        ModelConfig(latent_width=15, enc_heads=2)  # odd width
    with pytest.raises(InvalidArgument):
        ModelConfig(latent_width=16, enc_heads=3)  # not divisible
    with pytest.raises(InvalidArgument):
        ModelConfig(upsample_factor=0)
    with pytest.raises(InvalidArgument):
        ModelConfig(latent_width=16, enc_heads=0)  # would divide by zero
    with pytest.raises(InvalidArgument):
        ModelConfig(timesteps=0)


@pytest.mark.parametrize("overrides", [
    dict(enc_blocks=0), dict(enc_blocks=-4), dict(dec_blocks=0),
    dict(mask_ratio=0.0), dict(mask_ratio=1.0), dict(mask_ratio=1.5), dict(mask_ratio=-0.5),
    dict(mask_ratio=float("nan")), dict(mask_ratio=float("inf")),
    dict(mask_ratio=0.999, num_groups=8),  # masks all 8 patches
    dict(mask_ratio=0.05, num_groups=8),  # masks none
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_config_rejects_missing_blocks_and_degenerate_masks(overrides):
    with pytest.raises(InvalidArgument):
        ModelConfig(**overrides)


def test_config_accepts_the_extreme_mask_ratios_that_leave_a_patch_each_side():
    assert ModelConfig(num_groups=8, mask_ratio=1 / 8, enc_blocks=1, dec_blocks=1)
    assert ModelConfig(num_groups=8, mask_ratio=7 / 8)


def test_config_dict_round_trip():
    cfg = toy_config(predict_visible=True, upsample_factor=2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.patch_points == cfg.group_size * 2


def test_init_params_deterministic_and_bounded():
    cfg = toy_config()
    a = mdl.init_params(cfg, seed=3)
    b = mdl.init_params(cfg, seed=3)
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    # truncated normal: every weight within 2 standard deviations
    assert np.abs(a["enc.token.fc1.w"].data).max() <= 0.04
    # biases start at zero, residual branch outputs start at zero
    assert np.all(a["enc.head.b"].data == 0.0)
    assert np.all(a["enc.block0.attn.o.w"].data == 0.0)
    assert np.all(a["enc.block0.ffn.fc2.w"].data == 0.0)
    c = mdl.init_params(cfg, seed=4)
    assert not np.array_equal(a["enc.token.fc1.w"].data, c["enc.token.fc1.w"].data)


def _trunc_normal_whole_array(rng, shape, std=0.02):
    # every out-of-range entry redrawn by a mask over the whole array each round
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while np.any(bad):
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


@pytest.mark.parametrize("shape", [(1,), (7,), (64, 3), (384, 1536), (4, 5, 6)])
@pytest.mark.parametrize("seed", [0, 3, 101])
def test_trunc_normal_equals_whole_array_redraw_bitwise(shape, seed):
    for std in (0.02, 1.0):
        got = mdl._trunc_normal(np.random.default_rng(seed), shape, std)
        want = _trunc_normal_whole_array(np.random.default_rng(seed), shape, std)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.abs(got).max() <= 2 * std


def test_token_embed_permutation_invariant(rng):
    cfg = toy_config()
    params = mdl.init_params(cfg, seed=0)
    patches = rng.normal(size=(2, 5, cfg.group_size, 3))
    base = mdl.token_embed(params, patches, cfg).data
    perm = patches[:, :, rng.permutation(cfg.group_size), :]
    assert np.allclose(mdl.token_embed(params, perm, cfg).data, base, atol=1e-12)


def test_token_embed_shape_check(rng):
    cfg = toy_config()
    params = mdl.init_params(cfg, seed=0)
    with pytest.raises(ShapeError):
        mdl.token_embed(params, rng.normal(size=(1, 5, cfg.group_size + 1, 3)), cfg)
    with pytest.raises(ShapeError):  # no batch axis
        mdl.token_embed(params, rng.normal(size=(5, cfg.group_size, 3)), cfg)


def test_sinusoid_structure():
    v = mdl.sinusoid(0, 8)
    assert np.array_equal(v, np.concatenate([np.zeros(4), np.ones(4)]))
    v5 = mdl.sinusoid(5, 8)
    freqs = np.power(10000.0, -np.arange(4) / 4)
    assert np.allclose(v5[:4], np.sin(5 * freqs))
    assert np.allclose(v5[4:], np.cos(5 * freqs))


def test_time_embed_range_check():
    cfg = toy_config()
    params = mdl.init_params(cfg, seed=0)
    with pytest.raises(InvalidArgument):
        mdl.time_embed(params, [0, cfg.timesteps], cfg)
    with pytest.raises(InvalidArgument):  # one timestep per cloud, not a scalar
        mdl.time_embed(params, 0, cfg)


def test_encode_shapes(sphere_cloud):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(0, centers=ps.centers)
    latent = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
    assert latent.tokens.shape == (1, mask.visible_indices.size, cfg.latent_width)
    assert latent.centers.shape == (1, cfg.num_groups, 3)
    assert latent.masks == (mask,)


def test_decode_config1_shape(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
    m = mask.masked_indices.size
    x_t = rng.normal(size=(1, m * cfg.patch_points, 3))
    pred = model.decode(latent, x_t, t=[3])
    assert pred.shape == (1, m, cfg.patch_points, 3)


def test_decode_config2_shape(sphere_cloud, rng):
    cfg = toy_config(predict_visible=True, upsample_factor=2)
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
    x_t = rng.normal(size=(1, cfg.num_groups * cfg.patch_points, 3))
    pred = model.decode(latent, x_t, t=[0])
    assert pred.shape == (1, cfg.num_groups, cfg.patch_points, 3)


def test_decode_rejects_wrong_arity(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
    with pytest.raises(ShapeError):
        model.decode(latent, rng.normal(size=(1, 7, 3)), t=[0])


def test_decode_depends_on_timestep(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    # perturb away from the identity-at-init blocks so attention acts
    for name, p in model.params.items():
        p.data = p.data + 0.05 * np.random.default_rng(hash(name) % 2**32).normal(size=p.data.shape)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
    m = mask.masked_indices.size
    x_t = rng.normal(size=(1, m * cfg.patch_points, 3))
    p0 = model.decode(latent, x_t, t=[0]).data
    p9 = model.decode(latent, x_t, t=[9]).data
    assert not np.allclose(p0, p9)


def test_no_position_embedding_variant(sphere_cloud, rng):
    cfg = toy_config(use_position_embedding=False)
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
    m = mask.masked_indices.size
    pred = model.decode(latent, rng.normal(size=(1, m * cfg.patch_points, 3)), t=[1])
    assert pred.shape == (1, m, cfg.patch_points, 3)
    # with PE off, moving the masked centers cannot change the prediction
    moved = mdl.LatentSet(
        tokens=latent.tokens,
        centers=latent.centers + np.where(mask.indicator[:, None], 0.3, 0.0),
        masks=(mask,),
    )
    x_t = rng.normal(size=(1, m * cfg.patch_points, 3))
    assert np.allclose(model.decode(latent, x_t, [1]).data, model.decode(moved, x_t, [1]).data)


def test_latent_token_count_checked(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    m = mask.masked_indices.size
    x_t = rng.normal(size=(1, m * cfg.patch_points, 3))
    bad = mdl.LatentSet(tokens=Tensor(np.zeros((1, 1, cfg.latent_width))),
                        centers=ps.centers[None], masks=(mask,))
    with pytest.raises(InvalidArgument):
        model.decode(bad, x_t, t=[0])
    # one mask per cloud of the batch
    good = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
    with pytest.raises(InvalidArgument):
        model.decode(mdl.LatentSet(good.tokens, good.centers, masks=(mask, mask)), x_t, t=[0])


# ---------------------------------------------------------------------------
# the batch axis


def _perturbed_model(cfg):
    """A model away from its identity-at-init blocks, so attention acts."""
    model = Model.create(cfg, seed=0)
    for name, p in model.params.items():
        p.data = p.data + 0.05 * np.random.default_rng(len(name)).normal(size=p.data.shape)
    return model


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(predict_visible=True, upsample_factor=2),
    dict(use_position_embedding=False),
], ids=["config1", "config2-upsample", "no-position-embedding"])
def test_batch_rows_equal_single_cloud_calls(rng, overrides):
    cfg = toy_config(**overrides)
    model = _perturbed_model(cfg)
    kinds = ["sphere", "cube", "torus"]
    sets = [segment(data_io.synth_shape(k, 128, seed=i), cfg.num_groups, cfg.group_size)
            for i, k in enumerate(kinds)]
    masks = tuple(model.draw_mask(i, centers=ps.centers) for i, ps in enumerate(sets))
    vis = [m.visible_indices for m in masks]
    patches = np.stack([ps.patches[v] for ps, v in zip(sets, vis)])
    centers = np.stack([ps.centers[v] for ps, v in zip(sets, vis)])
    tokens = mdl.encode_patches(model.params, patches, centers, cfg)
    n_pred = mdl.predicted_indices(cfg, masks[0]).size
    x_t = rng.normal(size=(len(sets), n_pred * cfg.patch_points, 3))
    ts = [0, 9, 4]
    latent = mdl.LatentSet(tokens, np.stack([ps.centers for ps in sets]), masks)
    pred = model.decode(latent, x_t, ts).data
    for b in range(len(sets)):
        one = mdl.encode_patches(model.params, patches[b : b + 1], centers[b : b + 1], cfg)
        assert np.array_equal(one.data[0], tokens.data[b])
        single = mdl.LatentSet(one, sets[b].centers[None], masks[b : b + 1])
        assert np.array_equal(model.decode(single, x_t[b : b + 1], ts[b : b + 1]).data[0], pred[b])


def test_batched_transformer_block_gradient(rng):
    cfg = toy_config()
    params = _perturbed_model(cfg).params
    weights = rng.normal(size=(2, 5, cfg.latent_width))

    def f(x):
        out = mdl.transformer_block(params, x, "enc.block0", cfg.enc_heads)
        return eg.sum_(eg.mul(out, Tensor(weights)))

    assert grad_check(f, Tensor(rng.normal(size=(2, 5, cfg.latent_width)))) < 1e-6


# ---------------------------------------------------------------------------
# the decoder's last block computes only the rows it predicts


def _dense_decode(monkeypatch, model, latent, x_t, ts):
    """``decode`` with every block computing all of its rows and the last
    one then keeping its last ``rows``: the reference the pruned block must
    equal."""
    block = mdl.transformer_block

    def dense(params, x, prefix, heads, rows=None):
        out = block(params, x, prefix, heads)
        return out if rows is None else Tensor(out.data[:, out.shape[1] - rows:])

    with monkeypatch.context() as m:
        m.setattr(mdl, "transformer_block", dense)
        return model.decode(latent, x_t, ts).data


def _decode_inputs(rng, model, batch):
    cfg = model.cfg
    kinds = ["sphere", "cube", "torus"][:batch]
    sets = [segment(data_io.synth_shape(k, 128, seed=i), cfg.num_groups, cfg.group_size)
            for i, k in enumerate(kinds)]
    masks = tuple(model.draw_mask(i, centers=ps.centers) for i, ps in enumerate(sets))
    vis = [m.visible_indices for m in masks]
    tokens = mdl.encode_patches(model.params, np.stack([ps.patches[v] for ps, v in zip(sets, vis)]),
                                np.stack([ps.centers[v] for ps, v in zip(sets, vis)]), cfg)
    n_pred = mdl.predicted_indices(cfg, masks[0]).size
    x_t = rng.normal(size=(batch, n_pred * cfg.patch_points, 3))
    latent = mdl.LatentSet(tokens, np.stack([ps.centers for ps in sets]), masks)
    return latent, x_t, [0, 9, 4][:batch]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("overrides", [
    dict(dec_blocks=2),
    dict(dec_blocks=2, predict_visible=True, upsample_factor=2),
], ids=["config1", "config2"])
def test_decode_equals_the_dense_blocks_bitwise(monkeypatch, rng, overrides, batch):
    model = _perturbed_model(toy_config(**overrides))  # nonzero attn.o and ffn.fc2
    assert all(np.any(p.data) for name, p in model.params.items()
               if name.endswith((".attn.o.w", ".ffn.fc2.w")))
    latent, x_t, ts = _decode_inputs(rng, model, batch)
    pred = model.decode(latent, x_t, ts).data
    assert np.array_equal(pred, _dense_decode(monkeypatch, model, latent, x_t, ts))


def test_decode_of_one_predicted_patch_is_the_dense_blocks_to_rounding(monkeypatch, rng):
    # one masked patch: the last block's products have one row, which BLAS
    # may compute another way than the same row of a larger product
    model = _perturbed_model(toy_config(mask_ratio=1 / 8))
    latent, x_t, ts = _decode_inputs(rng, model, 3)
    pred = model.decode(latent, x_t, ts).data
    assert pred.shape[1] == 1
    dense = _dense_decode(monkeypatch, model, latent, x_t, ts)
    # a few ulps in practice (below 1e-15 of the largest output at 64 bit)
    assert np.abs(pred - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_pruned_transformer_block_gradient(rng, rows):
    cfg = toy_config()
    params = _perturbed_model(cfg).params
    weights = rng.normal(size=(2, rows, cfg.latent_width))

    def f(x):
        out = mdl.transformer_block(params, x, "dec.block0", cfg.dec_heads, rows)
        return eg.sum_(eg.mul(out, Tensor(weights)))

    assert grad_check(f, Tensor(rng.normal(size=(2, 5, cfg.latent_width)))) < 1e-6
