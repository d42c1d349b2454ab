import numpy as np
import pytest

from conftest import toy_config
from pointdiff import engine as eg
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


def test_token_embed_permutation_invariant(rng):
    cfg = toy_config()
    params = mdl.init_params(cfg, seed=0)
    patches = rng.normal(size=(5, cfg.group_size, 3))
    base = mdl.token_embed(params, patches, cfg).data
    perm = patches[:, rng.permutation(cfg.group_size), :]
    assert np.allclose(mdl.token_embed(params, perm, cfg).data, base, atol=1e-12)


def test_token_embed_shape_check(rng):
    cfg = toy_config()
    params = mdl.init_params(cfg, seed=0)
    with pytest.raises(ShapeError):
        mdl.token_embed(params, rng.normal(size=(5, cfg.group_size + 1, 3)), cfg)


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
        mdl.time_embed(params, cfg.timesteps, cfg)


def test_encode_shapes(sphere_cloud):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(0, centers=ps.centers)
    latent = model.encode(sphere_cloud, mask)
    assert latent.tokens.shape == (mask.visible_indices.size, cfg.latent_width)
    assert latent.centers.shape == (cfg.num_groups, 3)


def test_decode_config1_shape(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(sphere_cloud, mask)
    m = mask.masked_indices.size
    x_t = rng.normal(size=(m * cfg.patch_points, 3))
    pred = model.decode(latent, x_t, t=3)
    assert pred.shape == (m, cfg.patch_points, 3)


def test_decode_config2_shape(sphere_cloud, rng):
    cfg = toy_config(predict_visible=True, upsample_factor=2)
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(sphere_cloud, mask)
    x_t = rng.normal(size=(cfg.num_groups * cfg.patch_points, 3))
    pred = model.decode(latent, x_t, t=0)
    assert pred.shape == (cfg.num_groups, cfg.patch_points, 3)


def test_decode_rejects_wrong_arity(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(sphere_cloud, mask)
    with pytest.raises(ShapeError):
        model.decode(latent, rng.normal(size=(7, 3)), t=0)


def test_decode_depends_on_timestep(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    # perturb away from the identity-at-init blocks so attention acts
    for name, p in model.params.items():
        p.data = p.data + 0.05 * np.random.default_rng(hash(name) % 2**32).normal(size=p.data.shape)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(sphere_cloud, mask)
    m = mask.masked_indices.size
    x_t = rng.normal(size=(m * cfg.patch_points, 3))
    p0 = model.decode(latent, x_t, t=0).data
    p9 = model.decode(latent, x_t, t=9).data
    assert not np.allclose(p0, p9)


def test_no_position_embedding_variant(sphere_cloud, rng):
    cfg = toy_config(use_position_embedding=False)
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    latent = model.encode(sphere_cloud, mask)
    m = mask.masked_indices.size
    pred = model.decode(latent, rng.normal(size=(m * cfg.patch_points, 3)), t=1)
    assert pred.shape == (m, cfg.patch_points, 3)
    # with PE off, moving the masked centers cannot change the prediction
    moved = mdl.LatentSet(
        tokens=latent.tokens,
        centers=latent.centers + np.where(mask.indicator[:, None], 0.3, 0.0),
        mask=mask,
    )
    x_t = rng.normal(size=(m * cfg.patch_points, 3))
    assert np.allclose(model.decode(latent, x_t, 1).data, model.decode(moved, x_t, 1).data)


def test_latent_token_count_checked(sphere_cloud, rng):
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    bad = mdl.LatentSet(tokens=Tensor(np.zeros((1, cfg.latent_width))),
                        centers=ps.centers, mask=mask)
    m = mask.masked_indices.size
    with pytest.raises(InvalidArgument):
        model.decode(bad, rng.normal(size=(m * cfg.patch_points, 3)), t=0)


def test_set_trainable_prefix():
    model = Model.create(toy_config(), seed=0)
    model.set_trainable("enc.", True)
    model.set_trainable("dec.", False)
    assert model.params["enc.head.w"].requires_grad
    assert not model.params["dec.head.w"].requires_grad
