import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import toy_config
from pointdiff import data_io, diffusion, engine as eg, training
from pointdiff.engine import Tensor
from pointdiff.errors import (
    CorruptCheckpoint,
    InvalidArgument,
    PointdiffError,
    UnsupportedVersion,
)
from pointdiff import model as model_module
from pointdiff.model import Model
from pointdiff.training import LossSetting, TrainConfig


@pytest.fixture(autouse=True)
def high_precision():
    with eg.precision(64):
        yield


def tiny_dataset(n_shapes=2, n_points=128):
    kinds = ["sphere", "cube", "torus", "cylinder"]
    return [data_io.synth_shape(kinds[i % len(kinds)], n_points, seed=i)
            for i in range(n_shapes)]


def test_chamfer_loss_value_matches_metric(rng):
    from pointdiff import metrics

    pred = rng.normal(size=(20, 3))
    target = rng.normal(size=(25, 3))
    loss = training.chamfer_loss(Tensor(pred), target)
    assert loss.item() == pytest.approx(metrics.chamfer_l2(pred, target), rel=1e-12)


def test_chamfer_loss_gradient(rng):
    target = rng.normal(size=(12, 3))
    point = rng.normal(size=(10, 3))
    err = eg.grad_check(lambda t: training.chamfer_loss(t, target), Tensor(point))
    assert err < 1e-5


def test_chamfer_loss_zero_at_match(rng):
    pts = rng.normal(size=(8, 3))
    loss = training.chamfer_loss(Tensor(pts.copy()), pts)
    assert loss.item() == 0.0


def test_train_config_validation():
    with pytest.raises(InvalidArgument):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidArgument):
        TrainConfig(checkpoint_every=-1)
    cfg = TrainConfig(loss_setting="masked_only")
    assert cfg.loss_setting is LossSetting.MASKED_ONLY


def test_checkpoint_round_trip(tmp_path):
    cfg = toy_config()
    model = Model.create(cfg, seed=1)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(path, cfg, model.params, extra={"note": "x"})
    ckpt = training.load_checkpoint(path)
    assert ckpt.config == cfg.to_dict()
    assert ckpt.extra == {"note": "x"}
    assert set(ckpt.tensors) == set(model.params)
    for name, arr in ckpt.tensors.items():
        # payload is float32; loading compares against the rounded original
        assert np.array_equal(arr, model.params[name].data.astype(np.float32))

    reloaded = training.load_model(path)
    assert reloaded.cfg == cfg
    for name in model.params:
        assert np.array_equal(
            reloaded.params[name].data,
            model.params[name].data.astype(np.float32).astype(np.float64),
        )


def test_checkpoint_save_is_deterministic(tmp_path):
    cfg = toy_config()
    model = Model.create(cfg, seed=1)
    training.save_checkpoint(tmp_path / "a.ckpt", cfg, model.params)
    training.save_checkpoint(tmp_path / "b.ckpt", cfg, model.params)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    cfg = toy_config()
    model = Model.create(cfg, seed=1)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(path, cfg, model.params)
    raw = bytearray(path.read_bytes())

    # flip one payload byte
    bad = tmp_path / "bad.ckpt"
    flipped = bytearray(raw)
    flipped[len(flipped) // 2] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CorruptCheckpoint):
        training.load_checkpoint(bad)

    # truncate
    bad.write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(CorruptCheckpoint):
        training.load_checkpoint(bad)

    # wrong magic
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CorruptCheckpoint):
        training.load_checkpoint(bad)


def _resign(body):
    """A checkpoint file whose digest matches ``body``, as a forger would write it."""
    return bytes(body) + hashlib.sha256(bytes(body)).digest()


def _saved_body(tmp_path):
    cfg = toy_config()
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(path, cfg, Model.create(cfg, seed=1).params)
    return bytearray(path.read_bytes()[:-32])


def test_checkpoint_version_check(tmp_path):
    body = _saved_body(tmp_path)
    body[4:8] = struct.pack("<I", 999)
    path = tmp_path / "v.ckpt"
    path.write_bytes(_resign(body))
    with pytest.raises(UnsupportedVersion):
        training.load_checkpoint(path)


def _with_model_config(body, edit):
    """Re-signed copy of ``body`` whose [model] config is ``edit(config)``."""
    (meta_len,) = struct.unpack_from("<I", body, 8)
    meta = json.loads(bytes(body[12 : 12 + meta_len]))
    edit(meta["model"])
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    return _resign(body[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                   + body[12 + meta_len :])


@pytest.mark.parametrize("edit", [
    pytest.param(lambda m: m.update(flux_capacitance=9), id="unknown-key"),
    pytest.param(lambda m: m.pop("timesteps"), id="missing-key"),  # no silent default
    pytest.param(lambda m: m.update(latent_width="16"), id="wrong-type"),
    pytest.param(lambda m: m.update(enc_heads=0), id="zero-heads"),
    pytest.param(lambda m: m.update(latent_width=32), id="shapes-differ"),
])
def test_load_model_rejects_forged_config(tmp_path, edit):
    path = tmp_path / "f.ckpt"
    path.write_bytes(_with_model_config(_saved_body(tmp_path), edit))
    with pytest.raises(CorruptCheckpoint):
        training.load_model(path)


def test_checkpoint_with_deeply_nested_metadata(tmp_path):
    meta = b"[" * 100_000  # deeper than the JSON decoder's recursion limit
    path = tmp_path / "deep.ckpt"
    path.write_bytes(_resign(b"PDCK" + struct.pack("<II", 1, len(meta)) + meta
                             + struct.pack("<I", 0)))
    with pytest.raises(CorruptCheckpoint):
        training.load_checkpoint(path)


def test_checkpoint_with_tensor_rank_beyond_numpy(tmp_path):
    # an empty tensor of rank 70: no data bytes to run past the body, but
    # more dimensions than numpy can reshape to
    meta = json.dumps({"model": {}}).encode()
    body = (b"PDCK" + struct.pack("<II", 1, len(meta)) + meta
            + struct.pack("<II", 1, 1) + b"a"  # one tensor, named "a"
            + struct.pack("<I", 70) + b"\0" * 4 * 70)
    path = tmp_path / "rank.ckpt"
    path.write_bytes(_resign(body))
    with pytest.raises(CorruptCheckpoint):
        training.load_checkpoint(path)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_forged_checkpoints_raise_only_library_errors(tmp_path, data):
    body = _saved_body(tmp_path)
    kind = data.draw(st.sampled_from(["flip", "truncate", "length"]))
    if kind == "flip":
        pos = data.draw(st.integers(4, len(body) - 1))
        body[pos] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        body = body[: data.draw(st.integers(4, len(body) - 1))]
    else:
        # overwrite the meta length, the tensor count or the first name length
        (meta_len,) = struct.unpack_from("<I", body, 8)
        pos = data.draw(st.sampled_from([8, 12 + meta_len, 16 + meta_len]))
        body[pos : pos + 4] = struct.pack("<I", data.draw(st.integers(0, 2**32 - 1)))
    path = tmp_path / "forged.ckpt"
    path.write_bytes(_resign(body))
    for load in (training.load_checkpoint, training.load_model):
        try:
            load(path)
        except PointdiffError:
            pass


def test_load_tensors_shape_mismatch():
    cfg = toy_config()
    model = Model.create(cfg, seed=0)
    tensors = {k: v.data.astype(np.float32) for k, v in model.params.items()}
    tensors["enc.head.w"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(InvalidArgument) as exc:
        training.params_from_tensors(cfg, tensors)
    assert "enc.head.w" in str(exc.value)
    del tensors["enc.head.w"]
    with pytest.raises(InvalidArgument, match="missing tensor 'enc.head.w'"):
        training.params_from_tensors(cfg, tensors)


def test_load_model_work_is_bounded_by_the_file(tmp_path, monkeypatch):
    cfg = toy_config()
    model = Model.create(cfg, seed=1)
    training.save_checkpoint(tmp_path / "ok.ckpt", cfg, model.params)
    forged = tmp_path / "big.ckpt"
    forged.write_bytes(_with_model_config(_saved_body(tmp_path),
                                          lambda m: m.update(enc_blocks=2000)))

    def no_init(*args, **kwargs):
        raise AssertionError("load_model initialised parameters")

    # a re-signed toy file claiming 2000 encoder blocks is rejected before
    # any parameter of the claimed model is allocated or initialised
    monkeypatch.setattr(model_module, "init_params", no_init)
    with pytest.raises(CorruptCheckpoint, match="enc.block1"):
        training.load_model(forged)
    # a genuine checkpoint needs no initialisation either
    reloaded = training.load_model(tmp_path / "ok.ckpt")
    assert list(reloaded.params) == list(model.params)
    for name, param in model.params.items():
        got = reloaded.params[name]
        assert got.requires_grad and got.name == name and got.data.dtype == param.data.dtype
        assert np.array_equal(got.data, param.data.astype(np.float32).astype(param.data.dtype))


def test_pretrain_encoder_loss_decreases():
    cfg = toy_config()
    tc = TrainConfig(epochs=15, batch_size=2, lr=1e-3, seed=0)
    model, curve = training.pretrain_encoder(tiny_dataset(), cfg, tc)
    assert len(curve) == 15
    assert curve[-1] < curve[0]
    # only the encoder was trained: the decoder stays frozen
    assert all(not p.requires_grad for name, p in model.params.items()
               if name.startswith("dec."))


def test_pretrain_encoder_deterministic():
    cfg = toy_config()
    tc = TrainConfig(epochs=3, batch_size=2, seed=5)
    _, c1 = training.pretrain_encoder(tiny_dataset(), cfg, tc)
    _, c2 = training.pretrain_encoder(tiny_dataset(), cfg, tc)
    assert c1 == c2


def test_pretrain_rejects_small_clouds():
    cfg = toy_config(num_groups=256)
    with pytest.raises(InvalidArgument):
        training.pretrain_encoder(tiny_dataset(), cfg, TrainConfig(epochs=1))


@pytest.mark.parametrize("setting, every, ends", [
    pytest.param(LossSetting.ENTIRE_OBJECT, 2, [2, 4, 6], id="LossSetting.ENTIRE_OBJECT"),
    pytest.param(LossSetting.MASKED_ONLY, 2, [2, 4, 6], id="LossSetting.MASKED_ONLY"),
    pytest.param(LossSetting.ENTIRE_OBJECT, 0, [6], id="only-at-end"),
    pytest.param(LossSetting.ENTIRE_OBJECT, 4, [4, 6], id="short-last-window"),
    pytest.param(LossSetting.ENTIRE_OBJECT, 10, [6], id="every-exceeds-epochs"),
])
def test_train_decoder_runs_and_checkpoints(setting, every, ends):
    cfg = toy_config()
    data = tiny_dataset()
    enc, _ = training.pretrain_encoder(data, cfg, TrainConfig(epochs=2, seed=0))
    schedule = diffusion.build_schedule(cfg.timesteps)
    tc = TrainConfig(epochs=6, batch_size=2, lr=5e-4, seed=0,
                     loss_setting=setting, checkpoint_every=every)
    model, curve, ckpts = training.train_decoder(data, enc, tc, schedule)
    assert len(curve) == 6
    # windows average the epochs they cover, in order
    assert ckpts == [(end, float(np.mean(curve[start:end])))
                     for start, end in zip([0] + ends, ends)]
    # encoder weights were copied over and frozen
    for name, p in enc.params.items():
        if name.startswith("enc."):
            assert np.array_equal(model.params[name].data, p.data)
            assert not model.params[name].requires_grad


def test_train_decoder_schedule_mismatch():
    cfg = toy_config()
    enc = Model.create(cfg, seed=0)
    with pytest.raises(InvalidArgument):
        training.train_decoder(tiny_dataset(), enc, TrainConfig(epochs=1),
                               diffusion.build_schedule(cfg.timesteps + 1))


def test_train_decoder_config2_runs():
    cfg = toy_config(predict_visible=True, upsample_factor=2)
    data = tiny_dataset()
    enc, _ = training.pretrain_encoder(data, cfg, TrainConfig(epochs=1, seed=0))
    schedule = diffusion.build_schedule(cfg.timesteps)
    for setting in LossSetting:
        tc = TrainConfig(epochs=2, batch_size=2, seed=0, loss_setting=setting)
        model, curve, _ = training.train_decoder(data, enc, tc, schedule)
        assert len(curve) == 2
        assert np.isfinite(curve).all()


def test_fixed_mask_mode_reuses_the_same_mask():
    # remask_every=0 keys every epoch to the same mask draw
    tc = TrainConfig(epochs=5, remask_every=0)
    assert training._mask_key(tc, 0) == training._mask_key(tc, 4)
    tc2 = TrainConfig(epochs=5, remask_every=2)
    assert training._mask_key(tc2, 0) == training._mask_key(tc2, 1)
    assert training._mask_key(tc2, 0) != training._mask_key(tc2, 2)


def test_curve_to_csv(tmp_path):
    path = tmp_path / "c.csv"
    training.curve_to_csv([0.5, 0.25], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert float(lines[1].split(",")[1]) == 0.5


def test_batch_mean_order_and_batch_of_one():
    l0, l1, l2 = (Tensor(np.array(v)) for v in (0.1, 0.2, 0.3))
    assert training._batch_mean([l0, l1, l2]).item() == (0.1 + (0.2 + 0.3)) * (1.0 / 3)
    assert training._batch_mean([l0]).item() == 0.1
    cfg = toy_config()
    _, curve = training.pretrain_encoder(tiny_dataset(), cfg, TrainConfig(epochs=2, batch_size=1))
    assert len(curve) == 2 and all(np.isfinite(curve))
