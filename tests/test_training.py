import hashlib
import json
import struct
import tracemalloc

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
    ShapeError,
    UnsupportedVersion,
)
from pointdiff import model as model_module
from pointdiff.geometry import MaskStrategy
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
    loss = training.chamfer_loss(Tensor(pred[None]), [target])
    assert loss.item() == pytest.approx(metrics.chamfer_l2(pred, target), rel=1e-12)


def test_chamfer_loss_gradient(rng):
    targets = [rng.normal(size=(12, 3)), rng.normal(size=(7, 3))]
    point = rng.normal(size=(2, 10, 3))
    err = eg.grad_check(lambda t: training.chamfer_loss(t, targets), Tensor(point))
    assert err < 1e-5


def test_chamfer_loss_zero_at_match(rng):
    pts = rng.normal(size=(8, 3))
    loss = training.chamfer_loss(Tensor(pts[None].copy()), [pts])
    assert loss.item() == 0.0


def test_train_config_validation():
    with pytest.raises(InvalidArgument):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidArgument):
        TrainConfig(checkpoint_every=-1)
    cfg = TrainConfig(loss_setting="masked_only")
    assert cfg.loss_setting is LossSetting.MASKED_ONLY
    # unknown names fail here, not later inside training as a bare ValueError
    with pytest.raises(InvalidArgument, match="mask strategy 'bogus'"):
        TrainConfig(mask_strategy="bogus")
    with pytest.raises(InvalidArgument, match="loss setting 'bogus'"):
        TrainConfig(loss_setting="bogus")
    assert TrainConfig(mask_strategy="BLOCK").mask_strategy is MaskStrategy.BLOCK


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


def _reference_v1(cfg, params, extra):
    """The v1 file spelled out: magic, version, JSON metadata, manifest of
    (name, rank, shape), every tensor as little-endian float32 in name order,
    then the sha256 of all that."""
    names = sorted(params)
    meta = json.dumps({"model": cfg.to_dict(), "extra": extra}, sort_keys=True).encode()
    body = b"PDCK" + struct.pack("<II", 1, len(meta)) + meta + struct.pack("<I", len(names))
    for name in names:
        shape = params[name].data.shape
        body += struct.pack("<I", len(name.encode())) + name.encode()
        body += struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)
    for name in names:
        body += params[name].data.astype("<f4").tobytes()
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("bits", [32, 64])
def test_checkpoint_file_is_the_v1_format_byte_for_byte(tmp_path, bits):
    cfg = toy_config()
    with eg.precision(bits):
        model = Model.create(cfg, seed=4)
        training.save_checkpoint(tmp_path / "m.ckpt", cfg, model.params, extra={"note": "x"})
    assert (tmp_path / "m.ckpt").read_bytes() == _reference_v1(cfg, model.params, {"note": "x"})


def _traced_peak(fn):
    """What ``fn()`` returned, or the library error it raised, and the most
    memory it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            outcome = fn()
        except PointdiffError as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_save_and_load_hold_the_model_plus_one_tensor(tmp_path):
    cfg = toy_config(latent_width=64, enc_blocks=2, dec_blocks=2)
    model = Model.create(cfg, seed=1)
    sizes = [p.data.size for p in model.params.values()]
    path = tmp_path / "m.ckpt"
    _, save_peak = _traced_peak(lambda: training.save_checkpoint(path, cfg, model.params))
    header = path.stat().st_size - 32 - 4 * sum(sizes)
    # the bound is below one copy of the whole payload
    assert save_peak <= 4 * max(sizes) + header + 64 * 1024 < 4 * sum(sizes)

    reloaded, load_peak = _traced_peak(lambda: training.load_model(path))
    assert load_peak <= 8 * sum(sizes) + 4 * max(sizes) + 64 * 1024
    for name, param in model.params.items():
        assert np.array_equal(reloaded.params[name].data,
                              param.data.astype(np.float32).astype(np.float64))


def test_unsigned_damage_to_the_version_reads_as_digest_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(path, toy_config(), Model.create(toy_config(), seed=1).params)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 999)  # the digest still signs version 1
    path.write_bytes(bytes(raw))
    for load in (training.load_checkpoint, training.load_model):
        with pytest.raises(CorruptCheckpoint, match="digest mismatch"):
            load(path)


def test_tensor_larger_than_the_file_is_rejected_before_allocation(tmp_path):
    body = _saved_body(tmp_path)
    (meta_len,) = struct.unpack_from("<I", body, 8)
    (name_len,) = struct.unpack_from("<I", body, 16 + meta_len)
    first_dim = 16 + meta_len + 4 + name_len + 4
    body[first_dim : first_dim + 4] = struct.pack("<I", 2**31)  # an 8+ GiB tensor
    path = tmp_path / "big.ckpt"
    path.write_bytes(_resign(body))
    for load in (training.load_checkpoint, training.load_model):
        err, peak = _traced_peak(lambda: load(path))
        assert isinstance(err, CorruptCheckpoint)
        assert peak < 1 << 20


def test_failed_save_leaves_no_tmp_file(tmp_path):
    cfg = toy_config()
    params = dict(Model.create(cfg, seed=1).params)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(path, cfg, params)
    saved = path.read_bytes()
    params["zz.unconvertible"] = np.array(["not a number"])  # written last, after the header
    with pytest.raises(ValueError):
        training.save_checkpoint(path, cfg, params)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
    assert path.read_bytes() == saved


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


def _dense_nearest(calls):
    def nearest(a, b):
        calls.append(len(a))
        d2 = np.sum((a[:, None] - b[None]) ** 2, axis=2)
        return d2.argmin(axis=1), d2.argmin(axis=0)
    return nearest


@pytest.mark.parametrize("bits", [64, 32])
def test_training_search_equals_dense_argmin_end_to_end(monkeypatch, bits):
    # the Chamfer loss's filtered search must leave both training phases
    # bitwise where a plain dense argmin search leaves them
    def train():
        with eg.precision(bits):
            cfg = toy_config(timesteps=5)
            data = tiny_dataset(3, 96)
            enc, enc_curve = training.pretrain_encoder(
                data, cfg, TrainConfig(epochs=3, batch_size=2))
            model, curve, _ = training.train_decoder(
                data, enc, TrainConfig(epochs=3, batch_size=2, seed=1),
                diffusion.build_schedule(cfg.timesteps))
        return enc_curve, curve, model.params

    enc_curve, curve, params = train()
    calls = []
    monkeypatch.setattr(training, "nearest_indices", _dense_nearest(calls))
    dense_enc_curve, dense_curve, dense_params = train()
    assert len(calls) == 2 * 3 * 3  # items x epochs, encoder and decoder
    assert enc_curve == dense_enc_curve and curve == dense_curve
    assert params.keys() == dense_params.keys()
    for name, p in params.items():
        assert p.data.dtype == np.dtype(f"float{bits}")
        assert np.array_equal(p.data, dense_params[name].data), name


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


def test_chamfer_loss_batch_is_item_mean(rng):
    targets = [rng.normal(size=(m, 3)) for m in (25, 9, 25, 40)]  # sizes may differ
    pred = rng.normal(size=(4, 20, 3))
    batch = training.chamfer_loss(Tensor(pred), targets).item()
    items = [training.chamfer_loss(Tensor(pred[b : b + 1]), targets[b : b + 1]).item()
             for b in range(4)]
    assert batch == pytest.approx(np.mean(items), rel=1e-14, abs=0.0)
    with pytest.raises(ShapeError):
        training.chamfer_loss(Tensor(pred), targets[:3])


def _step_losses(monkeypatch, train):
    """The loss of every optimizer step ``train()`` takes."""
    losses = []
    backward = eg.backward

    def recording(loss, params=None):
        losses.append(loss.item())
        return backward(loss, params)

    monkeypatch.setattr(eg, "backward", recording)
    train()
    monkeypatch.setattr(eg, "backward", backward)
    return losses


_VARIANTS = {
    "encoder": (dict(), None),
    "entire-object": (dict(), LossSetting.ENTIRE_OBJECT),
    "masked-only": (dict(), LossSetting.MASKED_ONLY),
    "config2-entire-object": (dict(predict_visible=True), LossSetting.ENTIRE_OBJECT),
    "config2-upsample-masked-only": (dict(predict_visible=True, upsample_factor=2),
                                     LossSetting.MASKED_ONLY),
    "upsample-entire-object": (dict(upsample_factor=2), LossSetting.ENTIRE_OBJECT),
}


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_batched_steps_equal_item_means(monkeypatch, variant):
    # five clouds of two sizes at batch 2: two full batches and a short last
    # one.  With lr=0 every step sees the same weights, so a batch's loss is
    # the mean of its items' losses at batch 1: the mask and timestep keys
    # depend on the item, not on the batch it lands in.
    overrides, setting = _VARIANTS[variant]
    cfg = toy_config(**overrides)
    data = tiny_dataset(3, 128) + tiny_dataset(2, 160)
    encoder = Model.create(cfg, seed=0)
    schedule = diffusion.build_schedule(cfg.timesteps)

    def losses(batch_size):
        tc = TrainConfig(epochs=1, batch_size=batch_size, lr=0.0, seed=4,
                         loss_setting=setting or LossSetting.ENTIRE_OBJECT)
        if setting is None:
            train = lambda: training.pretrain_encoder(data, cfg, tc)  # noqa: E731
        else:
            train = lambda: training.train_decoder(data, encoder, tc, schedule)  # noqa: E731
        return _step_losses(monkeypatch, train)

    items = losses(1)
    batches = losses(2)
    assert len(items) == 5 and len(batches) == 3
    for batch, group in zip(batches, (items[0:2], items[2:4], items[4:5])):
        assert batch == pytest.approx(np.mean(group), rel=1e-14, abs=0.0)


def _tape_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_decoder_step_tape_is_independent_of_batch_size(monkeypatch):
    # one batched graph per step: a per-item loop would grow the tape with B
    cfg = toy_config()
    encoder = Model.create(cfg, seed=0)
    schedule = diffusion.build_schedule(cfg.timesteps)
    sizes = {}
    backward = eg.backward
    for batch in (1, 8):
        def counting(loss, params=None, batch=batch):
            sizes.setdefault(batch, set()).add(_tape_size(loss))
            return backward(loss, params)

        monkeypatch.setattr(eg, "backward", counting)
        training.train_decoder(tiny_dataset(batch), encoder,
                               TrainConfig(epochs=1, batch_size=batch), schedule)
    assert len(sizes[1]) == 1 and sizes[1] == sizes[8]
