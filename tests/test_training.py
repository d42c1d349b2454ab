import hashlib
import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import grad_check, toy_config
from pointdiff import data_io, diffusion, engine as eg, tasks, training
from pointdiff.engine import Tensor
from pointdiff.errors import (
    CorruptCheckpoint,
    InvalidArgument,
    PointdiffError,
    ShapeError,
    UnsupportedVersion,
)
from pointdiff import model as model_module
from pointdiff.geometry import MaskStrategy, mask_count, segment
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
    err = grad_check(lambda t: training.chamfer_loss(t, targets), Tensor(point))
    assert err < 1e-5


@pytest.mark.parametrize("pred_shape, target_shapes", [
    ((1, 5, 3), [(0, 3)]),
    ((2, 5, 3), [(4, 3), (0, 3)]),
    ((1, 5, 3), [(4, 2)]),
    ((1, 5, 3), [(12,)]),
    ((1, 5, 3), [(1, 4, 3)]),
    ((1, 0, 3), [(4, 3)]),
    ((0, 5, 3), []),
    ((1, 3, 2), [(3, 2)]),
    ((5, 3), [(4, 3)] * 5),
])
def test_chamfer_loss_rejects_empty_or_misshapen_clouds(monkeypatch, pred_shape, target_shapes):
    def no_search(a, b):
        raise AssertionError("searched before the shapes were checked")

    monkeypatch.setattr(training, "nearest_indices", no_search)
    with pytest.raises(ShapeError, match="chamfer_loss"):
        training.chamfer_loss(Tensor(np.zeros(pred_shape)), [np.zeros(t) for t in target_shapes])


def test_chamfer_loss_zero_at_match(rng):
    pts = rng.normal(size=(8, 3))
    loss = training.chamfer_loss(Tensor(pts[None].copy()), [pts])
    assert loss.item() == 0.0


# the Chamfer loss against the composed graph it replaces: per-item dense
# searches, then the engine's sub, mul, sum_, mean and add, the backward
# term's rows gathered with a 2-D row scatter as their backward


def _row_gather(table, rows):
    """Rows of ``table`` (first axis); backward: ``np.add.at`` over rows."""
    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, rows, g)
        return [(table, full)]

    return eg._make(table.data[rows], (table,), bwd)


def _composed_chamfer(pred, targets):
    B, n, _ = pred.shape
    targets = [np.asarray(target, dtype=pred.data.dtype) for target in targets]
    matched, rows, weights = [], [], []
    for b, target in enumerate(targets):
        d2 = np.sum((pred.data[b][:, None] - target[None]) ** 2, axis=2)
        matched.append(target[d2.argmin(axis=1)])
        rows.append(d2.argmin(axis=0) + b * n)
        weights.append(np.full(len(target), 1.0 / (B * len(target))))
    diff_fwd = eg.sub(pred, Tensor(np.stack(matched)))
    term_fwd = eg.mean(eg.sum_(eg.mul(diff_fwd, diff_fwd), axis=-1))
    gathered = _row_gather(eg.reshape(pred, (B * n, 3)), np.concatenate(rows))
    diff_bwd = eg.sub(gathered, Tensor(np.concatenate(targets)))
    sq_bwd = eg.sum_(eg.mul(diff_bwd, diff_bwd), axis=1)
    term_bwd = eg.sum_(eg.mul(sq_bwd, Tensor(np.concatenate(weights))))
    return eg.add(term_fwd, term_bwd)


def _many_magnitudes(rng, sizes):
    """Targets spread over 16 decades around few predicted points: each
    predicted point is the nearest of many targets, whose terms a scatter
    that summed out of order would round differently."""
    return [rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 8, size=(m, 1)) for m in sizes]


_CHAMFER_CASES = {  # name: (B, n, target sizes or targets)
    "one-item": (1, 40, [33]),
    "equal-sizes": (4, 30, [30] * 4),
    "ragged": (4, 20, [25, 9, 25, 9]),  # two size groups, interleaved
    "repeated-rows-many-magnitudes": (2, 7, _many_magnitudes),
}


@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("case", list(_CHAMFER_CASES))
def test_chamfer_loss_equals_the_composed_graph(monkeypatch, rng, case, bits):
    B, n, sizes = _CHAMFER_CASES[case]
    targets = sizes(rng, [200] * B) if callable(sizes) else [rng.normal(size=(m, 3)) for m in sizes]
    point = rng.normal(size=(B, n, 3))
    calls = []
    nearest = training.nearest_indices

    def counting(a, b):
        calls.append(len(a))
        return nearest(a, b)

    monkeypatch.setattr(training, "nearest_indices", counting)
    results = []
    with eg.precision(bits):
        for loss_fn in (training.chamfer_loss, _composed_chamfer):
            pred = Tensor(point)
            loss = loss_fn(pred, targets)
            results.append((loss.data, eg.backward(loss, {"pred": pred})["pred"]))
    (loss, grad), (ref_loss, ref_grad) = results
    assert loss.dtype == grad.dtype == np.dtype(f"float{bits}")
    assert loss == ref_loss and np.array_equal(grad, ref_grad)
    # one batched search per target size
    assert sorted(calls) == sorted(np.unique(list(map(len, targets)), return_counts=True)[1])


def _interior_nodes(root):
    """Recorded operations reachable from ``root``."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_each_training_step_records_the_loss_as_one_tape_node(monkeypatch):
    steps = []
    backward = eg.backward

    def recording(loss, params):
        # the walk frees the graph, so it is read before backward runs
        (pred,) = loss._parents
        steps.append(len(_interior_nodes(loss)) == len(_interior_nodes(pred)) + 1)
        return backward(loss, params)

    monkeypatch.setattr(eg, "backward", recording)
    cfg = toy_config(timesteps=5)
    tc = TrainConfig(epochs=1, batch_size=2)
    enc, _ = training.pretrain_encoder(tiny_dataset(2, 96), cfg, tc)
    training.train_decoder(tiny_dataset(2, 96), enc, tc, diffusion.build_schedule(cfg.timesteps))
    assert steps == [True, True]  # one encoder step, one decoder step


@pytest.mark.parametrize("phase", ["encoder", "decoder"])
def test_a_training_step_holds_one_tape(monkeypatch, phase):
    # weak references to step k's tape values and gradients, taken around
    # its backward, are dead once step k + 1 computes its loss: the forward
    # pass of one step never runs beside the graph of the one before
    cfg = toy_config(timesteps=5)
    data = tiny_dataset(4, 96)
    tc = TrainConfig(epochs=2, batch_size=2)
    backward, chamfer = eg.backward, training.chamfer_loss
    previous, checked = [], []

    def all_dead():
        return all(ref() is None for ref in previous)

    def recording(loss, params):
        if previous:
            checked.append(all_dead())
        previous[:] = [weakref.ref(node.data) for node in _interior_nodes(loss)]
        grads = backward(loss, params)
        previous.extend(weakref.ref(g) for g in grads.values())
        return grads

    def loss_fn(pred, targets):
        if previous:
            checked.append(all_dead())
        return chamfer(pred, targets)

    monkeypatch.setattr(eg, "backward", recording)
    monkeypatch.setattr(training, "chamfer_loss", loss_fn)
    if phase == "encoder":
        training.pretrain_encoder(data, cfg, tc)
    else:
        training.train_decoder(data, Model.create(cfg, seed=0), tc,
                               diffusion.build_schedule(cfg.timesteps))
    # four steps: each of the last three checked at its loss and its backward
    assert len(previous) > 30 and checked == [True] * 6


@pytest.mark.parametrize("overrides, setting, bits", [
    pytest.param(dict(predict_visible=True), LossSetting.MASKED_ONLY, 64,
                 id="config2-masked-only"),
    pytest.param(dict(predict_visible=True), LossSetting.MASKED_ONLY, 32,
                 id="config2-masked-only-32"),
    pytest.param(dict(), LossSetting.ENTIRE_OBJECT, 32, id="entire-object-32"),
])
def test_training_with_the_composed_loss_is_bitwise(monkeypatch, overrides, setting, bits):
    # both phases, with the one-node loss and then with the composed graph
    def train():
        with eg.precision(bits):
            cfg = toy_config(timesteps=5, **overrides)
            data = tiny_dataset(3, 96)
            enc, enc_curve = training.pretrain_encoder(
                data, cfg, TrainConfig(epochs=2, batch_size=2))
            model, curve, _ = training.train_decoder(
                data, enc, TrainConfig(epochs=2, batch_size=2, seed=1, loss_setting=setting),
                diffusion.build_schedule(cfg.timesteps))
        return enc_curve + curve, model.params

    curve, params = train()
    monkeypatch.setattr(training, "chamfer_loss", _composed_chamfer)
    ref_curve, ref_params = train()
    assert curve == ref_curve
    for name, p in params.items():
        assert p.data.dtype == np.dtype(f"float{bits}")
        assert np.array_equal(p.data, ref_params[name].data), name


def test_train_config_validation():
    with pytest.raises(InvalidArgument):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidArgument):
        TrainConfig(checkpoint_every=-1)
    with pytest.raises(InvalidArgument, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    cfg = TrainConfig(loss_setting="masked_only")
    assert cfg.loss_setting is LossSetting.MASKED_ONLY
    # unknown names fail here, not later inside training as a bare ValueError
    with pytest.raises(InvalidArgument, match="mask strategy 'bogus'"):
        TrainConfig(mask_strategy="bogus")
    with pytest.raises(InvalidArgument, match="loss setting 'bogus'"):
        TrainConfig(loss_setting="bogus")
    assert TrainConfig(mask_strategy="BLOCK").mask_strategy is MaskStrategy.BLOCK


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -1.0), ("lr", 0.0), ("remask_every", -1),
])
def test_train_config_rejects_a_bad_rate_or_remask_interval(field, value):
    # a NaN rate trained to a NaN curve and returned, a negative one ran
    # gradient ascent, and remask_every=-1 failed at epoch 1 naming the seed
    with pytest.raises(InvalidArgument, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_checkpoint_round_trip(tmp_path):
    cfg = toy_config()
    model = Model.create(cfg, seed=1)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(path, cfg, model.params)
    # the payload is float32: at 32 bit the stored values come back exactly,
    # at 64 bit they are widened without rounding
    for bits, dtype in ((32, np.float32), (64, np.float64)):
        with eg.precision(bits):
            reloaded = training.load_model(path)
        assert reloaded.cfg == cfg
        assert list(reloaded.params) == list(model.params)
        for name, param in model.params.items():
            got = reloaded.params[name].data
            assert got.dtype == dtype
            assert np.array_equal(got, param.data.astype(np.float32).astype(dtype))


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
        training.load_model(bad)

    # truncate
    bad.write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(CorruptCheckpoint):
        training.load_model(bad)

    # wrong magic
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CorruptCheckpoint):
        training.load_model(bad)


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
        training.load_model(path)


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
    # configs whose tensors the file does hold, but which no model may have
    pytest.param(lambda m: m.update(enc_blocks=-4), id="negative-enc-blocks"),
    pytest.param(lambda m: m.update(dec_blocks=0), id="zero-dec-blocks"),
    pytest.param(lambda m: m.update(mask_ratio=0.999), id="mask-ratio-masking-all"),
    pytest.param(lambda m: m.update(mask_ratio=1.5), id="mask-ratio-above-one"),
    pytest.param(lambda m: m.update(mask_ratio=float("nan")), id="nan-mask-ratio"),
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
        training.load_model(path)


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
        training.load_model(path)


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
    try:
        training.load_model(path)
    except PointdiffError:
        pass


def test_load_tensors_shape_mismatch(tmp_path):
    cfg = toy_config()
    params = dict(Model.create(cfg, seed=0).params)
    params["enc.head.w"] = Tensor(np.zeros((2, 2)))
    path = tmp_path / "m.ckpt"
    path.write_bytes(_reference_v1(cfg, params, {}))
    with pytest.raises(CorruptCheckpoint) as exc:
        training.load_model(path)
    assert "enc.head.w" in str(exc.value)
    del params["enc.head.w"]
    path.write_bytes(_reference_v1(cfg, params, {}))
    with pytest.raises(CorruptCheckpoint, match="missing tensor 'enc.head.w'"):
        training.load_model(path)


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
        assert got.data.dtype == param.data.dtype
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
        training.save_checkpoint(tmp_path / "m.ckpt", cfg, model.params)
    assert (tmp_path / "m.ckpt").read_bytes() == _reference_v1(cfg, model.params, {})


def test_v1_file_with_extra_metadata_loads_bitwise(tmp_path):
    # files written before ``save_checkpoint`` lost its ``extra=`` argument
    # may carry a non-empty ``extra`` dict; the reader accepts and skips it
    cfg = toy_config()
    model = Model.create(cfg, seed=4)
    path = tmp_path / "m.ckpt"
    path.write_bytes(_reference_v1(cfg, model.params, {"note": "x"}))
    reloaded = training.load_model(path)
    assert reloaded.cfg == cfg
    for name, param in model.params.items():
        assert np.array_equal(reloaded.params[name].data,
                              param.data.astype(np.float32).astype(np.float64))


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
    with pytest.raises(CorruptCheckpoint, match="digest mismatch"):
        training.load_model(path)


def test_tensor_larger_than_the_file_is_rejected_before_allocation(tmp_path):
    body = _saved_body(tmp_path)
    (meta_len,) = struct.unpack_from("<I", body, 8)
    (name_len,) = struct.unpack_from("<I", body, 16 + meta_len)
    first_dim = 16 + meta_len + 4 + name_len + 4
    body[first_dim : first_dim + 4] = struct.pack("<I", 2**31)  # an 8+ GiB tensor
    path = tmp_path / "big.ckpt"
    path.write_bytes(_resign(body))
    err, peak = _traced_peak(lambda: training.load_model(path))
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
    # only the encoder was trained: every decoder tensor keeps its init
    init = Model.create(cfg, seed=tc.seed).params
    for name, p in model.params.items():
        if name.startswith("dec."):
            assert np.array_equal(p.data, init[name].data), name


def test_pretrain_encoder_deterministic():
    cfg = toy_config()
    tc = TrainConfig(epochs=3, batch_size=2, seed=5)
    _, c1 = training.pretrain_encoder(tiny_dataset(), cfg, tc)
    _, c2 = training.pretrain_encoder(tiny_dataset(), cfg, tc)
    assert c1 == c2


def test_the_32_bit_lane_trains_and_reloads_bitwise(tmp_path):
    # both phases twice under precision(32), then a checkpoint round trip:
    # the float32 payload holds 32-bit parameters exactly
    with eg.precision(32):
        cfg = toy_config(timesteps=5)
        data = tiny_dataset(3, 96)
        schedule = diffusion.build_schedule(cfg.timesteps)

        def train():
            enc, enc_curve = training.pretrain_encoder(
                data, cfg, TrainConfig(epochs=2, batch_size=2, seed=3))
            model, curve, _ = training.train_decoder(
                data, enc, TrainConfig(epochs=2, batch_size=2, seed=3), schedule)
            return model, enc_curve + curve

        (model, curve), (again, curve_again) = train(), train()
        assert curve == curve_again and all(np.isfinite(curve))
        for name, p in model.params.items():
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, again.params[name].data)
        training.save_checkpoint(tmp_path / "m.ckpt", cfg, model.params)
        loaded = training.load_model(tmp_path / "m.ckpt")
        out = tasks.reconstruct(data[0], model, schedule, seed=2).points
        reloaded = tasks.reconstruct(data[0], loaded, schedule, seed=2).points
    assert np.array_equal(reloaded, out)


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
    # encoder weights were copied over and never updated
    for name, p in enc.params.items():
        if name.startswith("enc."):
            assert np.array_equal(model.params[name].data, p.data), name


def test_only_the_trained_phase_records_the_encoder_forward(monkeypatch):
    # the pretraining forward feeds the encoder's gradients; the frozen
    # encoder's embedding and blocks in decoder training run under no_grad
    cfg = toy_config()
    data = tiny_dataset()
    tc = TrainConfig(epochs=1, batch_size=2, seed=0)
    recorded = {}
    for name in ("encode_patches", "embed_patches", "encode_tokens"):
        def wrapped(*args, _fn=getattr(training, name), _log=recorded.setdefault(name, []),
                    **kwargs):
            tokens = _fn(*args, **kwargs)
            _log.append(bool(tokens._parents))
            return tokens

        monkeypatch.setattr(training, name, wrapped)
    enc, _ = training.pretrain_encoder(data, cfg, tc)
    assert recorded == {"encode_patches": [True], "embed_patches": [], "encode_tokens": []}
    for log in recorded.values():
        log.clear()
    training.train_decoder(data, enc, tc, diffusion.build_schedule(cfg.timesteps))
    # one embedding per dataset item, one block pass per step
    assert recorded == {"encode_patches": [], "embed_patches": [False, False],
                        "encode_tokens": [False]}


def _per_step_encoder(monkeypatch, data, cfg):
    """Make ``train_decoder`` encode each step's visible patches of ``data``
    with ``encode_patches``, the reference its embedding table must equal.
    The block pass ignores the table's rows: it encodes the patches of the
    masks the step drew, item ``i`` drawing the mask keyed ``(seed, epoch
    key, i)``, from its own segmentation."""
    patchsets = [segment(c, cfg.num_groups, cfg.group_size) for c in data]
    drawn = []
    draw_mask = Model.draw_mask

    def recording(self, key, **kwargs):
        mask = draw_mask(self, key, **kwargs)
        drawn.append((patchsets[key[2]], mask.visible_indices))
        return mask

    def encode_visible(params, rows, cfg):
        assert len(drawn) == rows.shape[0]
        patches = np.stack([ps.patches[v] for ps, v in drawn])
        centers = np.stack([ps.centers[v] for ps, v in drawn])
        drawn.clear()
        return model_module.encode_patches(params, patches, centers, cfg)

    monkeypatch.setattr(Model, "draw_mask", recording)
    monkeypatch.setattr(training, "encode_tokens", encode_visible)


def _decoder_runs(monkeypatch, cfg, setting, bits=64):
    """``train_decoder``'s curve and parameters, then the per-step
    reference's, on three clouds at batch 2 over three epochs."""
    runs = []
    for reference in (False, True):
        with eg.precision(bits):
            data = tiny_dataset(3)
            if reference:
                _per_step_encoder(monkeypatch, data, cfg)
            enc = Model.create(cfg, seed=3)
            tc = TrainConfig(epochs=3, batch_size=2, lr=1e-3, seed=2, loss_setting=setting)
            model, curve, _ = training.train_decoder(
                data, enc, tc, diffusion.build_schedule(cfg.timesteps))
        runs.append((curve, model.params))
    return runs


@pytest.mark.parametrize("overrides, setting, bits", [
    pytest.param(dict(), LossSetting.ENTIRE_OBJECT, 64, id="config1-entire-object"),
    pytest.param(dict(), LossSetting.MASKED_ONLY, 64, id="config1-masked-only"),
    pytest.param(dict(), LossSetting.ENTIRE_OBJECT, 32, id="config1-entire-object-32"),
    pytest.param(dict(predict_visible=True, upsample_factor=2), LossSetting.ENTIRE_OBJECT, 64,
                 id="config2-upsample-entire-object"),
    pytest.param(dict(use_position_embedding=False), LossSetting.ENTIRE_OBJECT, 64,
                 id="no-position-embedding"),
])
def test_embedding_table_equals_per_step_encoding(monkeypatch, overrides, setting, bits):
    # at V=2 visible patches every product row is computed as in the
    # per-step encoder's, so the whole run is bitwise that reference's
    cfg = toy_config(**overrides)
    assert cfg.num_groups - mask_count(cfg.mask_ratio, cfg.num_groups) == 2
    (curve, params), (ref_curve, ref_params) = _decoder_runs(monkeypatch, cfg, setting, bits)
    assert curve == ref_curve
    for name, p in params.items():
        assert np.array_equal(p.data, ref_params[name].data), name


def test_embedding_table_with_one_visible_patch_is_within_rounding(monkeypatch):
    # a 1-row product takes another BLAS path than the table's G-row one,
    # so at V=1 the run may differ from the reference, by rounding only
    cfg = toy_config(mask_ratio=0.875)
    assert cfg.num_groups - mask_count(cfg.mask_ratio, cfg.num_groups) == 1
    (curve, params), (ref_curve, ref_params) = _decoder_runs(
        monkeypatch, cfg, LossSetting.ENTIRE_OBJECT)
    np.testing.assert_allclose(curve, ref_curve, rtol=1e-12, atol=0)
    for name, p in params.items():
        np.testing.assert_allclose(p.data, ref_params[name].data, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_train_decoder_embeds_each_item_once(monkeypatch):
    # three items at batch 2 over three epochs take six steps; the frozen
    # encoder's token embedding runs once per item, over all its G patches
    cfg = toy_config()
    shapes = []
    token_embed = model_module.token_embed

    def counting(params, patches, cfg):
        shapes.append(patches.shape)
        return token_embed(params, patches, cfg)

    monkeypatch.setattr(model_module, "token_embed", counting)
    steps = _step_losses(monkeypatch, lambda: training.train_decoder(
        tiny_dataset(3), Model.create(cfg, seed=0), TrainConfig(epochs=3, batch_size=2),
        diffusion.build_schedule(cfg.timesteps)))
    assert len(steps) == 6
    assert shapes == [(1, cfg.num_groups, cfg.group_size, 3)] * 3


def _dense_nearest(calls):
    """A stand-in for ``nearest_indices`` on (B, n, 3) and (B, m, 3)
    batches: the dense argmin both ways, recording each call's batch size."""
    def nearest(a, b):
        calls.append(len(a))
        d2 = np.sum((a[:, :, None] - b[:, None]) ** 2, axis=3)
        return d2.argmin(axis=2), d2.argmin(axis=1)
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
    # one search per step, over the whole batch: batches of 2 and 1 items,
    # 3 epochs, encoder and decoder
    assert calls == [2, 1] * 3 * 2
    assert enc_curve == dense_enc_curve and curve == dense_curve
    assert params.keys() == dense_params.keys()
    for name, p in params.items():
        assert p.data.dtype == np.dtype(f"float{bits}")
        assert np.array_equal(p.data, dense_params[name].data), name


@pytest.mark.parametrize("phase", ["encoder", "decoder"])
def test_an_empty_dataset_is_refused_before_any_model_is_built(monkeypatch, phase):
    # an empty dataset would give the loss curve [nan, ...] and a checkpoint
    # of initial weights
    cfg = toy_config()
    encoder = Model.create(cfg, seed=0)
    created = []
    create = Model.create

    def recording(*args, **kwargs):
        created.append(args)
        return create(*args, **kwargs)

    monkeypatch.setattr(Model, "create", recording)
    with pytest.raises(InvalidArgument, match="no clouds"):
        if phase == "encoder":
            training.pretrain_encoder([], cfg, TrainConfig(epochs=2))
        else:
            training.train_decoder(iter([]), encoder, TrainConfig(epochs=2),
                                   diffusion.build_schedule(cfg.timesteps))
    assert created == []


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

    def recording(loss, params):
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
    # one.  With Adam's update left out every step sees the same weights, so
    # a batch's loss is the mean of its items' losses at batch 1: the mask
    # and timestep keys depend on the item, not on the batch it lands in.
    overrides, setting = _VARIANTS[variant]
    cfg = toy_config(**overrides)
    data = tiny_dataset(3, 128) + tiny_dataset(2, 160)
    encoder = Model.create(cfg, seed=0)
    schedule = diffusion.build_schedule(cfg.timesteps)
    monkeypatch.setattr(eg, "adam_step", lambda params, grads, state, lr: None)

    def losses(batch_size):
        tc = TrainConfig(epochs=1, batch_size=batch_size, seed=4,
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
        def counting(loss, params, batch=batch):
            sizes.setdefault(batch, set()).add(_tape_size(loss))
            return backward(loss, params)

        monkeypatch.setattr(eg, "backward", counting)
        training.train_decoder(tiny_dataset(batch), encoder,
                               TrainConfig(epochs=1, batch_size=batch), schedule)
    assert len(sizes[1]) == 1 and sizes[1] == sizes[8]
