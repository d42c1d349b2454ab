import contextlib
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_config
from pointdiff import cli, data_io, diffusion, engine as eg, tasks
from pointdiff.errors import CorruptBlob, InvalidArgument
from pointdiff.geometry import PointCloud, apply_mask, mask_count, segment
from pointdiff.model import Model, predicted_indices


def make_model(**overrides):
    cfg = toy_config(timesteps=4, **overrides)
    return Model.create(cfg, seed=0), diffusion.build_schedule(cfg.timesteps)


def test_reconstruct_arity_and_determinism(sphere_cloud):
    model, schedule = make_model()
    out1 = tasks.reconstruct(sphere_cloud, model, schedule, seed=2)
    out2 = tasks.reconstruct(sphere_cloud, model, schedule, seed=2)
    assert len(out1) == model.cfg.num_groups * model.cfg.group_size
    assert np.array_equal(out1.points, out2.points)
    out3 = tasks.reconstruct(sphere_cloud, model, schedule, seed=3)
    assert not np.array_equal(out1.points, out3.points)


def test_reconstruct_preserves_visible_patches(sphere_cloud):
    model, schedule = make_model()
    cfg = model.cfg
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(2, centers=ps.centers)
    out = tasks.reconstruct(sphere_cloud, model, schedule, seed=2)
    # visible blocks appear verbatim at their patch positions
    offset = 0
    for i in range(cfg.num_groups):
        block = out.points[offset : offset + cfg.group_size]
        if not mask.indicator[i]:
            assert np.array_equal(block, ps.absolute([i]).reshape(-1, 3))
        offset += cfg.group_size


@pytest.mark.parametrize("strategy", ["random", "block"])
@pytest.mark.parametrize("predict_visible", [False, True], ids=["config1", "config2"])
def test_reconstruct_frames_are_the_cloud(sphere_cloud, predict_visible, strategy):
    model, schedule = make_model(predict_visible=predict_visible)
    plain = tasks.reconstruct(sphere_cloud, model, schedule, seed=2, mask_strategy=strategy)
    frames = []
    out = tasks.reconstruct(sphere_cloud, model, schedule, seed=2, mask_strategy=strategy,
                            on_step=lambda t, cloud: frames.append((t, cloud)))
    assert np.array_equal(out.points, plain.points)
    assert [t for t, _ in frames] == list(range(schedule.T - 1, -1, -1))
    assert all(len(cloud) == len(out) for _, cloud in frames)
    assert np.array_equal(frames[-1][1].points, out.points)
    assert not np.array_equal(frames[0][1].points, out.points)


@pytest.mark.parametrize("offset", [-1, 1])
def test_schedule_of_another_length_is_rejected_before_decoding(sphere_cloud, monkeypatch,
                                                                offset):
    model, _ = make_model()
    schedule = diffusion.build_schedule(model.cfg.timesteps + offset)

    def no_decode(*args):
        raise AssertionError("decoded with a mismatched schedule")

    monkeypatch.setattr(model, "decode", no_decode)
    with pytest.raises(InvalidArgument, match=f"T={schedule.T} but model expects"):
        tasks.reconstruct(sphere_cloud, model, schedule)


def test_complete_arity(sphere_cloud):
    model, schedule = make_model()
    cfg = model.cfg
    m = mask_count(cfg.mask_ratio, cfg.num_groups)
    v = cfg.num_groups - m
    partial = data_io.resample(sphere_cloud, v * cfg.group_size)
    centers = np.zeros((m, 3))
    out = tasks.complete(partial, model, schedule, masked_centers=centers)
    assert len(out) == v * cfg.group_size + m * cfg.patch_points


def test_complete_validates_input(sphere_cloud):
    model, schedule = make_model()
    with pytest.raises(InvalidArgument):
        tasks.complete(sphere_cloud, model, schedule, masked_centers=np.zeros((6, 3)))
    cfg = model.cfg
    m = mask_count(cfg.mask_ratio, cfg.num_groups)
    v = cfg.num_groups - m
    partial = data_io.resample(sphere_cloud, v * cfg.group_size)
    # position embeddings are on, so masked centers are required
    with pytest.raises(InvalidArgument):
        tasks.complete(partial, model, schedule)
    with pytest.raises(InvalidArgument):
        tasks.complete(partial, model, schedule, masked_centers=np.zeros((m + 1, 3)))


def test_complete_without_position_embedding(sphere_cloud):
    model, schedule = make_model(use_position_embedding=False)
    cfg = model.cfg
    m = mask_count(cfg.mask_ratio, cfg.num_groups)
    v = cfg.num_groups - m
    partial = data_io.resample(sphere_cloud, v * cfg.group_size)
    out = tasks.complete(partial, model, schedule)
    assert len(out) == v * cfg.group_size + m * cfg.patch_points


def test_upsample_arity(sphere_cloud):
    model, schedule = make_model(predict_visible=True, upsample_factor=4)
    cfg = model.cfg
    out = tasks.upsample(sphere_cloud, model, schedule, visible_fraction=0.4)
    assert len(out) == cfg.num_groups * cfg.group_size * 4


def test_config2_rows_fill_visible_then_masked_patches(sphere_cloud, monkeypatch):
    model, schedule = make_model(predict_visible=True, upsample_factor=2)
    cfg = model.cfg
    # prediction row r is filled with the value r
    rows = np.broadcast_to(np.arange(cfg.num_groups, dtype=float)[:, None, None],
                           (cfg.num_groups, cfg.patch_points, 3))
    monkeypatch.setattr(tasks, "sample_patches", lambda *args, **kwargs: rows)
    out = tasks.upsample(sphere_cloud, model, schedule, seed=3, visible_fraction=0.4)
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = apply_mask(cfg.num_groups, 0.6, "random", 3, centers=ps.centers)
    blocks = out.points.reshape(cfg.num_groups, cfg.patch_points, 3) - ps.centers[:, None]
    order = np.concatenate([mask.visible_indices, mask.masked_indices])
    assert np.allclose(blocks[order], rows, atol=1e-12)


def _in_patch_order(centers, visible, vis_idx, rows, msk_idx):
    """Patch i's block plus center i, in patch-index order: the visible
    blocks at ``vis_idx`` and prediction row r at ``msk_idx[r]``."""
    blocks = dict(zip(vis_idx.tolist(), visible)) | dict(zip(msk_idx.tolist(), rows))
    return np.concatenate([blocks[i] + centers[i] for i in range(len(centers))])


def test_config1_mixed_block_sizes_land_at_their_patches(sphere_cloud, monkeypatch):
    # upsample_factor 2 on a Config 1 model: visible blocks of group_size
    # points, predicted ones of twice that; prediction row r is r + 0.25
    model, schedule = make_model(upsample_factor=2)
    cfg = model.cfg
    m = mask_count(cfg.mask_ratio, cfg.num_groups)
    rows = np.arange(m)[:, None, None] + np.full((m, cfg.patch_points, 3), 0.25)
    monkeypatch.setattr(tasks, "sample_patches", lambda *args, **kwargs: rows)

    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(2, centers=ps.centers)
    vis, msk = mask.visible_indices, mask.masked_indices
    out = tasks.reconstruct(sphere_cloud, model, schedule, seed=2)
    assert np.array_equal(out.points, _in_patch_order(ps.centers, ps.patches[vis], vis, rows, msk))

    raw = tasks.compress(sphere_cloud, cfg, mask_seed=1)
    blob = tasks.parse_blob(raw)
    vis, msk = np.flatnonzero(~blob.indicator), np.flatnonzero(blob.indicator)
    visible = blob.visible_points.reshape(-1, cfg.group_size, 3) - blob.centers[vis][:, None]
    out = tasks.decompress(raw, model, schedule, seed=1)
    assert np.array_equal(out.points, _in_patch_order(blob.centers, visible, vis, rows, msk))

    partial = PointCloud(ps.absolute(vis).reshape(-1, 3))
    part = segment(partial, vis.size, cfg.group_size)
    centers = np.concatenate([part.centers, ps.centers[msk]])
    out = tasks.complete(partial, model, schedule, masked_centers=ps.centers[msk])
    assert np.array_equal(out.points, _in_patch_order(centers, part.patches, np.arange(vis.size),
                                                      rows, vis.size + np.arange(m)))


def _tokens_as_rows(model, latent, schedule, seed=0, on_step=None):
    """A sampler stub whose prediction rows are the encoder's tokens, cycled:
    every row depends on the visible blocks and centers that were encoded."""
    (mask,) = latent.masks
    shape = (predicted_indices(model.cfg, mask).size, model.cfg.patch_points, 3)
    return np.resize(latent.tokens.data, shape)


@pytest.mark.parametrize("strategy", ["random", "block"])
@pytest.mark.parametrize("predict_visible", [False, True], ids=["config1", "config2"])
def test_reconstruct_and_upsample_equal_the_segment_path(monkeypatch, predict_visible, strategy):
    # the tasks group only the visible patches; the reference groups every
    # patch with segment and keeps the visible ones
    monkeypatch.setattr(tasks, "sample_patches", _tokens_as_rows)
    model, schedule = make_model(num_groups=64, group_size=32, predict_visible=predict_visible,
                                 upsample_factor=2)
    cfg = model.cfg
    cloud = data_io.synth_shape("torus", 2048, seed=7)

    def via_segment(ratio, strategy):
        ps = segment(cloud, cfg.num_groups, cfg.group_size)
        mask = apply_mask(cfg.num_groups, ratio, strategy, 5, centers=ps.centers)
        return tasks._generate(model, ps.centers, ps.patches[mask.visible_indices], mask,
                               schedule, 5).points

    out = tasks.reconstruct(cloud, model, schedule, seed=5, mask_strategy=strategy)
    assert np.array_equal(out.points, via_segment(cfg.mask_ratio, strategy))
    if predict_visible and strategy == "random":
        out = tasks.upsample(cloud, model, schedule, seed=5, visible_fraction=0.4)
        assert np.array_equal(out.points, via_segment(1.0 - 0.4, "random"))


@pytest.mark.parametrize("task", ["compress", "reconstruct", "upsample", "cli-compress"])
def test_cloud_smaller_than_g_keeps_segments_error(tmp_path, capsys, task):
    model, schedule = make_model(predict_visible=True)
    cloud = data_io.synth_shape("sphere", model.cfg.num_groups - 1, seed=1)
    calls = {"compress": lambda: tasks.compress(cloud, model.cfg),
             "reconstruct": lambda: tasks.reconstruct(cloud, model, schedule),
             "upsample": lambda: tasks.upsample(cloud, model, schedule)}
    if task in calls:
        with pytest.raises(InvalidArgument, match=r"^segment: G=8 exceeds cloud size 7$"):
            calls[task]()
        return
    # the CLI's default model has G = 64
    path = tmp_path / "small.ply"
    data_io.save_cloud(data_io.synth_shape("sphere", 63, seed=1), path)
    assert cli.main(["compress", "--in", str(path)]) == 1
    assert capsys.readouterr().err == "error: segment: G=64 exceeds cloud size 63\n"


@pytest.mark.parametrize("entry", ["compress", "reconstruct", "complete", "upsample",
                                   "decompress", "model-create"])
def test_negative_seed_is_invalid_argument(sphere_cloud, entry):
    # numpy's default_rng would raise a bare ValueError
    model, schedule = make_model(predict_visible=True)
    cfg = model.cfg
    m = mask_count(cfg.mask_ratio, cfg.num_groups)
    partial = data_io.resample(sphere_cloud, (cfg.num_groups - m) * cfg.group_size)
    raw = tasks.compress(sphere_cloud, cfg)
    calls = {
        "compress": lambda: tasks.compress(sphere_cloud, cfg, mask_seed=-1),
        "reconstruct": lambda: tasks.reconstruct(sphere_cloud, model, schedule, seed=-1),
        "complete": lambda: tasks.complete(partial, model, schedule, seed=-1,
                                           masked_centers=np.zeros((m, 3))),
        "upsample": lambda: tasks.upsample(sphere_cloud, model, schedule, seed=-1),
        "decompress": lambda: tasks.decompress(raw, model, schedule, seed=-1),
        "model-create": lambda: Model.create(cfg, seed=-1),
    }
    with pytest.raises(InvalidArgument, match=r"^seed must be >= 0, got -1$"):
        calls[entry]()


def test_upsample_requires_config2(sphere_cloud):
    model, schedule = make_model()
    with pytest.raises(InvalidArgument):
        tasks.upsample(sphere_cloud, model, schedule)


@pytest.mark.parametrize("fraction", [0.01, 0.99])
def test_upsample_names_a_visible_fraction_that_leaves_an_empty_side(sphere_cloud, fraction):
    # at G=8, 0.01 leaves no visible patch and 0.99 no masked one; the error
    # names the argument the caller gave, not the mask ratio derived from it
    model, schedule = make_model(predict_visible=True, upsample_factor=2)
    with pytest.raises(InvalidArgument,
                       match=rf"^visible_fraction={fraction} must leave .* of G=8$"):
        tasks.upsample(sphere_cloud, model, schedule, visible_fraction=fraction)


# ---------------------------------------------------------------------------
# codec


@pytest.mark.parametrize("q", [8, 10, 12, 16])
def test_codec_round_trip_error_bound(q, sphere_cloud):
    cfg = toy_config()
    blob = tasks.compress(sphere_cloud, cfg, mask_seed=1, quant_bits=q)
    parsed = tasks.parse_blob(blob)
    assert parsed.quant_bits == q
    assert parsed.num_groups == cfg.num_groups
    assert parsed.group_size == cfg.group_size

    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = apply_mask(cfg.num_groups, cfg.mask_ratio, "random", 1, centers=ps.centers)
    assert np.array_equal(parsed.indicator, mask.indicator)

    vis_points = ps.absolute(mask.visible_indices).reshape(-1, 3)
    coords = np.concatenate([vis_points, ps.centers])
    extent = coords.max(axis=0) - coords.min(axis=0)
    bound = extent / 2 ** (q + 1)
    assert np.all(np.abs(parsed.visible_points - vis_points) <= bound + 1e-15)
    assert np.all(np.abs(parsed.centers - ps.centers) <= bound + 1e-15)


def test_compress_deterministic(sphere_cloud):
    cfg = toy_config()
    a = tasks.compress(sphere_cloud, cfg, mask_seed=1, quant_bits=10)
    b = tasks.compress(sphere_cloud, cfg, mask_seed=1, quant_bits=10)
    assert a == b


def test_blob_size_closed_form(sphere_cloud):
    # the blob length is exactly header + packed payload + digest: no room
    # for latent tokens or anything else
    cfg = toy_config()
    for q in (8, 10, 16):
        blob = tasks.compress(sphere_cloud, cfg, mask_seed=1, quant_bits=q)
        G, gs = cfg.num_groups, cfg.group_size
        n_vis = (G - mask_count(cfg.mask_ratio, G)) * gs
        header = 4 + 10 + 48 + (G + 7) // 8
        payload_bits = (n_vis + G) * 3 * q
        expected = header + (payload_bits + 7) // 8 + 16
        assert len(blob) == expected


def test_bpp_is_independent_byte_count(sphere_cloud):
    cfg = toy_config()
    blob = tasks.compress(sphere_cloud, cfg, mask_seed=1, quant_bits=10)
    assert tasks.bpp(blob, len(sphere_cloud)) == 8.0 * len(blob) / len(sphere_cloud)
    with pytest.raises(InvalidArgument):
        tasks.bpp(blob, 0)


def test_quant_bits_range(sphere_cloud):
    cfg = toy_config()
    for q in (5, 17):
        with pytest.raises(InvalidArgument):
            tasks.compress(sphere_cloud, cfg, quant_bits=q)


def test_parse_blob_rejects_corruption(sphere_cloud):
    cfg = toy_config()
    blob = bytearray(tasks.compress(sphere_cloud, cfg, mask_seed=1))
    with pytest.raises(CorruptBlob):
        tasks.parse_blob(b"JUNK" + bytes(blob[4:]))
    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0x01
    with pytest.raises(CorruptBlob):
        tasks.parse_blob(bytes(flipped))
    with pytest.raises(CorruptBlob):
        tasks.parse_blob(bytes(blob[:20]))


def _compress_via_segment(cloud, cfg, mask_seed, quant_bits, mask_strategy):
    """``compress`` built on segment: every patch grouped, the masked ones
    then dropped, and the blob written field by field."""
    ps = segment(cloud, cfg.num_groups, cfg.group_size)
    mask = apply_mask(cfg.num_groups, cfg.mask_ratio, mask_strategy, mask_seed,
                      centers=ps.centers)
    coords = np.concatenate([ps.absolute(mask.visible_indices).reshape(-1, 3), ps.centers])
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    body = (b"DPC1" + struct.pack("<BIIB", 1, cfg.num_groups, cfg.group_size, quant_bits)
            + struct.pack("<6d", *lo, *hi) + np.packbits(mask.indicator).tobytes()
            + tasks._pack(tasks._quantize(coords, lo, hi - lo, quant_bits), quant_bits))
    return body + hashlib.sha256(body).digest()[:16]


@pytest.mark.parametrize("strategy", ["random", "block"])
@pytest.mark.parametrize("q", [10, 12])
@pytest.mark.parametrize("kind, n, groups, group_size", [
    ("two-spheres", 2048, 64, 32), ("cube", 8192, 256, 128),
    ("torus", 512, 512, 16), ("sphere", 64, 64, 64),  # G = N; the last with group_size = N
])
def test_compress_equals_the_segment_path(kind, n, groups, group_size, q, strategy):
    cloud = data_io.synth_shape(kind, n, seed=q)
    cfg = toy_config(num_groups=groups, group_size=group_size)
    blob = tasks.compress(cloud, cfg, mask_seed=q, quant_bits=q, mask_strategy=strategy)
    assert blob == _compress_via_segment(cloud, cfg, q, q, strategy)


def test_blob_golden_digest(sphere_cloud):
    # pins the wire format: header layout, MSB-first packing, zero padding
    blob = tasks.compress(sphere_cloud, toy_config(), mask_seed=1, quant_bits=10)
    assert len(blob) == 229
    assert hashlib.sha256(blob).hexdigest() == (
        "da5b0168d3721c73de5e636335ce7521b8fdb00c5181e8036e597e5abfe47e82"
    )


@settings(max_examples=60, deadline=None)
@given(q=st.integers(6, 16), n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_pack_matches_bit_string_reference(q, n, seed):
    # reference: each index as a q-digit binary string, concatenated,
    # zero-padded to whole bytes
    idx = np.random.default_rng(seed).integers(0, 1 << q, size=(n, 3))
    bits = "".join(format(int(v), f"0{q}b") for v in idx.ravel())
    bits += "0" * (-len(bits) % 8)
    ref = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    assert tasks._pack(idx, q) == ref
    assert np.array_equal(tasks._unpack(ref, n, q), idx)


def _resigned(body):
    return body + hashlib.sha256(body).digest()[:16]


# header offsets: version 4, num_groups 5, group_size 9, quant_bits 13,
# bbox 14, mask 62 (one byte at G=8), payload 63
@pytest.mark.parametrize("forge", [
    lambda body: body[:9] + struct.pack("<I", toy_config().group_size + 1) + body[13:],
    lambda body: body[:62],
    lambda body: body[:63],
    lambda body: body + b"\0",
    lambda body: body[:13] + bytes([5]) + body[14:],
    lambda body: body[:13] + bytes([17]) + body[14:],
], ids=["group_size+1", "truncated_before_mask", "truncated_after_header",
        "trailing_byte", "quant_bits_5", "quant_bits_17"])
def test_parse_blob_rejects_resigned_forgeries(sphere_cloud, forge):
    blob = tasks.compress(sphere_cloud, toy_config(), mask_seed=1, quant_bits=10)
    forged = _resigned(forge(blob[:-16]))
    with pytest.raises(CorruptBlob):
        tasks.parse_blob(forged)


def test_decompress_round_trip(sphere_cloud):
    model, schedule = make_model()
    cfg = model.cfg
    blob = tasks.compress(sphere_cloud, cfg, mask_seed=1, quant_bits=12)
    out = tasks.decompress(blob, model, schedule, seed=1)
    assert len(out) == cfg.num_groups * cfg.group_size
    # the transmitted visible blocks appear verbatim at their patch slots
    parsed = tasks.parse_blob(blob)
    vis_blocks = parsed.visible_points.reshape(-1, cfg.group_size, 3)
    row = 0
    for i in range(cfg.num_groups):
        block = out.points[i * cfg.group_size : (i + 1) * cfg.group_size]
        if not parsed.indicator[i]:
            assert np.allclose(block, vis_blocks[row], atol=1e-12)
            row += 1


def test_decompress_validates_geometry(sphere_cloud):
    model, schedule = make_model()
    other_cfg = toy_config(num_groups=4, group_size=32)
    blob = tasks.compress(sphere_cloud, other_cfg, mask_seed=1)
    with pytest.raises(InvalidArgument):
        tasks.decompress(blob, model, schedule)


def test_decompress_validates_mask_count(sphere_cloud):
    # same G and group size, different mask ratio: count check must fire
    model, schedule = make_model(mask_ratio=0.5)
    blob = tasks.compress(sphere_cloud, toy_config(), mask_seed=1)  # ratio 0.75
    with pytest.raises(InvalidArgument):
        tasks.decompress(blob, model, schedule)


def test_no_grad_decode_output_has_no_parents(sphere_cloud, rng):
    model, _ = make_model()
    cfg = model.cfg
    ps = segment(sphere_cloud, cfg.num_groups, cfg.group_size)
    mask = model.draw_mask(1, centers=ps.centers)
    x_t = rng.normal(size=(1, mask.masked_indices.size * cfg.patch_points, 3))
    visible = ps.patches[mask.visible_indices]
    assert model.decode(model.encode(ps.centers, visible, mask), x_t, [1])._parents
    with eg.no_grad():
        pred = model.decode(model.encode(ps.centers, visible, mask), x_t, [1])
    assert pred._parents == ()


def test_reconstruct_bitwise_equal_without_no_grad(sphere_cloud, monkeypatch):
    model, schedule = make_model()
    tape_free = tasks.reconstruct(sphere_cloud, model, schedule, seed=2)
    monkeypatch.setattr(eg, "no_grad", contextlib.nullcontext)
    recorded = []
    decode = model.decode

    def recording_decode(*args):
        recorded.append(decode(*args))
        return recorded[-1]

    monkeypatch.setattr(model, "decode", recording_decode)
    taped = tasks.reconstruct(sphere_cloud, model, schedule, seed=2)
    assert recorded and all(out._parents for out in recorded)
    assert np.array_equal(tape_free.points, taped.points)
