"""The three workloads, each a (setup, pass, metrics) triple in WORKLOADS.

``setup`` builds the inputs from the workload seed.  ``pass`` makes one
closed-loop pass over them: it times every operation, checks every output,
and returns the arrays that go into the output digest.  ``metrics`` turns the
recorded samples into the end-to-end values and the workload's named rows.

Sizes: ``full`` is what the benchmark measures; ``tiny`` exists only for the
smoke test and exercises the same calls on inputs a hundred times smaller.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from pointdiff import data_io, diffusion, engine, geometry, metrics, tasks, training
from pointdiff.geometry import PointCloud
from pointdiff.model import Model, ModelConfig
from pointdiff.training import TrainConfig

import checks
from spans import clock, replaced

KINDS = ("sphere", "cube", "torus", "cylinder")


class Recorder:
    """Per-run timings, counters and failures, shared by every pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = {}
        self.attempted = 0
        self.failures = []

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def total(self, name):
        return float(np.sum(self.samples[name]))

    def check(self, what, problems):
        """Count one operation; any problem string makes it a failure."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def _seed(seed, *parts):
    """An integer seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, *parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# train-acceptance: the loop acceptance criteria 6, 7 and 11 run


TRAIN_SIZES = {
    "full": dict(
        cfg=ModelConfig(latent_width=64, enc_blocks=4, enc_heads=2, dec_blocks=1,
                        dec_heads=2, num_groups=16, group_size=32, timesteps=50),
        points=512, enc_epochs=25, dec_epochs=40),
    "tiny": dict(
        cfg=ModelConfig(latent_width=16, enc_blocks=1, enc_heads=2, dec_blocks=1,
                        dec_heads=2, num_groups=8, group_size=16, timesteps=10),
        points=128, enc_epochs=2, dec_epochs=3),
}


def train_setup(size, seed, workdir):
    p = TRAIN_SIZES[size]
    clouds = [data_io.synth_shape(kind, p["points"], seed=_seed(seed, 0, k, copy))
              for k, kind in enumerate(KINDS) for copy in range(2)]
    return dict(
        p, clouds=clouds,
        enc_tc=TrainConfig(epochs=p["enc_epochs"], batch_size=8, lr=1e-3, seed=seed),
        dec_tc=TrainConfig(epochs=p["dec_epochs"], batch_size=8, lr=5e-4, seed=seed),
        schedule=diffusion.build_schedule(p["cfg"].timesteps),
    )


def train_pass(state, rec):
    clouds = state["clouds"]
    steps = -(-len(clouds) // 8)  # optimizer steps per epoch at batch 8
    t0 = clock()
    encoder, enc_curve = training.pretrain_encoder(clouds, state["cfg"], state["enc_tc"])
    t1 = clock()
    # a decoder step is the time between consecutive Adam updates
    stamps = []

    def step_clock(adam_step):
        def timed(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            stamps.append(clock())
            return out
        return timed

    with replaced(engine, "adam_step", step_clock):
        model, dec_curve, _ = training.train_decoder(
            clouds, encoder, state["dec_tc"], state["schedule"])
    t2 = clock()

    rec.add("enc_s", t1 - t0)
    rec.add("enc_items", len(clouds) * steps * len(enc_curve))
    rec.add("dec_s", t2 - t1)
    rec.add("dec_items", len(clouds) * steps * len(dec_curve))
    for a, b in zip(stamps, stamps[1:]):
        rec.add("dec_step_s", b - a)
    rec.add("pass_s", t2 - t0)
    for phase, curve in (("encoder", enc_curve), ("decoder", dec_curve)):
        for epoch, loss in enumerate(curve):
            rec.check(f"{phase} epoch {epoch}",
                      [] if np.isfinite(loss) else [f"loss {loss}"])
    params = [model.params[name].data for name in sorted(model.params)]
    return [np.array(enc_curve), np.array(dec_curve), *params]


def train_metrics(rec):
    """End-to-end values plus (name, value, unit, samples) rows."""
    s = rec.samples
    dec_rate = rec.total("dec_items") / rec.total("dec_s")
    steps = s["dec_step_s"]
    return dict(
        items_per_s=dec_rate, op_s=steps, pass_s=s["pass_s"],
        named=[
            ("train.enc_items_per_s", rec.total("enc_items") / rec.total("enc_s"),
             "clouds*steps/s", len(s["enc_s"])),
            ("train.dec_items_per_s", dec_rate, "clouds*steps/s", len(s["dec_s"])),
            ("train.dec_step_s.p50", float(np.median(steps)), "s", len(steps)),
            ("train.dec_step_s.p90", float(np.percentile(steps, 90)), "s", len(steps)),
        ],
    )


# ---------------------------------------------------------------------------
# infer-paper: the four tasks at the paper-default model size


INFER_SIZES = {
    "full": dict(cfg=ModelConfig(), points=2048),
    "tiny": dict(cfg=ModelConfig(latent_width=16, enc_blocks=1, enc_heads=2,
                                 dec_blocks=1, dec_heads=2, num_groups=8,
                                 group_size=16, timesteps=5),
                 points=128),
}


def infer_setup(size, seed, workdir):
    p = INFER_SIZES[size]
    cfg1 = p["cfg"]
    cfg2 = replace(cfg1, predict_visible=True, upsample_factor=2)
    models = []
    for k, cfg in enumerate((cfg1, cfg2)):
        path = os.path.join(workdir, f"config{k + 1}.ckpt")
        init = Model.create(cfg, seed=_seed(seed, 1, k))
        training.save_checkpoint(path, cfg, init.params)
        del init
        models.append(training.load_model(path))
    clouds = [data_io.synth_shape(kind, p["points"], seed=_seed(seed, 2, k))
              for k, kind in enumerate(KINDS)]

    # completion input: the visible patches of a segmented cloud plus the
    # masked centers as side information
    n_masked = geometry.mask_count(cfg1.mask_ratio, cfg1.num_groups)
    ps = geometry.segment(clouds[1], cfg1.num_groups, cfg1.group_size)
    mask = geometry.apply_mask(cfg1.num_groups, cfg1.mask_ratio, "random",
                               _seed(seed, 3))
    partial = PointCloud(ps.absolute(mask.visible_indices).reshape(-1, 3))
    return dict(cfg1=cfg1, cfg2=cfg2, models=models, clouds=clouds, seed=seed,
                partial=partial, masked_centers=ps.centers[mask.masked_indices],
                n_masked=n_masked,
                schedule=diffusion.build_schedule(cfg1.timesteps))


def infer_pass(state, rec):
    cfg1, cfg2 = state["cfg1"], state["cfg2"]
    model1, model2 = state["models"]
    clouds, schedule = state["clouds"], state["schedule"]
    G, gs = cfg1.num_groups, cfg1.group_size
    seed = _seed(state["seed"], 4)
    n_vis = G - state["n_masked"]
    outputs = []
    pass_start = clock()

    def timed(what, fn):
        with rec.tracer.request(what):
            t0 = clock()
            out = fn()
            rec.add("cloud_s", clock() - t0)
        return out

    recon = timed("reconstruct",
                  lambda: tasks.reconstruct(clouds[0], model1, schedule, seed=seed))
    with rec.tracer.paused():
        mask = model1.draw_mask(seed)
        centers, rel = checks.reference_segment(clouds[0].points, G, gs)
        vis = mask.visible_indices
        rec.check("reconstruct", checks.finite_count(recon.points, G * gs)
                  + checks.visible_unchanged(recon.points, gs, vis,
                                             rel[vis] + centers[vis][:, None, :]))
    outputs.append(recon.points)

    done = timed("complete", lambda: tasks.complete(
        state["partial"], model1, schedule, seed=seed,
        masked_centers=state["masked_centers"]))
    with rec.tracer.paused():
        centers, rel = checks.reference_segment(state["partial"].points, n_vis, gs)
        rec.check("complete", checks.finite_count(done.points, G * gs)
                  + checks.visible_unchanged(done.points, gs, np.arange(n_vis),
                                             rel + centers[:, None, :]))
    outputs.append(done.points)

    raw = []

    def round_trip():
        raw.append(tasks.compress(clouds[2], cfg1, mask_seed=seed, quant_bits=10))
        return tasks.decompress(raw[0], model1, schedule, seed=seed)

    restored = timed("compress+decompress", round_trip)
    with rec.tracer.paused():
        blob = tasks.parse_blob(raw[0])
        vis = np.flatnonzero(~blob.indicator)
        centers = blob.centers[vis][:, None, :]
        rel = blob.visible_points.reshape(-1, gs, 3) - centers
        rec.check("compress+decompress",
                  checks.blob_problems(raw[0], blob, clouds[2].points, G, gs,
                                       state["n_masked"], 10)
                  + checks.finite_count(restored.points, G * gs)
                  + checks.visible_unchanged(restored.points, gs, vis, rel + centers))
    outputs += [np.frombuffer(raw[0], dtype=np.uint8), restored.points]

    dense = timed("upsample",
                  lambda: tasks.upsample(clouds[3], model2, schedule, seed=seed))
    rec.check("upsample", checks.finite_count(dense.points, G * cfg2.patch_points))
    outputs.append(dense.points)

    rec.add("pass_s", clock() - pass_start)
    return outputs


def infer_metrics(rec):
    times = rec.samples["cloud_s"]
    rate = len(times) / rec.total("cloud_s")
    return dict(
        items_per_s=rate, op_s=times, pass_s=rec.samples["pass_s"],
        named=[
            ("infer.clouds_per_s", rate, "1/s", len(times)),
            ("infer.cloud_s.p50", float(np.median(times)), "s", len(times)),
        ],
    )


# ---------------------------------------------------------------------------
# codec-large: desk-scan-sized clouds through the codec and the metrics


CODEC_SIZES = {
    "full": dict(cfg=ModelConfig(num_groups=256, group_size=128), points=(8192, 32768)),
    "tiny": dict(cfg=ModelConfig(num_groups=32, group_size=16), points=(512, 1024)),
}


def codec_setup(size, seed, workdir):
    p = CODEC_SIZES[size]
    files = []
    for s, n in enumerate(p["points"]):
        for k, kind in enumerate(KINDS):
            path = os.path.join(workdir, f"{kind}-{n}.ply")
            data_io.save_cloud(data_io.synth_shape(kind, n, seed=_seed(seed, 5, s, k)), path)
            files.append(path)
    cfg = p["cfg"]
    return dict(cfg=cfg, files=files, seed=seed, sizes=p["points"],
                n_masked=geometry.mask_count(cfg.mask_ratio, cfg.num_groups))


def codec_pass(state, rec):
    cfg, files = state["cfg"], state["files"]
    G, gs = cfg.num_groups, cfg.group_size
    pass_start = clock()
    outputs, gens, refs = [], [], []
    for i, path in enumerate(files):
        q = 10 if i % 2 == 0 else 12
        with rec.tracer.request(f"cloud{i}"):
            t0 = clock()
            cloud = data_io.load_cloud(path)
            raw = tasks.compress(cloud, cfg, mask_seed=_seed(state["seed"], 6, i),
                                 quant_bits=q)
            t1 = clock()
            blob = tasks.parse_blob(raw)
            t2 = clock()
            cd = metrics.chamfer_l2(blob.visible_points, cloud)
            hd = metrics.hausdorff(blob.visible_points, cloud)
            t3 = clock()
        n = len(cloud)
        rec.add("compress_s", t1 - t0)
        rec.add("compress_pts", n)
        if n == max(state["sizes"]):
            rec.add("large_compress_s", t1 - t0)
        rec.add("parse_s", t2 - t1)
        rec.add("parse_pts", len(blob.visible_points) + len(blob.centers))
        rec.add("eval_s", t3 - t2)
        rec.add("eval_pts", 2 * (len(blob.visible_points) + n))
        rec.add("bpp", tasks.bpp(raw, n))
        with rec.tracer.paused():
            scores = [] if np.isfinite([cd, hd]).all() and cd >= 0 and hd >= 0 \
                else [f"scores cd={cd} hd={hd}"]
            rec.check(f"cloud {i}", checks.blob_problems(
                raw, blob, cloud.points, G, gs, state["n_masked"], q) + scores)
        outputs += [np.frombuffer(raw, dtype=np.uint8), np.array([cd, hd])]
        gens.append(blob.visible_points)
        refs.append(cloud)

    # one evaluate per cloud size: a mixed set would spend most of the pass in
    # the all-pairs searches of MMD and 1-NN between small and large clouds
    for size in state["sizes"]:
        same = [k for k, r in enumerate(refs) if len(r) == size]
        with rec.tracer.request(f"evaluate{size}"):
            t0 = clock()
            report = metrics.evaluate([gens[k] for k in same], [refs[k] for k in same])
            rec.add("eval_s", clock() - t0)
        rec.add("eval_pts", sum(len(gens[k]) + len(refs[k]) for k in same))
        summary = np.array([report.mmd_cd, report.one_nn_cd, report.jsd, report.hd]
                           + [v for _, cd, hd in report.per_item for v in (cd, hd)])
        rec.check(f"evaluate {size}", [] if len(report.per_item) == len(same)
                  and np.all(np.isfinite(summary)) else ["non-finite or missing scores"])
        outputs.append(summary)
    rec.add("pass_s", clock() - pass_start)
    return outputs


def codec_metrics(rec):
    s = rec.samples
    rate = rec.total("compress_pts") / rec.total("compress_s")
    return dict(
        items_per_s=rate, op_s=s["large_compress_s"], pass_s=s["pass_s"],
        named=[
            ("codec.compress_pts_per_s", rate, "pts/s", len(s["compress_s"])),
            ("codec.parse_pts_per_s", rec.total("parse_pts") / rec.total("parse_s"),
             "pts/s", len(s["parse_s"])),
            ("codec.bpp", float(np.mean(s["bpp"])), "bits/pt", len(s["bpp"])),
            ("eval.pts_per_s", rec.total("eval_pts") / rec.total("eval_s"),
             "pts/s", len(s["eval_s"])),
        ],
    )


WORKLOADS = {
    "train-acceptance": (train_setup, train_pass, train_metrics),
    "infer-paper": (infer_setup, infer_pass, infer_metrics),
    "codec-large": (codec_setup, codec_pass, codec_metrics),
}
