"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each test prints exactly one ``[criterion NN] name: PASS/FAIL`` line directly
to the terminal (bypassing capture) so the gate's verdict is visible in any
log of the run.  The two training criteria (6, 7) run once in session-scoped
fixtures; criterion 8 evaluates the criterion-7 checkpoint and criterion 11
repeats both runs in a fresh interpreter, alongside them, to prove bitwise
determinism.
"""

import multiprocessing
import os
import time
from unittest import mock

import numpy as np
import pytest

from conftest import brute_chamfer, brute_hausdorff, grad_check
from pointdiff import data_io, diffusion, engine as eg, metrics, tasks, training
from pointdiff.diffusion import RESIDUAL_SIGMA, RESIDUAL_SQRT_SIGMA
from pointdiff.engine import Tensor
from pointdiff.geometry import PointCloud, apply_mask, segment
from pointdiff.model import LatentSet, Model, ModelConfig, decode, encode_patches, init_params
from pointdiff.training import TrainConfig, chamfer_loss, _pred_to_points


def report(capfd, num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared training runs (criteria 6, 7, 8, 11)


def run_encoder_overfit():
    """Criterion 6 setup: one 512-point shape, 300 Adam steps, fixed mask."""
    cloud = data_io.synth_shape("sphere", 512, seed=10)
    cfg = ModelConfig(latent_width=64, enc_blocks=4, enc_heads=2,
                      dec_blocks=1, dec_heads=2, num_groups=16, group_size=32,
                      timesteps=50)
    tc = TrainConfig(epochs=300, batch_size=1, lr=1e-3, seed=3, remask_every=0)
    model, curve = training.pretrain_encoder([cloud], cfg, tc)
    return model, curve


def run_decoder_overfit():
    """Criterion 7 setup: 8 shapes, 2000 steps, Setting (a), 5 checkpoints."""
    kinds = ["sphere", "cube", "torus", "cylinder", "two-spheres",
             "sphere", "cube", "torus"]
    clouds = [data_io.synth_shape(k, 512, seed=10 + i) for i, k in enumerate(kinds)]
    cfg = ModelConfig(latent_width=64, enc_blocks=4, enc_heads=2,
                      dec_blocks=1, dec_heads=2, num_groups=16, group_size=32,
                      timesteps=50)
    enc, _ = training.pretrain_encoder(
        clouds, cfg, TrainConfig(epochs=100, batch_size=8, lr=1e-3, seed=0)
    )
    schedule = diffusion.build_schedule(50)
    model, curve, ckpts = training.train_decoder(
        clouds, enc, TrainConfig(epochs=2000, batch_size=8, lr=5e-4, seed=0,
                                 checkpoint_every=400),
        schedule,
    )
    recons = [tasks.reconstruct(c, model, schedule, seed=100 + i)
              for i, c in enumerate(clouds)]
    return clouds, model, schedule, curve, ckpts, recons


# how long criterion 11 waits for the rerun still training when it starts
_RERUN_TIMEOUT_S = 900
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rerun(conn):
    """Criteria 6 and 7 rerun, sent as criterion 11 compares them: curves,
    checkpoint windows, every parameter and every reconstruction."""
    model6, curve6 = run_encoder_overfit()
    _, model7, _, curve7, ckpts7, recons7 = run_decoder_overfit()
    conn.send((curve6, {k: t.data for k, t in model6.params.items()},
               curve7, ckpts7, {k: t.data for k, t in model7.params.items()},
               [r.points for r in recons7]))
    conn.close()


@pytest.fixture(scope="session")
def determinism_rerun(request):
    """Criterion 11's rerun of criteria 6 and 7: a spawned child with BLAS
    on one thread, started before either training fixture runs so that it
    trains alongside them.  Yields (process, receiving end of its pipe), or
    None when criterion 11 is not selected (``-m "not slow"``); a child
    still running at the end of the session is stopped."""
    if not any(item.originalname == "test_criterion_11_determinism"
               for item in request.session.items):
        yield None
        return
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_rerun, args=(sender,), name="criterion-11-rerun")
    # BLAS on one thread in the child: numpy reads these once, at import
    with mock.patch.dict(os.environ, {name: "1" for name in _BLAS_THREAD_VARS}):
        process.start()
    sender.close()  # the child holds the only sending end: its exit is EOF here
    yield process, receiver
    if process.is_alive():
        process.terminate()
    process.join()
    receiver.close()


@pytest.fixture(scope="session")
def encoder_overfit(determinism_rerun):
    return run_encoder_overfit()


@pytest.fixture(scope="session")
def decoder_overfit(determinism_rerun):
    return run_decoder_overfit()


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_metric_oracles(capfd):
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    ok = True
    for trial in range(100):
        a = rng.normal(size=(int(rng.integers(4, 257)), 3))
        b = rng.normal(size=(int(rng.integers(4, 257)), 3))
        ok &= metrics.chamfer_l2(a, b) == brute_chamfer(a, b)
        ok &= metrics.hausdorff(a, b) == brute_hausdorff(a, b)
        n_gen = int(rng.integers(1, 9))
        n_ref = int(rng.integers(1, 9))
        gen = [rng.normal(size=(int(rng.integers(4, 65)), 3)) for _ in range(n_gen)]
        ref = [rng.normal(size=(int(rng.integers(4, 65)), 3)) for _ in range(n_ref)]
        mmd_oracle = sum(min(brute_chamfer(g, r) for g in gen) for r in ref) / n_ref
        ok &= metrics.mmd_cd(gen, ref) == mmd_oracle
        nn_oracle = sum(min(brute_chamfer(g, r) for r in ref) for g in gen) / n_gen
        ok &= metrics.one_nn_cd(gen, ref) == nn_oracle
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(capfd, 1, "metric oracle suite (bitwise, 100 instances)", ok,
           f"{elapsed:.2f}s")


def test_criterion_02_jsd_suite(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    same = [rng.uniform(-0.45, 0.45, size=(50, 3)) for _ in range(3)]
    ok = metrics.jsd(same, same) == 0.0

    a = [np.full((10, 3), -0.4)]
    b = [np.full((10, 3), 0.4)]
    ok &= abs(metrics.jsd(a, b) - np.log(2.0)) <= 1e-12

    # two-voxel hand case: p=(3/4,1/4), q=(1,0)
    A, B = np.full((1, 3), -0.4), np.full((1, 3), 0.4)
    gen = [np.concatenate([np.repeat(A, 3, axis=0), B])]
    ref = [np.repeat(A, 4, axis=0)]
    p, q = np.array([0.75, 0.25]), np.array([1.0, 0.0])
    m = 0.5 * (p + q)
    expected = 0.5 * np.sum(p * np.log(p / m)) + 0.5 * (q[0] * np.log(q[0] / m[0]))
    ok &= abs(metrics.jsd(gen, ref) - expected) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(capfd, 2, "JSD suite (0 / ln2 / hand case)", ok, f"{elapsed:.2f}s")


def test_criterion_03_gradient_suite(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    with eg.precision(64):
        # every primitive, via scalarizing wrappers
        cases = [
            lambda t: eg.sum_(eg.mul(eg.add(t, Tensor(C)), eg.add(t, Tensor(C)))),
            lambda t: eg.sum_(eg.mul(eg.neg(t), Tensor(C))),
            lambda t: eg.sum_(eg.mul(eg.sub(t, Tensor(C)), eg.sub(t, Tensor(C)))),
            lambda t: eg.sum_(eg.mul(t, eg.mul(t, Tensor(C)))),
            lambda t: eg.sum_(eg.scale(eg.mul(t, t), -1.3)),
            lambda t: eg.sum_(eg.mul(eg.matmul(t, Tensor(C.T)), eg.matmul(t, Tensor(C.T)))),
            lambda t: eg.sum_(eg.mul(eg.reshape(t, (4, 3)), eg.reshape(t, (4, 3)))),
            lambda t: eg.sum_(eg.mul(eg.transpose(t, (1, 0)), Tensor(C.T))),
            lambda t: eg.sum_(eg.mul(eg.concat(list(eg.split(t, [1, 2], axis=0)), axis=0), Tensor(C))),
            lambda t: eg.mean(eg.mul(t, t)),
            lambda t: eg.sum_(eg.mul(eg.softmax(t), Tensor(C))),
            lambda t: eg.sum_(eg.mul(eg.gelu(t), Tensor(C))),
            lambda t: eg.sum_(eg.mul(eg.layer_norm(t), Tensor(C))),
            # the Chamfer loss's one node, on a ragged batch: two target sizes
            lambda t: chamfer_loss(eg.reshape(t, (2, 2, 3)), ragged),
            lambda t: eg.sum_(eg.mul(eg.max_pool(t, axis=0), Tensor(C[0]))),
        ]
        C = rng.normal(size=(3, 4))
        ragged = [np.random.default_rng(31).normal(size=(m, 3)) for m in (3, 5)]
        for f in cases:
            worst = max(worst, grad_check(f, Tensor(rng.normal(size=(3, 4)))))

        # full training loss on the toy model: L=8, one block each side,
        # G=4 patches of 4 points
        cfg = ModelConfig(latent_width=8, enc_blocks=1, enc_heads=2,
                          dec_blocks=1, dec_heads=2, num_groups=4, group_size=4,
                          mask_ratio=0.5, timesteps=5)
        params = init_params(cfg, seed=0)
        for p in params.values():
            p.data = p.data + 0.05 * rng.normal(size=p.data.shape)
        cloud = data_io.synth_shape("sphere", 32, seed=1)
        ps = segment(cloud, 4, 4)
        mask = apply_mask(4, 0.5, "random", 7)
        vis, msk = mask.visible_indices, mask.masked_indices
        schedule = diffusion.build_schedule(5)
        eps = rng.normal(size=(msk.size * 4, 3))
        x_t = diffusion.q_sample(ps.patches[msk].reshape(-1, 3), 2, eps, schedule)

        def full_loss(p_dict):
            tokens = encode_patches(p_dict, ps.patches[vis][None], ps.centers[vis][None], cfg)
            latent = LatentSet(tokens=tokens, centers=ps.centers[None], masks=(mask,))
            pred = decode(p_dict, latent, x_t[None], [2], cfg)
            pred_pts = _pred_to_points(pred, ps.centers[msk][None])
            vis_pts = Tensor(ps.absolute(vis).reshape(1, -1, 3))
            return chamfer_loss(eg.concat([vis_pts, pred_pts], axis=1), [cloud.points])

        for name in sorted(params):
            others = dict(params)

            def f(t, _name=name, _others=others):
                _others[_name] = t
                return full_loss(_others)

            # atol guards structurally-zero gradients (attention key biases
            # cancel exactly inside softmax) where FD leaves rounding noise
            worst = max(worst, grad_check(f, Tensor(params[name].data), atol=1e-8))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 120.0
    report(capfd, 3, "gradient suite (primitives + full loss)", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_schedule_and_forward(capfd):
    start = time.perf_counter()
    s = diffusion.build_schedule(200, 1e-4, 0.05)
    ok = s.beta[0] == 1e-4 and s.beta[-1] == 0.05
    ok &= bool(np.all(np.diff(s.alpha_bar) < 0))

    rng = np.random.default_rng(4)
    x0_val = 0.7
    n = 100_000
    x0 = np.full((n, 3), x0_val)
    for t in (0, 49, 99, 149, 199):
        eps = rng.standard_normal((n, 3))
        x_t = diffusion.q_sample(x0, t, eps, s)
        mean_th = np.sqrt(s.alpha_bar[t]) * x0_val
        std_th = np.sqrt(1.0 - s.alpha_bar[t])
        # 1% of the moment scale: at large t the mean shrinks below the
        # Monte-Carlo noise floor (std/sqrt(N)), so the distribution's own
        # scale is the meaningful yardstick for both moments
        ok &= abs(x_t.mean() - mean_th) <= 0.01 * max(abs(mean_th), std_th)
        ok &= abs(x_t.std() - std_th) <= 0.01 * std_th
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(capfd, 4, "schedule endpoints + q_sample moments (1%)", ok,
           f"{elapsed:.2f}s")


def test_criterion_05_perfect_denoiser(capfd):
    start = time.perf_counter()
    cloud = data_io.synth_shape("torus", 256, seed=5)
    ps = segment(cloud, 8, 32)
    mask = apply_mask(8, 0.75, "random", 5, centers=ps.centers)
    x0 = ps.patches[mask.masked_indices].reshape(-1, 3)
    ok = True
    worst = 0.0
    for T in (1, 50, 200):
        for residual in (RESIDUAL_SQRT_SIGMA, RESIDUAL_SIGMA):
            s = diffusion.build_schedule(T, residual=residual)
            out = diffusion.sample(lambda x, t: x0, x0.shape[0], s, rng_seed=9)
            worst = max(worst, float(np.max(np.abs(out - x0))))
    ok &= worst < 1e-6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(capfd, 5, "perfect-denoiser fixpoint (T=1/50/200, both residuals)", ok,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_encoder_overfit(capfd, encoder_overfit):
    _, curve = encoder_overfit
    final, init = curve[-1], curve[0]
    ok = final < 1e-3 and final <= 0.2 * init
    report(capfd, 6, "encoder overfit (300 steps)", ok,
           f"loss {init:.3e} -> {final:.3e}")


@pytest.mark.slow
def test_criterion_07_decoder_overfit(capfd, decoder_overfit):
    clouds, model, schedule, curve, ckpts, recons = decoder_overfit
    means = [m for _, m in ckpts]
    ok = len(means) == 5 and all(b < a for a, b in zip(means, means[1:]))
    ok &= curve[-1] < 1e-2

    rng = np.random.default_rng(0)
    noise = [PointCloud(rng.uniform(-0.5, 0.5, (512, 3))) for _ in clouds]
    m_rec = metrics.mmd_cd(recons, clouds)
    m_noise = metrics.mmd_cd(noise, clouds)
    ok &= m_noise >= 10.0 * m_rec
    report(capfd, 7, "decoder overfit (2000 steps, Setting (a))", ok,
           f"final {curve[-1]:.3e}, MMD ratio {m_noise / m_rec:.1f}x")


@pytest.mark.slow
def test_criterion_08_ablation_direction(capfd, decoder_overfit):
    clouds, model, schedule, _, _, recons = decoder_overfit
    cfg = model.cfg
    masked_only = []
    for i, cloud in enumerate(clouds):
        ps = segment(cloud, cfg.num_groups, cfg.group_size)
        mask = model.draw_mask(100 + i, centers=ps.centers, strategy="random")
        latent = model.encode(ps.centers, ps.patches[mask.visible_indices], mask)
        pred = tasks.sample_patches(model, latent, schedule, seed=100 + i)
        pts = (pred + ps.centers[mask.masked_indices][:, None, :]).reshape(-1, 3)
        masked_only.append(PointCloud(pts))
    full_score = metrics.mmd_cd(recons, clouds)
    masked_score = metrics.mmd_cd(masked_only, clouds)
    ok = full_score < masked_score
    report(capfd, 8, "ablation direction (masked+visible beats masked-only)", ok,
           f"{full_score:.3e} < {masked_score:.3e}")


class StubDecoderModel(Model):
    """Real encoder parameters, stub (zero-output) diffusion decoder."""

    def decode(self, latent, x_t, t):
        cfg = self.cfg
        (mask,) = latent.masks
        n = cfg.num_groups if cfg.predict_visible else mask.masked_indices.size
        return Tensor(np.zeros((1, n, cfg.patch_points, 3)))


def test_criterion_09_arity_fuzz(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    schedule1 = diffusion.build_schedule(1)
    ok = True
    checked = 0
    for trial in range(200):
        G = int(rng.integers(4, 25))
        gs = int(rng.integers(4, 17))
        m = int(rng.integers(1, G))
        predict_visible = bool(rng.integers(2))
        factor = int(rng.choice([1, 2, 4])) if predict_visible else int(rng.choice([1, 2]))
        cfg = ModelConfig(latent_width=8, enc_blocks=1, enc_heads=2,
                          dec_blocks=1, dec_heads=2, num_groups=G, group_size=gs,
                          mask_ratio=m / G, timesteps=1,
                          predict_visible=predict_visible, upsample_factor=factor)
        model = StubDecoderModel(cfg=cfg, params=init_params(cfg, seed=0))
        pp = cfg.patch_points
        v = G - m
        cloud = PointCloud(rng.uniform(-0.5, 0.5, size=(G * gs, 3)))

        out = tasks.reconstruct(cloud, model, schedule1, seed=trial)
        expected = G * pp if predict_visible else v * gs + m * pp
        ok &= len(out) == expected

        partial = PointCloud(rng.uniform(-0.5, 0.5, size=(v * gs, 3)))
        out = tasks.complete(partial, model, schedule1,
                             masked_centers=np.zeros((m, 3)))
        ok &= len(out) == expected

        if predict_visible:
            vf = int(rng.integers(1, G)) / G
            out = tasks.upsample(cloud, model, schedule1, visible_fraction=vf)
            ok &= len(out) == G * pp
        checked += 1
    # the paper's headline arity: 2048 points in, 8192 out at factor 4
    cfg = ModelConfig(latent_width=8, enc_blocks=1, enc_heads=2, dec_blocks=1,
                      dec_heads=2, num_groups=64, group_size=32, timesteps=1,
                      predict_visible=True, upsample_factor=4)
    model = StubDecoderModel(cfg=cfg, params=init_params(cfg, seed=0))
    big = PointCloud(np.random.default_rng(0).uniform(-0.5, 0.5, size=(2048, 3)))
    ok &= len(tasks.upsample(big, model, schedule1)) == 8192
    elapsed = time.perf_counter() - start
    ok &= checked == 200 and elapsed < 60.0
    report(capfd, 9, "arity conservation fuzz (200 configs)", ok, f"{elapsed:.1f}s")


def test_criterion_10_codec(capfd, sphere_cloud):
    start = time.perf_counter()
    cloud = data_io.synth_shape("cylinder", 256, seed=6)
    cfg = ModelConfig(latent_width=16, enc_blocks=1, enc_heads=2, dec_blocks=1,
                      dec_heads=2, num_groups=16, group_size=16)
    ps = segment(cloud, cfg.num_groups, cfg.group_size)
    ok = True
    for q in (8, 10, 12, 16):
        blob = tasks.compress(cloud, cfg, mask_seed=2, quant_bits=q)
        # header bit-exact on a repeat compression
        ok &= blob == tasks.compress(cloud, cfg, mask_seed=2, quant_bits=q)
        parsed = tasks.parse_blob(blob)
        mask = apply_mask(cfg.num_groups, cfg.mask_ratio, "random", 2,
                          centers=ps.centers)
        vis_points = ps.absolute(mask.visible_indices).reshape(-1, 3)
        coords = np.concatenate([vis_points, ps.centers])
        bound = (coords.max(axis=0) - coords.min(axis=0)) / 2 ** (q + 1)
        ok &= bool(np.all(np.abs(parsed.visible_points - vis_points) <= bound + 1e-15))
        ok &= bool(np.all(np.abs(parsed.centers - ps.centers) <= bound + 1e-15))
        # bpp equals an independent byte count of the file / N
        ok &= tasks.bpp(blob, len(cloud)) == 8.0 * len(blob) / len(cloud)
        # latent provably absent: the length is fully accounted for by the
        # header, the packed quantized coordinates and the digest
        n_vis = vis_points.shape[0]
        header = 4 + 10 + 48 + (cfg.num_groups + 7) // 8
        payload = ((n_vis + cfg.num_groups) * 3 * q + 7) // 8
        ok &= len(blob) == header + payload + 16
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(capfd, 10, "codec round trip / error bound / bpp / no latent", ok,
           f"{elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_11_determinism(capfd, encoder_overfit, decoder_overfit, determinism_rerun):
    process, receiver = determinism_rerun
    try:
        rerun = receiver.recv() if receiver.poll(_RERUN_TIMEOUT_S) else None
    except EOFError:  # the child failed or was killed before it sent
        rerun = None
    process.join(timeout=60)
    if rerun is None or process.is_alive() or process.exitcode != 0:
        state = "still running" if process.is_alive() else f"exited with code {process.exitcode}"
        report(capfd, 11, "determinism (criteria 6-7 rerun bitwise identical)", False,
               f"rerun process {state}, {'with' if rerun is not None else 'without'} a result")
    curve6b, params6b, curve7b, ckpts7b, params7b, recons7b = rerun

    model6, curve6 = encoder_overfit
    ok = curve6 == curve6b and model6.params.keys() == params6b.keys()
    ok &= all(np.array_equal(model6.params[k].data, params6b[k]) for k in model6.params)

    clouds, model7, schedule, curve7, ckpts7, recons7 = decoder_overfit
    ok &= curve7 == curve7b and ckpts7 == ckpts7b and model7.params.keys() == params7b.keys()
    ok &= all(np.array_equal(model7.params[k].data, params7b[k]) for k in model7.params)
    ok &= len(recons7) == len(recons7b)
    ok &= all(np.array_equal(a.points, b) for a, b in zip(recons7, recons7b))
    report(capfd, 11, "determinism (criteria 6-7 rerun bitwise identical)", ok)
