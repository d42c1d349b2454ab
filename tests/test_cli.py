import pytest

from conftest import toy_config
from pointdiff import cli, data_io, engine as eg, tasks, training
from pointdiff.model import Model


def run(argv):
    return cli.main(argv)


@pytest.fixture
def workspace(tmp_path):
    manifest = tmp_path / "data.tsv"
    manifest.write_text(
        "s1\tsynth:sphere:96:0.0:1\ttrain\n"
        "s2\tsynth:cube:96:0.0:2\ttrain\n"
    )
    config = tmp_path / "run.ini"
    config.write_text(
        "[model]\n"
        "latent_width = 16\n"
        "enc_blocks = 1\n"
        "enc_heads = 2\n"
        "dec_blocks = 1\n"
        "dec_heads = 2\n"
        "num_groups = 8\n"
        "group_size = 8\n"
        "mask_ratio = 0.75\n"
        "timesteps = 3\n"
        "[train]\n"
        "epochs = 2\n"
        "batch_size = 2\n"
        "lr = 0.001\n"
        "[schedule]\n"
        "timesteps = 3\n"
        f"[run]\nmanifest = {manifest}\ntarget_points = 64\n"
    )
    return tmp_path, config


def test_synth_writes_cloud(tmp_path):
    out = tmp_path / "s.ply"
    assert run(["synth", "--kind", "sphere", "--n", "50", "--out", str(out)]) == 0
    assert len(data_io.load_cloud(out)) == 50


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "pointdiff" in capsys.readouterr().out


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_train_encoder_requires_config():
    assert run(["train-encoder"]) == 2


def test_missing_checkpoint_exits_1(tmp_path):
    cloud = tmp_path / "c.ply"
    run(["synth", "--kind", "sphere", "--n", "64", "--out", str(cloud)])
    code = run(["reconstruct", "--in", str(cloud),
                "--ckpt-decoder", str(tmp_path / "nope.ckpt")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["compress", "--in", "{missing}.ply"],
    ["decompress", "--in", "{missing}.dpc", "--ckpt-decoder", "{ckpt}"],
    ["complete", "--in", "{cloud}", "--centers", "{missing}.xyz", "--ckpt-decoder", "{ckpt}"],
    ["eval", "--gen", "{missing}", "--ref", "{tmp}"],
], ids=lambda a: a[0])
def test_missing_file_exits_1(tmp_path, capsys, argv):
    cfg = toy_config(timesteps=3)
    paths = dict(missing=tmp_path / "nope", ckpt=tmp_path / "m.ckpt",
                 cloud=tmp_path / "c.ply", tmp=tmp_path)
    training.save_checkpoint(paths["ckpt"], cfg, Model.create(cfg, seed=0).params)
    data_io.save_cloud(data_io.synth_shape("sphere", 32, seed=1), paths["cloud"])
    assert run([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_config_key_exits_2(tmp_path, workspace):
    ws, config = workspace
    bad = ws / "bad.ini"
    bad.write_text("[model]\nflux_capacitance = 9\n")
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    # a key no code reads is not accepted either
    bad.write_text(config.read_text().replace("[train]\n", "[train]\nlog_every = 10\n"))
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    bad.write_text(config.read_text().replace("[schedule]\n", "[schedule]\nresidual = sigma\n"))
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    bad.write_text("[warp]\nspeed = 9\n")
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2


_PLY = ("ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")


def _bad_ply(tmp, line, replacement):
    (tmp / "bad.ply").write_text(_PLY.replace(line, replacement))
    return ["compress", "--in", str(tmp / "bad.ply")]


def _bad_manifest(tmp, spec):
    (tmp / "data.tsv").write_text(f"a\t{spec}\ttrain\n")
    (tmp / "run.ini").write_text(f"[run]\nmanifest = {tmp / 'data.tsv'}\n")
    return ["train-encoder", "--config", str(tmp / "run.ini"), "--out", str(tmp / "o")]


def _bad_grid(tmp, grid):
    for name in ("gen", "ref"):
        (tmp / name).mkdir()
        data_io.save_cloud(data_io.synth_shape("sphere", 32, seed=1), tmp / name / "0.ply")
    return ["eval", "--gen", str(tmp / "gen"), "--ref", str(tmp / "ref"),
            "--grid", grid, "--out", str(tmp / "m.csv")]


def _residual_key(tmp):
    """A compress run that is valid but for the no longer accepted key."""
    (tmp / "run.ini").write_text("[model]\nnum_groups = 4\ngroup_size = 8\n"
                                 "[schedule]\nresidual = sigma\n")
    data_io.save_cloud(data_io.synth_shape("sphere", 64, seed=1), tmp / "c.ply")
    return ["compress", "--in", str(tmp / "c.ply"), "--config", str(tmp / "run.ini"),
            "--out", str(tmp / "c.dpc")]


@pytest.mark.parametrize("make_argv, code", [
    pytest.param(lambda tmp: _bad_ply(tmp, "format ascii 1.0", "format"), 1,
                 id="ply-bare-format"),
    pytest.param(lambda tmp: _bad_ply(tmp, "element vertex 1", "element"), 1,
                 id="ply-bare-element"),
    pytest.param(lambda tmp: _bad_ply(tmp, "element vertex 1", "element vertex -5"), 1,
                 id="ply-negative-count"),
    pytest.param(lambda tmp: _bad_ply(tmp, "element vertex 1", "element vertex 4000000000"), 1,
                 id="ply-count-past-end"),
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:sphere:64"), 1,
                 id="manifest-synth-fields"),
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:sphere:abc:0:0"), 1,
                 id="manifest-synth-type"),
    pytest.param(lambda tmp: _bad_grid(tmp, "0"), 1, id="eval-grid-0"),
    pytest.param(lambda tmp: _bad_grid(tmp, "-3"), 1, id="eval-grid-negative"),
    pytest.param(lambda tmp: _residual_key(tmp), 2, id="config-schedule-residual"),
])
def test_malformed_input_exits_without_traceback(tmp_path, capsys, make_argv, code):
    assert run(make_argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_full_pipeline(workspace, capsys):
    ws, config = workspace
    enc_dir = ws / "enc"
    assert run(["train-encoder", "--config", str(config), "--out", str(enc_dir)]) == 0
    assert (enc_dir / "encoder.ckpt").exists()
    assert (enc_dir / "encoder_loss.csv").exists()
    assert (enc_dir / "resolved_config.ini").exists()

    dec_dir = ws / "dec"
    assert run(["train-decoder", "--config", str(config),
                "--ckpt-encoder", str(enc_dir / "encoder.ckpt"),
                "--out", str(dec_dir)]) == 0
    ckpt = dec_dir / "decoder.ckpt"
    assert ckpt.exists()

    cloud = ws / "shape.ply"
    run(["synth", "--kind", "torus", "--n", "96", "--out", str(cloud)])

    recon = ws / "recon.ply"
    assert run(["reconstruct", "--in", str(cloud), "--ckpt-decoder", str(ckpt),
                "--out", str(recon), "--seed", "3"]) == 0
    assert len(data_io.load_cloud(recon)) == 8 * 8

    blob = ws / "shape.dpc"
    assert run(["compress", "--in", str(cloud), "--config", str(config),
                "--out", str(blob)]) == 0
    assert blob.exists()
    out = capsys.readouterr().out
    assert "bpp" in out

    decomp = ws / "shape_out.ply"
    assert run(["decompress", "--in", str(blob), "--ckpt-decoder", str(ckpt),
                "--out", str(decomp)]) == 0
    assert len(data_io.load_cloud(decomp)) == 8 * 8

    trace_dir = ws / "trace"
    assert run(["trace", "--in", str(cloud), "--ckpt-decoder", str(ckpt),
                "--out", str(trace_dir)]) == 0
    frames = sorted(trace_dir.glob("step_*.ply"))
    assert len(frames) == 3  # one frame per timestep

    gen_dir = ws / "gen"
    ref_dir = ws / "ref"
    gen_dir.mkdir()
    ref_dir.mkdir()
    for i in range(2):
        c = data_io.synth_shape("sphere", 64, seed=i)
        data_io.save_cloud(c, gen_dir / f"{i}.ply")
        data_io.save_cloud(c, ref_dir / f"{i}.ply")
    csv = ws / "metrics.csv"
    assert run(["eval", "--gen", str(gen_dir), "--ref", str(ref_dir),
                "--out", str(csv)]) == 0
    assert "mmd_cd" in csv.read_text()


def test_train_decoder_schedule_must_repeat_the_encoder_T(workspace, capsys):
    ws, config = workspace
    enc_dir = ws / "enc"
    assert run(["train-encoder", "--config", str(config), "--out", str(enc_dir)]) == 0
    capsys.readouterr()
    config.write_text(config.read_text().replace("[schedule]\ntimesteps = 3",
                                                 "[schedule]\ntimesteps = 4"))
    dec_dir = ws / "dec"
    assert run(["train-decoder", "--config", str(config),
                "--ckpt-encoder", str(enc_dir / "encoder.ckpt"), "--out", str(dec_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "timesteps = 4" in err and "T = 3" in err
    assert not (dec_dir / "resolved_config.ini").exists()


def test_non_finite_sampling_exits_1(tmp_path, capsys):
    cfg = toy_config(timesteps=3)
    model = Model.create(cfg, seed=0)
    model.params["dec.head.b"].data[0] = float("nan")
    ckpt = tmp_path / "nan.ckpt"
    training.save_checkpoint(ckpt, cfg, model.params)
    cloud = tmp_path / "c.ply"
    data_io.save_cloud(data_io.synth_shape("sphere", 128, seed=1), cloud)
    out = tmp_path / "recon.ply"
    assert run(["reconstruct", "--in", str(cloud), "--ckpt-decoder", str(ckpt),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: sample: non-finite decoder prediction at step t=2\n"
    assert not out.exists()


def test_eval_grid_beyond_dense_memory(tmp_path, capsys):
    # a dense 100000^3 histogram would need 8 PB; occupied cells need a few
    argv = _bad_grid(tmp_path, "100000")
    assert run(argv) == 0
    assert "jsd" in capsys.readouterr().out
    assert run(argv[:-4] + ["--grid", str(2**20 + 1), "--out", argv[-1]]) == 1


def test_reconstruct_determinism_via_cli(workspace):
    ws, config = workspace
    enc_dir = ws / "enc"
    run(["train-encoder", "--config", str(config), "--out", str(enc_dir)])
    dec_dir = ws / "dec"
    run(["train-decoder", "--config", str(config),
         "--ckpt-encoder", str(enc_dir / "encoder.ckpt"), "--out", str(dec_dir)])
    cloud = ws / "c.ply"
    run(["synth", "--kind", "cube", "--n", "96", "--out", str(cloud)])
    a = ws / "a.ply"
    b = ws / "b.ply"
    for out in (a, b):
        run(["reconstruct", "--in", str(cloud), "--out", str(out),
             "--ckpt-decoder", str(dec_dir / "decoder.ckpt"), "--seed", "7"])
    assert a.read_bytes() == b.read_bytes()


_CKPT_ARGS = ["--in", "c.ply", "--ckpt-decoder", "m.ckpt"]


@pytest.mark.parametrize("argv, removed", [
    (["reconstruct", *_CKPT_ARGS], ["--config", "x.ini"]),
    (["reconstruct", *_CKPT_ARGS], ["--mask-ratio", "0.5"]),
    (["reconstruct", *_CKPT_ARGS], ["--loss-setting", "masked_only"]),
    (["trace", *_CKPT_ARGS], ["--config", "x.ini"]),
    (["complete", *_CKPT_ARGS], ["--mask-strategy", "block"]),
    (["upsample", *_CKPT_ARGS], ["--factor", "2"]),
    (["upsample", *_CKPT_ARGS], ["--mask-ratio", "0.5"]),
    (["decompress", *_CKPT_ARGS], ["--config", "x.ini"]),
    # sampling runs the checkpoint's own T; a shorter chain is not offered
    (["reconstruct", *_CKPT_ARGS], ["--timesteps", "3"]),
    (["trace", *_CKPT_ARGS], ["--timesteps", "3"]),
    (["complete", *_CKPT_ARGS], ["--timesteps", "3"]),
    (["upsample", *_CKPT_ARGS], ["--timesteps", "3"]),
    (["decompress", *_CKPT_ARGS], ["--timesteps", "3"]),
    (["compress", "--in", "c.ply"], ["--timesteps", "3"]),
    (["compress", "--in", "c.ply"], ["--loss-setting", "masked_only"]),
    (["train-encoder", "--config", "x.ini"], ["--timesteps", "3"]),
    # the decoder trains on the encoder checkpoint's T
    (["train-decoder", "--config", "x.ini", "--ckpt-encoder", "e.ckpt"], ["--timesteps", "3"]),
    (["train-decoder", "--config", "x.ini", "--ckpt-encoder", "e.ckpt"], ["--mask-ratio", "0.5"]),
], ids=lambda a: a[0])
def test_removed_flags_exit_2(argv, removed):
    cli.build_parser().parse_args(argv)  # the command line is valid without the flag
    with pytest.raises(SystemExit) as exc:
        run(argv + removed)
    assert exc.value.code == 2


def test_trace_latent_records_no_tape(tmp_path, monkeypatch):
    cfg = toy_config(timesteps=3)
    ckpt = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, cfg, Model.create(cfg, seed=0).params)
    cloud = tmp_path / "c.ply"
    data_io.save_cloud(data_io.synth_shape("sphere", 128, seed=1), cloud)
    seen = []
    sample_patches = tasks.sample_patches

    def recording(model, latent, *args, **kwargs):
        seen.append(latent.tokens._parents)
        return sample_patches(model, latent, *args, **kwargs)

    monkeypatch.setattr(tasks, "sample_patches", recording)
    assert run(["trace", "--in", str(cloud), "--ckpt-decoder", str(ckpt),
                "--out", str(tmp_path / "frames")]) == 0
    assert seen == [()]


@pytest.mark.parametrize("strategy", ["random", "block"])
def test_trace_frames_are_the_reconstruction(tmp_path, strategy):
    cfg = toy_config(timesteps=3)
    ckpt = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, cfg, Model.create(cfg, seed=0).params)
    cloud = tmp_path / "c.ply"
    data_io.save_cloud(data_io.synth_shape("torus", 128, seed=1), cloud)
    common = ["--in", str(cloud), "--ckpt-decoder", str(ckpt), "--seed", "5",
              "--mask-strategy", strategy]
    assert run(["reconstruct", *common, "--out", str(tmp_path / "recon.ply")]) == 0
    assert run(["trace", *common, "--out", str(tmp_path / "frames")]) == 0
    frames = sorted((tmp_path / "frames").glob("step_*.ply"))
    assert [f.name for f in frames] == ["step_0000.ply", "step_0001.ply", "step_0002.ply"]
    assert all(len(data_io.load_cloud(f)) == 128 for f in frames)
    assert frames[-1].read_bytes() == (tmp_path / "recon.ply").read_bytes()


def test_run_metadata_records_active_precision(tmp_path):
    with eg.precision(32):
        cli.write_run_metadata(tmp_path)
    lines = (tmp_path / "resolved_config.ini").read_text().splitlines()
    assert "# precision 32" in lines
