from pathlib import Path

import pytest

from conftest import composed_report, toy_config, translated_shapes
from pointdiff import cli, data_io, engine as eg, metrics, tasks, training
from pointdiff.geometry import PointCloud
from pointdiff.model import Model


def run(argv):
    return cli.main(argv)


DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture
def workspace(tmp_path):
    """A two-cloud manifest, the encoder's run.ini and the decoder's
    decoder.ini, which has no [model]: the decoder's is the encoder
    checkpoint's."""
    manifest = tmp_path / "data.tsv"
    manifest.write_text(
        "s1\tsynth:sphere:96:0.0:1\ttrain\n"
        "s2\tsynth:cube:96:0.0:2\ttrain\n"
    )
    train = "[train]\nepochs = 2\nbatch_size = 2\nlr = 0.001\n"
    run_section = f"[run]\nmanifest = {manifest}\ntarget_points = 64\n"
    dec_config = tmp_path / "decoder.ini"
    dec_config.write_text(train + "[schedule]\nbeta_start = 0.0001\nbeta_end = 0.05\n"
                          + run_section)
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
        + train + run_section
    )
    return tmp_path, config, dec_config


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
    with pytest.raises(SystemExit) as exc:
        run(["train-encoder"])
    assert exc.value.code == 2


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


def test_bad_config_key_exits_2(tmp_path, workspace, capsys):
    ws, config, dec_config = workspace
    bad = ws / "bad.ini"
    bad.write_text("[model]\nflux_capacitance = 9\n")
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    # a key no code reads is not accepted either
    bad.write_text(config.read_text().replace("[train]\n", "[train]\nlog_every = 10\n"))
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    bad.write_text(dec_config.read_text().replace("[schedule]\n", "[schedule]\nresidual = sigma\n"))
    assert run(["train-decoder", "--config", str(bad), "--ckpt-encoder", str(ws / "none.ckpt"),
                "--out", str(ws / "o")]) == 2
    bad.write_text("[warp]\nspeed = 9\n")
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    # files configparser itself rejects: a repeated key, no section header
    bad.write_text("[train]\nepochs = 2\nepochs = 3\n")
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    bad.write_text("epochs = 2\n")
    assert run(["train-encoder", "--config", str(bad), "--out", str(ws / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == err.count("\n") == 6 and "Traceback" not in err


@pytest.mark.parametrize("command, section, line", [
    ("train-encoder", "model", "latent_width = abc"),
    ("train-encoder", "model", "mask_ratio = half"),
    ("train-encoder", "model", "predict_visible = ture"),
    ("train-encoder", "model", "latent_width = 0"),
    ("train-encoder", "train", "mask_strategy = bogus"),
    ("train-encoder", "train", "loss_setting = bogus"),
    ("train-encoder", "run", "target_points = many"),
    ("train-decoder", "train", "mask_strategy = bogus"),
    ("train-decoder", "train", "loss_setting = bogus"),
    ("train-decoder", "schedule", "beta_start = tiny"),
    ("train-decoder", "schedule", "beta_start = 0.9"),
    ("train-decoder", "run", "target_points = many"),
    ("train-encoder", "train", "seed = -1"),
    ("train-decoder", "train", "seed = -1"),
])
def test_malformed_config_value_exits_2(workspace, capsys, command, section, line):
    ws, config, dec_config = workspace
    if command == "train-decoder":
        config = dec_config
    key = line.split(" = ")[0]
    text = "".join(row for row in config.read_text().splitlines(True)
                   if not row.startswith(f"{key} = "))
    config.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    argv = [command, "--config", str(config), "--out", str(ws / "o")]
    if command == "train-decoder":
        cfg = toy_config(timesteps=3)
        training.save_checkpoint(ws / "enc.ckpt", cfg, Model.create(cfg, seed=0).params)
        argv += ["--ckpt-encoder", str(ws / "enc.ckpt")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not (ws / "o" / "resolved_config.ini").exists()


@pytest.mark.parametrize("text, value", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
])
def test_config_bools(text, value):
    assert cli._coerce(text, bool, "predict_visible") is value


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
    """A compress run that is valid but for its [schedule] section, which
    compress does not read (and ``residual``, which no command reads)."""
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
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:klein:64:0:0"), 1,
                 id="manifest-synth-kind"),
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:sphere:0:0:0"), 1,
                 id="manifest-synth-n-0"),
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:sphere:64:-1:0"), 1,
                 id="manifest-synth-sigma-negative"),
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:sphere:64:nan:0"), 1,
                 id="manifest-synth-sigma-nan"),
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:sphere:64:inf:0"), 1,
                 id="manifest-synth-sigma-inf"),
    pytest.param(lambda tmp: _bad_manifest(tmp, "synth:sphere:64:0:-1"), 1,
                 id="manifest-synth-seed-negative"),
    pytest.param(lambda tmp: _bad_grid(tmp, "0"), 1, id="eval-grid-0"),
    pytest.param(lambda tmp: _bad_grid(tmp, "-3"), 1, id="eval-grid-negative"),
    pytest.param(lambda tmp: _residual_key(tmp), 2, id="config-schedule-residual"),
])
def test_malformed_input_exits_without_traceback(tmp_path, capsys, make_argv, code):
    assert run(make_argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_CKPT_ARGS = ["--in", "c.ply", "--ckpt-decoder", "m.ckpt"]


_SEEDED = {
    "synth": ["--kind", "sphere", "--n", "8", "--out", "s.ply"],
    "train-encoder": ["--config", "x.ini"],
    "train-decoder": ["--config", "x.ini", "--ckpt-encoder", "e.ckpt"],
    "reconstruct": _CKPT_ARGS,
    "trace": _CKPT_ARGS,
    "complete": _CKPT_ARGS,
    "upsample": _CKPT_ARGS,
    "compress": ["--in", "c.ply"],
    "decompress": _CKPT_ARGS,
}


@pytest.mark.parametrize("command", _SEEDED)
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_seed_must_be_a_non_negative_integer(capsys, command, seed):
    argv = [command, *_SEEDED[command]]
    cli.build_parser().parse_args(argv + ["--seed", "0"])  # valid but for the seed
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --seed: expected a non-negative integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train-encoder", "train-decoder"])
@pytest.mark.parametrize("flag, seed", [([], "5"), (["--seed", "3"], "3")])
def test_train_seed_comes_from_the_config_unless_flagged(workspace, command, flag, seed):
    ws, config, dec_config = workspace
    argv = [command, "--out", str(ws / "o"), *flag]
    if command == "train-decoder":
        config = dec_config
        cfg = toy_config(timesteps=3)
        training.save_checkpoint(ws / "enc.ckpt", cfg, Model.create(cfg, seed=0).params)
        argv += ["--ckpt-encoder", str(ws / "enc.ckpt")]
    config.write_text(config.read_text().replace("[train]\n", "[train]\nseed = 5\n"))
    assert run(argv + ["--config", str(config)]) == 0
    assert f"seed = {seed}" in (ws / "o" / "resolved_config.ini").read_text().splitlines()


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "-inf", "x"])
def test_synth_sigma_must_be_finite_and_non_negative(tmp_path, capsys, sigma):
    out = tmp_path / "s.ply"
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--kind", "sphere", "--n", "8", f"--sigma={sigma}", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --sigma: expected a finite number >= 0" in err
    assert "Traceback" not in err and not out.exists()


def test_non_utf8_cloud_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_bytes(b"0 0 0\n\xff1 2 3\n")
    assert run(["compress", "--in", str(bad), "--out", str(tmp_path / "c.dpc")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and err.count("\n") == 1
    assert not (tmp_path / "c.dpc").exists()


def _config_run(workspace, command):
    """The config ``command`` reads, the rest of a valid argv for it and its
    output directory, which exists for compress only."""
    ws, config, dec_config = workspace
    out = ws / "o"
    if command == "compress":
        config = ws / "model.ini"
        config.write_text("[model]\nnum_groups = 8\ngroup_size = 8\n")
        data_io.save_cloud(data_io.synth_shape("sphere", 96, seed=1), ws / "c.ply")
        argv = ["--in", str(ws / "c.ply"), "--out", str(out / "c.dpc")]
        out.mkdir()
    elif command == "train-decoder":
        config = dec_config
        cfg = toy_config(timesteps=3)
        training.save_checkpoint(ws / "enc.ckpt", cfg, Model.create(cfg, seed=0).params)
        argv = ["--ckpt-encoder", str(ws / "enc.ckpt"), "--out", str(out)]
    else:
        argv = ["--out", str(out)]
    return config, argv, out


@pytest.mark.parametrize("command", ["train-encoder", "train-decoder"])
def test_manifest_without_train_rows_exits_1_writing_nothing(workspace, capsys, command):
    # a misspelled split must not train on nothing: the one error line names
    # the splits the manifest does hold, and no run metadata is written
    config, argv, out = _config_run(workspace, command)
    (workspace[0] / "data.tsv").write_text(
        "s1\tsynth:sphere:96:0.0:1\tTrain\n"
        "s2\tsynth:cube:96:0.0:2\ttrian\n"
    )
    assert run([command, "--config", str(config), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert "'Train', 'trian'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, line", [
    ("compress", "train", "epochs = 999"),
    ("compress", "schedule", "beta_start = 0.9"),
    ("compress", "run", "manifest = /nonexistent"),
    ("train-encoder", "schedule", "beta_start = 0.0001"),
    ("train-encoder", "train", "loss_setting = masked_only"),
    ("train-encoder", "train", "checkpoint_every = 7"),
    ("train-decoder", "train", "checkpoint_every = 7"),
    ("train-decoder", "schedule", "timesteps = 3"),
])
def test_config_the_command_does_not_read_exits_2(workspace, capsys, command, section, line):
    # a section or key the command would accept and then ignore
    config, argv, out = _config_run(workspace, command)
    text = config.read_text()
    header = f"[{section}]\n"
    config.write_text(text.replace(header, header + line + "\n") if header in text
                      else text + header + line + "\n")
    assert run([command, "--config", str(config), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(line.split(" = ")[0]) in err or header.strip() in err
    assert not (out / "resolved_config.ini").exists() and not (out / "c.dpc").exists()


@pytest.mark.parametrize("command", ["train-encoder", "train-decoder", "compress"])
def test_config_that_is_not_utf8_exits_1(workspace, capsys, command):
    config, argv, out = _config_run(workspace, command)
    head, rest = config.read_bytes().split(b"\n", 1)
    config.write_bytes(head + b"\n# \xff\n" + rest)
    assert run([command, "--config", str(config), *argv]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: byte 0xff is not UTF-8 text\n"
    assert not out.exists() or not any(out.iterdir())
    # a config that is not there at all stays a usage error
    assert run([command, "--config", str(config.with_name("missing.ini")), *argv]) == 2
    assert capsys.readouterr().err.startswith("error: config file not found")


@pytest.mark.parametrize("command", ["train-encoder", "train-decoder", "compress"])
def test_config_that_cannot_be_read_exits_1(workspace, capsys, command):
    # a path that exists but is no readable file is not a missing config
    config, argv, out = _config_run(workspace, command)
    unreadable = config.with_name("a-directory.ini")
    unreadable.mkdir()
    assert run([command, "--config", str(unreadable), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not found" not in err
    assert not out.exists() or not any(out.iterdir())


_BAD_MASK_RATIOS = ["0.999", "0.05", "1.5", "nan"]  # at G = 8, 0.999 masks every patch, 0.05 none


@pytest.mark.parametrize("via, key, value", [
    ("config", "enc_blocks", "-4"), ("config", "dec_blocks", "0"),
    *[("config", "mask_ratio", r) for r in _BAD_MASK_RATIOS],
    *[("flag", "mask_ratio", r) for r in _BAD_MASK_RATIOS],
])
@pytest.mark.parametrize("command", ["train-encoder", "compress"])
def test_model_config_out_of_range_exits_2_writing_nothing(workspace, capsys, command, via,
                                                           key, value):
    config, argv, out = _config_run(workspace, command)
    if via == "flag":
        argv += ["--mask-ratio", value]
    else:
        rows = [row for row in config.read_text().splitlines(True)
                if not row.startswith(f"{key} = ")]
        config.write_text("".join(rows).replace("[model]\n", f"[model]\n{key} = {value}\n"))
    assert run([command, "--config", str(config), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.5", "nan", "inf", "x"])
def test_upsample_visible_fraction_must_lie_in_the_open_unit_interval(capsys, fraction):
    argv = ["upsample", *_CKPT_ARGS]
    cli.build_parser().parse_args(argv + ["--visible-fraction", "0.5"])
    with pytest.raises(SystemExit) as exc:
        run(argv + [f"--visible-fraction={fraction}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --visible-fraction: expected a number in (0, 1)" in err
    assert "Traceback" not in err


def test_upsample_visible_fraction_that_leaves_an_empty_side_exits_1(tmp_path, capsys):
    # 0.001 passes the flag's own range check, but at G=8 it leaves no
    # visible patch: one error line names the flag's value and G
    cfg = toy_config(timesteps=3, predict_visible=True, upsample_factor=2)
    ckpt, cloud, out = tmp_path / "m.ckpt", tmp_path / "c.ply", tmp_path / "up.ply"
    training.save_checkpoint(ckpt, cfg, Model.create(cfg, seed=0).params)
    data_io.save_cloud(data_io.synth_shape("sphere", 128, seed=1), cloud)
    assert run(["upsample", "--in", str(cloud), "--ckpt-decoder", str(ckpt),
                "--visible-fraction", "0.001", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: visible_fraction=0.001 ") and err.count("\n") == 1
    assert "G=8" in err and "Traceback" not in err
    assert not out.exists()


def test_train_encoder_reads_no_loss_setting_flag(workspace, capsys):
    # the loss setting selects the decoder's Chamfer target; the encoder never reads it
    ws, config, _ = workspace
    with pytest.raises(SystemExit) as exc:
        run(["train-encoder", "--config", str(config), "--loss-setting", "masked_only",
             "--out", str(ws / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--loss-setting" in err
    assert not (ws / "o").exists()


@pytest.mark.parametrize("ini, command, other", [
    ("run.ini", "train-encoder", "train-decoder"),
    ("decoder.ini", "train-decoder", "train-encoder"),
])
def test_demo_config_loads_under_its_command_only(tmp_path, capsys, ini, command, other):
    cli.load_run_config(DEMOS / ini, command)
    argv = [other, "--config", str(DEMOS / ini), "--out", str(tmp_path / "o")]
    if other == "train-decoder":
        argv += ["--ckpt-encoder", str(tmp_path / "enc.ckpt")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_full_pipeline(workspace, capsys):
    ws, config, dec_config = workspace
    enc_dir = ws / "enc"
    assert run(["train-encoder", "--config", str(config), "--out", str(enc_dir)]) == 0
    assert (enc_dir / "encoder.ckpt").exists()
    assert (enc_dir / "encoder_loss.csv").exists()
    # it records the values the run read, so it loads under the same row
    cli.load_run_config(enc_dir / "resolved_config.ini", "train-encoder")

    dec_dir = ws / "dec"
    assert run(["train-decoder", "--config", str(dec_config),
                "--ckpt-encoder", str(enc_dir / "encoder.ckpt"),
                "--out", str(dec_dir)]) == 0
    ckpt = dec_dir / "decoder.ckpt"
    assert training.load_model(ckpt).cfg.timesteps == 3  # the encoder's T

    cloud = ws / "shape.ply"
    run(["synth", "--kind", "torus", "--n", "96", "--out", str(cloud)])

    recon = ws / "recon.ply"
    assert run(["reconstruct", "--in", str(cloud), "--ckpt-decoder", str(ckpt),
                "--out", str(recon), "--seed", "3"]) == 0
    assert len(data_io.load_cloud(recon)) == 8 * 8

    blob = ws / "shape.dpc"
    model_config = ws / "model.ini"  # compress reads [model] only
    model_config.write_text(config.read_text().split("[train]")[0])
    assert run(["compress", "--in", str(cloud), "--config", str(model_config),
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
    # T is stated once, as the encoder's [model] timesteps: the decoder
    # reads no [schedule] timesteps, so one that differs is a usage error
    ws, config, dec_config = workspace
    enc_dir = ws / "enc"
    assert run(["train-encoder", "--config", str(config), "--out", str(enc_dir)]) == 0
    capsys.readouterr()
    dec_config.write_text(dec_config.read_text().replace("[schedule]\n",
                                                         "[schedule]\ntimesteps = 4\n"))
    dec_dir = ws / "dec"
    assert run(["train-decoder", "--config", str(dec_config),
                "--ckpt-encoder", str(enc_dir / "encoder.ckpt"), "--out", str(dec_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'timesteps'" in err
    assert not (dec_dir / "resolved_config.ini").exists()


def test_train_decoder_rejects_a_model_section(workspace, capsys):
    # the decoder's model config is the encoder checkpoint's; a [model]
    # section would be read and then ignored
    ws, config, dec_config = workspace
    cfg = toy_config(timesteps=3)
    training.save_checkpoint(ws / "enc.ckpt", cfg, Model.create(cfg, seed=0).params)
    dec_dir = ws / "dec"
    bad = ws / "bad.ini"
    bad.write_text("[model]\ntimesteps = 3\n" + dec_config.read_text())
    assert run(["train-decoder", "--config", str(bad),
                "--ckpt-encoder", str(ws / "enc.ckpt"), "--out", str(dec_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "[model]" in err
    assert not (dec_dir / "resolved_config.ini").exists()
    assert run(["train-decoder", "--config", str(dec_config),
                "--ckpt-encoder", str(ws / "enc.ckpt"), "--out", str(dec_dir)]) == 0


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


def test_eval_csv_equals_the_composed_public_functions(tmp_path, nn_searches):
    # four translated shapes, where evaluate skips every off-diagonal
    # second search: 2 searches for each of the 4 diagonal pairs, 1 for
    # each of the other 12
    dirs = {"gen": ((300, 310, 320, 330), 1), "ref": ((305, 315, 325, 335), 5)}
    sets = {}
    for name, (sizes, seed) in dirs.items():
        (tmp_path / name).mkdir()
        for k, pts in enumerate(translated_shapes(sizes, seed)):
            data_io.save_cloud(PointCloud(pts), tmp_path / name / f"shape{k}.ply")
        sets[name] = [data_io.load_cloud(tmp_path / name / f"shape{k}.ply") for k in range(4)]
    out = tmp_path / "metrics.csv"
    assert run(["eval", "--gen", str(tmp_path / "gen"), "--ref", str(tmp_path / "ref"),
                "--out", str(out)]) == 0
    assert len(nn_searches) == 2 * 4 + 12
    want = tmp_path / "want.csv"
    metrics.report_to_csv(composed_report(sets["gen"], sets["ref"],
                                          ids=[f"shape{k}" for k in range(4)]), want)
    assert out.read_bytes() == want.read_bytes()


def test_reconstruct_determinism_via_cli(workspace):
    ws, config, dec_config = workspace
    enc_dir = ws / "enc"
    run(["train-encoder", "--config", str(config), "--out", str(enc_dir)])
    dec_dir = ws / "dec"
    run(["train-decoder", "--config", str(dec_config),
         "--ckpt-encoder", str(enc_dir / "encoder.ckpt"), "--out", str(dec_dir)])
    cloud = ws / "c.ply"
    run(["synth", "--kind", "cube", "--n", "96", "--out", str(cloud)])
    a = ws / "a.ply"
    b = ws / "b.ply"
    for out in (a, b):
        run(["reconstruct", "--in", str(cloud), "--out", str(out),
             "--ckpt-decoder", str(dec_dir / "decoder.ckpt"), "--seed", "7"])
    assert a.read_bytes() == b.read_bytes()


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
