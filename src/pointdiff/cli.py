"""Command-line interface.

Every run resolves a plain key=value config (sections [model], [train],
[schedule], [run]; unknown keys rejected), applies flag overrides, and
writes the resolved config and tool version next to its artifacts.

Exit codes: 0 success, 1 runtime error (including a missing or unreadable
file), 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path


from . import __version__, data_io, diffusion, metrics, tasks, training
from . import engine as eg
from .errors import InvalidArgument, PointdiffError
from .model import Model, ModelConfig
from .training import TrainConfig

_SCHEDULE_KEYS = {"timesteps", "beta_start", "beta_end"}
_RUN_KEYS = {"manifest", "target_points", "out_dir"}


class UsageError(PointdiffError):
    pass


def _known_keys():
    return {
        "model": {f.name for f in dataclasses.fields(ModelConfig)},
        "train": {f.name for f in dataclasses.fields(TrainConfig)},
        "schedule": _SCHEDULE_KEYS,
        "run": _RUN_KEYS,
    }


def load_run_config(path):
    """Parse the sectioned key=value config file; reject unknown keys."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    known = _known_keys()
    out = {section: {} for section in known}
    for section in parser.sections():
        if section not in known:
            raise UsageError(f"unknown config section [{section}]")
        for key, value in parser[section].items():
            if key not in known[section]:
                raise UsageError(f"unknown key {key!r} in section [{section}]")
            out[section][key] = value
    return out


def _coerce(value, target_type):
    if target_type is bool:
        return value.lower() in ("1", "true", "yes", "on") if isinstance(value, str) else bool(value)
    return target_type(value)


def _build_dataclass(cls, raw, overrides):
    merged = dict(raw)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in merged:
            value = merged[f.name]
            base = f.type if isinstance(f.type, type) else type(f.default)
            if isinstance(value, str) and base in (int, float, bool):
                value = _coerce(value, base)
            kwargs[f.name] = value
    return cls(**kwargs)


def _schedule_from(raw, T):
    """The [schedule] noise schedule for a model trained with T steps; a
    ``timesteps`` key, when given, must repeat T."""
    if int(raw.get("timesteps", T)) != T:
        raise InvalidArgument(
            f"[schedule] timesteps = {raw['timesteps']} differs from the encoder's T = {T}"
        )
    return diffusion.build_schedule(
        T,
        float(raw.get("beta_start", 1e-4)),
        float(raw.get("beta_end", 0.05)),
    )


def write_run_metadata(out_dir, model_cfg=None, train_cfg=None, schedule_raw=None, run_raw=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# pointdiff {__version__}", f"# precision {eg.get_precision()}"]
    for section, payload in (
        ("model", model_cfg.to_dict() if model_cfg else None),
        ("train", dataclasses.asdict(train_cfg) if train_cfg else None),
        ("schedule", schedule_raw),
        ("run", run_raw),
    ):
        if not payload:
            continue
        lines.append(f"[{section}]")
        for key, value in payload.items():
            if hasattr(value, "value"):
                value = value.value
            lines.append(f"{key} = {value}")
    (out_dir / "resolved_config.ini").write_text("\n".join(lines) + "\n")


def _load_dataset(run_raw):
    manifest_path = run_raw.get("manifest")
    if not manifest_path:
        raise UsageError("config [run] must name a dataset manifest")
    target = int(run_raw.get("target_points", 2048))
    manifest = data_io.read_manifest(manifest_path, target)
    return manifest.load(split="train")


def _load_model(path) -> Model:
    if not path:
        raise UsageError("a model checkpoint is required (--ckpt-decoder)")
    return training.load_model(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    cloud = data_io.synth_shape(args.kind, args.n, args.sigma, args.seed)
    data_io.save_cloud(cloud, args.out)
    print(f"wrote {args.out} ({len(cloud)} points)")


def cmd_train_encoder(args):
    cfgfile = load_run_config(args.config)
    model_cfg = _build_dataclass(ModelConfig, cfgfile["model"], {"mask_ratio": args.mask_ratio})
    train_cfg = _build_dataclass(
        TrainConfig,
        cfgfile["train"],
        {"seed": args.seed, "mask_strategy": args.mask_strategy, "loss_setting": args.loss_setting},
    )
    dataset = _load_dataset(cfgfile["run"])
    out_dir = Path(args.out or cfgfile["run"].get("out_dir", "."))
    write_run_metadata(out_dir, model_cfg, train_cfg, cfgfile["schedule"], cfgfile["run"])

    model, curve = training.pretrain_encoder(dataset, model_cfg, train_cfg)
    training.save_checkpoint(out_dir / "encoder.ckpt", model_cfg, model.params)
    training.curve_to_csv(curve, out_dir / "encoder_loss.csv")
    print(f"final encoder loss {curve[-1]:.6e}; checkpoint at {out_dir / 'encoder.ckpt'}")


def cmd_train_decoder(args):
    cfgfile = load_run_config(args.config)
    encoder = _load_model(args.ckpt_encoder)
    train_cfg = _build_dataclass(
        TrainConfig,
        cfgfile["train"],
        {"seed": args.seed, "mask_strategy": args.mask_strategy, "loss_setting": args.loss_setting},
    )
    schedule = _schedule_from(cfgfile["schedule"], encoder.cfg.timesteps)
    dataset = _load_dataset(cfgfile["run"])
    out_dir = Path(args.out or cfgfile["run"].get("out_dir", "."))
    write_run_metadata(out_dir, encoder.cfg, train_cfg, cfgfile["schedule"], cfgfile["run"])

    model, curve, _ = training.train_decoder(dataset, encoder, train_cfg, schedule)
    training.save_checkpoint(out_dir / "decoder.ckpt", model.cfg, model.params)
    training.curve_to_csv(curve, out_dir / "decoder_loss.csv")
    print(f"final decoder loss {curve[-1]:.6e}; checkpoint at {out_dir / 'decoder.ckpt'}")


def _single_cloud_inputs(args):
    """The checkpoint's model, its sampling schedule and the normalized --in cloud."""
    model = _load_model(args.ckpt_decoder)
    schedule = diffusion.build_schedule(model.cfg.timesteps)
    cloud, _ = data_io.normalize(data_io.load_cloud(args.input))
    return model, schedule, cloud


def _single_cloud_task(args, suffix, task, **options):
    model, schedule, cloud = _single_cloud_inputs(args)
    result = task(cloud, model, schedule, seed=args.seed, **options)
    out = args.out or str(Path(args.input).with_suffix("")) + f"_{suffix}.ply"
    data_io.save_cloud(result, out)
    print(f"wrote {out} ({len(result)} points)")


def cmd_reconstruct(args):
    _single_cloud_task(args, "recon", tasks.reconstruct,
                       mask_strategy=args.mask_strategy or "random")


def cmd_complete(args):
    centers = data_io.load_cloud(args.centers).points if args.centers else None
    _single_cloud_task(args, "complete", tasks.complete, masked_centers=centers)


def cmd_upsample(args):
    _single_cloud_task(args, "upsampled", tasks.upsample, visible_fraction=args.visible_fraction)


def cmd_compress(args):
    cfg_raw = load_run_config(args.config)["model"] if args.config else {}
    model_cfg = _build_dataclass(ModelConfig, cfg_raw, {"mask_ratio": args.mask_ratio})
    cloud, _ = data_io.normalize(data_io.load_cloud(args.input))
    blob = tasks.compress(
        cloud,
        model_cfg,
        mask_seed=args.seed,
        quant_bits=args.quant_bits,
        mask_strategy=args.mask_strategy or "random",
    )
    out = args.out or args.input + ".dpc"
    Path(out).write_bytes(blob)
    print(f"wrote {out}: {len(blob)} bytes, bpp {tasks.bpp(blob, len(cloud)):.4f}")


def cmd_decompress(args):
    model = _load_model(args.ckpt_decoder)
    schedule = diffusion.build_schedule(model.cfg.timesteps)
    raw = Path(args.input).read_bytes()
    cloud = tasks.decompress(raw, model, schedule, seed=args.seed)
    out = args.out or args.input + ".ply"
    data_io.save_cloud(cloud, out)
    print(f"wrote {out} ({len(cloud)} points)")


def _clouds_in_dir(path):
    files = sorted(
        p for p in Path(path).iterdir() if p.suffix.lower() in (".ply", ".xyz", ".txt")
    )
    if not files:
        raise PointdiffError(f"no point cloud files in {path}")
    return [data_io.load_cloud(str(p)) for p in files], [p.stem for p in files]


def cmd_eval(args):
    gen, ids = _clouds_in_dir(args.gen)
    ref, _ = _clouds_in_dir(args.ref)
    report = metrics.evaluate(gen, ref, grid_resolution=args.grid, ids=ids)
    out = args.out or "metrics.csv"
    metrics.report_to_csv(report, out)
    print(
        f"mmd_cd {report.mmd_cd:.6e}  1nn_cd {report.one_nn_cd:.6e}  "
        f"jsd {report.jsd:.6e}  hd {report.hd:.6e}  -> {out}"
    )


def cmd_trace(args):
    model, schedule, cloud = _single_cloud_inputs(args)
    out_dir = Path(args.out or "trace")
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_frame(t, frame):
        data_io.save_cloud(frame, str(out_dir / f"step_{schedule.T - 1 - t:04d}.ply"))

    tasks.reconstruct(cloud, model, schedule, seed=args.seed,
                      mask_strategy=args.mask_strategy or "random", on_step=write_frame)
    print(f"wrote {schedule.T} frames under {out_dir}")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(prog="pointdiff", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pointdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(help="run config file (key=value sections)"),
        "--mask-ratio": dict(type=float),
        "--mask-strategy": dict(choices=("random", "block")),
        "--loss-setting": dict(choices=("entire_object", "masked_only")),
    }

    def common(p, *read, needs_input=False, needs_ckpt=False):
        """--seed, --out and the named ``flags`` the subcommand reads."""
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output file or directory")
        for flag in read:
            p.add_argument(flag, **flags[flag])
        if needs_input:
            p.add_argument("--in", dest="input", required=True, help="input point cloud")
        if needs_ckpt:
            p.add_argument("--ckpt-decoder", dest="ckpt_decoder", required=True,
                           help="trained model checkpoint")

    p = sub.add_parser("synth", help="generate a synthetic shape")
    p.add_argument("--kind", required=True, choices=data_io.SYNTH_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-encoder", help="pretrain the encoder")
    common(p, "--config", "--mask-ratio", "--mask-strategy", "--loss-setting")
    p.set_defaults(func=cmd_train_encoder, _needs_config=True)

    p = sub.add_parser("train-decoder", help="train the diffusion decoder")
    common(p, "--config", "--mask-strategy", "--loss-setting")
    p.add_argument("--ckpt-encoder", dest="ckpt_encoder", required=True)
    p.set_defaults(func=cmd_train_decoder, _needs_config=True)

    p = sub.add_parser("reconstruct", help="mask + regenerate a cloud")
    common(p, "--mask-strategy", needs_input=True, needs_ckpt=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("complete", help="fill in a partial cloud")
    common(p, needs_input=True, needs_ckpt=True)
    p.add_argument("--centers", help="side-information file of masked patch centers")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("upsample", help="densify a cloud (Config 2 model)")
    common(p, needs_input=True, needs_ckpt=True)
    p.add_argument("--visible-fraction", dest="visible_fraction", type=float, default=0.4)
    p.set_defaults(func=cmd_upsample)

    p = sub.add_parser("compress", help="serialize visible patches + centers")
    common(p, "--config", "--mask-ratio", "--mask-strategy", needs_input=True)
    p.add_argument("--quant-bits", dest="quant_bits", type=int, default=10)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="reconstruct a cloud from a blob")
    common(p, needs_input=True, needs_ckpt=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("eval", help="score generated clouds against references")
    p.add_argument("--gen", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--grid", type=int, default=32, help="JSD voxel resolution")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="dump every reverse-sampling step as PLY")
    common(p, "--mask-strategy", needs_input=True, needs_ckpt=True)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "_needs_config", False) and not args.config:
        print("error: --config is required for training commands", file=sys.stderr)
        return 2
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PointdiffError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
