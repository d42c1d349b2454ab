"""Command-line interface.

``train-encoder``, ``train-decoder`` and ``compress`` read a plain
key=value config.  ``CONFIG_KEYS`` names the sections, and the keys within
them, that each one reads; any other section or key is a usage error.  T is
stated once, as ``[model] timesteps``: train-decoder takes its whole model
config from the encoder checkpoint.  A training run applies flag overrides
and writes the values it read, with the tool version, next to its artifacts.

Exit codes: 0 success, 1 runtime error (including a missing or unreadable
file), 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
from pathlib import Path


from . import __version__, data_io, diffusion, metrics, tasks, training
from . import engine as eg
from .errors import InvalidArgument, ParseError, PointdiffError
from .model import Model, ModelConfig
from .training import TrainConfig

_MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig))
_TRAIN_KEYS = ("epochs", "batch_size", "lr", "seed", "mask_strategy", "remask_every")
_RUN_KEYS = ("manifest", "target_points", "out_dir")

# The config sections each subcommand reads, and the keys it reads in each.
# ``TrainConfig.checkpoint_every`` is for library callers: no row reads it.
CONFIG_KEYS = {
    "train-encoder": {"model": _MODEL_KEYS, "train": _TRAIN_KEYS, "run": _RUN_KEYS},
    "train-decoder": {
        "train": _TRAIN_KEYS + ("loss_setting",),
        "schedule": ("beta_start", "beta_end"),
        "run": _RUN_KEYS,
    },
    "compress": {"model": _MODEL_KEYS},
}


class UsageError(PointdiffError):
    pass


def load_run_config(path, command):
    """Parse the sectioned key=value config file of ``command``; a section
    or key that ``CONFIG_KEYS[command]`` does not name is a usage error, and
    a byte that is not UTF-8 a ParseError naming its line."""
    try:
        text = data_io._read_text(path)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:  # a repeated key, no section header, ...
        raise UsageError("malformed config file: " + " ".join(str(exc).split())) from None
    known = CONFIG_KEYS[command]
    out = {section: {} for section in known}
    for section in parser.sections():
        if section not in known:
            raise UsageError(f"{command} reads no config section [{section}]; it reads "
                             + ", ".join(f"[{name}]" for name in known))
        for key, value in parser[section].items():
            if key not in known[section]:
                raise UsageError(f"{command} reads no key {key!r} in section [{section}]")
            out[section][key] = value
    return out


def _coerce(value, target_type, key):
    """The config string ``value`` of ``key`` as ``target_type``; a value
    that does not parse is a usage error.  Bools take 1/0, true/false,
    yes/no and on/off, in any case."""
    try:
        if target_type is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
        return target_type(value)
    except (KeyError, ValueError):
        raise UsageError(f"{key} = {value!r} is not a valid {target_type.__name__}") from None


def _build_dataclass(cls, raw, overrides):
    """``cls`` from config strings and flag overrides; a value ``cls``
    rejects is a usage error."""
    merged = dict(raw)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in merged:
            value = merged[f.name]
            base = f.type if isinstance(f.type, type) else type(f.default)
            if isinstance(value, str) and base in (int, float, bool):
                value = _coerce(value, base, f.name)
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except InvalidArgument as exc:
        raise UsageError(str(exc)) from exc


def write_run_metadata(out_dir, sections=()):
    """Write ``resolved_config.ini``: the tool version, the active precision
    and each non-empty ``(section, {key: value})`` of ``sections``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# pointdiff {__version__}", f"# precision {eg.get_precision()}"]
    for section, payload in sections:
        if not payload:
            continue
        lines.append(f"[{section}]")
        for key, value in payload.items():
            if hasattr(value, "value"):
                value = value.value
            lines.append(f"{key} = {value}")
    (out_dir / "resolved_config.ini").write_text("\n".join(lines) + "\n")


def _train_values(train_cfg, command):
    """The [train] values of ``train_cfg`` that ``command`` reads."""
    return {key: getattr(train_cfg, key) for key in CONFIG_KEYS[command]["train"]}


def _load_dataset(run_raw):
    manifest_path = run_raw.get("manifest")
    if not manifest_path:
        raise UsageError("config [run] must name a dataset manifest")
    target = _coerce(run_raw.get("target_points", "2048"), int, "target_points")
    manifest = data_io.read_manifest(manifest_path, target)
    splits = sorted({entry.split for entry in manifest.entries})
    if "train" not in splits:
        found = ", ".join(map(repr, splits)) or "none"
        raise ParseError(f"{manifest_path}: no entry has split 'train' (splits found: {found})")
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
    cfgfile = load_run_config(args.config, "train-encoder")
    model_cfg = _build_dataclass(ModelConfig, cfgfile["model"], {"mask_ratio": args.mask_ratio})
    train_cfg = _build_dataclass(
        TrainConfig, cfgfile["train"], {"seed": args.seed, "mask_strategy": args.mask_strategy}
    )
    dataset = _load_dataset(cfgfile["run"])
    out_dir = Path(args.out or cfgfile["run"].get("out_dir", "."))
    write_run_metadata(out_dir, [("model", model_cfg.to_dict()),
                                 ("train", _train_values(train_cfg, "train-encoder")),
                                 ("run", cfgfile["run"])])

    model, curve = training.pretrain_encoder(dataset, model_cfg, train_cfg)
    training.save_checkpoint(out_dir / "encoder.ckpt", model_cfg, model.params)
    training.curve_to_csv(curve, out_dir / "encoder_loss.csv")
    print(f"final encoder loss {curve[-1]:.6e}; checkpoint at {out_dir / 'encoder.ckpt'}")


def cmd_train_decoder(args):
    cfgfile = load_run_config(args.config, "train-decoder")
    encoder = _load_model(args.ckpt_encoder)
    train_cfg = _build_dataclass(
        TrainConfig,
        cfgfile["train"],
        {"seed": args.seed, "mask_strategy": args.mask_strategy, "loss_setting": args.loss_setting},
    )
    betas = {key: _coerce(value, float, key) for key, value in cfgfile["schedule"].items()}
    try:
        schedule = diffusion.build_schedule(encoder.cfg.timesteps, **betas)
    except InvalidArgument as exc:
        raise UsageError(str(exc)) from exc
    dataset = _load_dataset(cfgfile["run"])
    out_dir = Path(args.out or cfgfile["run"].get("out_dir", "."))
    write_run_metadata(out_dir, [("model", encoder.cfg.to_dict()),
                                 ("train", _train_values(train_cfg, "train-decoder")),
                                 ("schedule", cfgfile["schedule"]),
                                 ("run", cfgfile["run"])])

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
    cfg_raw = load_run_config(args.config, "compress")["model"] if args.config else {}
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


def _checked(convert, accept, expected):
    """An argparse ``type``: ``convert(text)`` when ``accept`` takes it,
    else a usage error naming ``expected``."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


# numpy seeds its generators from non-negative integers only
_SEED = _checked(int, lambda v: v >= 0, "a non-negative integer")
_SIGMA = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_QUANT_BITS = _checked(int, lambda v: v in tasks.QUANT_BITS, "an integer in [6, 16]")


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
        p.add_argument("--seed", type=_SEED, default=0)
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
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--sigma", type=_SIGMA, default=0.0)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-encoder", help="pretrain the encoder")
    common(p, "--mask-ratio", "--mask-strategy")
    p.add_argument("--config", required=True, **flags["--config"])
    # seed=None: without --seed, [train] seed or TrainConfig's default holds
    p.set_defaults(func=cmd_train_encoder, seed=None)

    p = sub.add_parser("train-decoder", help="train the diffusion decoder")
    common(p, "--mask-strategy", "--loss-setting")
    p.add_argument("--config", required=True, **flags["--config"])
    p.add_argument("--ckpt-encoder", dest="ckpt_encoder", required=True)
    p.set_defaults(func=cmd_train_decoder, seed=None)

    p = sub.add_parser("reconstruct", help="mask + regenerate a cloud")
    common(p, "--mask-strategy", needs_input=True, needs_ckpt=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("complete", help="fill in a partial cloud")
    common(p, needs_input=True, needs_ckpt=True)
    p.add_argument("--centers", help="side-information file of masked patch centers")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("upsample", help="densify a cloud (Config 2 model)")
    common(p, needs_input=True, needs_ckpt=True)
    p.add_argument("--visible-fraction", dest="visible_fraction", type=_FRACTION, default=0.4)
    p.set_defaults(func=cmd_upsample)

    p = sub.add_parser("compress", help="serialize visible patches + centers")
    common(p, "--config", "--mask-ratio", "--mask-strategy", needs_input=True)
    p.add_argument("--quant-bits", dest="quant_bits", type=_QUANT_BITS, default=10)
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
