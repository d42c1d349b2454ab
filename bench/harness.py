"""Runs one workload: repeated set-up, timed closed-loop passes, output
checks, optional traced repeat, and the result lines.  Started by run.py,
which fixes the BLAS thread count and the import path first."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
from pathlib import Path

import numpy as np
import scipy

from pointdiff import engine
from spans import Tracer, clock, tracing
from workloads import WORKLOADS, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

# <layer>.<function>.self_s: self time, .s: inclusive time, .calls: calls,
# over the traced run's one set-up and one pass
PER_LAYER = (
    "geometry.fps.self_s", "geometry.knn_group.self_s", "geometry.segment.self_s",
    "geometry.apply_mask.self_s",
    "engine.backward.self_s", "engine.backward.nodes", "engine.adam_step.self_s",
    "engine.matmul.calls", "engine.matmul.self_s", "engine.tape_nodes_per_decode",
    "model.encode_patches.self_s", "model.encode_patches.calls",
    "model.decode.self_s", "model.decode.calls", "model.transformer_block.self_s",
    "diffusion.sample.self_s", "diffusion.reverse_step.self_s",
    "training.chamfer_loss.self_s", "training.save_checkpoint.self_s",
    "training.load_model.self_s", "training.pretrain_encoder.self_s",
    "training.train_decoder.self_s",
    "tasks.compress.self_s", "tasks.parse_blob.self_s", "tasks.reconstruct.s",
    "tasks.complete.s", "tasks.upsample.s", "tasks.decompress.s",
    "tasks.sample_patches.self_s",
    "metrics.chamfer_l2.self_s", "metrics.hausdorff.self_s", "metrics.evaluate.self_s",
    "data_io.load_cloud.self_s", "data_io.save_cloud.self_s", "data_io.synth_shape.self_s",
    "trace.overhead",
)

# counters: metric -> (counter name, span whose calls it is averaged over)
RATIOS = {
    "engine.backward.nodes": ("engine.backward.nodes", "engine.backward"),
    "engine.tape_nodes_per_decode": ("engine.tape_nodes_decode", "model.decode"),
}


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def measure(workload, size, seed, workdir, rec, seconds=None, passes=None,
            setup_repeats=1):
    """Run whole passes, each on a fresh set-up: the number whose total pass
    time comes closest to ``seconds`` (at least one), or exactly ``passes``.

    Set-ups are timed; extra ones run after the last pass until there are
    ``setup_repeats``.  Returns (set-up times, pass time, passes, digest of
    pass 0).
    """
    setup, run_pass, _ = WORKLOADS[workload]

    def timed_setup():
        t0 = clock()
        with rec.tracer.request(f"setup{len(setups)}"):
            state = setup(size, seed, str(workdir))
        setups.append(clock() - t0)
        return state

    setups = []
    out_digest, done, loop_s = None, 0, 0.0
    while True:
        state = timed_setup()
        t0 = clock()
        with rec.tracer.request(f"pass{done}"):
            outputs = run_pass(state, rec)
        loop_s += clock() - t0
        del state
        if done == 0:
            out_digest = digest(outputs)
        done += 1
        # stop unless one more pass brings the total closer to ``seconds``
        if (done >= passes) if passes else (loop_s + loop_s / done / 2 >= seconds):
            break
    while len(setups) < setup_repeats:
        timed_setup()
    return setups, loop_s, done, out_digest


def git_head():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, passes, blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "passes": passes,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
        "precision": engine.get_precision(), "git_head": git_head(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def per_layer(tracer, overhead):
    """Per-layer metrics of a traced run of one set-up and one pass."""
    totals = tracer.totals()
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            out[name] = (overhead, "ratio")
        elif name in RATIOS:
            counter, span = RATIOS[name]
            calls = totals.get(span, (0, 0, 0))[2]
            out[name] = (tracer.counts.get(counter, 0) / calls if calls else 0.0, "count")
        else:
            span, field = name.rsplit(".", 1)
            k, unit = {"self_s": (0, "s"), "s": (1, "s"), "calls": (2, "count")}[field]
            out[name] = (totals.get(span, (0, 0, 0))[k], unit)
    return out


def main(args, blas_threads):
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rec = Recorder(Tracer())
        # a traced run needs one untraced pass: the reference for the bitwise
        # comparison and for the tracing overhead
        setups, loop_s, passes, out_digest = measure(
            args.workload, args.size, args.seed, workdir, rec,
            seconds=args.seconds, passes=1 if args.trace else None,
            setup_repeats=1 if args.trace else SETUP_REPEATS)

        print("# meta " + json.dumps(metadata(args, passes, blas_threads), sort_keys=True))
        print(f"# digest {args.workload} sha256:{out_digest}")
        if args.trace:
            tracer = Tracer()
            traced = Recorder(tracer)
            with tracing(tracer):
                _, traced_s, _, traced_digest = measure(
                    args.workload, args.size, args.seed, workdir, traced, passes=1)
            print(f"# digest {args.workload} traced sha256:{traced_digest}")
            rec.attempted += traced.attempted
            rec.failures += traced.failures
            if traced_digest != out_digest:
                rec.failures.append("traced outputs differ from untraced outputs")
            metrics = per_layer(tracer, traced_s / loop_s - 1.0)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            with open(traces / f"{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump(tracer.dump(), fh)
        else:
            m = WORKLOADS[args.workload][2](rec)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (rss_mb, "MiB"),
                "items_per_s": (m["items_per_s"], "1/s"),
                "op_s.p50": (statistics.median(m["op_s"]), "s"),
                "pass_s": (statistics.median(m["pass_s"]), "s"),
            }
            for name, value, unit, n in m["named"]:
                print(f"# metric {name} = {value!r} {unit} (n={n})")
            print(f"# metric fail_ratio = {len(rec.failures) / rec.attempted!r} "
                  f"failed/attempted (n={rec.attempted})")
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value!r} {unit}")
        for failure in rec.failures:
            print(f"# FAILED {failure}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
