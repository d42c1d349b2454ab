"""Smoke test of the benchmark itself, at the tiny size (about a minute).

    python3 bench/smoke.py

For every workload it runs bench/run.py untraced and traced and checks that
each run is correct, that the last line carries exactly the metrics
BENCHMARK.json names with their units, that the workload's named metrics are
printed with their units, and that traced, untraced and repeated runs of one
seed produce the same output digest.  It also checks that the benchmark
refuses to run, with no result, in a directory that holds no pointdiff
sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# workload-specific metric names and units printed on "# metric" lines
NAMED = {
    "train-acceptance": {
        "train.enc_items_per_s": "clouds*steps/s", "train.dec_items_per_s": "clouds*steps/s",
        "train.dec_step_s.p50": "s", "train.dec_step_s.p90": "s",
    },
    "infer-paper": {"infer.clouds_per_s": "1/s", "infer.cloud_s.p50": "s"},
    "codec-large": {
        "codec.compress_pts_per_s": "pts/s", "codec.parse_pts_per_s": "pts/s",
        "codec.bpp": "bits/pt", "eval.pts_per_s": "pts/s",
    },
}
COMMON = {"fail_ratio": "failed/attempted"}


def run(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(ok, message):
    if not ok:
        sys.exit(f"FAIL {message}")


def result_of(proc, label):
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: not correct\n{proc.stdout}")
    digests = dict(re.findall(r"^# digest \S+ ?(traced)? sha256:(\w+)$", proc.stdout, re.M))
    named = {m[0]: m[1] for m in re.findall(r"^# metric (\S+) = \S+ (\S+) \(n=\d+\)$",
                                            proc.stdout, re.M)}
    return result, digests, named


def main():
    digests_seen = set()
    for spec in SPEC["workloads"]:
        workload = spec["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            result, digests, named = result_of(run(ROOT, workload, trace), label)
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{label}: metrics {sorted(got)} != {sorted(want)}")
            digests_seen.add((workload, digests[""]))
            if trace:
                check(digests["traced"] == digests[""], f"{label}: traced digest differs")
            else:
                want_named = {**NAMED[workload], **COMMON}
                check(named == want_named, f"{label}: named metrics {named}")
            print(f"ok {label}")
    check(len(digests_seen) == len(SPEC["workloads"]), "digest differs between runs")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        check(proc.returncode != 0 and "correct" not in proc.stdout,
              "a directory without sources still gave a result")
        print("ok refuses to run without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
