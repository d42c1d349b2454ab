"""pointdiff benchmark: one workload in this process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it carry the run metadata, the output digest and every
metric under its workload-specific name.  ``--trace 1`` repeats the measured
passes with spans around each pointdiff layer and reports per-layer metrics
instead of end-to-end ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# fixed before numpy is imported anywhere in this process
BLAS_THREADS = 1
SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-acceptance", "infer-paper", "codec-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test only")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pointdiff" / "__init__.py").is_file():
        print(f"error: no pointdiff sources at {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
