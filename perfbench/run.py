"""driftkit end-to-end pipeline benchmark: synth -> train -> pfi -> eval.

    python3 perfbench/run.py --workload pipeline_default --seed 0 --seconds 30 --trace 0

    # every workload, end-to-end metrics
    for w in pipeline_default train_small_batch score_wide; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0; done

Run it from the root of a driftkit checkout; it imports ``src/driftkit``
and exits with code 2, printing no result, where there is none.

A run sets up its workload several times (``setup_s`` is the median),
then repeats train -> pfi -> eval cycles, one after another, for about
``--seconds`` (at least three cycles) and reports medians over them.
Outputs are checked on every stage; see ``pipeline.py``. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles, reports the per-layer metrics from the traced
ones (see ``spans.py``) and the difference of the two as tracing
overhead, and writes every span to ``.perfbench_out/traces/<workload>.npz``.
Everything a run writes, including a full result record with the
environment and the artifact digests, goes under ``.perfbench_out/``.

BLAS and driftkit's PFI pool each run on one thread, set here before
numpy loads; the result record holds the settings and ``nproc``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: on a shared two-core machine, two threads cut pipeline_s
# by about a third but gave two to three times the run-to-run spread,
# most of all on the small matrices of train_small_batch.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DRIFTKIT_THREADS": "1",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "driftkit" / "__init__.py").is_file():
        print(f"perfbench: no driftkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports numpy, so only after the thread settings

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
