"""Peak RSS and wall time of one super_resolve call per (variant, t), and of
one training step per variant.

Each measurement runs in a fresh Python process with one BLAS thread, so
its `ru_maxrss` is the peak of that single request (imports, model build,
encoder and INR query assembly) or step (the same, plus the tape, backward
and Adam update) and nothing else.  With one BLAS thread the encoder's
conv2d bands and the INR query chunks run on one thread per core
(`parallel._workers()`, printed in the header).  Prints one row per
(variant, t) with the median SR time and the median and largest peak RSS
over the repetitions, then one row per variant for one `training.train`
step of the default model at the benchmark's train-steps shape (stripes of
size 96, batch 4, patch 24).

    PYTHONPATH=src python tools/rss_probe.py                 # t in {1, 4, 16}
    PYTHONPATH=src python tools/rss_probe.py --t 1 4 --reps 3
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

VARIANTS = ("liif", "ope", "lte")
SIDE = 64  # LR side; at SCALE the output is 256x256
SCALE = 4.0


def child(variant: str, t: str) -> None:
    """One SR request at group order t, or one training step when t is "train"."""
    import numpy as np

    from equisr.data import DatasetSpec
    from equisr.image import Image
    from equisr.inr import ModelConfig, build_model, super_resolve
    from equisr.training import train

    if t == "train":
        stripes = DatasetSpec(kind="stripes", count=8, size=96, scale_lo=2.0, scale_hi=4.0)
        run = functools.partial(train, ModelConfig(variant=variant), stripes,
                                steps=1, batch=4, patch=24)
    else:
        model = build_model(ModelConfig(variant=variant, t=int(t)), seed=0)
        img = Image(np.random.default_rng(0).random((SIDE, SIDE, 3)))
        run = functools.partial(super_resolve, model, img, SCALE)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    out = run()
    ms = (time.perf_counter() - t0) * 1e3
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"ms": ms, "rss_mb": rss / 1024, "rss_before_mb": rss_before / 1024,
                      "out": [out.h, out.w] if isinstance(out, Image) else None}))


def measure(variant: str, t) -> dict:
    cmd = [sys.executable, __file__, "--child", variant, str(t)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--t", nargs="+", type=int, default=[1, 4, 16])
    ap.add_argument("--reps", type=int, default=5, help="fresh processes per row (default 5)")
    ap.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    # the children inherit one BLAS thread; the band-thread count follows
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    from equisr.parallel import _workers

    print(f"super_resolve of a {SIDE}x{SIDE} input at scale {SCALE:g}, "
          f"{args.reps} fresh processes per row, OPENBLAS_NUM_THREADS=1, "
          f"{_workers()} band threads")
    print("variant   t   output  sr_ms_median  peak_rss_mb_median  peak_rss_mb_max  rss_before_sr_mb")
    for variant in VARIANTS:
        for t in args.t:
            runs = [measure(variant, t) for _ in range(args.reps)]
            rss = [r["rss_mb"] for r in runs]
            h_out, w_out = runs[0]["out"]
            print(f"{variant:7s} {t:3d}  {w_out:>4d}x{h_out:<4d}"
                  f"{statistics.median(r['ms'] for r in runs):12.0f}  "
                  f"{statistics.median(rss):18.0f}  {max(rss):15.0f}  "
                  f"{statistics.median(r['rss_before_mb'] for r in runs):16.0f}", flush=True)
    print(f"\none training.train step (stripes of size 96, batch 4, patch 24, default model), "
          f"{args.reps} fresh processes per row")
    print("variant  step_ms_median  peak_rss_mb_median  peak_rss_mb_max  rss_before_step_mb")
    for variant in VARIANTS:
        runs = [measure(variant, "train") for _ in range(args.reps)]
        rss = [r["rss_mb"] for r in runs]
        print(f"{variant:7s} {statistics.median(r['ms'] for r in runs):15.0f}  "
              f"{statistics.median(rss):18.0f}  {max(rss):15.0f}  "
              f"{statistics.median(r['rss_before_mb'] for r in runs):18.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
